"""One cold run of one workload, in the interpreter that runs this file.

Times set-up (importing kgalilei and building the seeded inputs) apart from
the verdict (the closed loop over the workload's program calls: each starts
when the previous one has returned).  Checks every observation against its known
answer after the loop, and prints one JSON object on stdout.

    python3 perfbench/worker.py --workload hopf-scan --seed 1 [--trace 1]

``run.py`` starts this file once per repetition; it is not meant to be
imported.
"""

from __future__ import annotations

import time

from probe import Probe

SETUP_PROBE = Probe()
SETUP_PROBE.run(10)
T0 = time.perf_counter()

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def _import_program():
    """Import kgalilei from the checkout's own source tree, nothing else."""
    if not (SOURCE / "kgalilei" / "__init__.py").is_file():
        sys.exit(f"worker: no kgalilei source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import kgalilei
    if Path(kgalilei.__file__).resolve().parent != SOURCE / "kgalilei":
        sys.exit(f"worker: imported kgalilei from {kgalilei.__file__}, not {SOURCE}")


#: A probe chunk runs every this many seconds of the closed loop.
PROBE_EVERY_S = 0.05
#: An item's latency is scaled by the chunks this close to it (about 20).
SCALE_MARGIN_S = 0.5

#: The end-to-end metrics, with their units.  ``run.py`` takes the item
#: percentiles over the ``latency_ms`` of all the run's repetitions.
UNITS = {"setup_s": "s", "verdict_s": "s", "item_ms_p50": "ms", "item_ms_p90": "ms",
         "peak_rss_mb": "MB"}


class Loop:
    """What a workload step sees of the loop: the clock and the traced item."""

    def __init__(self, probe: Probe, tracer=None):
        self.clock = probe.clock
        self.tracer = tracer

    def mark(self, item_id: str | None) -> None:
        if self.tracer is not None:
            self.tracer.item = item_id


def environment() -> dict:
    """Versions and settings that the speed of the exact layers depends on."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    blas = {}
    for module in (numpy, scipy):
        for path in sorted(glob.glob(os.path.dirname(module.__file__) + ".libs/*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    blas[os.path.basename(path)] = getattr(lib, symbol)()
                    break
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="traced run: write spans here")
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N program calls (smoke check)")
    parser.add_argument("--inject-wrong", type=int, default=None, metavar="INDEX",
                        help="negate the known answer of item INDEX (smoke check)")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    probe = Probe(workloads.PROBE_KIND.get(args.workload, "python"))
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(probe.clock)
        tracer.install()
    build, list_steps = workloads.WORKLOADS[args.workload]
    steps = list_steps(build(args.seed))
    if args.limit is not None:
        steps = steps[:args.limit]
    setup_wall_s = time.perf_counter() - T0
    SETUP_PROBE.run(10)

    # -- the closed loop: one caller, each call after the previous one -------
    loop = Loop(probe, tracer)
    probe.run()
    probe.start(PROBE_EVERY_S)
    start = probe.clock()
    items = []
    for step in steps:
        items.extend(step(loop))
    verdict_wall_s = probe.clock() - start
    probe.stop()
    probe.run()
    loop.mark(None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks against the known answers, outside the timed loop ----------
    failed = []
    layer_failed: dict[str, int] = {}
    for n, item in enumerate(items):
        verdicts = item.check(item.observed)
        if not isinstance(verdicts, dict):
            verdicts = {item.layer: bool(verdicts)}
        if n == args.inject_wrong:
            verdicts = {layer: not ok for layer, ok in verdicts.items()}
        if not all(verdicts.values()):
            failed.append({"item": item.id, "observed": repr(item.observed)[:300]})
        for layer, ok in verdicts.items():
            layer_failed[layer] = layer_failed.get(layer, 0) + (not ok)

    # each item is scaled by the machine's speed around it (see probe.py)
    latency_ms = [1000.0 * item.latency_s
                  * probe.scale_between(item.start, item.end, SCALE_MARGIN_S)
                  for item in items]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "items": len(items),
        "failed": len(failed),
        "failures": failed[:20],
        "setup_s": setup_wall_s * SETUP_PROBE.scale,
        "verdict_s": verdict_wall_s * probe.scale,
        "latency_ms": latency_ms,
        "setup_wall_s": setup_wall_s,
        "verdict_wall_s": verdict_wall_s,
        "probe_chunks": probe.chunks,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
        "units": UNITS,
    }
    if tracer is not None:
        layers = tracer.metrics()
        for name in layers:   # span times, scaled like the end-to-end times
            if name.endswith(("_s", ".s")):
                layers[name] *= probe.scale
        layers["realization.residuals"] = sum(1 for i in items if i.layer == "realization")
        for layer in ("equivalence", "hydrogen", "gridrep"):
            layers[f"{layer}.failed"] = layer_failed.get(layer, 0)
        # computed: radial_solve solves on n, 2n and 4n points (n - 1 interior each)
        n_points = workloads.hydrogen.HydrogenConfig.__dataclass_fields__["n_points"].default
        layers["hydrogen.grid_points"] = layers["hydrogen.radial_calls"] * (7 * n_points - 3)
        layers["gridrep.grid_points"] = layers["gridrep.act_calls"] * workloads.GRID_N ** 3
        result["layers"] = layers
        result["units"] = tracing.UNITS
        if args.spans:
            tracer.write(args.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
