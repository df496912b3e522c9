"""Benchmark of kgalilei: time to a correct verdict, per workload.

    python3 perfbench/run.py --workload hopf-scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each repetition is a fresh interpreter (``worker.py``), because every CLI
call pays for cold caches, and draws its own hash seed.  With ``--trace 0``
the workload is repeated, one repetition after another, until ``--seconds``
have passed (and at least twice); the end-to-end metrics are the medians
over the repetitions.  With ``--trace 1`` pairs of an untraced and a traced
repetition run until ``--seconds`` have passed (at least two pairs); the
traced ones report the per-layer metrics, their spans go to
``perfbench/out/``, and the median difference of the verdict times within a
pair is the tracing overhead.  ``--workload all`` runs every workload of
BENCHMARK.json and the ``numeric-edges`` workload.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Exit status is
0 when the benchmark ran (whatever the verdicts), 1 when a repetition could
not run, 2 when the checkout holds no kgalilei source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

#: Fixed for every repetition: BLAS stays on one thread because the loop has
#: one caller, and no bytecode is written into the checkout.
WORKER_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: The domain-edge workload (failing on known defects, so not in
#: BENCHMARK.json) that --workload all adds to the benchmark's workloads.
EDGES = "numeric-edges"
#: Repetitions of an untraced run, at the least: a slow spell of the machine
#: otherwise leaves two-particle (about 11 s a repetition) with one.
MIN_REPS = 2
#: A run ends within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A repetition could not run to the end."""


def hash_seed(seed: int, rep: int) -> int:
    """PYTHONHASHSEED of repetition ``rep`` of a run with ``seed``.

    sympy orders terms by string hash, so the hash seed can change the work
    of the exact layers; each repetition draws its own and the medians
    average over hash orders, as users' runs do.
    """
    return (seed * 1_000_003 + rep * 7_919) % 4_294_967_295 + 1


def run_worker(workload: str, seed: int, rep: int, deadline: float, trace: bool = False,
               extra: tuple = ()) -> dict:
    """One repetition in a fresh interpreter; returns the worker's JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: no time left for another repetition")
    env = {**os.environ, **WORKER_ENV, "PYTHONHASHSEED": str(hash_seed(seed, rep))}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: repetition killed after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def medians(reps: list[dict], key: str | None = None) -> dict:
    """Median over the repetitions of each metric in the workers' unit table."""
    def values(rep):
        return rep[key] if key else rep

    try:
        return {name: statistics.median(values(rep)[name] for rep in reps)
                for name in reps[0]["units"] if name in values(reps[0])}
    except KeyError as exc:
        raise BenchError(f"a repetition did not report {exc}") from exc


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, deadline: float,
            extra: tuple = ()) -> dict:
    """Untraced repetitions until ``seconds`` pass (at least MIN_REPS).

    Set-up, verdict and memory are medians over the repetitions; the item
    percentiles are taken over the items of all repetitions together, so
    that the 90th has at least ten items beyond it on every workload.
    """
    start = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(run_worker(workload, seed, len(reps), deadline, extra=extra))
    values = medians(reps)
    latency = [ms for rep in reps for ms in rep["latency_ms"]]
    values["item_ms_p50"] = statistics.median(latency)
    values["item_ms_p90"] = percentile(latency, 0.9)
    return {"reps": reps, "values": values, "units": reps[0]["units"]}


def trace(workload: str, seed: int, seconds: float, deadline: float,
          extra: tuple = ()) -> dict:
    """Pairs of an untraced and a traced repetition with the same hash seed,
    until ``seconds`` pass (at least MIN_REPS pairs).

    The per-layer metrics are medians over the traced repetitions, and the
    tracing overhead is the median over the pairs of traced minus untraced
    ``verdict_s``.  It is unresolved when it is smaller than the spread of
    the untraced verdicts, or negative: tracing only adds work, so a
    negative difference is noise.
    """
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    plain, traced, spans = [], [], []
    while len(traced) < MIN_REPS or time.monotonic() - start < seconds:
        rep = len(traced)
        plain.append(run_worker(workload, seed, rep, deadline, extra=extra))
        spans.append(OUT / f"spans-{workload}-{seed}-{rep}.jsonl")
        traced.append(run_worker(workload, seed, rep, deadline, trace=True,
                                 extra=(*extra, "--spans", str(spans[-1]))))
    values = medians(traced, "layers")
    overheads = [t["verdict_s"] - u["verdict_s"] for u, t in zip(plain, traced)]
    values["trace.overhead_s"] = statistics.median(overheads)
    untraced = [rep["verdict_s"] for rep in plain]
    return {"reps": plain + traced, "values": values, "units": traced[0]["units"],
            "spans": spans, "overheads": overheads,
            "resolved": values["trace.overhead_s"] > max(untraced) - min(untraced)}


def report(workload: str, result: dict) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    reps, units = result["reps"], result["units"]
    items = sum(rep["items"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(f"[{workload}] env {json.dumps(reps[0]['env'], sort_keys=True)}")
    for name in units:
        value = result["values"].get(name, math.nan)   # main() rejects a missing one
        if name.startswith("item_ms"):
            samples = f"{items} items of {len(reps)} runs"
        elif "spans" not in result:
            samples = f"median of {len(reps)} runs"
        elif name == "trace.overhead_s":
            samples = (f"median of {len(result['overheads'])} pairs, "
                       f"{'resolved' if result['resolved'] else 'unresolved: negative or below the spread of the untraced runs'}")
        else:
            samples = f"median of {len(result['overheads'])} traced runs"
        print(f"[{workload}] {name:32s} {value:14.6g} {units[name]:8s} ({samples})")
    walls = {name: statistics.median(rep[name] for rep in reps)
             for name in ("setup_wall_s", "verdict_wall_s")}
    print(f"[{workload}] unscaled wall time: setup {walls['setup_wall_s']:.6g} s, verdict "
          f"{walls['verdict_wall_s']:.6g} s (median of {len(reps)} runs; "
          f"{sum(rep['probe_chunks'] for rep in reps)} probe chunks)")
    print(f"[{workload}] {'fail_share':32s} {failed / items:14.6g} {'':8s} "
          f"({failed} of {items} items)")
    shown = {}
    for rep in reps:
        for failure in rep["failures"]:
            shown.setdefault(failure["item"], failure["observed"])
    for item, observed in shown.items():
        print(f"[{workload}] FAIL {item}: {observed}")
    if "spans" in result:
        print(f"[{workload}] traced minus untraced verdict_s per pair: "
              f"{', '.join(f'{d:+.4g}' for d in result['overheads'])} s")
        print(f"[{workload}] spans written to "
              f"{', '.join(str(path.relative_to(ROOT)) for path in result['spans'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N program calls of each workload (smoke check)")
    parser.add_argument("--inject-wrong", type=int, default=None, metavar="INDEX",
                        help="negate the known answer of item INDEX (smoke check)")
    args = parser.parse_args(argv)
    extra = ()
    if args.limit is not None:
        extra += ("--limit", str(args.limit))
    if args.inject_wrong is not None:
        extra += ("--inject-wrong", str(args.inject_wrong))

    if not (ROOT / "src" / "kgalilei" / "__init__.py").is_file():
        print(f"run.py: no kgalilei source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names + [EDGES] if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names) | {EDGES}:
        parser.error(f"unknown workload {args.workload!r}; choose from {names + [EDGES]} or all")

    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    correct, attempted, failed, out = True, 0, 0, {}
    try:
        for workload in workloads:
            if args.trace:
                result = trace(workload, args.seed, args.seconds, deadline, extra)
            else:
                result = measure(workload, args.seed, args.seconds, deadline, extra)
            report(workload, result)
            reps = result["reps"]
            attempted += sum(rep["items"] for rep in reps)
            failed += sum(rep["failed"] for rep in reps)
            correct = correct and all(rep["failed"] == 0 for rep in reps)
            prefix = f"{workload}:" if len(workloads) > 1 else ""
            for name, unit in result["units"].items():
                if name not in result["values"]:
                    raise BenchError(f"{workload}: metric {name} was not measured")
                out[prefix + name] = {"value": result["values"][name], "unit": unit}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
