"""Smoke check of the benchmark itself, at minimal size (about two minutes).

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json it runs ``run.py`` on the first
program call of the workload, untraced and traced.  It fails if the metrics
the run reports (named, with their units, by the worker's and the tracer's
own tables) differ from those BENCHMARK.json lists, in name or in unit, or
if the run does not end with a result.  It then negates one known answer
inside the benchmark's own check (the program is untouched) and fails unless
that item is counted as failed, in ``failed`` and in ``fail_share``.  Exit
status 0 means every check held.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Program calls run per workload.
LIMIT = 1


def run(workload: str, trace: int, *extra: str) -> tuple[dict | None, str]:
    """The JSON result of one run (None if it ended without one) and its output."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--limit", str(LIMIT), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return None, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, text = run(workload, trace)
            if result is None:
                problems.append(f"{workload} --trace {trace}: no result: {text[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            for name in sorted(want.keys() - got.keys()):
                problems.append(f"{workload}: metric {name} missing")
            for name in sorted(got.keys() - want.keys()):
                problems.append(f"{workload}: metric {name} not in BENCHMARK.json")
            for name in sorted(n for n in want.keys() & got.keys() if want[n] != got[n]):
                problems.append(f"{workload}: metric {name} in {got[name]}, "
                                f"BENCHMARK.json says {want[name]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: the first {LIMIT} calls failed: {result}")
        result, text = run(workload, 0, "--inject-wrong", "0")
        share = re.search(r"fail_share\s+(\S+)", text)
        if (result is None or result["correct"] or result["failed"] < 1 or share is None
                or not math.isclose(float(share.group(1)),
                                    result["failed"] / result["attempted"], rel_tol=1e-5)):
            problems.append(f"{workload}: an injected wrong answer was not counted: {text[-2000:]}")
        print(f"smoke: {workload} checked", flush=True)
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
