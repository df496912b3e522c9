"""The names the benchmark reads from the program still resolve.

``perfbench/tracing.py`` patches entry points of every layer by name, and
``perfbench/worker.py`` reads the radial mesh's default size; a program
change that renames or deletes one of them would otherwise show only when
the traced benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_GUARD = """
import tracing
import workloads
from kgalilei import hydrogen
tracing.Tracer().install()
assert hydrogen.HydrogenConfig.__dataclass_fields__["n_points"].default == 30
"""


def test_benchmark_names_resolve():
    # a fresh interpreter, so that the patches touch no module of this
    # session, and one that writes no bytecode into the benchmark's directory
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _GUARD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
