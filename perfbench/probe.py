"""Speed probe: fixed pieces of work, timed while the checks run.

The shared 2-core machines this benchmark runs on change speed by up to 1.7x
within a minute, and process CPU time follows wall time, so neither separates
the program's cost from the machine's.  The probe does: it runs the same
work interleaved with the program's calls (from a wall-clock timer signal,
so it needs no hook in the program), and a time multiplied by ``scale`` is
the time the same work would take on a machine where one chunk takes its
nominal time.  Two kinds of chunk match the two kinds of workload: "python"
(dict, tuple and Fraction arithmetic, the object churn of sympy) and
"numeric" (a grid resample, array arithmetic and a LAPACK tridiagonal
solve).  The probe touches no sympy or kgalilei state, so it leaves their
caches cold.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction


def python_chunk() -> Fraction:
    """One unit of pure-Python work (about 2 ms)."""
    table: dict = {}
    total = Fraction(0)
    for i in range(1, 3001):
        key = (i % 997, i % 13, "x" * (i % 5))
        table[key] = table.get(key, 0) + (i * 3) // 7
        if i % 20 == 0:
            total += Fraction(i % 91 + 1, i % 37 + 2)
    return total


def numeric_chunk() -> float:
    """One unit of the numeric layers' kind of work (about 10 ms): a trilinear
    resample of a 32^3 grid, complex array arithmetic, and a few eigenvalues
    of a tridiagonal matrix."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal
    from scipy.ndimage import map_coordinates

    grid = np.cos(np.arange(32768.0)).reshape(32, 32, 32)
    axis = np.arange(32.0) * 0.98 + 0.2
    moved = map_coordinates(grid, np.meshgrid(axis, axis, axis, indexing="ij"), order=1)
    density = np.abs(np.exp(1j * moved) * grid) ** 2
    diag = 2.0 + np.sin(np.arange(3000.0))
    eigh_tridiagonal(diag, np.full(2999, -1.0), select="i", select_range=(0, 3),
                     eigvals_only=True)
    return float(density.sum())


#: Chunk functions and the chunk times that define the nominal machine
#: (measured 1.6-3.0 ms and 9-12 ms on a shared 2-core x86-64 VM).
CHUNKS = {"python": (python_chunk, 0.002), "numeric": (numeric_chunk, 0.010)}


class Probe:
    """Accumulates probe chunks; ``scale`` is nominal over measured chunk time."""

    def __init__(self, kind: str = "python"):
        self.chunk, self.nominal_s = CHUNKS[kind]
        self.seconds = 0.0
        self.chunks = 0
        #: One entry per run: its place on ``clock``, chunk count and seconds.
        self.at: list[float] = []
        self.log: list[tuple[int, float]] = []

    def run(self, count: int = 1) -> None:
        """Run ``count`` chunks and add up the wall time they take.

        The cyclic garbage collector is off meanwhile: its passes cost in
        proportion to the program's live heap, which would make the probe
        read a bigger heap (a traced run, a warm cache) as a slower machine.
        The chunks make no reference cycles, so nothing waits for it.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(count):
                self.chunk()
            spent = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.at.append(start - self.seconds)
        self.log.append((count, spent))
        self.seconds += spent
        self.chunks += count

    def start(self, every_s: float) -> None:
        """Run one chunk every ``every_s`` seconds of wall time until ``stop``.

        The chunk runs in the SIGALRM handler, that is between two bytecodes
        of whatever the program is doing; ``clock`` takes its time out.
        """
        signal.signal(signal.SIGALRM, lambda signum, frame: self.run())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Wall time less the time spent in chunks, in seconds.

        Read again if a chunk ran between the two reads, so a chunk is
        either wholly in the reading or wholly out of it.
        """
        while True:
            spent = self.seconds
            now = time.perf_counter()
            if spent == self.seconds:
                return now - spent

    @property
    def scale(self) -> float:
        return self.nominal_s * self.chunks / self.seconds

    def scale_between(self, start: float, end: float, margin: float) -> float:
        """``scale`` from the chunks run between ``start - margin`` and
        ``end + margin`` on ``clock``: the machine's speed around one item,
        which can differ from its speed over the whole run.  Falls back to
        ``scale`` when no chunk ran there."""
        lo = bisect.bisect_left(self.at, start - margin)
        hi = bisect.bisect_right(self.at, end + margin)
        if lo >= hi:
            return self.scale
        chunks = sum(count for count, _ in self.log[lo:hi])
        return self.nominal_s * chunks / sum(spent for _, spent in self.log[lo:hi])
