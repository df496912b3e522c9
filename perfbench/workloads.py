"""Workload definitions: seeded inputs, the program calls, and known answers.

A workload is built in two steps (see ``WORKLOADS``): one function makes
the inputs from the seed (the part timed as set-up), the other lists the
steps of the closed loop.  A step is one call of a public ``kgalilei`` entry
point: the ``verify hopf`` command, a realization suite that returns its
residuals, or one numeric call.  Running a step yields its check items,
each with a latency, an observation and a check that compares the
observation with a known answer after the timed loop.  Known answers never
come from the code under test: they are "zero", closed forms evaluated here
with plain sympy or ``math``, or the named domain error where a quantity is
undefined.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import sympy as sp

from kgalilei import cli, equivalence, gridrep, hopf, hydrogen, masses, realization, weyl
from kgalilei.scalars import sym

#: The generators whose brackets the realization suites cover (all but Einv).
CHECKED = tuple(g for g in hopf.GENERATOR_NAMES if g != "Einv")
#: The bracket labels a realization suite returns, one per unordered pair.
BRACKETS = tuple(f"[{g},{h}]" for n, g in enumerate(CHECKED) for h in CHECKED[n + 1:])
#: The canonical pairings of the direct variable set, keyed as the program keys them.
PAIRINGS = tuple((a, b, i, j) for a in ("P", "R", "Pi", "rho") for b in ("P", "R", "Pi", "rho")
                 for i in (1, 2, 3) for j in (1, 2, 3))
#: The check methods that ``verify hopf`` calls, and the checks its report holds.
HOPF_CHECKS = ("check_jacobi", "check_hom", "check_coassoc", "check_hopf_axiom")
HOPF_REPORT = {"jacobi", "coproduct-homomorphism", "coassociativity", "hopf-axiom"}

#: Probe chunk kind per workload (see probe.py); the rest use "python".
PROBE_KIND = {"numeric": "numeric", "numeric-edges": "numeric"}

#: Sizes of the numeric workloads: the seed draws every input, and the
#: item percentiles spread less from seed to seed with more of them.
COCYCLE_PAIRS = 60
SWEEP_POINTS = 80
GRID_N = 32

_IDENTITY = ((0,) * weyl.N_SLOTS, (0,) * weyl.N_SLOTS)
_K, _LAM, _LAMP, _MF = sp.symbols("k lam lamp mf")


@dataclass
class Item:
    """One check item as the loop saw it; ``check`` runs after the loop.

    ``check`` returns whether the observation matches the known answer, or,
    for an item that spans layers, a dict of that verdict per layer.
    """

    id: str
    layer: str
    latency_s: float
    observed: Any
    check: Callable[[Any], bool | dict[str, bool]]
    #: Where the item's time was spent, on the loop's clock.
    start: float = 0.0
    end: float = 0.0


#: One program call of the closed loop: ``step(loop)`` returns its items.
#: ``loop`` gives ``clock()`` (seconds, with the speed probe's time taken out)
#: and ``mark(item_id)`` (names the item the traced spans belong to).
Step = Callable[[Any], list[Item]]


@dataclass(frozen=True)
class Raised:
    """Observation of a program call that raised."""

    error: type
    message: str


#: Observation of a residual that the program's suite did not return.
MISSING = "missing from the program's result"


def attempt(call: Callable[[], Any]):
    """The call's result, or the exception it raised as a ``Raised``."""
    try:
        return call()
    except Exception as exc:  # judged by the item's check, after the loop
        return Raised(type(exc), repr(exc))


def expect_zero(observed) -> bool:
    """Check of a residual item whose observation is ``residual.is_zero``."""
    return observed is True


def is_zero(residual) -> bool:
    return residual.is_zero


def single(item_id: str, layer: str, call: Callable[[], Any], check) -> Step:
    """A step of one program call that makes one item."""
    def run(loop) -> list[Item]:
        loop.mark(item_id)
        start = loop.clock()
        observed = attempt(call)
        end = loop.clock()
        return [Item(item_id, layer, end - start, observed, check, start, end)]

    return run


def suite(label: str, layer: str, produce: Callable[[], Any], expected: tuple,
          judge: Callable[[Any], Any], check_for: Callable[[Any], Callable],
          name: Callable[[Any], str] = str) -> Step:
    """A step of one program call that returns many residuals, keyed.

    There is one item per residual, and the keys to expect are listed here,
    not taken from the program.  An item's latency is its share of the
    producing call (the call's time over the expected count) plus the time
    that ``judge`` (``is_zero``, or the sizing of a nonzero residual) takes on
    that residual.  A residual the program leaves out, or one it adds, is a
    failed item.
    """
    known = set(expected)

    def run(loop) -> list[Item]:
        loop.mark(label)
        begin = loop.clock()
        out = attempt(lambda: dict(produce()))
        share = (loop.clock() - begin) / len(expected)
        keys = list(expected)
        if not isinstance(out, Raised):
            keys += [key for key in out if key not in known]
        items = []
        for key in keys:
            item_id = f"{label}{name(key)}"
            loop.mark(item_id)
            start = loop.clock()
            if isinstance(out, Raised):
                observed = out
            elif key not in out:
                observed = MISSING
            else:
                observed = attempt(lambda: judge(out[key]))
            check = check_for(key) if key in known else (lambda observed: False)
            end = loop.clock()
            items.append(Item(item_id, layer, share + end - start, observed, check, begin, end))
        return items

    return run


# ---------------------------------------------------------------------------
# hopf-scan: `kgalilei verify hopf`, run through the CLI entry point.


def _build_hopf(seed: int) -> dict:
    return {}


def _report_holds(observed) -> bool:
    """The report of ``verify hopf``: exit 0, and each suite an exact pass."""
    if isinstance(observed, Raised):
        return False
    code, text = observed
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError):
        return False
    return (code == 0 and {c["name"] for c in checks} == HOPF_REPORT
            and all(c["status"] == "exact-pass" and c["residual"] == 0 for c in checks))


def _zero_residual(observed) -> bool:
    return not isinstance(observed, (Raised, str)) and observed.is_zero is True


def _scan_hopf(loop) -> list[Item]:
    """Run ``verify hopf`` and observe the check calls it makes.

    The check methods are wrapped only to note when each call starts and
    what it returns.  An item runs from the start of one check call to the
    start of the next (the last one to the end of the command), so it holds
    the command's own verdict on that residual.  The report is one more item:
    the time before the first check call, and the command's exit status and
    suites as observation.
    """
    calls = []   # [item id, start, residual]
    saved = {name: getattr(hopf.GalileiHopf, name) for name in HOPF_CHECKS}

    def observe(name: str, method):
        def call(alg, *args):
            item_id = f"{name[len('check_'):]}[{','.join(args)}]"
            loop.mark(item_id)
            record = [item_id, loop.clock(), MISSING]
            calls.append(record)
            record[2] = method(alg, *args)
            return record[2]
        return call

    for name, method in saved.items():
        setattr(hopf.GalileiHopf, name, observe(name, method))
    text = io.StringIO()
    try:
        loop.mark("verify-hopf")
        begin = loop.clock()
        with contextlib.redirect_stdout(text):
            code = attempt(lambda: cli.run(["verify", "hopf", "--format", "json"]))
        end = loop.clock()
    finally:
        for name, method in saved.items():
            setattr(hopf.GalileiHopf, name, method)
    report = code if isinstance(code, Raised) else (code, text.getvalue())
    first = calls[0][1] if calls else end
    items = [Item("verify-hopf[report]", "hopf", first - begin, report, _report_holds,
                  begin, first)]
    stops = [record[1] for record in calls[1:]] + [end]
    for (item_id, start, residual), stop in zip(calls, stops):
        items.append(Item(item_id, "hopf", stop - start, residual, _zero_residual, start, stop))
    return items


def _steps_hopf(inputs: dict) -> list[Step]:
    return [_scan_hopf]


# ---------------------------------------------------------------------------
# two-particle: the constraint-satisfying system; every residual vanishes.


def _build_two_particle(seed: int) -> dict:
    return {"system": realization.default_system()}


def _pairing_name(key: tuple) -> str:
    a, b, i, j = key
    return f"[{a}{i},{b}{j}]"


def _steps_two_particle(inputs: dict) -> list[Step]:
    system = inputs["system"]
    return [
        suite("composed", "realization", lambda: system.verify_composed(), BRACKETS, is_zero,
              lambda key: expect_zero),
        suite("pairing", "realization", lambda: realization.canonical_residuals(system),
              PAIRINGS, is_zero, lambda key: expect_zero, _pairing_name),
        single("kinetic-split", "realization", lambda: system.kinetic_split().is_zero,
               expect_zero),
    ]


# ---------------------------------------------------------------------------
# refute: free m_f breaks the mass constraint; exactly the [K_i,P_i]
# residuals survive, with a known closed form, sized at a seeded point.


def _build_refute(seed: int) -> dict:
    rng = random.Random(seed)
    alg = hopf.GalileiHopf()
    r1 = realization.OneParticleRealization(1, sym("lam"), m_f=sym("mf"), algebra=alg)
    r2 = realization.OneParticleRealization(2, sym("lamp"), algebra=alg)
    k = rng.uniform(0.5, 4.0)
    point = {"k": k, "lam": rng.uniform(0.1, 0.95), "lamp": rng.uniform(0.1, 0.95),
             "mf": rng.uniform(0.05, 0.45) * k, "m1": rng.uniform(0.1, 2.0),
             "m2": rng.uniform(0.1, 2.0)}
    return {"r1": r1, "system": realization.TwoParticleSystem(r1, r2), "point": point}


def _sized(point: dict):
    """Judge of a refutation residual: zero, or each term and its size."""
    def judge(residual):
        if residual.is_zero:
            return True
        return {mono: (coeff.expr, coeff.evaluate(point))
                for mono, coeff in residual.terms.items()}
    return judge


def _matches_closed_form(expected: sp.Expr, point: dict) -> Callable[[Any], bool]:
    expected_value = complex(expected.subs({sp.Symbol(n): v for n, v in point.items()}))

    def check(observed) -> bool:
        if not isinstance(observed, dict) or set(observed) != {_IDENTITY}:
            return False
        expr, value = observed[_IDENTITY]
        exact = sp.cancel(sp.together(expr - expected)) == 0
        close = abs(complex(value) - expected_value) <= 1e-9 * max(1.0, abs(expected_value))
        return exact and close

    return check


def _steps_refute(inputs: dict) -> list[Step]:
    r1, system, point = inputs["r1"], inputs["system"], inputs["point"]
    gap = _MF - (_K / 2) * (1 - _LAM ** 2)
    one_particle = sp.I * gap            # i (m_f - (k/2)(1 - lam^2))
    composed = sp.I * _LAMP ** 2 * gap   # particle 1 carries the twist lam'
    nonzero = {f"[K{i},P{i}]" for i in (1, 2, 3)}

    def check_for(expected_kp: sp.Expr):
        closed_form = _matches_closed_form(expected_kp, point)
        return lambda key: closed_form if key in nonzero else expect_zero

    return [
        suite("one", "realization", lambda: realization.verify_one_particle(r1), BRACKETS,
              _sized(point), check_for(one_particle)),
        suite("composed", "realization", lambda: system.verify_composed(), BRACKETS,
              _sized(point), check_for(composed)),
    ]


# ---------------------------------------------------------------------------
# numeric: cocycle pairs on the n = 32 grid, interleaved with a sweep over
# the documented domain 0 <= m_f <= k/2, k in (0, inf].

#: Edge kinds drawn in rotation on every other point of ``numeric-edges``.
EDGE_KINDS = ("mf-tiny", "mf-half", "mf-below-half", "k-inf", "nmax-high", "mf-zero")


def _draw_point(rng: random.Random, n: int, edge: str | None) -> dict:
    k = math.inf if edge == "k-inf" else rng.uniform(0.5, 4.0)
    scale = 2.0 if edge == "k-inf" else k
    m_f = rng.uniform(0.05, 0.45) * scale
    mp_f = rng.uniform(0.05, 0.45) * scale
    n_max = 1 + n % 4   # in rotation, so every seed solves for the same level count
    if edge == "mf-tiny":
        m_f = 1e-9 * k
    elif edge == "mf-half":
        m_f = k / 2
    elif edge == "mf-below-half":
        m_f = k / 2 * (1.0 - 2e-7)
    elif edge == "mf-zero":
        m_f = 0.0
    elif edge == "nmax-high":
        n_max = rng.randint(6, 12)
    return {"m_f": m_f, "mp_f": mp_f, "k": k, "n_max": n_max, "edge": edge or "interior"}


def _build_numeric(seed: int, edges: bool) -> dict:
    rng = random.Random(seed)
    points = []
    for n in range(SWEEP_POINTS):
        edge = EDGE_KINDS[(n // 2) % len(EDGE_KINDS)] if edges and n % 2 else None
        points.append(_draw_point(rng, n, edge))
    return {"psi": gridrep.gaussian_packet(n=GRID_N), "rng": np.random.default_rng(seed),
            "points": points}


def _lam(m_f: float, k: float) -> float:
    return 1.0 if math.isinf(k) else math.sqrt(1.0 - 2.0 * m_f / k)


def expected_theta(m_f: float, mp_f: float, k: float) -> float:
    """theta* = atan2(omega sigma, c) / omega from the exact adjoint block."""
    lam, lamp = _lam(m_f, k), _lam(mp_f, k)
    omega = math.sqrt(m_f * mp_f)
    c = (lam + lamp) / (1.0 + lam * lamp)
    sigma = 0.0 if math.isinf(k) else -2.0 / (k * (1.0 + lam * lamp))
    return math.atan2(omega * sigma, c) / omega


def expected_composed(m_f: float, mp_f: float, k: float) -> float:
    """to_physical(to_algebra(a) + to_algebra(b)), written out in closed form."""
    if math.isinf(k):
        return m_f + mp_f
    # e^(-2 m / k) of the algebra mass m of m_f is 1 - 2 m_f / k (0 at k/2)
    return (k / 2.0) * (1.0 - (1.0 - 2.0 * m_f / k) * (1.0 - 2.0 * mp_f / k))


def expected_levels(m_f: float, mp_f: float, k: float, n_max: int) -> list[float]:
    total = m_f + mp_f if math.isinf(k) else m_f + mp_f - 2.0 * m_f * mp_f / k
    v_f = m_f * mp_f / total
    return [-v_f / (2.0 * n * n) for n in range(1, n_max + 1)]


def expected_cocycle(g, gp, m_f: float) -> float:
    """The Galilei 2-cocycle m_f (v^2 tau' / 2 + v . R a')."""
    v = np.asarray(g.v, dtype=float)
    return m_f * (0.5 * float(v @ v) * gp.tau + float(v @ (np.asarray(g.R) @ gp.a)))


def _angle_gap(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _rel_close(observed, expected: float, tol: float) -> bool:
    return (isinstance(observed, float) and math.isfinite(observed)
            and abs(observed - expected) <= tol * max(abs(expected), 1e-300))


def _point_step(n: int, p: dict) -> Step:
    """One sweep point: theta*, the radial solve and the composed mass."""
    m_f, mp_f, k, n_max = p["m_f"], p["mp_f"], p["k"], p["n_max"]
    undefined = m_f == 0.0   # theta* and the Bohr levels need v_f > 0

    def run() -> dict:
        cfg = lambda: hydrogen.HydrogenConfig(m_f=m_f, mp_f=mp_f, k=k, n_max=n_max)
        return {
            "equivalence": attempt(lambda: float(equivalence.find_theta(m_f, mp_f, k).theta)),
            "hydrogen": attempt(lambda: [float(e) for e in hydrogen.radial_solve(cfg())]),
            "masses": attempt(lambda: float(masses.compose(m_f, mp_f, k))),
        }

    want_mass = expected_composed(m_f, mp_f, k)
    if not undefined:
        want_theta = expected_theta(m_f, mp_f, k)
        want_levels = expected_levels(m_f, mp_f, k, n_max)

    def check(observed: dict) -> dict[str, bool]:
        theta, levels = observed["equivalence"], observed["hydrogen"]
        if undefined:
            ok_theta = isinstance(theta, Raised) and issubclass(theta.error, masses.MassDomainError)
            ok_levels = isinstance(levels, Raised) and issubclass(levels.error, masses.MassDomainError)
        else:
            ok_theta = (isinstance(theta, float)
                        and abs(theta - want_theta) <= 1e-8 * max(1.0, abs(want_theta)))
            ok_levels = (isinstance(levels, list) and len(levels) == n_max
                         and all(_rel_close(o, w, 1e-6) for o, w in zip(levels, want_levels)))
        return {"equivalence": ok_theta, "hydrogen": ok_levels,
                "masses": _rel_close(observed["masses"], want_mass, 1e-12)}

    return single(f"point[{n}:{p['edge']}]", "sweep", run, check)


def _steps_numeric(inputs: dict) -> list[Step]:
    psi, rng = inputs["psi"], inputs["rng"]

    def cocycle():
        g, gp = gridrep.random_in_grid_tuple(rng, psi, 2)
        return g, gp, gridrep.cocycle_angle(g, gp, psi)

    def check_cocycle(observed) -> bool:
        if isinstance(observed, Raised):
            return False
        g, gp, angle = observed
        return _angle_gap(angle, expected_cocycle(g, gp, psi.m_f)) <= 1e-8

    out = []
    for n in range(max(COCYCLE_PAIRS, SWEEP_POINTS)):
        if n < COCYCLE_PAIRS:
            out.append(single(f"cocycle[{n}]", "gridrep", cocycle, check_cocycle))
        if n < SWEEP_POINTS:
            out.append(_point_step(n, inputs["points"][n]))
    return out


# ---------------------------------------------------------------------------

#: name -> (make the inputs from the seed: the timed set-up,
#:          list the steps in the order the closed loop runs them)
WORKLOADS = {
    "hopf-scan": (_build_hopf, _steps_hopf),
    "two-particle": (_build_two_particle, _steps_two_particle),
    "refute": (_build_refute, _steps_refute),
    "numeric": (lambda seed: _build_numeric(seed, edges=False), _steps_numeric),
    "numeric-edges": (lambda seed: _build_numeric(seed, edges=True), _steps_numeric),
}
