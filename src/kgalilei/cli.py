"""Command-line front end.

Subcommands:

    verify hopf                         all exact Hopf-algebra residual suites
    verify realization [--perturb]      one/two-particle operator identities
    verify equivalence --mf --mfp --k   closed-form theta*, (US)^2, projectors
    mass compose|convert|reduced --k    non-additive mass arithmetic
    hydrogen spectrum --mf --mfp --k --nmax [--solver closed|radial|both]
    cocycle demo [--seed]               projective-phase extraction demo

Every subcommand emits a RunReport (text by default, ``--format json|csv``,
``--out <path>``).  Exit status: 0 if no check failed, 1 on a failed check
(with the failing residual printed; a radial solve whose grid does not
converge is the failed check ``radial-grid-convergence``, a theta* that
misses a variable ``theta-maps-all-variables``), 2 on usage errors
and on inputs outside the documented domain (a mass out of [0, k/2] or NaN,
a k, a positive mass or a reduced mass below the smallest normal float, an
algebra mass above the largest float, quantum numbers outside
0 <= l < n_max or more levels than the radial grid holds, a negative seed, a
demo grid too small or above MAX_GRID_N points per axis, an ``--out`` path
that cannot be written), reported in one line.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time

import numpy as np

from . import equivalence, gridrep, hopf, masses, realization
from .report import (RunReport, CheckResult, STATUS_EXACT, STATUS_PASS,
                     STATUS_FAIL, format_number)
from .scalars import sym

__all__ = ["main", "run"]

#: Reference numeric point used to size symbolic (exact-check) residuals.
_REFERENCE_POINT = {
    "k": 1.0,
    "lam": math.exp(-0.3),
    "lamp": math.exp(-0.4),
    "m1": 0.3,
    "m2": 0.4,
    "mf": 0.35,
}


def _weyl_residual_magnitude(expr) -> float:
    """Max coefficient magnitude of a symbolic Weyl expression at the reference point."""
    worst = 0.0
    for coeff in expr.terms.values():
        worst = max(worst, abs(complex(coeff.evaluate(_REFERENCE_POINT))))
    return worst


def _failures(items) -> tuple[list, str]:
    """The failing ``(item, residual)`` pairs, and the first one named.

    The name is the item's parts joined by commas, then that item's
    canonical residual: the ``detail`` of every exact check.
    """
    failing = [(item, residual) for item, residual in items if not residual.is_zero]
    if not failing:
        return failing, ""
    item, residual = failing[0]
    return failing, f"{', '.join(map(str, item))}: {residual!r}"


def _exact_suite_check(name: str, items) -> CheckResult:
    """One exact check over ``(item, residual)`` pairs of Weyl expressions.

    A failing check's residual is the largest coefficient magnitude at the
    reference point, and its ``detail`` names the first failing item.
    """
    failing, first = _failures(items)
    if not failing:
        return CheckResult(name, STATUS_EXACT, 0.0)
    worst = max(_weyl_residual_magnitude(residual) for _, residual in failing)
    return CheckResult(name, STATUS_FAIL, worst, first)


# ---------------------------------------------------------------------------
# verify hopf


def _exact_count_check(name: str, items) -> CheckResult:
    """One exact check over ``(item, residual)`` pairs, with the failure count as residual.

    A failing check names its first failing item (generator names) and that
    item's canonical residual in ``detail``.
    """
    failing, first = _failures(items)
    if not failing:
        return CheckResult(name, STATUS_EXACT, 0.0)
    return CheckResult(name, STATUS_FAIL, float(len(failing)), first)


def _cmd_verify_hopf(args) -> RunReport:
    report = RunReport("verify hopf", {})
    alg = hopf.GalileiHopf()
    names = hopf.GENERATOR_NAMES
    report.add(_exact_count_check("jacobi", (
        (triple, alg.check_jacobi(*triple)) for triple in itertools.product(names, repeat=3))))
    report.add(_exact_count_check("coproduct-homomorphism", (
        (pair, alg.check_hom(*pair)) for pair in itertools.product(names, repeat=2))))
    report.add(_exact_count_check("coassociativity", (
        ((g,), alg.check_coassoc(g)) for g in names)))
    report.add(_exact_count_check("hopf-axiom", (
        ((g,), alg.check_hopf_axiom(g)) for g in names)))
    report.results["generators"] = len(names)
    return report


# ---------------------------------------------------------------------------
# verify realization


def _cmd_verify_realization(args) -> RunReport:
    report = RunReport("verify realization", {"perturb": bool(args.perturb)})
    alg = hopf.GalileiHopf()
    if args.perturb:
        # intentionally break the constraint m_f = (k/2)(1 - lam^2)
        r1 = realization.OneParticleRealization(1, sym("lam"), m_f=sym("mf"), algebra=alg)
    else:
        r1 = realization.OneParticleRealization(1, sym("lam"), algebra=alg)
    report.add(_exact_suite_check("one-particle-brackets", (
        ((label,), res) for label, res in realization.verify_one_particle(r1))))

    if not args.perturb:
        system = realization.TwoParticleSystem(
            r1, realization.OneParticleRealization(2, sym("lamp"), algebra=alg))
        report.add(_exact_suite_check("composed-brackets", (
            ((label,), res) for label, res in system.verify_composed())))
        report.add(_exact_suite_check(
            "canonical-direct", realization.canonical_residuals(system).items()))
        report.add(_exact_suite_check(
            "canonical-tilde", realization.canonical_residuals(system, tilde=True).items()))
        report.add(_exact_suite_check(
            "kinetic-split", [(("H^tot - P^2/(2 M_f) - Pi^2/(2 v_f)",), system.kinetic_split())]))
    return report


# ---------------------------------------------------------------------------
# verify equivalence


def _cmd_verify_equivalence(args) -> RunReport:
    m_f, mp_f, k = args.mf, args.mfp, args.k
    report = RunReport("verify equivalence", {"mf": m_f, "mfp": mp_f, "k": k})
    try:
        theta = equivalence.find_theta(m_f, mp_f, k)
        us = equivalence.us_matrix(m_f, k)
    except equivalence.StructuralFailureError as exc:
        # theta* for the pair or for identical masses misses a variable: the
        # other checks need its map
        report.add(CheckResult("theta-maps-all-variables", STATUS_FAIL, exc.residual, str(exc)))
        return report
    report.results["theta"] = theta.theta
    report.add(CheckResult.from_residual(
        "theta-maps-all-variables", theta.residual, equivalence.THETA_TOL))
    pairing_ok = equivalence.preserves_pairing(theta.matrix, m_f, mp_f, tol=1e-10)
    report.add(CheckResult("pairing-preservation",
                           STATUS_PASS if pairing_ok else STATUS_FAIL,
                           0.0 if pairing_ok else 1.0))
    report.add(CheckResult.from_residual(
        "involution-(US)^2", equivalence.check_involution(us), 1e-10))

    grid = np.linspace(-2.0, 2.0, 21)
    p, pp = np.meshgrid(grid, grid, indexing="ij")
    f = lambda p, pp: np.exp(-(p - 0.5) ** 2 - (pp + 0.3) ** 2)
    fp, fm = equivalence.project(+1, us, f), equivalence.project(-1, us, f)
    # folded by np.max, which, unlike the builtin max, keeps a NaN and so fails
    idem = float(np.max([
        np.abs(equivalence.project(+1, us, fp)(p, pp) - fp(p, pp)).max(),
        np.abs(equivalence.project(-1, us, fm)(p, pp) - fm(p, pp)).max(),
    ]))
    report.add(CheckResult.from_residual("projector-idempotence", idem, 1e-8))
    comp = float(np.abs(fp(p, pp) + fm(p, pp) - f(p, pp)).max())
    report.add(CheckResult.from_residual("projector-complementarity", comp, 1e-8))

    # US keeps the total variables and flips the relative ones (tilde set);
    # relative to max(1, largest |coefficient|) as in find_theta, since
    # rho's coefficients are 1/m_f
    tilde = equivalence.variable_vectors(m_f, m_f, k)[1]
    signs = (("P", +1), ("R", +1), ("Pi", -1), ("rho", -1))
    scale = float(np.max([1.0, *(np.abs(tilde[name]).max() for name, _ in signs)]))
    flip = float(np.max([np.abs(us @ tilde[name] - sign * tilde[name]).max()
                         for name, sign in signs]))
    report.add(CheckResult.from_residual("us-reverses-relative-sign", flip / scale, 1e-10))
    return report


# ---------------------------------------------------------------------------
# mass arithmetic


def _cmd_mass_compose(args) -> RunReport:
    k = args.k
    values = args.masses
    report = RunReport("mass compose", {"k": k, "masses": list(values)})
    total = masses.compose_many(values, k)
    report.results["M_f"] = float(total)
    # each fold and each change of coordinate rounds by a few eps k (eps M_f
    # at k = inf), also near the bound k/2
    tol = 4 * len(values) * sys.float_info.epsilon * (k if math.isfinite(k) else total)
    algebra_values = []
    at_bound = any(math.isfinite(k) and m >= k / 2 for m in values)
    if not at_bound:
        algebra_values = [masses.to_algebra(m, k) for m in values]
        for idx, m in enumerate(algebra_values, start=1):
            report.results[f"m_algebra_{idx}"] = m
        # the total is "inf" where it exceeds the largest float, at k above about 1e307
        report.results["M_algebra"] = algebra_total = sum(algebra_values)
        if math.isfinite(k):
            # summed in units of k/2, which cannot overflow; to_physical at
            # k = 2 maps units back to the fraction 1 - e^(-2m/k) of k/2
            units = sum(masses.algebra_units(m, k) for m in values)
            composed = (k / 2) * masses.to_physical(units, 2.0)
        elif algebra_total == math.inf:
            raise masses.MassDomainError(
                f"the algebra mass total exceeds the largest float {sys.float_info.max}")
        else:
            composed = algebra_total
        # compared as physical masses, where both sides are well conditioned
        gap = abs(composed - total)
        report.add(CheckResult.from_residual("algebra-additivity", gap, tol))
    else:
        report.results["note"] = "infinite-mass fixed point: no finite algebra coordinate"
        report.add(CheckResult.from_residual("fixed-point", abs(total - k / 2), tol))
    return report


def _cmd_mass_convert(args) -> RunReport:
    k = args.k
    report = RunReport("mass convert", {"k": k, "to": args.to, "masses": list(args.masses)})
    gaps = []
    for idx, m in enumerate(args.masses, start=1):
        if args.to == "physical":
            out = masses.to_physical(m, k)
            back = masses.to_algebra(out, k)
        else:
            out = masses.to_algebra(m, k)
            back = masses.to_physical(out, k)
        report.results[f"value_{idx}"] = out
        gaps.append(abs(back - m) / max(abs(m), 1.0))
    report.add(CheckResult.from_residual("round-trip", float(np.max(gaps)), 1e-12))
    return report


def _cmd_mass_reduced(args) -> RunReport:
    k = args.k
    m_f, mp_f = args.masses
    report = RunReport("mass reduced", {"k": k, "masses": [m_f, mp_f]})
    v_f = masses.reduced(m_f, mp_f, k)
    v = masses.classical_reduced(m_f, mp_f)
    report.results["v_f"] = v_f
    report.results["v_classical"] = v
    if math.isfinite(k):
        expected = v / (1.0 - 2.0 * v / k)
        report.results["first_order_coefficient"] = 2.0 * v / k
    else:
        expected = v
        report.results["first_order_coefficient"] = 0.0
    # relative, except at v_f = 0 (a massless particle), where it is absolute
    gap = abs(v_f - expected)
    report.add(CheckResult.from_residual(
        "ratio-identity", gap / abs(expected) if expected else gap, 1e-12))
    return report


# ---------------------------------------------------------------------------
# hydrogen spectrum


def _cmd_hydrogen_spectrum(args) -> RunReport:
    # the one handler that needs scipy, through hydrogen: imported only here
    from . import hydrogen

    cfg = hydrogen.HydrogenConfig(m_f=args.mf, mp_f=args.mfp, k=args.k,
                                  n_max=args.nmax, l=args.l)
    report = RunReport("hydrogen spectrum",
                       {"mf": args.mf, "mfp": args.mfp, "k": args.k,
                        "nmax": args.nmax, "l": args.l, "solver": args.solver})
    report.results["v_f"] = cfg.v_f
    closed = hydrogen.bohr_levels(cfg) if args.solver in ("closed", "both") else None
    radial = unsolved = None
    if args.solver in ("radial", "both"):
        try:
            radial = hydrogen.radial_solve(cfg)
        except hydrogen.GridConvergenceError as exc:
            unsolved = exc
    rows = []
    for i in range(cfg.n_max - cfg.l):
        n = cfg.l + 1 + i
        e_closed = closed[n - 1] if closed is not None else None
        e_radial = radial[i] if radial is not None else None
        rel = (abs(e_radial - e_closed) / abs(e_closed)
               if closed is not None and radial is not None else None)
        rows.append([n, cfg.l, e_closed, e_radial, rel])
        level = e_radial if closed is None else e_closed
        if level is not None:
            report.results[f"E_{n}"] = level
    report.results["rows"] = rows
    if unsolved is not None:
        # the residual counts the requested levels the radial solver left unsolved
        report.add(CheckResult("radial-grid-convergence", STATUS_FAIL,
                               float(cfg.n_max - cfg.l), str(unsolved)))
    elif closed is not None and radial is not None:
        worst = float(np.max([r[4] for r in rows]))
        report.add(CheckResult.from_residual("radial-vs-closed", worst, 1e-6))
    else:
        report.add(CheckResult(f"{args.solver}-solver-completed", STATUS_PASS, 0.0))
    return report


def _spectrum_csv(report: RunReport) -> str:
    lines = ["n,l,E_closed,E_radial,rel_err"]
    for n, l, e_closed, e_radial, rel in report.results["rows"]:
        cells = [str(int(n)), str(int(l))]
        cells += ["" if v is None else format_number(v) for v in (e_closed, e_radial, rel)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cocycle demo


def _worst_over_draws(name: str, tol: float, item: str, count: int, mismatch):
    """The check over ``count`` draws of ``mismatch()``, and the worst mismatch.

    A draw whose composition ratio is not grid-constant has no cocycle angle:
    it fails the check, named by its index and spread, and ends the draws.
    The worst is taken by np.max, so a NaN mismatch is the worst and fails.
    """
    draws, failure = [], None
    for idx in range(count):
        try:
            draws.append(mismatch())
        except gridrep.ProjectivityError as exc:
            failure = CheckResult(name, STATUS_FAIL, exc.spread, f"{item} {idx}: {exc}")
            break
    worst = float(np.max(draws, initial=0.0))
    return failure or CheckResult.from_residual(name, worst, tol), worst


def _cmd_cocycle_demo(args) -> RunReport:
    report = RunReport("cocycle demo",
                       {"seed": args.seed, "pairs": args.pairs, "n": args.n})
    rng = np.random.default_rng(args.seed)
    psi = gridrep.gaussian_packet(n=args.n)

    def closed_form_mismatch() -> float:
        g, gp = gridrep.random_in_grid_tuple(rng, psi, 2)
        angle = gridrep.cocycle_angle(g, gp, psi)
        expected = gridrep.expected_cocycle_angle(g, gp, psi.m_f)
        return gridrep.angle_difference(angle, expected)

    def identity_mismatch() -> float:
        g1, g2, g3 = gridrep.random_in_grid_tuple(rng, psi, 3, max_cells=1)
        lhs = (gridrep.cocycle_angle(g1, g2, psi)
               + gridrep.cocycle_angle(gridrep.galilei_multiply(g1, g2), g3, psi))
        rhs = (gridrep.cocycle_angle(g2, g3, psi)
               + gridrep.cocycle_angle(g1, gridrep.galilei_multiply(g2, g3), psi))
        return gridrep.angle_difference(lhs, rhs)

    check, worst_match = _worst_over_draws(
        "cocycle-closed-form", 1e-8, "pair", args.pairs, closed_form_mismatch)
    report.add(check)
    check, worst_identity = _worst_over_draws(
        "cocycle-identity", 1e-7, "triple", max(args.pairs // 3, 1), identity_mismatch)
    report.add(check)
    report.results["worst_closed_form_mismatch"] = worst_match
    report.results["worst_identity_mismatch"] = worst_identity
    return report


# ---------------------------------------------------------------------------
# plumbing


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--out", default=None, help="write the report to this path")


#: Largest ``cocycle demo --n``: the demo holds a few complex n^3 grids at
#: once, about 169 MB at its peak (``ru_maxrss``) for n = 128.
MAX_GRID_N = 128


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def grid_size(text: str) -> int:
    value = positive_int(text)
    if value > MAX_GRID_N:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_GRID_N}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgalilei",
        description="Verification suites for the deformed Galilei group G_k.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("hopf", help="exact Hopf-algebra residual suites")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify_hopf)

    p = vsub.add_parser("realization", help="operator-realization identities")
    p.add_argument("--perturb", action="store_true",
                   help="break the mass constraint on purpose (must exit 1)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify_realization)

    p = vsub.add_parser("equivalence", help="theta*, (US)^2, projectors")
    p.add_argument("--mf", type=float, required=True)
    p.add_argument("--mfp", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify_equivalence)

    mass = sub.add_parser("mass", help="non-additive mass arithmetic")
    msub = mass.add_subparsers(dest="op", required=True)

    p = msub.add_parser("compose", help="compose physical masses")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("masses", type=float, nargs="+")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_mass_compose)

    p = msub.add_parser("convert", help="convert between mass coordinates")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--to", choices=("physical", "algebra"), default="physical")
    p.add_argument("masses", type=float, nargs="+")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_mass_convert)

    p = msub.add_parser("reduced", help="deformed reduced mass of a pair")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("masses", type=float, nargs=2)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_mass_reduced)

    hyd = sub.add_parser("hydrogen", help="deformed hydrogen spectrum")
    hsub = hyd.add_subparsers(dest="op", required=True)
    p = hsub.add_parser("spectrum")
    p.add_argument("--mf", type=float, required=True)
    p.add_argument("--mfp", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--solver", choices=("closed", "radial", "both"), default="both")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_hydrogen_spectrum)

    coc = sub.add_parser("cocycle", help="projective-phase extraction")
    csub = coc.add_subparsers(dest="op", required=True)
    p = csub.add_parser("demo")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--pairs", type=positive_int, default=10)
    p.add_argument("--n", type=grid_size, default=32, help="grid points per axis")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_cocycle_demo)

    return parser


def _render(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        if report.command == "hydrogen spectrum":
            return _spectrum_csv(report)
        return report.to_csv()
    return report.to_text()


def _domain_errors() -> tuple:
    """The exceptions reported as one-line usage errors (exit 2).

    Evaluated only when a handler raises.  ``hydrogen`` is loaded by its own
    handler alone, so its error is looked up, not imported.
    """
    hydrogen = sys.modules.get(f"{__package__}.hydrogen")
    loaded = (hydrogen.HydrogenDomainError,) if hydrogen is not None else ()
    return (masses.MassDomainError, gridrep.OutOfGridError, *loaded)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.handler(args)
    except _domain_errors() as exc:
        print(f"kgalilei: error: {exc}", file=sys.stderr)
        return 2
    report.wall_ms = (time.perf_counter() - start) * 1000.0
    text = _render(report, args.format)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"kgalilei: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    for check in report.failed:
        detail = f" ({check.detail})" if check.detail else ""
        print(f"FAIL {check.name}: residual = {format_number(check.residual)}{detail}",
              file=sys.stderr)
    return report.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
