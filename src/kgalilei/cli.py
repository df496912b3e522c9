"""Command-line front end.

Subcommands:

    verify hopf                         all exact Hopf-algebra residual suites
    verify realization [--perturb]      one/two-particle operator identities
    verify equivalence --mf --mfp --k   closed-form theta*, (US)^2, projectors
    mass compose|convert|reduced --k    non-additive mass arithmetic
    hydrogen spectrum --mf --mfp --k --nmax [--solver closed|radial|both]
    cocycle demo [--seed]               projective-phase extraction demo

Each leaf command is one row of ``_COMMANDS``.  A command line that names a
leaf builds only that leaf's parser, under the top one and all four groups
(the top usage line names them); any other builds the whole tree.  Either
way the help and error texts are the same.

Every subcommand emits a RunReport (text by default, ``--format json|csv``,
``--out <path>``); each handler is a list of ``RunReport.check`` calls.  Exit
status: 0 if no check failed, 1 on a failed check (with the failing residual
and item printed; a radial solve whose grid does not converge is the failed
check ``radial-grid-convergence``, a theta* that misses a variable
``theta-maps-all-variables``), 2 on usage errors and on inputs outside the
documented domain (a mass out of [0, k/2] or NaN, a k, a positive mass or a
reduced mass below the smallest normal float, an algebra mass, or at k = inf
the composed mass, above the largest float, quantum numbers outside
0 <= l < n_max or an n_max above hydrogen.MAX_N_MAX, a negative seed, a
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
from .report import CheckFailure, RunReport, STATUS_FAIL, format_number
from .scalars import sym

__all__ = ["main", "run"]

#: Reference numeric point used to size symbolic (exact-check) residuals.
_REFERENCE_POINT = {"k": 1.0, "lam": math.exp(-0.3), "lamp": math.exp(-0.4),
                    "m1": 0.3, "m2": 0.4, "mf": 0.35}


def _weyl_residual_magnitude(expr) -> float:
    """Max coefficient magnitude of a symbolic Weyl expression at the reference point."""
    return max((abs(complex(coeff.evaluate(_REFERENCE_POINT))) for coeff in expr.terms.values()),
               default=0.0)


# ---------------------------------------------------------------------------
# verify hopf


def _cmd_verify_hopf(args) -> RunReport:
    report = RunReport("verify hopf", {})
    alg = hopf.GalileiHopf()
    names = hopf.GENERATOR_NAMES
    report.check("jacobi", itertools.product(names, repeat=3),
                 lambda triple: alg.check_jacobi(*triple))
    report.check("coproduct-homomorphism", itertools.product(names, repeat=2),
                 lambda pair: alg.check_hom(*pair))
    report.check("coassociativity", names, alg.check_coassoc)
    report.check("hopf-axiom", names, alg.check_hopf_axiom)
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

    def suite(name: str, residuals: dict) -> None:
        # a failing suite's residual is its largest coefficient at the reference point
        report.check(name, residuals, residuals.get, size=_weyl_residual_magnitude)

    suite("one-particle-brackets", dict(realization.verify_one_particle(r1)))
    if not args.perturb:
        system = realization.TwoParticleSystem(
            r1, realization.OneParticleRealization(2, sym("lamp"), algebra=alg))
        suite("composed-brackets", dict(system.verify_composed()))
        suite("canonical-direct", realization.canonical_residuals(system))
        suite("canonical-tilde", realization.canonical_residuals(system, tilde=True))
        suite("kinetic-split", {"H^tot - P^2/(2 M_f) - Pi^2/(2 v_f)": system.kinetic_split()})
    return report


# ---------------------------------------------------------------------------
# verify equivalence


def _cmd_verify_equivalence(args) -> RunReport:
    m_f, mp_f, k = args.mf, args.mfp, args.k
    report = RunReport("verify equivalence", {"mf": m_f, "mfp": mp_f, "k": k})
    theta = us = None

    def theta_residual(_):
        nonlocal theta, us
        theta = equivalence.find_theta(m_f, mp_f, k)
        us = equivalence.us_matrix(m_f, k)
        return theta.residual

    # theta* for the pair, then for identical masses (in US); a failure of
    # either leaves the other checks without their map
    if report.check("theta-maps-all-variables", [()], theta_residual,
                    tol=equivalence.THETA_TOL).status == STATUS_FAIL:
        return report
    report.results["theta"] = theta.theta
    entries = equivalence.pairing_residual(theta.matrix, m_f, mp_f)
    report.check("pairing-preservation", entries, entries.get, tol=1e-10)
    report.check("involution-(US)^2", [()], lambda _: equivalence.check_involution(us),
                 tol=1e-10)

    grid = np.linspace(-2.0, 2.0, 21)
    p, pp = np.meshgrid(grid, grid, indexing="ij")
    f = lambda p, pp: np.exp(-(p - 0.5) ** 2 - (pp + 0.3) ** 2)
    projected = {sign: equivalence.project(sign, us, f) for sign in (+1, -1)}

    def idempotence(sign):
        once = projected[sign]
        return float(np.abs(equivalence.project(sign, us, once)(p, pp) - once(p, pp)).max())

    report.check("projector-idempotence", projected, idempotence, tol=1e-8)
    report.check("projector-complementarity", [()], lambda _: float(np.abs(
        projected[+1](p, pp) + projected[-1](p, pp) - f(p, pp)).max()), tol=1e-8)

    # US keeps the total variables and flips the relative ones (tilde set);
    # relative to max(1, largest |coefficient|) as in find_theta, since
    # rho's coefficients are 1/m_f
    tilde = equivalence.variable_vectors(m_f, m_f, k)[1]
    signs = {"P": +1, "R": +1, "Pi": -1, "rho": -1}
    scale = max(1.0, *(float(np.abs(tilde[name]).max()) for name in signs))
    report.check("us-reverses-relative-sign", signs, lambda name: float(
        np.abs(us @ tilde[name] - signs[name] * tilde[name]).max()) / scale, tol=1e-10)
    return report


# ---------------------------------------------------------------------------
# mass arithmetic


def _cmd_mass_compose(args) -> RunReport:
    k = args.k
    values = args.masses
    report = RunReport("mass compose", {"k": k, "masses": list(values)})
    total = masses.compose_many(values, k)
    report.results["M_f"] = float(total)
    # each fold and each change of coordinate rounds by a few eps M_f, also
    # near the bound k/2; below the smallest normal float the spacing of
    # floats is fixed, so there a rounding is a few eps of that float
    tol = 4 * len(values) * sys.float_info.epsilon * max(total, sys.float_info.min)
    if any(math.isfinite(k) and m >= k / 2 for m in values):
        report.results["note"] = "infinite-mass fixed point: no finite algebra coordinate"
        report.check("fixed-point", [()], lambda _: abs(total - k / 2), tol=tol)
        return report
    algebra_values = [masses.to_algebra(m, k) for m in values]
    for idx, m in enumerate(algebra_values, start=1):
        report.results[f"m_algebra_{idx}"] = m
    # the total is "inf" where it exceeds the largest float, at k above about 1e307
    report.results["M_algebra"] = algebra_total = sum(algebra_values)
    if math.isinf(k):
        composed = algebra_total
    else:
        # summed in units of k/2, which cannot overflow; to_physical at
        # k = 2 maps units back to the fraction 1 - e^(-2m/k) of k/2.
        # Subnormal units have lost bits: there the algebra masses, far
        # below k, are summed directly
        units = sum(masses.algebra_units(m, k) for m in values)
        composed = ((k / 2) * masses.to_physical(units, 2.0) if units >= sys.float_info.min
                    else masses.to_physical(algebra_total, k))
    # compared as physical masses, where both sides are well conditioned
    report.check("algebra-additivity", [()], lambda _: abs(composed - total), tol=tol)
    return report


def _cmd_mass_convert(args) -> RunReport:
    k = args.k
    report = RunReport("mass convert", {"k": k, "to": args.to, "masses": list(args.masses)})

    tol = 1e-12

    def round_trip(idx):
        m = args.masses[idx - 1]
        scale = 1.0
        if args.to == "physical":
            out = report.results[f"value_{idx}"] = masses.to_physical(m, k)
            if out > k / 2:   # no algebra mass maps there, and the way back rejects it
                raise CheckFailure(f"physical mass {format_number(out)} exceeds k/2", math.inf)
            back = masses.to_algebra(out, k)
            # the way back multiplies the rounding of out by its condition
            # number (e^x - 1) / x, x = 2m/k, which reaches 1e14 near the
            # bound; where that times 4 eps exceeds tol, the error is
            # measured in units of it
            x = m / (k / 2)
            if x:
                scale = max(1.0, 4 * sys.float_info.epsilon * math.expm1(x) / x / tol)
        else:
            out = report.results[f"value_{idx}"] = masses.to_algebra(m, k)
            back = masses.to_physical(out, k)
        # relative to m; below the smallest normal float, where the spacing
        # of floats is fixed, relative to that float
        return abs(back - m) / max(m, sys.float_info.min) / scale

    report.check("round-trip", range(1, len(args.masses) + 1), round_trip, tol=tol)
    return report


def _cmd_mass_reduced(args) -> RunReport:
    k = args.k
    m_f, mp_f = args.masses
    report = RunReport("mass reduced", {"k": k, "masses": [m_f, mp_f]})
    v_f = masses.reduced(m_f, mp_f, k)
    v = masses.classical_reduced(m_f, mp_f)
    report.results["v_f"] = v_f
    report.results["v_classical"] = v
    # v_f / v = 1 / (1 - 2v/k); 2v/k is 0 at k = inf
    report.results["first_order_coefficient"] = x = 2.0 * v / k
    expected = v / (1.0 - x)
    # relative, except at v_f = 0 (a massless particle), where it is absolute
    gap = abs(v_f - expected)
    report.check("ratio-identity", [()], lambda _: gap / abs(expected) if expected else gap,
                 tol=1e-12)
    return report


# ---------------------------------------------------------------------------
# hydrogen spectrum


def _cmd_hydrogen_spectrum(args) -> RunReport:
    from . import hydrogen

    cfg = hydrogen.HydrogenConfig(m_f=args.mf, mp_f=args.mfp, k=args.k,
                                  n_max=args.nmax, l=args.l)
    report = RunReport("hydrogen spectrum",
                       {"mf": args.mf, "mfp": args.mfp, "k": args.k,
                        "nmax": args.nmax, "l": args.l, "solver": args.solver})
    report.results["v_f"] = cfg.v_f
    closed = hydrogen.bohr_levels(cfg) if args.solver in ("closed", "both") else None
    radial = None

    def levels():
        # the radial solve comes before the first level: meshes that do not
        # converge fail the check radial-grid-convergence, and name no level
        nonlocal radial
        if args.solver in ("radial", "both"):
            radial = hydrogen.radial_solve(cfg)
        yield from range(cfg.l + 1, cfg.n_max + 1)

    def rel_err(n):
        return abs(radial[n - 1 - cfg.l] - closed[n - 1]) / abs(closed[n - 1])

    if args.solver == "both":
        report.check("radial-vs-closed", levels(), rel_err, tol=1e-6)
    else:
        report.check(f"{args.solver}-solver-completed", levels(), lambda n: 0.0, tol=0.0)
    rows = []
    for n in range(cfg.l + 1, cfg.n_max + 1):
        e_closed = closed[n - 1] if closed is not None else None
        e_radial = radial[n - 1 - cfg.l] if radial is not None else None
        rows.append([n, cfg.l, e_closed, e_radial,
                     rel_err(n) if closed is not None and radial is not None else None])
        level = e_radial if closed is None else e_closed
        if level is not None:
            report.results[f"E_{n}"] = level
    report.results["rows"] = rows
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


def _cmd_cocycle_demo(args) -> RunReport:
    report = RunReport("cocycle demo",
                       {"seed": args.seed, "pairs": args.pairs, "n": args.n})
    rng = np.random.default_rng(args.seed)
    psi = gridrep.gaussian_packet(n=args.n)

    def closed_form_mismatch(_) -> float:
        g, gp = gridrep.random_in_grid_tuple(rng, psi, 2)
        angle = gridrep.cocycle_angle(g, gp, psi)
        expected = gridrep.expected_cocycle_angle(g, gp, psi.m_f)
        return gridrep.angle_difference(angle, expected)

    def identity_mismatch(_) -> float:
        g1, g2, g3 = gridrep.random_in_grid_tuple(rng, psi, 3, max_cells=1)
        lhs = (gridrep.cocycle_angle(g1, g2, psi)
               + gridrep.cocycle_angle(gridrep.galilei_multiply(g1, g2), g3, psi))
        rhs = (gridrep.cocycle_angle(g2, g3, psi)
               + gridrep.cocycle_angle(g1, gridrep.galilei_multiply(g2, g3), psi))
        return gridrep.angle_difference(lhs, rhs)

    # a draw whose composition ratio is not grid-constant has no cocycle
    # angle: its ProjectivityError fails the check and ends the draws
    closed = report.check("cocycle-closed-form", (f"pair {i}" for i in range(args.pairs)),
                          closed_form_mismatch, tol=1e-8)
    identity = report.check("cocycle-identity",
                            (f"triple {i}" for i in range(max(args.pairs // 3, 1))),
                            identity_mismatch, tol=1e-7)
    report.results["worst_closed_form_mismatch"] = closed.residual
    report.results["worst_identity_mismatch"] = identity.residual
    return report


# ---------------------------------------------------------------------------
# plumbing


#: Largest ``cocycle demo --n``: the demo builds no n^3 grid, but the ratio
#: is formed on the Gaussian's kept points, a box of about (0.3 n)^3; at
#: n = 128 the process peaks at about 40 MB (``ru_maxrss``).
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


#: The groups, in usage order: their help and the dest of their leaf's name.
_GROUPS = {"verify": ("run a verification suite", "suite"),
           "mass": ("non-additive mass arithmetic", "op"),
           "hydrogen": ("deformed hydrogen spectrum", "op"),
           "cocycle": ("projective-phase extraction", "op")}
_PAIR = dict.fromkeys(("--mf", "--mfp", "--k"), dict(type=float, required=True))
_K = {"--k": _PAIR["--k"]}
_OUTPUT = {"--format": dict(choices=("text", "json", "csv"), default="text"),
           "--out": dict(default=None, help="write the report to this path")}
#: Each leaf, (group, leaf) -> (help, handler, arguments), in help order.  The
#: arguments are {name: add_argument keywords} in usage order, before the
#: output flags every leaf takes; a leaf with no help is listed by name alone.
_COMMANDS = {
    ("verify", "hopf"): ("exact Hopf-algebra residual suites", _cmd_verify_hopf, {}),
    ("verify", "realization"): ("operator-realization identities", _cmd_verify_realization, {
        "--perturb": dict(action="store_true",
                          help="break the mass constraint on purpose (must exit 1)")}),
    ("verify", "equivalence"): ("theta*, (US)^2, projectors", _cmd_verify_equivalence, _PAIR),
    ("mass", "compose"): ("compose physical masses", _cmd_mass_compose,
                          {**_K, "masses": dict(type=float, nargs="+")}),
    ("mass", "convert"): ("convert between mass coordinates", _cmd_mass_convert, {
        **_K, "--to": dict(choices=("physical", "algebra"), default="physical"),
        "masses": dict(type=float, nargs="+")}),
    ("mass", "reduced"): ("deformed reduced mass of a pair", _cmd_mass_reduced,
                          {**_K, "masses": dict(type=float, nargs=2)}),
    ("hydrogen", "spectrum"): (None, _cmd_hydrogen_spectrum, {
        **_PAIR, "--nmax": dict(type=int, default=3), "--l": dict(type=int, default=0),
        "--solver": dict(choices=("closed", "radial", "both"), default="both")}),
    ("cocycle", "demo"): (None, _cmd_cocycle_demo, {
        "--seed": dict(type=nonnegative_int, default=0),
        "--pairs": dict(type=positive_int, default=10),
        "--n": dict(type=grid_size, default=32, help="grid points per axis")}),
}


def build_parser(leaf: tuple | None = None) -> argparse.ArgumentParser:
    """The whole parser tree, or only the (group, leaf) ``leaf`` under the
    top parser and all four groups, whose names the top usage line shows."""
    parser = argparse.ArgumentParser(
        prog="kgalilei",
        description="Verification suites for the deformed Galilei group G_k.")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {group: sub.add_parser(group, help=text).add_subparsers(dest=dest, required=True)
              for group, (text, dest) in _GROUPS.items()}
    for (group, name), (text, handler, arguments) in _COMMANDS.items():
        if leaf in (None, (group, name)):
            p = groups[group].add_parser(name, **({"help": text} if text else {}))
            for flag, keywords in {**arguments, **_OUTPUT}.items():
                p.add_argument(flag, **keywords)
            p.set_defaults(handler=handler)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    leaf = tuple(argv[:2])
    args = build_parser(leaf if leaf in _COMMANDS else None).parse_args(argv)
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
