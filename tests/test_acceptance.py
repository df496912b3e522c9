"""Acceptance suite: the ten package-level criteria.

Each test prints one PASS/FAIL line; tolerances and runtime budgets are
pinned in the assertions.
"""

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from kgalilei import equivalence as eq
from kgalilei import cli, gridrep, masses
from kgalilei.hopf import GENERATOR_NAMES, GalileiHopf
from kgalilei.hydrogen import HydrogenConfig, bohr_levels, radial_solve
from kgalilei.realization import (
    OneParticleRealization,
    TwoParticleSystem,
    canonical_residuals,
    default_system,
    verify_one_particle,
)
from kgalilei.scalars import I, Rat, sym
from kgalilei.weyl import scalar


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_hopf_suite_exact():
    start = time.perf_counter()
    alg = GalileiHopf()
    bad = []
    for g in GENERATOR_NAMES:
        for h in GENERATOR_NAMES:
            if not alg.check_hom(g, h).is_zero:
                bad.append(("hom", g, h))
            for f in GENERATOR_NAMES:
                if not alg.check_jacobi(g, h, f).is_zero:
                    bad.append(("jacobi", g, h, f))
    for g in GENERATOR_NAMES:
        if not alg.check_coassoc(g).is_zero:
            bad.append(("coassoc", g))
        if not alg.check_hopf_axiom(g).is_zero:
            bad.append(("hopf-axiom", g))
    elapsed = time.perf_counter() - start
    _report("criterion 1: Hopf suite exact",
            not bad and elapsed < 10.0,
            f"{len(bad)} nonzero residuals, {elapsed:.1f} s")


def test_criterion_2_mass_constraint_both_directions():
    # direction 1: with m_f = (k/2)(1 - lam^2), every residual vanishes
    r = OneParticleRealization(1, sym("lam"))
    constrained_ok = all(res.is_zero for _, res in verify_one_particle(r))
    # direction 2: with m_f free, [K, P] fails by exactly i(m_f - (k/2)(1-lam^2))
    mf, k, lam = sym("mf"), sym("k"), sym("lam")
    r_free = OneParticleRealization(1, lam, m_f=mf)
    residuals = dict(verify_one_particle(r_free))
    expected = scalar(I * (mf - (k / 2) * (1 - lam ** 2)))
    free_ok = all(residuals[f"[K{i},P{i}]"] == expected for i in (1, 2, 3))
    free_ok = free_ok and not expected.is_zero
    _report("criterion 2: mass constraint (both directions)",
            constrained_ok and free_ok)


def test_criterion_3_mass_arithmetic():
    k = Fraction(1)
    a, b, c = Fraction(3, 10), Fraction(2, 5), Fraction(1, 10)
    exact_ok = (
        masses.compose(masses.compose(a, b, k), c, k)
        == masses.compose(a, masses.compose(b, c, k), k)
        and masses.compose(a, b, k) == masses.compose(b, a, k)
        and masses.compose(a, Fraction(0), k) == a
        and masses.compose(Fraction(1, 2), a, k) == Fraction(1, 2)
    )
    rng = random.Random(0)
    worst_assoc = worst_iso = bound_violations = 0
    for _ in range(10 ** 4):
        kf = rng.uniform(0.5, 10.0)
        x, y, z = (rng.uniform(0.0, kf / 2) for _ in range(3))
        lhs = masses.compose(masses.compose(x, y, kf), z, kf)
        rhs = masses.compose(x, masses.compose(y, z, kf), kf)
        worst_assoc = max(worst_assoc, abs(lhs - rhs) / max(1.0, abs(lhs)))
        if not (0.0 <= lhs <= kf / 2 + 1e-12):
            bound_violations += 1
        ma, mb = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        direct = masses.to_physical(ma + mb, kf)
        composed = masses.compose(masses.to_physical(ma, kf), masses.to_physical(mb, kf), kf)
        worst_iso = max(worst_iso, abs(direct - composed) / max(1.0, abs(direct)))
    ok = exact_ok and worst_assoc <= 1e-12 and worst_iso <= 1e-12 and not bound_violations
    _report("criterion 3: mass arithmetic",
            ok, f"assoc {worst_assoc:.1e}, iso {worst_iso:.1e}")


def test_criterion_4_two_particle_canonical_structure():
    system = default_system()
    direct_ok = all(res.is_zero for res in canonical_residuals(system).values())
    tilde_ok = all(res.is_zero for res in canonical_residuals(system, tilde=True).values())
    split_ok = system.kinetic_split().is_zero
    # v_f = m_f at the bound m'_f = k/2 (lam' = 0), kinetic split still exact
    alg = GalileiHopf()
    bound_system = TwoParticleSystem(
        OneParticleRealization(1, sym("lam"), algebra=alg),
        OneParticleRealization(2, Rat(0), algebra=alg),
    )
    bound_ok = ((bound_system.v_f - bound_system.r1.m_f).is_zero
                and bound_system.kinetic_split().is_zero)
    _report("criterion 4: two-particle canonical structure",
            direct_ok and tilde_ok and split_ok and bound_ok)


def test_criterion_5_unitary_equivalence():
    start = time.perf_counter()
    rng = random.Random(0)
    worst_theta = 0.0
    for _ in range(50):
        k = rng.uniform(0.5, 10.0)
        m_f = rng.uniform(0.005, 0.495) * k
        mp_f = rng.uniform(0.005, 0.495) * k
        worst_theta = max(worst_theta, eq.find_theta(m_f, mp_f, k).residual)
    worst_inv = max(eq.check_involution(eq.us_matrix(m, 1.0)) for m in (0.1, 0.25, 0.3, 0.45, 0.49))
    theta_limit = abs(eq.find_theta(0.3, 0.4, 1e6).theta)
    elapsed = time.perf_counter() - start
    ok = worst_theta <= 1e-10 and worst_inv <= 1e-10 and theta_limit <= 1e-5 and elapsed < 5.0
    _report("criterion 5: unitary equivalence",
            ok, f"theta {worst_theta:.1e}, (US)^2 {worst_inv:.1e}, "
                f"|theta(k=1e6)| {theta_limit:.1e}, {elapsed:.1f} s")


def test_criterion_6_hydrogen(harmonic_levels):
    start = time.perf_counter()
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=3)
    closed = bohr_levels(cfg)
    numeric = radial_solve(cfg)  # grid-refinement gate applied inside
    worst = max(abs(n - c) / abs(c) for n, c in zip(numeric, closed))
    ground_ok = abs(closed[0] + 0.1304348) <= 1e-6
    harm_cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=3, r_max=30.0)
    omega = math.sqrt(1.0 / harm_cfg.v_f)
    harmonic = harmonic_levels(harm_cfg)
    worst_harm = max(abs(e - (2 * i + 1.5) * omega) / ((2 * i + 1.5) * omega)
                     for i, e in enumerate(harmonic))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and ground_ok and worst_harm <= 1e-6 and elapsed < 30.0
    _report("criterion 6: hydrogen spectrum",
            ok, f"coulomb {worst:.1e}, harmonic {worst_harm:.1e}, {elapsed:.1f} s")


def test_criterion_7_correction_factor():
    # v_f / v = 1 / (1 - 2v/k), whose first-order coefficient is 2v/k;
    # `mass reduced` reports that coefficient and gates the identity
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0)
    v = masses.classical_reduced(0.3, 0.4)
    x = 2.0 * v / 1.0
    ratio_ok = abs(cfg.v_f / v - 1.0 / (1.0 - x)) <= 1e-12
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["mass", "reduced", "--k", "1", "0.3", "0.4", "--format", "json"])
    report = json.loads(out.getvalue())
    cli_ok = code == 0 and [(c["name"], c["status"]) for c in report["checks"]] == [
        ("ratio-identity", "pass")]
    first_ok = abs(report["results"]["first_order_coefficient"] - x) <= 1e-12
    _report("criterion 7: correction factor", ratio_ok and cli_ok and first_ok)


def test_criterion_8_projective_action():
    start = time.perf_counter()
    psi = gridrep.gaussian_packet(n=32)
    rng = np.random.default_rng(0)
    worst_match = 0.0
    for _ in range(100):
        g, gp = gridrep.random_in_grid_tuple(rng, psi, 2)
        # cocycle_phase enforces the <= 1e-6 grid-constancy spread internally
        angle = gridrep.cocycle_angle(g, gp, psi)
        expected = gridrep.expected_cocycle_angle(g, gp, psi.m_f)
        worst_match = max(worst_match, gridrep.angle_difference(angle, expected))
    worst_identity = 0.0
    for _ in range(10):
        g1, g2, g3 = gridrep.random_in_grid_tuple(rng, psi, 3, max_cells=1)
        lhs = (gridrep.cocycle_angle(g1, g2, psi)
               + gridrep.cocycle_angle(gridrep.galilei_multiply(g1, g2), g3, psi))
        rhs = (gridrep.cocycle_angle(g2, g3, psi)
               + gridrep.cocycle_angle(g1, gridrep.galilei_multiply(g2, g3), psi))
        worst_identity = max(worst_identity, gridrep.angle_difference(lhs, rhs))
    elapsed = time.perf_counter() - start
    ok = worst_match <= 1e-8 and worst_identity <= 1e-7 and elapsed < 60.0
    _report("criterion 8: projective action",
            ok, f"match {worst_match:.1e}, identity {worst_identity:.1e}, {elapsed:.1f} s")


def test_criterion_9_classical_limit_regression():
    k = 1e6
    m_f, mp_f = 0.3, 0.4
    gaps = []
    gaps.append(abs(masses.compose(m_f, mp_f, k) - 0.7) / 0.7)
    v = masses.classical_reduced(m_f, mp_f)
    gaps.append(abs(masses.reduced(m_f, mp_f, k) - v) / v)
    direct, _ = eq.variable_vectors(m_f, mp_f, k)
    classical_direct, _ = eq.variable_vectors(m_f, mp_f, math.inf)
    for name in ("P", "R", "Pi", "rho"):
        a = direct[name]
        b = classical_direct[name]
        gaps.append(float(np.abs(a - b).max()) / max(1.0, float(np.abs(b).max())))
    gaps.append(abs(eq.find_theta(m_f, mp_f, k).theta))
    deformed = bohr_levels(HydrogenConfig(m_f=m_f, mp_f=mp_f, k=k))
    classical = bohr_levels(HydrogenConfig(m_f=m_f, mp_f=mp_f, k=math.inf))
    gaps.extend(abs(a - b) / abs(b) for a, b in zip(deformed, classical))
    worst = max(gaps)
    _report("criterion 9: classical-limit regression", worst <= 1e-5, f"worst {worst:.1e}")


def test_criterion_10_exchange_statistics():
    m_f, k = 0.3, 1.0
    grid = np.linspace(-2.0, 2.0, 41)
    p, pp = np.meshgrid(grid, grid, indexing="ij")
    us = eq.us_matrix(m_f, k)

    def plus(g):
        return eq.project(+1, us, g)

    def minus(g):
        return eq.project(-1, us, g)

    f = lambda p, pp: np.exp(-(p - 0.4) ** 2 - 2.0 * (pp + 0.2) ** 2)
    fp, fm = plus(f), minus(f)
    idem = max(
        float(np.abs(plus(fp)(p, pp) - fp(p, pp)).max()),
        float(np.abs(minus(fm)(p, pp) - fm(p, pp)).max()),
    )
    comp = float(np.abs(fp(p, pp) + fm(p, pp) - f(p, pp)).max())
    cross = float(np.abs(minus(fp)(p, pp)).max())
    # US reverses the sign of the relative combinations: odd/even test functions
    tilde = eq.variable_vectors(m_f, m_f, k)[1]
    sign_ok = all(
        np.allclose(us @ tilde[name], s * tilde[name], atol=1e-10)
        for name, s in (("P", +1), ("R", +1), ("Pi", -1), ("rho", -1))
    )
    crel = tilde["Pi"][:2]
    even = lambda p, pp: np.cos(crel[0] * p + crel[1] * pp)
    odd = lambda p, pp: np.sin(crel[0] * p + crel[1] * pp)
    parity = max(
        float(np.abs(minus(even)(p, pp)).max()),
        float(np.abs(plus(odd)(p, pp)).max()),
        float(np.abs(plus(even)(p, pp) - even(p, pp)).max()),
        float(np.abs(minus(odd)(p, pp) - odd(p, pp)).max()),
    )
    ok = max(idem, comp, cross, parity) <= 1e-8 and sign_ok
    _report("criterion 10: exchange statistics",
            ok, f"projectors {max(idem, comp, cross):.1e}, parity {parity:.1e}")
