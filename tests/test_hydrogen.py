"""Tests for the deformed hydrogen spectrum."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgalilei import hydrogen, masses
from kgalilei.masses import MassDomainError
from kgalilei.hydrogen import (
    MAX_N_MAX,
    RADIAL_TOL,
    GridConvergenceError,
    HydrogenConfig,
    HydrogenDomainError,
    bohr_levels,
    radial_solve,
)


@pytest.fixture(scope="module")
def cfg():
    return HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0)


def test_reduced_mass_and_bohr_radius(cfg):
    assert abs(cfg.v_f - masses.reduced(0.3, 0.4, 1.0)) <= 1e-15
    assert abs(cfg.bohr_radius - 1.0 / cfg.v_f) <= 1e-12


def test_bohr_levels_closed_form(cfg):
    levels = bohr_levels(cfg)
    v_f = cfg.v_f
    for n, e in enumerate(levels, start=1):
        assert abs(e + v_f / (2.0 * n ** 2)) <= 1e-15
    # ground state at the reference point of the acceptance suite
    assert abs(levels[0] + 0.1304348) <= 1e-6


def test_radial_matches_closed_form(cfg):
    numeric = radial_solve(cfg)
    closed = bohr_levels(cfg)
    for e_num, e_closed in zip(numeric, closed):
        assert abs(e_num - e_closed) / abs(e_closed) <= 1e-6


def test_harmonic_oscillator_control(harmonic_levels):
    # the kinetic matrix of the radial mesh against a second exact spectrum:
    # the radial problem on the half line has E = (2 n_r + l + 3/2) omega with
    # omega = sqrt(1 / v_f) (unit spring constant); at l = 0 these are the odd
    # 1-D levels
    for m_f, mp_f in [(0.3, 0.4), (0.1, 0.45)]:
        for r_max in (12.0, 30.0):
            for l in (0, 1):
                cfg = HydrogenConfig(m_f=m_f, mp_f=mp_f, k=1.0, n_max=3, l=l, r_max=r_max)
                omega = math.sqrt(1.0 / cfg.v_f)
                numeric = harmonic_levels(cfg)
                assert len(numeric) == 3 - l
                for n_r, e in enumerate(numeric):
                    expected = (2 * n_r + l + 1.5) * omega
                    assert abs(e - expected) / expected <= 1e-12


def test_user_box_matches_closed_form():
    # a box given in physical units is r_max / a_0 Bohr radii, whatever the masses
    for m_f, mp_f in [(0.3, 0.4), (0.1, 0.45)]:
        cfg = HydrogenConfig(m_f=m_f, mp_f=mp_f, k=1.0, n_max=3, r_max=600.0)
        for e_num, e_closed in zip(radial_solve(cfg), bohr_levels(cfg)):
            assert abs(e_num - e_closed) / abs(e_closed) <= 1e-6


def _physical_unit_levels(cfg):
    # reference: the finer Lagrange-Laguerre mesh of radial_solve built in
    # physical units (kinetic hbar^2 / v_f, Coulomb -e2 / r, with
    # hbar = e2 = 1) on its box of 1.5^2 (2 n_max^2 + 20 n_max) a_0 with
    # a_0 = hbar^2 / (v_f e2): N = n_points + 4 n_max + 20 points at
    # r_i = h x_i, h = box / (4N), where the x_i are the zeros of L_N
    hbar, e2 = 1.0, 1.0
    a0 = hbar ** 2 / (cfg.v_f * e2)
    r_max = 2.25 * (2.0 * cfg.n_max ** 2 + 20.0 * cfg.n_max) * a0
    n = cfg.n_points + 4 * cfg.n_max + 20
    x = np.polynomial.laguerre.laggauss(n)[0]
    h = r_max / (4.0 * n)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((-1.0) ** (i - j) * (x[i] + x[j])
             / (np.sqrt(x[i] * x[j]) * (x[i] - x[j]) ** 2))
    t[np.diag_indices(n)] = -(x * x - 2.0 * (2 * n + 1) * x - 4.0) / (12.0 * x * x)
    r = h * x
    hamiltonian = hbar ** 2 / (2.0 * cfg.v_f * h ** 2) * t + np.diag(
        -e2 / r + hbar ** 2 * cfg.l * (cfg.l + 1) / (2.0 * cfg.v_f * r ** 2))
    return np.linalg.eigvalsh(hamiltonian)[:cfg.n_max - cfg.l]


@pytest.mark.parametrize("l", [0, 1])
def test_bohr_units_match_physical_units(l):
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=3, l=l)
    reference = _physical_unit_levels(cfg)
    levels = radial_solve(cfg)
    assert len(levels) == len(reference) == 3 - l
    for e, e_ref in zip(levels, reference):
        assert abs(e - e_ref) / abs(e_ref) <= 1e-10


def test_levels_scale_with_reduced_mass():
    # in Bohr units the solve does not see the masses: E_n is v_f times a
    # mass-independent number, so two mass pairs differ by v_f / v'_f
    a = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=4, l=1)
    b = HydrogenConfig(m_f=0.05, mp_f=0.9, k=2.5, n_max=4, l=1)
    ratio = a.v_f / b.v_f
    for ea, eb in zip(radial_solve(a), radial_solve(b)):
        assert abs(ea / eb - ratio) <= 1e-12 * ratio


def test_levels_are_fresh_python_floats(cfg):
    first = radial_solve(cfg)
    assert all(type(e) is float for e in first)
    expected = list(first)
    first[0] = 0.0
    first.append(1.0)
    assert radial_solve(cfg) == expected
    # the cache keeps float copies, not views pinning the solver's whole output
    cached = hydrogen._radial_eigenvalues(0, 60.0, cfg.n_points, 3)
    assert all(type(e) is float for grid in cached for e in grid)


def test_mass_sweep_solves_once_per_shape():
    # work count, not timing: a sweep over masses and k at n_max 1..4 on the
    # default box needs one eigensolve per n_max; a mass or k in the cache
    # key would make every point miss.  Counted as deltas of the cache's
    # statistics, so the solves other tests keep stay in the cache
    before = hydrogen._radial_eigenvalues.cache_info()
    rng = random.Random(7)
    for i in range(20):
        k = rng.uniform(0.5, 4.0)
        cfg = HydrogenConfig(m_f=rng.uniform(0.05, 0.45) * k, mp_f=rng.uniform(0.05, 0.45) * k,
                             k=k, n_max=1 + i % 4)
        closed = bohr_levels(cfg)
        for e, e_closed in zip(radial_solve(cfg), closed):
            assert abs(e - e_closed) / abs(e_closed) <= 1e-6
    info = hydrogen._radial_eigenvalues.cache_info()
    hits, misses = info.hits - before.hits, info.misses - before.misses
    assert misses <= 4 and hits + misses == 20


def test_l_degeneracy():
    # E depends on n only: the lowest l = 1 level equals the n = 2, l = 0 one
    cfg0 = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=3, l=0)
    cfg1 = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=3, l=1)
    e0 = radial_solve(cfg0)
    e1 = radial_solve(cfg1)
    assert abs(e1[0] - e0[1]) / abs(e0[1]) <= 1e-6


def test_convergence_gate_triggers():
    # at n_max 3 a coarser mesh of 10 points (n_points 1) moves the levels by
    # about 6.9e-2 relative against the finer one, 14 points (n_points 5) by
    # 2.7e-4, both beyond RADIAL_TOL; on 19 points (n_points 10) the levels
    # are within 1e-13 of the closed form
    for n_points in (1, 5):
        cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_points=n_points)
        with pytest.raises(GridConvergenceError, match="grid too coarse"):
            radial_solve(cfg)
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_points=10)
    for e, e_closed in zip(radial_solve(cfg), bohr_levels(cfg)):
        assert abs(e - e_closed) / abs(e_closed) <= 1e-12


def test_nan_level_fails_the_gate(monkeypatch):
    # a NaN gap compares false with everything: the gate must fail it
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0)
    monkeypatch.setattr(hydrogen, "_radial_eigenvalues",
                        lambda *key: ((-0.5, -0.125, -1 / 18), (-0.5, math.nan, -1 / 18)))
    with pytest.raises(GridConvergenceError, match="grid too coarse") as info:
        radial_solve(cfg)
    assert info.value.residual == 3


@pytest.mark.parametrize("fine, message", [
    ((-0.5, -0.125 * 1.001, -1 / 18), "by 9.990e-04 relative"),
    ((-0.5, -0.125 * 1.001, math.nan), "by nan relative"),   # NaN after a finite failure
    ((math.nan, -0.125 * 1.001, -1 / 18), "by nan relative"),
    ((-0.5, 0.0, -1 / 18), "no bound state"),
    ((-0.5, -0.125, -0.0), "no bound state"),
    ((-0.5, -0.125, math.inf), "no bound state"),
])
def test_gate_names_the_worst_gap_or_an_unbound_level(monkeypatch, fine, message):
    # the worst gap is NaN if any is; a level at or above 0, -0.0 too, is unbound
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0)
    monkeypatch.setattr(hydrogen, "_radial_eigenvalues",
                        lambda *key: ((-0.5, -0.125, -1 / 18), fine))
    with pytest.raises(GridConvergenceError, match=message) as info:
        radial_solve(cfg)
    assert info.value.residual == 3


@pytest.mark.parametrize("n_max, l", [(1, 0), (3, 0), (4, 2), (12, 5)])
def test_levels_are_the_cached_levels_times_v_f(monkeypatch, n_max, l):
    # scaled level by level as plain floats, to the bit of the array product
    # v_f * fine, at masses where v_f is normal, huge and near the smallest
    # normal float
    solved = []
    eigenvalues = hydrogen._radial_eigenvalues
    monkeypatch.setattr(hydrogen, "_radial_eigenvalues",
                        lambda *key: solved.append(eigenvalues(*key)) or solved[-1])
    for m_f, mp_f, k in ((0.3, 0.4, 1.0), (1.19e73, 6.89e247, 2.69e259),
                         (4.5e-308, 4.5e-308, 1.0), (0.7, 0.2, math.inf)):
        cfg = HydrogenConfig(m_f=m_f, mp_f=mp_f, k=k, n_max=n_max, l=l)
        levels = radial_solve(cfg)
        assert levels == (cfg.v_f * np.array(solved[-1][1])).tolist()
        assert all(type(e) is float for e in levels)


@pytest.mark.parametrize("n_max", [1, 4, 20, 40, 100, 200, MAX_N_MAX])
def test_radial_solve_is_sound(n_max):
    # every gate decision is right: a level that passes is within RADIAL_TOL
    # of the closed form; at the default box and mesh all of them pass
    for l in sorted({0, n_max // 3, n_max - 1}):
        cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=n_max, l=l)
        levels = radial_solve(cfg)
        closed = bohr_levels(cfg)[l:]
        assert len(levels) == len(closed) == n_max - l
        for e, e_closed in zip(levels, closed):
            assert abs(e - e_closed) / abs(e_closed) <= RADIAL_TOL


@pytest.mark.parametrize("n_max", [1, 3, 10, 20])
def test_radial_gate_fails_a_box_too_small(n_max):
    # negative control: an explicit r_max too small to hold the states fails
    # the gate, and no box in the sweep passes a wrong level.  At n_max 3 and
    # l = 0, boxes of 45 a_0 or less fail (the gap is 1.2e-6 at 45 a_0) and
    # 50 a_0 passes within 1e-13
    default = 1.5 * (2.0 * n_max ** 2 + 20.0 * n_max) / masses.reduced(0.3, 0.4, 1.0)
    for l in sorted({0, n_max // 3, n_max - 1}):
        failed = 0
        for fraction in np.linspace(0.05, 1.0, 20):
            cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=n_max, l=l,
                                 r_max=fraction * default)
            try:
                levels = radial_solve(cfg)
            except GridConvergenceError:
                failed += 1
                continue
            for e, e_closed in zip(levels, bohr_levels(cfg)[l:]):
                assert abs(e - e_closed) / abs(e_closed) <= RADIAL_TOL
        assert failed >= 3   # the smallest boxes cut off the outermost state


@pytest.mark.parametrize("n_max", [6, 8, 12, 16, 24, 30])
def test_outer_levels_match_closed_form(n_max):
    # the default box of 2 n_max^2 + 20 n_max Bohr radii holds the outermost
    # state, innermost (l = 0) and circular (l = n_max - 1) alike; a box of
    # 20 n_max truncated it from n_max 8 on
    for l in (0, n_max - 1):
        cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=n_max, l=l)
        levels = radial_solve(cfg)
        closed = bohr_levels(cfg)[l:]
        assert len(levels) == len(closed) == n_max - l
        for e, e_closed in zip(levels, closed):
            assert abs(e - e_closed) / abs(e_closed) <= 1e-6


def test_eigensolver_tolerance_is_relative():
    # the dense eigensolve is accurate to about eps * ||H|| absolute, and the
    # near-origin diagonal makes ||H|| large; even so the shallowest level at
    # n_max 60 (1/7200 of the deepest) keeps the deepest one's relative
    # accuracy, on the default mesh and on a coarser mesh of 6 + 3 n_max points
    for n_points in (30, 6):
        cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=60, n_points=n_points)
        levels = radial_solve(cfg)
        closed = bohr_levels(cfg)
        for e, e_closed in zip(levels, closed):
            assert abs(e - e_closed) / abs(e_closed) <= 1e-9


def test_classical_limit():
    deformed = bohr_levels(HydrogenConfig(m_f=0.3, mp_f=0.4, k=1e6))
    classical = bohr_levels(HydrogenConfig(m_f=0.3, mp_f=0.4, k=math.inf))
    for a, b in zip(deformed, classical):
        assert abs(a - b) / abs(b) <= 1e-5


def test_config_validation():
    with pytest.raises(Exception):
        HydrogenConfig(m_f=0.6, mp_f=0.4, k=1.0)  # above the bound
    with pytest.raises(Exception):
        HydrogenConfig(m_f=0.0, mp_f=0.4, k=1.0)  # massless electron
    with pytest.raises(ValueError):
        HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=1, l=1)
    for bad in [dict(n_max=0), dict(l=-1), dict(n_max=2, l=5), dict(n_points=0),
                dict(n_points=-5), dict(n_max=6000), dict(n_max=MAX_N_MAX + 1),
                dict(n_max=1000, l=999)]:
        with pytest.raises(HydrogenDomainError):
            HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, **bad)
    # the cap on n_max is the limit, whatever l; one extra mesh point is the least
    HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=MAX_N_MAX, l=MAX_N_MAX - 1)
    HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=8, n_points=1)


# A Fraction oracle for the Bohr levels, built on the exact reduced mass
# m m' / M of ``masses.reduced``'s own oracle.  k is log-uniform over
# 1e-307 - 1e308, or infinite, and each mass log-uniform below k/2 or
# within a relative 1e-16 - 1e-1 of it.  Each level is within BOHR_ULPS of
# the exact -v_f / (2 n^2), or bohr_levels raises MassDomainError exactly
# where v_f lies below the smallest normal float (within BOHR_ULPS of it,
# either outcome is accepted).  The measured worst case over 4,000 draws
# was 5.2 ulp (the reduced mass's roundings, then one division); the bound
# is the 8 ulp that ``reduced`` itself is held to.

BOHR_ULPS = 8


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(math.exp(x), hi))


@st.composite
def _bohr_case(draw):
    k = draw(st.one_of(_log_uniform(1e-307, 1e308), st.just(math.inf)))
    bound = sys.float_info.max if math.isinf(k) else k / 2
    mass = st.one_of(_log_uniform(1e-320, bound),
                     _log_uniform(1e-16, 1e-1).map(lambda d: bound * (1 - d)))
    return k, draw(mass), draw(mass), draw(st.integers(1, 40))


def _exact_reduced(m_f, mp_f, k):
    m_f, mp_f = Fraction(m_f), Fraction(mp_f)
    total = m_f + mp_f if math.isinf(k) else m_f + mp_f - 2 * m_f * mp_f / Fraction(k)
    return m_f * mp_f / total


@given(_bohr_case())
@settings(max_examples=300, deadline=None)
def test_bohr_levels_match_the_fraction_oracle(drawn):
    k, m_f, mp_f, n_max = drawn
    v_f = _exact_reduced(m_f, mp_f, k)
    edge = Fraction(sys.float_info.min)
    near = abs(v_f - edge) <= BOHR_ULPS * Fraction(math.ulp(sys.float_info.min))
    try:
        levels = bohr_levels(HydrogenConfig(m_f, mp_f, k, n_max=n_max))
    except MassDomainError:
        assert v_f < edge or near, float(v_f)
        return
    assert v_f >= edge or near, float(v_f)
    assert len(levels) == n_max
    for n, level in enumerate(levels, 1):
        exact = -v_f / (2 * n * n)
        ulp = Fraction(math.ulp(float(exact)))
        assert abs(Fraction(level) - exact) <= BOHR_ULPS * ulp, (n, level, float(exact))
