"""Tests for the deformed hydrogen spectrum."""

import math
import random
import sys

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from kgalilei import hydrogen, masses
from kgalilei.hydrogen import (
    CORRECTION_ORDER,
    CorrectionSeries,
    GridConvergenceError,
    HydrogenConfig,
    HydrogenDomainError,
    bohr_levels,
    correction_series,
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


def test_harmonic_oscillator_control():
    # l = 0 radial problem on the half line picks the odd 1-D levels:
    # E = (2 n_r + 3/2) omega with omega = sqrt(1 / v_f) (unit spring constant)
    for m_f, mp_f in [(0.3, 0.4), (0.1, 0.45)]:
        cfg = HydrogenConfig(m_f=m_f, mp_f=mp_f, k=1.0, n_max=3, r_max=30.0)
        omega = math.sqrt(1.0 / cfg.v_f)
        numeric = radial_solve(cfg, potential="harmonic")
        for n_r, e in enumerate(numeric):
            expected = (2 * n_r + 1.5) * omega
            assert abs(e - expected) / expected <= 1e-6


def test_user_box_matches_closed_form():
    # a box given in physical units is r_max / a_0 Bohr radii, whatever the masses
    for m_f, mp_f in [(0.3, 0.4), (0.1, 0.45)]:
        cfg = HydrogenConfig(m_f=m_f, mp_f=mp_f, k=1.0, n_max=3, r_max=600.0)
        for e_num, e_closed in zip(radial_solve(cfg), bohr_levels(cfg)):
            assert abs(e_num - e_closed) / abs(e_closed) <= 1e-6


def _physical_unit_levels(cfg):
    # reference: the same s-grid matrix (r = s^2) in physical units (kinetic
    # hbar^2 / v_f in the couplings, Coulomb -e2 / r, with hbar = e2 = 1) on
    # the default box of 2 n_max^2 + 20 n_max Bohr radii with
    # a_0 = hbar^2 / (v_f e2), Richardson-extrapolated as radial_solve does
    hbar, e2 = 1.0, 1.0
    a0 = hbar ** 2 / (cfg.v_f * e2)
    r_max = (2.0 * cfg.n_max ** 2 + 20.0 * cfg.n_max) * a0
    count = cfg.n_max - cfg.l
    solves = []
    for n_points in (cfg.n_points, 2 * cfg.n_points, 4 * cfg.n_points):
        ds = math.sqrt(r_max) / n_points
        c = hbar ** 2 / (2.0 * cfg.v_f * ds ** 2 * (np.arange(n_points) + 0.5))
        s = np.arange(1, n_points) * ds
        r = s * s
        b = 2.0 * s * ds
        diag = ((c[:-1] + c[1:]) / (2.0 * b) - e2 / r
                + hbar ** 2 * cfg.l * (cfg.l + 1) / (2.0 * cfg.v_f * r ** 2))
        off = -c[1:-1] / (2.0 * np.sqrt(b[:-1] * b[1:]))
        solves.append(eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                                       eigvals_only=True, tol=sys.float_info.min))
    return (4.0 * solves[2] - solves[1]) / 3.0


@pytest.mark.parametrize("l", [0, 1])
def test_bohr_units_match_physical_units(l):
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=3, l=l)
    reference = _physical_unit_levels(cfg)
    levels = radial_solve(cfg)
    assert len(levels) == len(reference) == 3 - l
    for e, e_ref in zip(levels, reference):
        assert abs(e - e_ref) / abs(e_ref) <= 1e-8


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
    cached = hydrogen._radial_eigenvalues("coulomb", 0.0, 0, 60.0, cfg.n_points, 3)
    assert all(type(e) is float for grid in cached for e in grid)


def test_mass_sweep_solves_once_per_shape():
    # work count, not timing: a sweep over masses and k at n_max 1..4 on the
    # default box needs one eigensolve per n_max; a mass or k in the cache
    # key would make every point miss
    hydrogen._radial_eigenvalues.cache_clear()
    rng = random.Random(7)
    for i in range(20):
        k = rng.uniform(0.5, 4.0)
        cfg = HydrogenConfig(m_f=rng.uniform(0.05, 0.45) * k, mp_f=rng.uniform(0.05, 0.45) * k,
                             k=k, n_max=1 + i % 4)
        closed = bohr_levels(cfg)
        for e, e_closed in zip(radial_solve(cfg), closed):
            assert abs(e - e_closed) / abs(e_closed) <= 1e-6
    info = hydrogen._radial_eigenvalues.cache_info()
    assert info.misses <= 4 and info.hits + info.misses == 20


def test_l_degeneracy():
    # E depends on n only: the lowest l = 1 level equals the n = 2, l = 0 one
    cfg0 = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=3, l=0)
    cfg1 = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=3, l=1)
    e0 = radial_solve(cfg0)
    e1 = radial_solve(cfg1)
    assert abs(e1[0] - e0[1]) / abs(e0[1]) <= 1e-6


def test_convergence_gate_triggers():
    # on 100 points refinement moves the levels by about 7.2e-6 relative,
    # beyond RADIAL_TOL; 400 points move them by 2.8e-8, and the default
    # 1000 points stay well within it
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_points=100)
    with pytest.raises(GridConvergenceError, match="grid too coarse"):
        radial_solve(cfg)


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
    # the near-origin diagonal grows like 1 / ds^4, so eigh_tridiagonal's
    # default absolute tolerance eps * ||T||_1 would leave the ground state
    # off by about 4e-4 relative on 2000 points; the explicit tiny tol keeps
    # the bisection at a few ulp of each level
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=1, n_points=2000)
    (level,) = radial_solve(cfg)
    (closed,) = bohr_levels(cfg)
    assert abs(level - closed) / abs(closed) <= 1e-8


def test_classical_limit():
    deformed = bohr_levels(HydrogenConfig(m_f=0.3, mp_f=0.4, k=1e6))
    classical = bohr_levels(HydrogenConfig(m_f=0.3, mp_f=0.4, k=math.inf))
    for a, b in zip(deformed, classical):
        assert abs(a - b) / abs(b) <= 1e-5


def test_correction_series():
    cfg = HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0)
    series = correction_series(cfg)
    v = masses.classical_reduced(0.3, 0.4)
    x = 2.0 * v / 1.0
    assert series.coefficients[0] == 1.0
    assert abs(series.coefficients[1] - x) <= 1e-15
    assert abs(series.exact_ratio - cfg.v_f / v) <= 1e-12
    assert abs(sum(series.coefficients) + series.truncation_error
               - series.exact_ratio) <= 1e-12


def test_correction_series_classical():
    series = correction_series(HydrogenConfig(m_f=0.3, mp_f=0.4, k=math.inf))
    assert series.coefficients == [1.0] + [0.0] * CORRECTION_ORDER
    assert series.exact_ratio == 1.0
    assert series.truncation_error == 0.0


def test_config_validation():
    with pytest.raises(Exception):
        HydrogenConfig(m_f=0.6, mp_f=0.4, k=1.0)  # above the bound
    with pytest.raises(Exception):
        HydrogenConfig(m_f=0.0, mp_f=0.4, k=1.0)  # massless electron
    with pytest.raises(ValueError):
        HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=1, l=1)
    for bad in [dict(n_max=0), dict(l=-1), dict(n_max=2, l=5), dict(n_points=2),
                dict(n_max=6000), dict(n_max=8, n_points=7)]:
        with pytest.raises(HydrogenDomainError):
            HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, **bad)
    # as many levels as the coarsest grid has interior points is the limit
    HydrogenConfig(m_f=0.3, mp_f=0.4, k=1.0, n_max=8, l=1, n_points=8)
