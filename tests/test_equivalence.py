"""Tests for the unitary equivalence of the coproduct orderings."""

import json
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from kgalilei import equivalence as eq, masses
from kgalilei.cli import run
from kgalilei.masses import VARIABLES, MassDomainError, variable_table
from kgalilei.scalars import sym


def test_adjoint_generator_blocks():
    gen = eq.adjoint_generator(0.3, 0.4)
    assert np.allclose(gen[:2, :2], [[0.0, -0.4], [0.3, 0.0]])
    assert np.allclose(gen[2:, 2:], gen[:2, :2])
    assert np.allclose(gen[:2, 2:], 0.0)


def test_exponential_preserves_pairing():
    rng = random.Random(0)
    for _ in range(25):
        m_f, mp_f = rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0)
        theta = rng.uniform(-3.0, 3.0)
        residual = eq.pairing_residual(expm(theta * eq.adjoint_generator(m_f, mp_f)), m_f, mp_f)
        assert all(value <= 1e-12 for value in residual.values())


def test_exchange_is_involution():
    s = eq.EXCHANGE
    assert np.allclose(s @ s, np.eye(4))


def test_find_theta_reference_point():
    result = eq.find_theta(0.3, 0.4, 1.0)
    assert result.residual <= 1e-12
    # the value the former grid scan plus root polish found
    assert abs(result.theta - (-1.646938045815849)) <= 1e-12
    # theta maps every direct variable onto its tilde counterpart
    direct, tilde = eq.variable_vectors(0.3, 0.4, 1.0)
    for name in ("P", "R", "Pi", "rho"):
        assert np.allclose(result.matrix @ direct[name], tilde[name], atol=1e-12)


@pytest.mark.parametrize("m_f, mp_f, k", [(0.3, 0.4, 1.0), (0.5, 0.3, 1.0), (1e-9, 0.3, 1.0),
                                         (0.3, 0.4, math.inf), (1.19e73, 6.89e247, 2.69e259)])
def test_variable_vectors_are_the_table_rows(m_f, mp_f, k):
    # each vector is its table row in floats, and the residual is the map's
    # largest mismatch over the vectors stacked one row per variable
    lam = [1.0 if math.isinf(k) else math.sqrt((k - 2 * m) / k) for m in (m_f, mp_f)]
    tables = variable_table(m_f, mp_f, *lam, masses.compose(m_f, mp_f, k))
    vectors = eq.variable_vectors(m_f, mp_f, k)
    for table, vector in zip(tables, vectors):
        assert list(vector) == list(VARIABLES)
        for name in VARIABLES:
            assert vector[name].dtype == float and vector[name].tolist() == list(table[name])
    result = eq.find_theta(m_f, mp_f, k)
    before, after = (np.array([v[name] for name in VARIABLES]) for v in vectors)
    scale = max(1.0, float(np.abs(before).max()), float(np.abs(after).max()))
    assert result.residual == float(np.abs(before @ result.matrix.T - after).max()) / scale


@pytest.mark.parametrize("m_f, mp_f, k", [
    (0.5, 0.3, 1.0),         # m_f at the bound k/2
    (0.4999999, 0.3, 1.0),   # just below it
    (1e-9, 1e-9, 1.0),       # both masses tiny
])
def test_find_theta_domain_edges(m_f, mp_f, k):
    result = eq.find_theta(m_f, mp_f, k)
    assert result.residual <= 1e-10


@pytest.mark.parametrize("m_f, mp_f, k", [
    (0.3, 0.4, 1.0),         # interior points
    (0.1, 0.45, 1.0),
    (1.2, 0.7, 5.0),
    (0.5, 0.3, 1.0),         # m_f = k/2
    (0.5, 0.5, 1.0),         # both at k/2: theta* = -pi
    (1e-9, 0.3, 1.0),        # m_f = 1e-9 k
    (1e-9, 1e-9, 1.0),
    (0.3, 0.4, math.inf),    # undeformed: theta* = 0, the identity
])
def test_closed_form_map_matches_expm(m_f, mp_f, k):
    result = eq.find_theta(m_f, mp_f, k)
    reference = expm(result.theta * eq.adjoint_generator(m_f, mp_f))
    assert np.abs(result.matrix - reference).max() <= 1e-14


@pytest.mark.parametrize("m_f, mp_f", [(0.0, 0.3), (0.3, 0.0)])
def test_zero_mass_is_a_domain_error(m_f, mp_f):
    with pytest.raises(MassDomainError):
        eq.find_theta(m_f, mp_f, 1.0)
    with pytest.raises(MassDomainError):
        eq.variable_vectors(m_f, mp_f, 1.0)


def test_theta_block_exact_certificate():
    # in Q(k, lam, lam') with m = (k/2)(1 - lam^2): the adjoint block of
    # exp(theta* G), [[c, -m' sigma], [m sigma, c]], is a rotation of the
    # pairing (c^2 + m m' sigma^2 = 1) and maps each direct vector onto
    # its transposed counterpart, on the momentum and the boost plane
    k, lam, lamp = sym("k"), sym("lam"), sym("lamp")
    m, mp = (k / 2) * (1 - lam ** 2), (k / 2) * (1 - lamp ** 2)
    M = m + mp - 2 * m * mp / k
    c = (lam + lamp) / (1 + lam * lamp)
    sigma = -2 / (k * (1 + lam * lamp))
    assert (c * c + m * mp * sigma * sigma - 1).is_zero
    direct, tilde = variable_table(m, mp, lam, lamp, M)
    for name in VARIABLES:
        u, v = direct[name], tilde[name]
        for a, b in ((0, 1), (2, 3)):
            assert (c * u[a] - mp * sigma * u[b] - v[a]).is_zero, name
            assert (m * sigma * u[a] + c * u[b] - v[b]).is_zero, name


def test_find_theta_random_masses():
    rng = random.Random(1)
    for _ in range(25):
        k = rng.uniform(0.5, 10.0)
        m_f = rng.uniform(0.01, 0.499) * k
        mp_f = rng.uniform(0.01, 0.499) * k
        result = eq.find_theta(m_f, mp_f, k)
        assert result.residual <= 1e-10
        residual = eq.pairing_residual(result.matrix, m_f, mp_f)
        assert all(value <= 1e-9 for value in residual.values())


def _theta_oracle(m_f, mp_f, k, digits=60):
    """(theta*, c, sigma) of the exact adjoint block [[c, -m'_f sigma],
    [m_f sigma, c]] of exp(theta* G), in mpmath; theta* = atan2(omega sigma,
    c) / omega, and the identity (theta* = 0) at k = inf."""
    with mpmath.workdps(digits):
        m_f, mp_f = mpmath.mpf(m_f), mpmath.mpf(mp_f)
        if math.isinf(k):
            return mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
        k = mpmath.mpf(k)
        lam, lamp = mpmath.sqrt((k - 2 * m_f) / k), mpmath.sqrt((k - 2 * mp_f) / k)
        omega = mpmath.sqrt(m_f * mp_f)
        c = (lam + lamp) / (1 + lam * lamp)
        sigma = -2 / (k * (1 + lam * lamp))
        return mpmath.atan2(omega * sigma, c) / omega, c, sigma


@pytest.mark.parametrize("m_f, mp_f, k", [
    (1e-10, 1e-10, 1e305),     # omega sigma = -1e-315 is subnormal
    (1e-160, 1e-160, 1e200),   # omega sigma = -1e-360 underflows to zero
    # m_f m'_f overflows
    (3.623730029388059e+220, 4.1058744948544265e+160, 1.2348930276464552e+223),
    (0.3, 0.4, 1.0),
    (1e-9, 0.3, 1.0),
    (0.4999999, 0.4999999, 1.0),
    (2e-301, 4e-301, 1e-300),  # sigma = -1.4e300
    # 1 - 2 m_f / k near 0 at k != 1, where rounding 2 m_f / k first
    # misses theta* by 1e5 - 4e6 ulp
    (4999.999999999, 4999.99999999, 1e4),
    (0.35 * (1 - 3e-16), 0.35, 0.7),
    (1e300 * (1 - 1e-15), 3e299, 2e300),
    # theta* = 1.8e-307 at |omega sigma / c| = 3e7, where sigma times
    # atan(x) / x is subnormal
    (8.930069211981554e+306, 8.930069211981554e+306, 1.7860138423963112e+307),
])
def test_theta_matches_closed_form_at_50_digits(m_f, mp_f, k):
    # theta* to 1e-14 relative at every scale, also where omega sigma is
    # subnormal, m_f m'_f overflows or a mass is near k/2
    theta = eq.find_theta(m_f, mp_f, k).theta
    expected = _theta_oracle(m_f, mp_f, k, digits=50)[0]
    assert abs(theta - expected) <= 1e-14 * abs(expected)


# 60-digit mpmath oracles for theta* and the map exp(theta* G) across the
# documented domain.  k is log-uniform from below the smallest normal float
# up to the largest float, or infinite; each mass is log-uniform below k/2
# (the largest float at k = inf) from subnormal sizes up, within a relative
# 1e-16 - 1e-1 of k/2, or k/2 itself.  theta* and every entry of the map are
# within THETA_ULPS of the oracle, or find_theta raises MassDomainError
# exactly where an input lies outside the normal float range (a mass of 0
# included) or, at k = inf, the composed mass of its variables lies past
# the largest float.  The measured worst case over 33,000 draws was 3.7 ulp for
# theta* and 2.8 ulp for an entry; the bound is the 8 ulp of the mass oracles.

THETA_ULPS = 8


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(math.exp(x), hi))


_DEFORMATION = st.one_of(_log_uniform(1e-310, sys.float_info.max), st.just(math.inf))


def _mass(k):
    bound = sys.float_info.max if math.isinf(k) else k / 2
    return st.one_of(_log_uniform(1e-320, bound),
                     _log_uniform(1e-16, 1e-1).map(lambda d: bound * (1 - d)),
                     st.just(bound))


@st.composite
def _theta_case(draw):
    k = draw(_DEFORMATION)
    return k, draw(_mass(k)), draw(_mass(k))


def _within_ulps(value, exact):
    ulp = mpmath.mpf(math.ulp(float(exact)))
    with mpmath.workdps(60):
        return abs(mpmath.mpf(value) - exact) <= THETA_ULPS * ulp


def _map_oracle(m_f, mp_f, k):
    """The 4x4 map c I + sigma ad G on BASIS, from the 60-digit oracle."""
    _, c, sigma = _theta_oracle(m_f, mp_f, k)
    with mpmath.workdps(60):
        block = [[c, -mpmath.mpf(mp_f) * sigma], [mpmath.mpf(m_f) * sigma, c]]
    zero = mpmath.mpf(0)
    return [[block[i % 2][j % 2] if i // 2 == j // 2 else zero for j in range(4)]
            for i in range(4)]


def _outside(k, m_f, mp_f):
    """An input below the smallest normal float, or at k = inf a composed
    mass m_f + m'_f that rounds past the largest float."""
    return (min(k, m_f, mp_f) < sys.float_info.min
            or math.isinf(k) and m_f + mp_f == math.inf)


@given(_theta_case())
@settings(max_examples=300, deadline=None)
def test_find_theta_matches_the_mpmath_oracle(drawn):
    k, m_f, mp_f = drawn
    try:
        result = eq.find_theta(m_f, mp_f, k)
    except MassDomainError:
        assert _outside(k, m_f, mp_f), drawn
        return
    assert not _outside(k, m_f, mp_f), drawn
    theta = _theta_oracle(m_f, mp_f, k)[0]
    assert _within_ulps(result.theta, theta), (result.theta, float(theta))
    for row, exact_row in zip(result.matrix, _map_oracle(m_f, mp_f, k)):
        for value, exact in zip(row, exact_row):
            assert _within_ulps(value, exact), (value, float(exact))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_us_matrix_matches_the_mpmath_oracle(data):
    k = data.draw(_DEFORMATION)
    m_f = data.draw(_mass(k))
    try:
        us = eq.us_matrix(m_f, k)
    except MassDomainError:
        assert _outside(k, m_f, m_f), (k, m_f)
        return
    assert not _outside(k, m_f, m_f), (k, m_f)
    # U S is U with the columns of each particle pair swapped
    for row, exact_row in zip(us, _map_oracle(m_f, m_f, k)):
        exact_row = [exact_row[1], exact_row[0], exact_row[3], exact_row[2]]
        for value, exact in zip(row, exact_row):
            assert _within_ulps(value, exact), (value, float(exact))


def test_nan_map_fails_the_theta_gate(monkeypatch):
    # a NaN coefficient gap is a failed validation, never a zero residual
    monkeypatch.setattr(eq, "adjoint_generator", lambda m_f, mp_f: np.full((4, 4), np.nan))
    with pytest.raises(eq.StructuralFailureError, match="nan"):
        eq.find_theta(0.3, 0.4, 1.0)


class _SkewedAtan:
    """``math`` whose atan and atan2 return (1 + 1e-6) times the true value."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def atan(x):
        return math.atan(x) * (1 + 1e-6)

    @staticmethod
    def atan2(y, x):
        return math.atan2(y, x) * (1 + 1e-6)


@pytest.mark.parametrize("m_f, mp_f, k", [
    (0.3, 0.4, 1.0),
    (1e-8, 1e-8, 1.0),       # the map's residual moves by 1e-14 only
    (0.3, 0.4, 1e6),         # by 3e-13
    (1e-3, 1e-3, 1e3),       # by 1e-12
])
def test_theta_off_by_a_relative_1e6_fails(monkeypatch, capsys, m_f, mp_f, k):
    # fault injection: theta* one part in a million off fails the theta gate
    # at every scale, where the map's residual, relative to its largest
    # coefficient, stays far below THETA_TOL at three of these points
    argv = ["verify", "equivalence", "--mf", str(m_f), "--mfp", str(mp_f), "--k", str(k),
            "--format", "json"]
    assert eq.find_theta(m_f, mp_f, k).residual <= eq.THETA_TOL
    monkeypatch.setattr(eq, "math", _SkewedAtan())
    with pytest.raises(eq.StructuralFailureError, match="relative"):
        eq.find_theta(m_f, mp_f, k)
    assert run(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [("theta-maps-all-variables", "fail")]
    assert checks[0]["residual"] >= 1e-7


class _TurnedAtan:
    """``math`` whose atan and atan2 return the true value minus pi."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def atan(x):
        return math.atan(x) - math.pi

    @staticmethod
    def atan2(y, x):
        return math.atan2(y, x) - math.pi


@pytest.mark.parametrize("m_f, mp_f, k", [
    (0.3, 0.4, 1.0),         # theta* from atan(x) / x
    (0.5, 0.5, 1.0),         # from atan2, at c = 0
])
def test_theta_turned_by_pi_fails(monkeypatch, m_f, mp_f, k):
    # fault injection: theta* - pi / omega keeps c sin(omega theta) =
    # omega sigma cos(omega theta), and the map is formed from c and sigma,
    # so only the direction of the unit vector at angle omega theta fails it
    monkeypatch.setattr(eq, "math", _TurnedAtan())
    with pytest.raises(eq.StructuralFailureError, match="against"):
        eq.find_theta(m_f, mp_f, k)


def test_theta_vanishes_in_classical_limit():
    result = eq.find_theta(0.3, 0.4, 1e6)
    assert abs(result.theta) <= 1e-5
    result = eq.find_theta(0.3, 0.4, math.inf)
    assert abs(result.theta) <= 1e-12


def test_involution_identical_masses():
    for m_f, k in ((0.3, 1.0), (0.1, 1.0), (0.49, 1.0), (1.0, 10.0)):
        assert eq.check_involution(eq.us_matrix(m_f, k)) <= 1e-10


def test_us_fixes_total_and_flips_relative():
    m_f, k = 0.3, 1.0
    us = eq.us_matrix(m_f, k)
    tilde = eq.variable_vectors(m_f, m_f, k)[1]
    for name, sign in (("P", +1), ("R", +1), ("Pi", -1), ("rho", -1)):
        v = tilde[name]
        assert np.allclose(us @ v, sign * v, atol=1e-12), name


def _mesh(points):
    grid = np.linspace(-2.0, 2.0, points)
    return np.meshgrid(grid, grid, indexing="ij")


def test_projectors_idempotent_and_complementary():
    p, pp = _mesh(31)
    us = eq.us_matrix(0.3, 1.0)
    f = lambda p, pp: np.exp(-(p - 0.4) ** 2 - 2.0 * (pp + 0.2) ** 2)
    fp, fm = eq.project(+1, us, f), eq.project(-1, us, f)
    assert np.abs(eq.project(+1, us, fp)(p, pp) - fp(p, pp)).max() <= 1e-12
    assert np.abs(eq.project(-1, us, fm)(p, pp) - fm(p, pp)).max() <= 1e-12
    assert np.abs(fp(p, pp) + fm(p, pp) - f(p, pp)).max() <= 1e-12
    # cross projection annihilates: P_- P_+ f = 0
    assert np.abs(eq.project(-1, us, fp)(p, pp)).max() <= 1e-12


def test_projected_functions_have_us_parity():
    p, pp = _mesh(31)
    us = eq.us_matrix(0.3, 1.0)
    f = lambda p, pp: np.exp(-(p - 0.4) ** 2 - 2.0 * (pp + 0.2) ** 2)
    fp, fm = eq.project(+1, us, f), eq.project(-1, us, f)
    assert np.abs(eq.apply_us(us, fp)(p, pp) - fp(p, pp)).max() <= 1e-12
    assert np.abs(eq.apply_us(us, fm)(p, pp) + fm(p, pp)).max() <= 1e-12


def test_even_and_odd_eigenfunctions():
    # functions of the US-invariant (total) and US-odd (relative) combinations
    m_f, k = 0.3, 1.0
    us = eq.us_matrix(m_f, k)
    tilde = eq.variable_vectors(m_f, m_f, k)[1]
    ctot = tilde["P"][:2]
    crel = tilde["Pi"][:2]
    total = lambda p, pp: ctot[0] * p + ctot[1] * pp
    rel = lambda p, pp: crel[0] * p + crel[1] * pp
    even = lambda p, pp: np.exp(-total(p, pp) ** 2) * np.cos(rel(p, pp))
    odd = lambda p, pp: np.exp(-total(p, pp) ** 2) * np.sin(rel(p, pp))
    p, pp = _mesh(31)
    # even functions survive P_+ unchanged and are killed by P_-
    assert np.abs(eq.project(+1, us, even)(p, pp) - even(p, pp)).max() <= 1e-12
    assert np.abs(eq.project(-1, us, even)(p, pp)).max() <= 1e-12
    # odd functions survive P_- unchanged and are killed by P_+
    assert np.abs(eq.project(-1, us, odd)(p, pp) - odd(p, pp)).max() <= 1e-12
    assert np.abs(eq.project(+1, us, odd)(p, pp)).max() <= 1e-12


def test_classical_limit_us_is_plain_exchange():
    assert np.allclose(eq.us_matrix(0.3, math.inf), eq.EXCHANGE, atol=1e-10)


def test_invalid_inputs():
    with pytest.raises(Exception):
        eq.adjoint_generator(-0.1, 0.2)
    with pytest.raises(ValueError):
        eq.project(0, eq.us_matrix(0.3, 1.0), lambda p, pp: p)
