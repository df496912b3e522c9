"""Tests for the numeric projective Galilei action and cocycle extraction."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.ndimage import map_coordinates

import kgalilei
from kgalilei import gridrep
from kgalilei.gridrep import (
    AMPLITUDE_CUT,
    CUBE_ROTATIONS,
    SPREAD_TOL,
    GridWavefunction,
    GroupElement,
    SeparablePacket,
    OutOfGridError,
    ProjectivityError,
    act,
    angle_difference,
    cocycle_angle,
    cocycle_phase,
    expected_cocycle_angle,
    galilei_multiply,
    gaussian_packet,
    random_in_grid_element,
    random_in_grid_tuple,
    _act_factors,
    _actions,
    _resample,
    _tap_table,
)


def random_element(rng):
    # generic (not grid-snapped) element with a random cube rotation
    return GroupElement(
        tau=rng.uniform(-1, 1),
        a=rng.uniform(-1, 1, size=3),
        v=rng.uniform(-0.5, 0.5, size=3),
        R=CUBE_ROTATIONS[int(rng.integers(len(CUBE_ROTATIONS)))],
    )


def test_group_law_associative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        a = galilei_multiply(galilei_multiply(g1, g2), g3)
        b = galilei_multiply(g1, galilei_multiply(g2, g3))
        assert abs(a.tau - b.tau) <= 1e-12
        assert np.abs(a.a - b.a).max() <= 1e-12
        assert np.abs(a.v - b.v).max() <= 1e-12
        assert np.abs(a.R - b.R).max() <= 1e-12


def test_inverse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_element(rng)
        e = galilei_multiply(g, g.inverse())
        assert abs(e.tau) <= 1e-12
        assert np.abs(e.a).max() <= 1e-12
        assert np.abs(e.v).max() <= 1e-12
        assert np.abs(e.R - np.eye(3)).max() <= 1e-12


def test_rotation_validation():
    for R in (np.diag([1.0, 1.0, -1.0]),  # improper
              2.0 * np.eye(3), np.eye(3)[:2], np.full((3, 3), np.nan)):
        with pytest.raises(ValueError, match="cube rotations"):
            GroupElement(R=R)


def test_product_and_inverse_stay_in_the_rotation_table():
    # all 576 products and 24 inverses are table matrices, and an element
    # keeps the table's own matrix
    table = {id(Q) for Q in CUBE_ROTATIONS}
    for R in CUBE_ROTATIONS:
        g = GroupElement(R=R)
        assert g.R is R
        inverse = g.inverse().R
        assert id(inverse) in table and np.array_equal(inverse, R.T)
        for Q in CUBE_ROTATIONS:
            product = galilei_multiply(g, GroupElement(R=Q)).R
            assert id(product) in table and np.array_equal(product, R @ Q)


def test_negative_zero_entries_name_the_same_rotation():
    # the table compares entry values, so -0.0 reads as 0.0
    psi = gaussian_packet(n=16, center=(1.25, 0.25, -0.75))
    for R in CUBE_ROTATIONS:
        signed = np.where(R == 0.0, -0.0, R)
        assert np.signbit(signed).sum() > np.signbit(R).sum()
        g = GroupElement(tau=0.3, a=np.array([0.2, -0.1, 0.4]), v=np.array([0.5, 0.0, -0.5]),
                         R=signed)
        assert g.R is R
        out = act(g, psi).values
        same = act(GroupElement(tau=0.3, a=g.a, v=g.v, R=R), psi).values
        assert np.array_equal(out, same)


def test_identity_acts_trivially():
    psi = gaussian_packet(n=16)
    out = act(GroupElement(), psi)
    assert np.abs(out.values - psi.values).max() <= 1e-12


def test_translation_is_pure_phase():
    psi = gaussian_packet(n=16)
    g = GroupElement(a=np.array([0.7, -0.2, 0.1]))
    out = act(g, psi)
    assert np.abs(np.abs(out.values) - np.abs(psi.values)).max() <= 1e-12
    px, py, pz = psi.mesh()
    phase = np.exp(1j * (px * 0.7 - py * 0.2 + pz * 0.1))
    assert np.abs(out.values - phase * psi.values).max() <= 1e-12


def test_boost_moves_packet():
    # psi(p) -> psi(p - m_f v): the packet's center moves to p0 + m_f v
    psi = gaussian_packet(n=32, m_f=2.0)
    v = np.array([psi.spacing, 0.0, 0.0])  # one grid cell, exact under interpolation
    out = act(GroupElement(v=v), psi)
    px, _, _ = psi.mesh()
    weights = np.abs(out.values) ** 2
    center = float((px * weights).sum() / weights.sum())
    assert abs(center - 2.0 * psi.spacing) <= 1e-10


def test_axis_aligned_rotation_exact():
    psi = gaussian_packet(n=16, center=(1.25, 0.25, -0.75))
    mats = CUBE_ROTATIONS
    assert len(mats) == 24
    # one shared table: every draw reads the same matrices, so none may change
    assert not any(R.flags.writeable for R in mats)
    for R in mats[:6]:
        out = act(GroupElement(R=R), psi)
        assert abs(out.norm() - psi.norm()) <= 1e-12


def reference_act(g, psi):
    """The action written out on the full 3-D mesh: one exp for the phase and
    map_coordinates on the real and imaginary parts for the argument."""
    px, py, pz = psi.mesh()
    phase = np.exp(1j * (-(px ** 2 + py ** 2 + pz ** 2) * g.tau / (2.0 * psi.m_f)
                         + px * g.a[0] + py * g.a[1] + pz * g.a[2]))
    s = (px - psi.m_f * g.v[0], py - psi.m_f * g.v[1], pz - psi.m_f * g.v[2])
    Rinv = g.R.T
    coords = [(sum(Rinv[i, j] * s[j] for j in range(3)) + psi.p_max) / psi.spacing - 0.5
              for i in range(3)]
    moved = [map_coordinates(part, coords, order=1, mode="constant", cval=0.0)
             for part in (psi.values.real, psi.values.imag)]
    return phase * (moved[0] + 1j * moved[1])


def test_separable_action_matches_map_coordinates():
    # every cube rotation's slab copies match the 3-D resampling, also for
    # fractional boosts and points moved past the grid edge.  At m_f = 1.0,
    # the mass of the cocycle demo, a whole-cell boost lands on exact integer
    # indices, so the single-copy case is exercised too
    rng = np.random.default_rng(7)
    for n, m_f in itertools.product((8, 16, 32), (1.3, 1.0)):
        values = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
        psi = GridWavefunction(values, 8.0, m_f)
        # whole cells within the guard's p_max/4, and a fractional boost
        most = int(n / (8 * math.sqrt(3)))
        for R in CUBE_ROTATIONS:
            cells = rng.integers(-most, most + 1, size=3)
            for v in (cells * psi.spacing / psi.m_f, rng.uniform(-1.1, 1.1, size=3) / m_f):
                g = GroupElement(tau=rng.uniform(-2, 2), a=rng.uniform(-2, 2, size=3),
                                 v=v, R=R)
                out = act(g, psi).values
                assert np.abs(out - reference_act(g, psi)).max() <= 1e-12


def boost_within_guard(psi, cells):
    """A boost by ``cells`` grid cells per axis, shortened to fit the p_max/4 guard."""
    shift = np.array(cells) * psi.spacing
    norm, fits = np.linalg.norm(shift), 0.99 * psi.p_max / 4
    if norm > fits:
        shift *= fits / norm
    return shift / psi.m_f


_CELLS = st.tuples(*[st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0))
                     for _ in range(3)])


@given(n=st.integers(2, 16), rotation=st.integers(0, 23), m_f=st.sampled_from([1.0, 1.3]),
       cells=_CELLS, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_cube_rotation_act_edges_hypothesis(n, rotation, m_f, cells, seed):
    # small grids, whole and fractional boosts in grid cells; a boost past
    # the p_max/4 guard is shortened to fit it, losing its whole cells
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
    psi = GridWavefunction(values, 8.0, m_f)
    g = GroupElement(tau=rng.uniform(-2, 2), a=rng.uniform(-2, 2, size=3),
                     v=boost_within_guard(psi, cells), R=CUBE_ROTATIONS[rotation])
    out = act(g, psi).values
    assert np.abs(out - reference_act(g, psi)).max() <= 1e-12


@pytest.mark.parametrize("step", [1, -1])
def test_slab_moved_off_the_grid_has_no_taps(step):
    # a whole slab moved past either edge (or read at NaN) reads nothing;
    # one cell short of that, a single output point reads the edge sample.
    # Every case is a row of one table
    n = 6
    start = 0 if step > 0 else n - 1
    rows = [start + step * np.arange(n) + shift
            for shift in (n, n + 0.5, 40.0, -n, -n - 0.25, -40.0)]
    rows += [np.full(n, np.nan), start + step * np.arange(n) + (n - 1)]
    *off, ((weight, dst, src),) = _tap_table(np.array(rows), [step] * len(rows))
    assert off == [[]] * 7
    assert weight == 1.0
    assert len(range(n)[dst]) == 1 and list(range(n)[src]) == [n - 1]


def reference_resample(c, f):
    """The 1-D linear interpolation of ``f`` at the fractional indices ``c``,
    point by point: floor and fraction of each point, and 0 off the grid."""
    n, out = len(f), np.zeros(len(c), dtype=complex)
    for q, x in enumerate(c):
        if 0.0 <= x <= n - 1:  # NaN is neither
            i = math.floor(x)
            t = x - i
            out[q] = (1.0 - t) * f[i] + (t * f[i + 1] if t else 0.0)
    return out


def _tap_rows(n):
    """Up to nine (step, shift) rows for an n-point axis."""
    shift = st.one_of(st.integers(-n - 2, n + 2).map(float),   # whole cells, also off the grid
                      st.floats(-n - 2.0, n + 2.0),            # fractional, across either edge
                      st.sampled_from([40.0, -40.0, math.nan, math.inf, -math.inf]))
    return st.tuples(st.just(n), st.lists(st.tuples(st.sampled_from([1, -1]), shift),
                                          min_size=1, max_size=9))


@given(case=st.integers(1, 16).flatmap(_tap_rows), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_tap_table_matches_the_per_point_reference_hypothesis(case, seed):
    # one table for up to nine rows, each moved by whole cells, by a
    # fraction, past either edge or to NaN, in either step direction: every
    # row's resample is the per-point interpolation, to rounding of the
    # fraction, which the table reads at a row's first point on the grid
    n, rows = case
    f = np.array([1.0, 1j]) @ np.random.default_rng(seed).normal(size=(2, n))
    c = np.array([(0 if step > 0 else n - 1) + step * np.arange(n) + shift
                  for step, shift in rows])
    table = _tap_table(c, [step for step, _ in rows])
    assert len(table) == len(rows)
    for row, taps in zip(c, table):
        out = np.zeros(n, dtype=complex)
        _resample(out, f, [taps])
        assert np.abs(out - reference_resample(row, f)).max() <= 1e-12 * np.abs(f).max()


def test_generic_rotation_is_rejected():
    # the grid resamples only along its axes, so a group element carries a
    # cube rotation alone: any other proper rotation is rejected when built
    from scipy.spatial.transform import Rotation
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    for R in (np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),  # 30 degrees about z
              Rotation.random(random_state=3).as_matrix()):
        assert abs(np.linalg.det(R) - 1.0) <= 1e-12
        with pytest.raises(ValueError, match="cube rotations"):
            GroupElement(R=R)


def test_out_of_grid_guard():
    psi = gaussian_packet(n=16, p_max=8.0)
    with pytest.raises(OutOfGridError):
        act(GroupElement(v=np.array([3.0, 0.0, 0.0])), psi)


def random_packet(rng, n, m_f=1.0):
    """A separable packet with random complex factors."""
    return SeparablePacket(rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)), 8.0, m_f)


def test_separable_packet_is_the_outer_product_of_its_factors():
    # values is the dense product, built on each read and read-only; the
    # grid and the norm are those of the dense packet, and a Gaussian's
    # factors multiply out to exp(-r^2 / 2 w^2) to rounding
    rng = np.random.default_rng(8)
    psi = random_packet(rng, 6, m_f=1.3)
    dense = GridWavefunction(np.einsum("i,j,k->ijk", *psi.factors), 8.0, 1.3)
    assert psi.n == dense.n == 6 and psi.spacing == dense.spacing
    assert np.array_equal(psi.axis(), dense.axis())
    assert np.abs(psi.values - dense.values).max() <= 1e-15 * np.abs(dense.values).max()
    assert math.isclose(psi.norm(), dense.norm(), rel_tol=1e-13)
    assert psi.values is not psi.values
    with pytest.raises(ValueError, match="read-only"):
        psi.values[0, 0, 0] = 0
    for bad in (np.zeros(6), np.zeros((2, 6)), np.zeros((3, 6, 1))):
        with pytest.raises(ValueError, match="factors must be"):
            SeparablePacket(bad, 8.0, 1.0)
    gaussian = gaussian_packet(n=16, center=(1.25, 0.25, -0.75), width=0.8)
    px, py, pz = gaussian.mesh()
    r2 = (px - 1.25) ** 2 + (py - 0.25) ** 2 + (pz + 0.75) ** 2
    assert np.abs(gaussian.values - np.exp(-r2 / (2 * 0.8 ** 2))).max() <= 1e-15


@given(n=st.integers(2, 16), rotation=st.integers(0, 23), m_f=st.sampled_from([1.0, 1.3]),
       cells=_CELLS, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_separable_action_matches_the_dense_act_hypothesis(n, rotation, m_f, cells, seed):
    # the factor-wise action, multiplied out, is the dense act of the
    # multiplied-out packet, for whole and fractional boosts, also where
    # they move samples past the grid edge
    rng = np.random.default_rng(seed)
    psi = random_packet(rng, n, m_f)
    g = GroupElement(tau=rng.uniform(-2, 2), a=rng.uniform(-2, 2, size=3),
                     v=boost_within_guard(psi, cells), R=CUBE_ROTATIONS[rotation])
    out = SeparablePacket(_act_factors(_actions((g,), psi)[0], psi.factors),
                          psi.p_max, psi.m_f).values
    assert np.abs(out - act(g, psi).values).max() <= 1e-12


def test_repeated_cocycle_extraction_allocates_no_grid():
    # work guard: on the largest demo grid, n = 128, an extraction's peak
    # allocation stays below an eighth of one complex n^3 grid (32 MB) on
    # every draw, so it builds no grid of any dtype
    psi = gaussian_packet(n=128)
    grid = np.dtype(complex).itemsize * psi.n ** 3 // 8
    rng = np.random.default_rng(9)
    tracemalloc.start()
    try:
        for _ in range(5):
            g, gp = random_in_grid_tuple(rng, psi, 2)
            tracemalloc.reset_peak()
            cocycle_phase(g, gp, psi)
            assert tracemalloc.get_traced_memory()[1] < grid
    finally:
        tracemalloc.stop()


def literal_cocycle(g, gp, psi):
    """cocycle_phase spelled out from the dense act on whole grids: the
    phase, or the exception that cocycle_phase must raise."""
    try:
        lhs = act(g, act(gp, psi)).values
        rhs = act(galilei_multiply(g, gp), psi).values
    except ValueError as exc:  # a boost past the guard, or a packet that is not finite
        return exc
    amplitude = np.abs(rhs)
    peak = amplitude.max()
    if not np.isfinite(peak):
        return ValueError("not finite")
    if peak == 0:
        return ValueError("vanishes")
    mask = amplitude >= AMPLITUDE_CUT * peak
    ratio = lhs[mask] / rhs[mask]
    mean = ratio.mean()
    spread = float(np.abs(ratio - mean).max())
    if not spread <= SPREAD_TOL:
        return ProjectivityError(spread)
    if not abs(mean) > SPREAD_TOL:
        return ProjectivityError(1.0 - abs(mean), "vanishes on the grid")
    return complex(mean / abs(mean))


def matches_literal(g, gp, psi) -> bool:
    """Assert that cocycle_phase returns the literal phase to 1e-12, or raises
    the literal's exception (a ProjectivityError with its spread, NaN alike);
    True if projective."""
    expected = literal_cocycle(g, gp, psi)
    if isinstance(expected, complex):
        assert abs(cocycle_phase(g, gp, psi) - expected) <= 1e-12
        return True
    with pytest.raises(Exception) as raised:
        cocycle_phase(g, gp, psi)
    assert type(raised.value) is type(expected)
    if isinstance(expected, ProjectivityError):
        assert str(raised.value).split(" (")[0] == str(expected).split(" (")[0]
        got, want = raised.value.spread, expected.spread
        assert math.isnan(got) == math.isnan(want)
        assert math.isnan(got) or math.isclose(got, want, rel_tol=1e-9)
    else:
        assert str(expected) in str(raised.value)
    return False


@pytest.mark.parametrize("n", [8, 16, 32])
def test_cocycle_phase_equals_the_whole_grid_literal_on_draws(n):
    # seeded whole-cell draws, on an off-centre Gaussian, whose kept points
    # fill a small box, and on random complex factors, whose kept points
    # spread over much of the grid: there a boost moves samples off the grid
    # edge that the product's action keeps, so most of those pairs are not
    # projective
    rng = np.random.default_rng(20 + n)
    psi = gaussian_packet(n=n, center=(0.75, -0.5, 1.25))
    for _ in range(10):
        assert matches_literal(*random_in_grid_tuple(rng, psi, 2), psi)
    psi = random_packet(rng, n)
    for _ in range(10):
        matches_literal(*random_in_grid_tuple(rng, psi, 2), psi)


def test_cocycle_phase_equals_the_literal_on_fractional_boosts():
    # g' boosts by fractions of a cell, read through two taps per axis, after
    # which g rotates and moves by whole cells: projective on a Gaussian.
    # With g boosted by fractions of a cell too, the two interpolations do
    # not compose, and the ProjectivityError carries the literal spread.  On
    # random complex factors either outcome is the literal's
    gaussian = gaussian_packet(n=24, m_f=1.3, center=(0.5, -0.25, 0.75))
    rng = np.random.default_rng(30)
    noise = random_packet(rng, 24, m_f=1.3)
    cells = gaussian.spacing / gaussian.m_f

    def element(v):
        return GroupElement(tau=rng.uniform(-1, 1), a=rng.uniform(-1, 1, size=3), v=v,
                            R=CUBE_ROTATIONS[int(rng.integers(len(CUBE_ROTATIONS)))])

    for _ in range(12):
        gp = element(rng.uniform(-1.0, 1.0, size=3) * cells)
        one_cell = np.zeros(3)
        one_cell[rng.integers(3)] = rng.choice([-1.0, 1.0]) * cells
        g, fractional = element(one_cell), element(rng.uniform(-0.5, 0.5, size=3) * cells)
        assert matches_literal(g, gp, gaussian)
        assert not matches_literal(fractional, gp, gaussian)
        matches_literal(g, gp, noise)
        matches_literal(fractional, gp, noise)


def test_cocycle_phase_equals_the_literal_past_the_grid_edge():
    # a packet near the +x face, moved one cell further out by each element:
    # its outer part leaves the grid, and the kept points reach the last
    # slab.  Random complex factors reach the last slab anyway
    psi = gaussian_packet(n=16, center=(5.75, 0.5, -0.5))
    noise = random_packet(np.random.default_rng(31), 16)
    h = psi.spacing
    g = GroupElement(tau=0.3, a=np.array([0.4, -0.2, 0.1]), v=np.array([h, 0.0, 0.0]))
    gps = [GroupElement(tau=-0.6, a=np.array([0.1, 0.3, -0.5]), v=np.array([h, 0.0, 0.0])),
           GroupElement(tau=0.2, a=np.array([-0.3, 0.1, 0.2]), v=np.array([0.6 * h, 0.0, 0.0]))]
    for gp in gps:
        rhs = act(galilei_multiply(g, gp), psi).values
        amplitude = np.abs(rhs)
        assert (amplitude[-1] >= AMPLITUDE_CUT * amplitude.max()).any()
        assert matches_literal(g, gp, psi)
        matches_literal(g, gp, noise)
    # two lobes on the x factor: act(g g) moves the taller, at the +x face,
    # off the grid, and its peak is the lower one's
    lobes = gaussian_packet(n=16, center=(7.5, 0.5, 0.5), width=0.5)
    lobes.factors[0] += 0.3 * gaussian_packet(n=16, center=(-2.5, 0.0, 0.0)).factors[0]
    product = act(galilei_multiply(g, g), lobes).values
    assert np.abs(product).max() < 0.5 * np.abs(lobes.values).max()
    assert matches_literal(g, g, lobes)


@given(n=st.integers(8, 24), gaussian=st.booleans(),
       cells=st.tuples(*[st.one_of(st.just(0.0), st.floats(-0.5, 0.5)) for _ in range(3)]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=10, gaussian=True, cells=(0.0, 0.0, 0.0), seed=233163471)
@settings(max_examples=100, deadline=None)
def test_separable_cocycle_matches_the_dense_literal_hypothesis(n, gaussian, cells, seed):
    # a seeded whole-cell pair on an off-centre Gaussian or random complex
    # factors, with g' boosted further by up to half a cell per axis: the
    # phase of the literal, or its exception (also a boost past the guard).
    # The example's act(g') moves the peak of one factor off the grid, so
    # act(g) act(g') psi is zero on every kept point: no phase
    rng = np.random.default_rng(seed)
    psi = (gaussian_packet(n=n, center=rng.uniform(-6, 6, size=3), width=rng.uniform(0.5, 2))
           if gaussian else random_packet(rng, n))
    g, gp = random_in_grid_tuple(rng, psi, 2)
    gp = GroupElement(tau=gp.tau, a=gp.a, v=gp.v + np.array(cells) * psi.spacing / psi.m_f,
                      R=gp.R)
    matches_literal(g, gp, psi)


def test_cocycle_phase_makes_no_whole_grid_action(monkeypatch):
    # work guard, counting calls, not time: an extraction calls no act,
    # never builds the packet's dense values, builds one tap table and runs
    # one np.exp for its three actions, then makes three factor-wise actions
    psi = gaussian_packet(n=32)
    rng = np.random.default_rng(11)
    calls = []

    def counted(name, function):
        return lambda *args: calls.append(name) or function(*args)

    monkeypatch.setattr(gridrep, "act", lambda *args: calls.append("act"))
    monkeypatch.setattr(SeparablePacket, "values", property(lambda self: calls.append("values")))
    monkeypatch.setattr(gridrep, "_tap_table", counted("taps", gridrep._tap_table))
    monkeypatch.setattr(gridrep, "_act_factors", counted("factors", gridrep._act_factors))
    for _ in range(10):
        g, gp = random_in_grid_tuple(rng, psi, 2)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "exp", counted("exp", np.exp))
            cocycle_phase(g, gp, psi)
        assert calls == ["taps", "exp"] + ["factors"] * 3


@pytest.mark.filterwarnings("error")
def test_vanishing_or_non_finite_packet_is_named(monkeypatch):
    # an all-zero packet has no peak to cut at, and a NaN or infinite factor
    # entry is refused before any phase multiplies it; each is a ValueError
    # naming its cause, the literal's where the dense packet can be built
    # without a warning.  A dense packet is refused
    g, gp = GroupElement(tau=0.3), GroupElement(a=np.array([0.1, 0.0, 0.0]))
    zero = SeparablePacket(np.zeros((3, 8)), 8.0, 1.0)
    with pytest.raises(ValueError, match="vanishes"):
        cocycle_angle(g, gp, zero)
    assert not matches_literal(g, gp, zero)
    for bad in (np.nan, np.inf):
        psi = gaussian_packet(n=8)
        psi.factors[1, 4] = bad
        with pytest.raises(ValueError, match="not finite"):
            cocycle_angle(g, gp, psi)
    psi.factors[1, 4] = np.nan
    assert not matches_literal(g, gp, psi)
    # dense act on a separable packet forms the outer product of its factors
    # with no warning, although it would multiply an infinite entry by
    # another factor's imaginary 0 into NaN, or overflow from finite entries
    # of 1e200 on three axes, and refuses it
    for bad in (np.nan, np.inf, -np.inf):
        psi = gaussian_packet(n=8)
        psi.factors[1, 4] = bad
        with pytest.raises(ValueError, match="not finite"):
            act(GroupElement(), psi)
    psi = gaussian_packet(n=8)
    psi.factors[:, 4] = 1e200
    with pytest.raises(ValueError, match="not finite"):
        act(GroupElement(), psi)
    with pytest.raises(TypeError, match="SeparablePacket"):
        cocycle_phase(g, gp, GridWavefunction(gaussian_packet(n=8).values, 8.0, 1.0))
    # the identity's phase is exactly 1+0j, which would multiply an infinite
    # sample into inf+NaN i with a warning: a dense sample or a factor entry
    # that is not finite is refused first
    identity = GroupElement()
    for bad in (np.nan, np.inf):
        dense = GridWavefunction(np.ones((8, 8, 8)), 8.0, 1.0)
        dense.values[1, 2, 3] = bad
        with pytest.raises(ValueError, match="not finite"):
            act(identity, dense)
        psi = gaussian_packet(n=8)
        psi.factors[2, 5] = bad
        with pytest.raises(ValueError, match="not finite"):
            cocycle_phase(identity, identity, psi)
    # a NaN factor entry that act(g g') moves off the grid, but that the two
    # half cell moves of act(g) act(g') would interpolate into kept points:
    # refused up front, as the literal's dense act refuses it
    psi = gaussian_packet(n=16, center=(-7.5, 0.0, 0.0))
    psi.factors[0, 0] = np.nan
    half = GroupElement(v=np.array([-0.5 * psi.spacing, 0.0, 0.0]))
    with pytest.raises(ValueError, match="not finite"):
        cocycle_phase(half, half, psi)
    assert not matches_literal(half, half, psi)
    # a NaN that reaches a kept point of act(g) act(g') psi alone, injected
    # into the last factor-wise action: the NaN spread fails the gate, where
    # a NaN phase would pass it
    factor_wise, calls = gridrep._act_factors, []

    def nan_in_the_composition(action, factors):
        out = factor_wise(action, factors)
        calls.append(action)
        if len(calls) == 3:  # act(g) on act(g') psi
            out[0, 8] = np.nan
        return out

    monkeypatch.setattr(gridrep, "_act_factors", nan_in_the_composition)
    with pytest.raises(ProjectivityError) as raised:
        cocycle_phase(g, gp, gaussian_packet(n=16))
    assert len(calls) == 3 and math.isnan(raised.value.spread)


def test_cocycle_constant_and_matches_closed_form():
    psi = gaussian_packet()
    rng = np.random.default_rng(4)
    for _ in range(10):
        g, gp = random_in_grid_tuple(rng, psi, 2)
        ratio = cocycle_phase(g, gp, psi)
        assert abs(abs(ratio) - 1.0) <= 1e-12
        angle = cocycle_angle(g, gp, psi)
        expected = expected_cocycle_angle(g, gp, psi.m_f)
        assert angle_difference(angle, expected) <= 1e-8


def test_cocycle_identity_on_triples():
    psi = gaussian_packet()
    rng = np.random.default_rng(5)
    for _ in range(5):
        g1, g2, g3 = random_in_grid_tuple(rng, psi, 3, max_cells=1)
        lhs = (cocycle_angle(g1, g2, psi)
               + cocycle_angle(galilei_multiply(g1, g2), g3, psi))
        rhs = (cocycle_angle(g2, g3, psi)
               + cocycle_angle(g1, galilei_multiply(g2, g3), psi))
        assert angle_difference(lhs, rhs) <= 1e-7


def test_cocycle_trivial_for_rotations_and_translations():
    psi = gaussian_packet()
    g = GroupElement(tau=0.5, a=np.array([0.3, 0.1, -0.2]))
    gp = GroupElement(R=CUBE_ROTATIONS[3])
    assert abs(cocycle_angle(g, gp, psi)) <= 1e-10
    assert abs(expected_cocycle_angle(g, gp, psi.m_f)) <= 1e-15


def test_random_in_grid_elements_stay_in_grid():
    psi = gaussian_packet()
    rng = np.random.default_rng(6)
    bound = 0.25 * psi.p_max
    for _ in range(50):
        g = random_in_grid_element(rng, psi)
        assert psi.m_f * np.linalg.norm(g.v) <= bound + 1e-12
        act(g, psi)  # must not raise


def test_tuple_sampling_fails_fast_without_admissible_boosts():
    # on 4 points per axis one cell already exceeds the p_max/4 guard
    psi = gaussian_packet(n=4)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(OutOfGridError, match="admits no whole-cell boost"):
        random_in_grid_tuple(rng, psi, 2)
    assert rng.bit_generator.state == state  # nothing was drawn
    # asking for no boosts at all still succeeds
    g, gp = random_in_grid_tuple(rng, psi, 2, max_cells=0)
    assert not g.v.any() and not gp.v.any()


def test_tuple_draws_for_seed_0_pinned():
    # each boost is drawn from the cells that keep every partial product in
    # grid, so a tuple takes one draw per element and the demo's random
    # stream is fixed by the seed
    psi = gaussian_packet(n=32)
    rng = np.random.default_rng(0)
    mats = CUBE_ROTATIONS
    drawn = []
    for _ in range(4):
        for e in random_in_grid_tuple(rng, psi, 2):
            cells = tuple(int(c) for c in np.rint(e.v * psi.m_f / psi.spacing))
            rotation = next(i for i, R in enumerate(mats) if np.array_equal(R, e.R))
            drawn.append((e.tau, cells, rotation))
    assert drawn == [
        (0.5478467492858172, (-2, 2, -1), 19), (1.6510223091108869, (1, 0, 0), 22),
        (1.2634142164861286, (1, 2, -2), 17), (-1.297377517589764, (1, -2, 1), 10),
        (-1.8867213154181481, (-1, -1, 0), 14), (-0.46528978295246626, (2, 1, 0), 15),
        (0.7537869222837603, (2, -1, -2), 12), (-0.7590324977641774, (1, -1, 0), 8),
    ]
    g3 = random_in_grid_tuple(rng, psi, 3, max_cells=1)[2]
    assert (g3.tau, float(rng.uniform())) == (1.1483932299547335, 0.15027946689483906)


def reference_tuple(rng, psi, count, max_cells):
    """random_in_grid_tuple written out with no cached mask: every product
    of a contiguous run ending at the next element, the element alone
    included, tests every cell."""
    bound = 0.25 * psi.p_max
    most = min(max_cells, math.floor(bound / psi.spacing))
    cells = np.array(list(itertools.product(range(-most, most + 1), repeat=3)))
    boosts = cells * psi.spacing / psi.m_f
    products, elements = [], []
    for _ in range(count):
        products.append((np.eye(3), np.zeros(3)))
        fits = np.ones(len(cells), dtype=bool)
        for R, v in products:
            moved = boosts @ R.T + v
            fits &= psi.m_f * np.sqrt((moved * moved).sum(axis=-1)) <= bound
        allowed = cells[fits]
        tau = float(rng.uniform(-2.0, 2.0))
        a = rng.uniform(-2.0, 2.0, size=3)
        v = allowed[rng.integers(len(allowed))] * psi.spacing / psi.m_f
        R = CUBE_ROTATIONS[int(rng.integers(len(CUBE_ROTATIONS)))]
        g = GroupElement(tau=tau, a=a, v=v, R=R)
        products = [(R @ g.R, R @ g.v + v) for R, v in products]
        elements.append(g)
    return tuple(elements)


@pytest.mark.parametrize("n", [8, 16, 32, 128])
def test_draw_identity_with_the_reference_sampler(n):
    # the sampler with its cached admitted-cell mask draws the very same
    # elements as the reference, bit for bit and with the table's own
    # rotation, and leaves the generator in the same state
    psi = gaussian_packet(n=n)
    for count, max_cells in itertools.product((1, 2, 3), (1, 2)):
        seed = 1000 * n + 10 * count + max_cells
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(30):
            drawn = random_in_grid_tuple(rng, psi, count, max_cells=max_cells)
            expected = reference_tuple(reference, psi, count, max_cells)
            assert len(drawn) == len(expected) == count
            for g, e in zip(drawn, expected):
                assert g.tau == e.tau and g.R is e.R
                assert g.a.tobytes() == e.a.tobytes() and g.v.tobytes() == e.v.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("n", [8, 12, 32])
def test_tuple_partial_products_stay_in_grid(n):
    # every product of a contiguous run of the drawn elements passes the
    # p_max/4 guard, also on the 8-point grid that admits one cell per axis
    psi = gaussian_packet(n=n)
    rng = np.random.default_rng(1)
    bound = 0.25 * psi.p_max
    moved = False
    for count in (2, 3):
        for _ in range(30):
            elements = random_in_grid_tuple(rng, psi, count)
            for i in range(count):
                prod = elements[i]
                for j in range(i, count):
                    if j > i:
                        prod = galilei_multiply(prod, elements[j])
                    assert psi.m_f * np.linalg.norm(prod.v) <= bound
                    moved = moved or prod.v.any()
    assert moved  # the boosts are not all zero


def test_lazy_scipy_imports():
    # work guard, in a fresh interpreter: the equivalence module needs no
    # scipy at all, and no kgalilei module, nor the cocycle demo, loads
    # scipy.ndimage
    script = """
import contextlib, io, pkgutil, sys
import kgalilei.equivalence
assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'equivalence loads scipy'
import kgalilei
for info in pkgutil.iter_modules(kgalilei.__path__):
    __import__('kgalilei.' + info.name)
from kgalilei import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(['cocycle', 'demo']) == 0
assert 'scipy.ndimage' not in sys.modules, 'kgalilei loads scipy.ndimage'
"""
    src = str(Path(kgalilei.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_angle_difference_wraps():
    assert angle_difference(math.pi - 0.01, -math.pi + 0.01) <= 0.02 + 1e-12
    assert abs(angle_difference(0.0, 1.0) - 1.0) <= 1e-15
