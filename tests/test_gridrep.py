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
from hypothesis import given, settings, strategies as st
from scipy.ndimage import map_coordinates

import kgalilei
from kgalilei import gridrep
from kgalilei.gridrep import (
    AMPLITUDE_CUT,
    CUBE_ROTATIONS,
    SPREAD_TOL,
    GridWavefunction,
    GroupElement,
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
    _scratch,
    _slab_taps,
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


@given(n=st.integers(2, 16), rotation=st.integers(0, 23), m_f=st.sampled_from([1.0, 1.3]),
       cells=st.tuples(*[st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0))
                         for _ in range(3)]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_cube_rotation_act_edges_hypothesis(n, rotation, m_f, cells, seed):
    # small grids, whole and fractional boosts in grid cells; a boost past
    # the p_max/4 guard is shortened to fit it, losing its whole cells
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
    psi = GridWavefunction(values, 8.0, m_f)
    shift = np.array(cells) * psi.spacing
    norm, fits = np.linalg.norm(shift), 0.99 * psi.p_max / 4
    if norm > fits:
        shift *= fits / norm
    g = GroupElement(tau=rng.uniform(-2, 2), a=rng.uniform(-2, 2, size=3),
                     v=shift / m_f, R=CUBE_ROTATIONS[rotation])
    out = act(g, psi).values
    assert np.abs(out - reference_act(g, psi)).max() <= 1e-12


@pytest.mark.parametrize("step", [1, -1])
def test_slab_moved_off_the_grid_has_no_taps(step):
    # a whole slab moved past either edge (or read at NaN) reads nothing
    n = 6
    start = 0 if step > 0 else n - 1
    for shift in (n, n + 0.5, 40.0, -n, -n - 0.25, -40.0):
        assert _slab_taps(start + step * np.arange(n) + shift, n, step, (0, n)) == []
    assert _slab_taps(np.full(n, np.nan), n, step, (0, n)) == []
    # one cell short of that, a single output point reads the edge sample
    (weight, dst, src), = _slab_taps(start + step * np.arange(n) + (n - 1), n, step, (0, n))
    assert weight == 1.0
    assert len(range(n)[dst]) == 1 and list(range(n)[src]) == [n - 1]


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


def test_act_into_out_matches_a_new_array():
    # act(out=) overwrites out, pre-filled with NaN, with exactly the array a
    # plain act allocates: for whole-cell draws, a fractional boost read
    # through several taps, and a boost that moves two x-slabs off the grid
    rng = np.random.default_rng(8)
    n = 16
    psi = GridWavefunction(rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n)), 8.0, 1.0)
    h = psi.spacing
    elements = [g for _ in range(4) for g in random_in_grid_tuple(rng, psi, 2)]
    fractional = GroupElement(tau=0.4, a=np.array([0.3, -0.2, 0.1]),
                              v=np.array([0.37, -0.41, 0.23]) * h, R=CUBE_ROTATIONS[5])
    off_grid = GroupElement(tau=-0.7, a=np.array([0.2, 0.5, -0.3]), v=np.array([1.5 * h, 0.0, 0.0]))
    out = np.empty((n, n, n), dtype=complex)
    for g in elements + [fractional, off_grid]:
        out.fill(np.nan)
        result = act(g, psi, out=out).values
        assert result is out
        assert np.array_equal(out, act(g, psi).values)
    assert not out[:2].any() and out[2:].all()
    for bad in (psi.values, np.zeros((n, n, n + 1), dtype=complex),
                np.zeros((n, n, n), dtype=np.complex64), np.zeros((n, n, n), dtype=complex, order="F")):
        with pytest.raises(ValueError, match="out must be"):
            act(fractional, psi, out=bad)


def test_repeated_cocycle_extraction_allocates_no_grid():
    # work guard: once the workspace of a grid size exists, extracting a
    # phase on that grid allocates less than one complex n^3 grid
    psi = gaussian_packet(n=32)
    g, gp = random_in_grid_tuple(np.random.default_rng(9), psi, 2)
    cocycle_phase(g, gp, psi)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cocycle_phase(g, gp, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < psi.values.nbytes


def test_workspace_carries_no_state():
    # grids of 16, 32 and 16 points in turn, and a pair on the 32-point grid
    # right after an extraction that failed half-way: every angle is the one
    # extracted on a freshly allocated workspace, bit for bit
    rng = np.random.default_rng(10)
    packets = [gaussian_packet(n=n, center=(0.25, -0.5, 0.75)) for n in (16, 32, 16)]
    pairs = [random_in_grid_tuple(rng, psi, 2) for psi in packets]
    h = packets[1].spacing
    broken = (GroupElement(v=np.array([0.37 * h, 0.0, 0.0])),
              GroupElement(tau=0.5, v=np.array([0.0, 0.41 * h, 0.0])))
    runs = list(zip(pairs, packets))
    interleaved = [cocycle_angle(g, gp, psi) for (g, gp), psi in runs]
    with pytest.raises(ProjectivityError):
        cocycle_phase(*broken, packets[1])
    interleaved.append(cocycle_angle(*pairs[1], packets[1]))
    fresh = []
    for (g, gp), psi in runs + runs[1:2]:
        _scratch.cache_clear()
        fresh.append(cocycle_angle(g, gp, psi))
    assert [a.hex() for a in interleaved] == [a.hex() for a in fresh]


def literal_cocycle(g, gp, psi):
    """cocycle_phase spelled out from the public act on whole grids: the
    spread of the ratio on the kept points, and its mean phase."""
    lhs = act(g, act(gp, psi)).values
    rhs = act(galilei_multiply(g, gp), psi).values
    amplitude = np.abs(rhs)
    mask = amplitude >= AMPLITUDE_CUT * amplitude.max()
    ratio = lhs[mask] / rhs[mask]
    mean = ratio.mean()
    return float(np.abs(ratio - mean).max()), complex(mean / abs(mean))


def matches_literal(g, gp, psi) -> bool:
    """Assert that cocycle_phase returns the literal phase, or raises
    ProjectivityError with its spread, bit for bit; True if projective."""
    spread, phase = literal_cocycle(g, gp, psi)
    if spread <= SPREAD_TOL:
        got = cocycle_phase(g, gp, psi)
        assert (got.real.hex(), got.imag.hex()) == (phase.real.hex(), phase.imag.hex())
        return True
    with pytest.raises(ProjectivityError) as raised:
        cocycle_phase(g, gp, psi)
    assert raised.value.spread.hex() == spread.hex()
    return False


@pytest.mark.parametrize("n", [8, 16, 32])
def test_cocycle_phase_equals_the_whole_grid_literal_on_draws(n):
    # seeded whole-cell draws, on an off-centre Gaussian, whose kept points
    # fill a small box, and on noise, whose kept points fill most of the
    # grid: there a boost moves samples off the grid edge that the product's
    # action keeps, so most noise pairs are not projective
    rng = np.random.default_rng(20 + n)
    psi = gaussian_packet(n=n, center=(0.75, -0.5, 1.25))
    for _ in range(10):
        assert matches_literal(*random_in_grid_tuple(rng, psi, 2), psi)
    noise = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
    psi = GridWavefunction(noise, 8.0, 1.0)
    for _ in range(10):
        matches_literal(*random_in_grid_tuple(rng, psi, 2), psi)


def test_cocycle_phase_equals_the_literal_on_fractional_boosts():
    # g' boosts by fractions of a cell, read through two taps per axis, after
    # which g rotates and moves by whole cells: projective.  With g boosted
    # by fractions of a cell too, the two interpolations do not compose, and
    # the ProjectivityError carries the literal spread
    psi = gaussian_packet(n=24, m_f=1.3, center=(0.5, -0.25, 0.75))
    rng = np.random.default_rng(30)
    cells = psi.spacing / psi.m_f

    def element(v):
        return GroupElement(tau=rng.uniform(-1, 1), a=rng.uniform(-1, 1, size=3), v=v,
                            R=CUBE_ROTATIONS[int(rng.integers(len(CUBE_ROTATIONS)))])

    for _ in range(12):
        gp = element(rng.uniform(-1.0, 1.0, size=3) * cells)
        one_cell = np.zeros(3)
        one_cell[rng.integers(3)] = rng.choice([-1.0, 1.0]) * cells
        assert matches_literal(element(one_cell), gp, psi)
        assert not matches_literal(element(rng.uniform(-0.5, 0.5, size=3) * cells), gp, psi)


def test_cocycle_phase_equals_the_literal_past_the_grid_edge():
    # a packet near the +x face, moved one cell further out by each element:
    # its outer part leaves the grid, and the kept points reach the last slab
    psi = gaussian_packet(n=16, center=(5.75, 0.5, -0.5))
    h = psi.spacing
    g = GroupElement(tau=0.3, a=np.array([0.4, -0.2, 0.1]), v=np.array([h, 0.0, 0.0]))
    gps = [GroupElement(tau=-0.6, a=np.array([0.1, 0.3, -0.5]), v=np.array([h, 0.0, 0.0])),
           GroupElement(tau=0.2, a=np.array([-0.3, 0.1, 0.2]), v=np.array([0.6 * h, 0.0, 0.0]))]
    for gp in gps:
        rhs = act(galilei_multiply(g, gp), psi).values
        amplitude = np.abs(rhs)
        assert (amplitude[-1] >= AMPLITUDE_CUT * amplitude.max()).any()
        assert matches_literal(g, gp, psi)


def test_cocycle_phase_makes_one_whole_grid_action(monkeypatch):
    # work guard, counting calls and points, not time: each extraction makes
    # one act, on the whole grid, and composes the two actions on boxes of at
    # most an eighth of the grid (10^3 of 32^3 points for these draws); the
    # composed side, whose workspace grid is filled with NaN first, is
    # written on no more points than that
    psi = gaussian_packet(n=32)
    rng = np.random.default_rng(11)
    acts, boxes = [], []
    whole, on_box = gridrep.act, gridrep._act_on

    def counted_act(*args, **kwargs):
        acts.append(args[0])
        return whole(*args, **kwargs)

    def counted_act_on(g, psi, ax, values, out, box, cols, taps):
        boxes.append(math.prod(hi - lo for lo, hi in box))
        return on_box(g, psi, ax, values, out, box, cols, taps)

    monkeypatch.setattr(gridrep, "act", counted_act)
    monkeypatch.setattr(gridrep, "_act_on", counted_act_on)
    composed = _scratch(psi.n)[2]
    for _ in range(10):
        acts.clear()
        boxes.clear()
        composed.fill(np.nan)
        cocycle_phase(*random_in_grid_tuple(rng, psi, 2), psi)
        assert len(acts) == 1 and len(boxes) == 3
        assert boxes[0] == psi.n ** 3 and max(boxes[1:]) <= (psi.n // 2) ** 3
        assert np.count_nonzero(~np.isnan(composed)) <= (psi.n // 2) ** 3


@pytest.mark.filterwarnings("error")
def test_vanishing_or_non_finite_packet_is_named():
    # an all-zero packet has no peak to cut at, and a NaN or infinite sample
    # leaves none; each is a ValueError naming its cause, with no warning
    g, gp = GroupElement(tau=0.3), GroupElement(a=np.array([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="vanishes"):
        cocycle_angle(g, gp, GridWavefunction(np.zeros((8, 8, 8)), 8.0, 1.0))
    for bad in (np.nan, np.inf):
        psi = gaussian_packet(n=8)
        psi.values[4, 4, 4] = bad
        with pytest.raises(ValueError, match="not finite"):
            cocycle_angle(g, gp, psi)
    # a NaN sample that act(g g') moves off the grid, but that the two half
    # cell moves of act(g) act(g') interpolate into kept points: the NaN
    # spread fails the gate, where a NaN phase would pass it
    psi = gaussian_packet(n=16, center=(-7.5, 0.0, 0.0))
    psi.values[0, 8, 8] = np.nan
    half = GroupElement(v=np.array([-0.5 * psi.spacing, 0.0, 0.0]))
    with pytest.raises(ProjectivityError) as raised:
        cocycle_phase(half, half, psi)
    assert math.isnan(raised.value.spread)


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
