"""Tests for the harmonic test-function library and its diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvalued import lab
from qvalued.errors import ReflectionTraceError
from qvalued.geometry import Domain
from qvalued.points import SampledQFunction, metric_g


@pytest.fixture(scope="module")
def disk_grid():
    return Domain.ball(2, 1.0).sample(1.0 / 64.0)


@pytest.fixture(scope="module")
def half_grid():
    return Domain.half_ball(2, 1.0).sample(1.0 / 96.0)


class _SlowPair(lab.AnalyticQFunction):
    """{|x|^1.1, -|x|^1.1}: decays too slowly for the Q = 2 exponent."""

    q, m, n = 2, 1, 2

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1) ** 1.1
        return np.stack([r[:, None], -r[:, None]], axis=1)


def _const_single(c):
    return (lambda pts: np.full((pts.shape[0], 1), c),
            lambda pts: np.zeros((pts.shape[0], 1, 2)))


# ---------------------------------------------------------------------------
# quadrature and library basics


def test_disk_rule_polynomial_exact():
    pts, w, _ = lab.disk_rule(np.zeros(2), 0.7, nr=8, nt=32)
    val = float(np.sum(w * np.sum(pts * pts, axis=1)))
    assert val == pytest.approx(math.pi * 0.7 ** 4 / 2.0, rel=1e-13)
    hpts, hw, _ = lab.disk_rule(np.zeros(2), 0.7, nr=8, nt=64, phi=(-0.5 * math.pi, 0.5 * math.pi))
    hval = float(np.sum(hw * np.sum(hpts * hpts, axis=1)))
    assert hval == pytest.approx(math.pi * 0.7 ** 4 / 4.0, rel=1e-6)


def test_branch_power_mass_oracle():
    # two branches of modulus r^(3/2): integral over B_rho is (4 pi / 5) rho^5
    rho = 0.4
    mass = lab._mass(lab.BranchPower(2, 3), np.zeros(2), rho)
    assert mass == pytest.approx(4.0 * math.pi / 5.0 * rho ** 5, rel=1e-12)


def test_branch_power_average_vanishes():
    pts = np.random.default_rng(3).uniform(-0.9, 0.9, (64, 2))
    for p in (1, 3, 5):
        vals = lab.BranchPower(2, p).eval(pts)
        assert np.abs(vals.mean(axis=1)).max() < 1e-12


def test_branch_power_jacobian_matches_differences():
    pts = np.array([[0.3, 0.2], [0.1, -0.4], [-0.25, 0.33], [0.6, 0.05]])
    for f in (lab.BranchPower(2, 3), lab.BranchPower(3, 4), lab.WallPair()):
        exact = f.jacobian(pts)
        fd = lab.AnalyticQFunction.jacobian(f, pts)
        assert np.abs(exact - fd).max() < 1e-8


# ---------------------------------------------------------------------------
# splits


def test_split_constant_and_linear_pairs():
    cpair = lab.SumOf(lab.LinearTuple(np.zeros((2, 1, 2))), *_const_single(1.7))
    ua, us = lab.average_symmetric_split(cpair)
    pts = np.array([[0.2, 0.1], [-0.4, 0.3]])
    assert np.abs(ua.eval(pts) - 1.7).max() < 1e-14
    assert np.abs(us.eval(pts)).max() < 1e-14
    lpair = lab.LinearTuple.wall([2.0, -2.0])
    ua2, us2 = lab.average_symmetric_split(lpair)
    assert np.abs(ua2.eval(pts)).max() < 1e-14
    assert np.abs(us2.eval(pts) - lpair.eval(pts)).max() < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_split_identities_random(q, m, data):
    vals = np.array(
        data.draw(
            st.lists(
                st.lists(
                    st.lists(
                        st.floats(-10, 10, allow_nan=False), min_size=m, max_size=m
                    ),
                    min_size=q, max_size=q,
                ),
                min_size=3, max_size=3,
            )
        )
    )
    grid = Domain.box(2, 1.0).sample(0.7)
    assert grid.size >= 3
    vals = np.concatenate([vals] * (grid.size // 3 + 1))[: grid.size]
    u = SampledQFunction(grid, vals)
    ua, us = lab.average_symmetric_split(u)
    assert np.abs(us.values.sum(axis=1)).max() < 1e-9
    assert np.abs(ua.values + us.values - u.values).max() < 1e-12
    # squared-mass identity: |w|^2 = |w_s|^2 + Q |w_a|^2 per node
    lhs = np.sum(u.values ** 2, axis=(1, 2))
    rhs = np.sum(us.values ** 2, axis=(1, 2)) + q * np.sum(ua.values[:, 0] ** 2, axis=1)
    assert np.abs(lhs - rhs).max() < 1e-7 * (1.0 + np.abs(lhs).max())


# ---------------------------------------------------------------------------
# branch set detection


def test_branch_set_three_cases(disk_grid):
    bp = SampledQFunction.from_function(disk_grid, lab.BranchPower(2, 3).eval, 2, 2)
    rep = lab.branch_set_detect(bp, 0.5)
    assert rep.indices.size >= 1
    assert np.linalg.norm(rep.points, axis=1).max() < 2.0 * disk_grid.resolution

    lin = SampledQFunction.from_function(
        disk_grid, lab.LinearTuple.wall([1.0, -1.0]).eval, 2, 1
    )
    assert lab.branch_set_detect(lin, 0.05).indices.size == 0

    dup = SampledQFunction(disk_grid, np.repeat(bp.values[:, :1], 2, axis=1))
    assert lab.branch_set_detect(dup, 0.05).indices.size == disk_grid.size


@pytest.mark.parametrize("tol", [0.0, -0.05, math.nan, math.inf])
def test_branch_set_refuses_bad_tolerance(disk_grid, tol):
    bp = SampledQFunction.from_function(disk_grid, lab.BranchPower(2, 3).eval, 2, 2)
    with pytest.raises(ValueError, match="tolerance"):
        lab.branch_set_detect(bp, tol)
    single = SampledQFunction(disk_grid, bp.values[:, :1])
    with pytest.raises(ValueError, match="tolerance"):
        lab.branch_set_detect(single, tol)


# ---------------------------------------------------------------------------
# decay and frequency


def test_good_decay_branch_power_equality():
    rep = lab.good_decay_check(
        lab.BranchPower(2, 3), np.zeros(2), [(0.1, 0.2), (0.05, 0.4), (0.2, 0.8)]
    )
    assert rep.exponent == pytest.approx(3.0)
    assert np.abs(rep.ratios - 1.0).max() < 1e-9
    assert not rep.violations


def test_good_decay_vacuous_and_violations():
    same = lab.LinearTuple(np.array([[[1.0, 0.0]], [[1.0, 0.0]]]))
    rep = lab.good_decay_check(same, np.zeros(2), [(0.1, 0.2)])
    assert rep.vacuous
    slow = lab.good_decay_check(_SlowPair(), np.zeros(2), [(0.1, 0.4)])
    assert slow.violations and slow.ratios[0] > 1.5
    with pytest.raises(ValueError):
        lab.good_decay_check(_SlowPair(), np.zeros(2), [])
    with pytest.raises(ValueError):
        lab.good_decay_check(_SlowPair(), np.zeros(2), [(0.4, 0.1)])


def test_frequency_homogeneous_degrees():
    for d in (1, 2, 4):
        rep = lab.frequency_function(lab.BranchPower(1, d, m=1), np.zeros(2), [0.6, 0.3])
        assert np.abs(rep.values - d).max() < 1e-6
    for m in (1, 2):
        rep = lab.frequency_function(
            lab.BranchPower(2, 3, m=m), np.zeros(2), [0.8, 0.4, 0.2, 0.1]
        )
        assert np.abs(rep.values - 1.5).max() < 1e-4


def test_frequency_constant_and_skip():
    const = lab.SumOf(lab.LinearTuple(np.zeros((2, 1, 2))), *_const_single(2.5))
    rep = lab.frequency_function(const, np.zeros(2), [0.5])
    assert rep.values[0] == pytest.approx(0.0, abs=1e-12)
    zero = lab.LinearTuple(np.zeros((1, 1, 2)))
    rep2 = lab.frequency_function(zero, np.zeros(2), [0.5, 0.25])
    assert rep2.skipped == (0.5, 0.25)
    assert np.isnan(rep2.values).all()


def test_frequency_monotone_on_harmonic_library():
    ladder = [0.1, 0.2, 0.4, 0.8]
    cases = [
        (lab.BranchPower(2, 1), np.zeros(2)),
        (lab.BranchPower(2, 3), np.zeros(2)),
        (lab.BranchPower(3, 4), np.zeros(2)),
        (lab.WallPair(), np.array([0.5, 0.0])),
        (lab.odd_reflection(lab.WallPair()), np.zeros(2)),
    ]
    for f, center in cases:
        rep = lab.frequency_function(f, center, ladder)
        assert not rep.skipped
        assert np.all(np.diff(rep.values) >= -1e-3)


def test_frequency_sampled_close_to_analytic(disk_grid):
    u = SampledQFunction.from_function(disk_grid, lab.BranchPower(2, 3).eval, 2, 2)
    rep = lab.frequency_function(u, np.zeros(2), [0.6, 0.3])
    assert np.abs(rep.values - 1.5).max() < 0.1


@pytest.mark.parametrize("ladder", [
    [0.5, math.nan, -0.25], [0.5, -0.25], [0.5, 0.0], [math.inf],
])
def test_frequency_refuses_non_finite_or_non_positive_radius(disk_grid, ladder):
    # sampled data used to list such rungs as skipped, and analytic data
    # failed inside the disk rule
    f = lab.BranchPower(2, 3)
    u = SampledQFunction.from_function(disk_grid, f.eval, 2, 2)
    for v in (u, f):
        with pytest.raises(ValueError, match="finite and positive"):
            lab.frequency_function(v, np.zeros(2), ladder)


@pytest.mark.parametrize("ladder", [[], np.array(0.5)])
def test_frequency_refuses_an_empty_ladder(disk_grid, ladder):
    f = lab.BranchPower(2, 3)
    u = SampledQFunction.from_function(disk_grid, f.eval, 2, 2)
    for v in (u, f):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            lab.frequency_function(v, np.zeros(2), ladder)


# ---------------------------------------------------------------------------
# wall pair, reflection, harmonicity audit


def test_wall_pair_trace_vanishes():
    wall = np.zeros((33, 2))
    wall[:, 1] = np.linspace(-0.95, 0.95, 33)
    vals = lab.WallPair(amplitude=3.0).eval(wall)
    assert np.abs(vals[:, :, 0]).max() < 1e-12
    # the imaginary component does not vanish on the wall
    vals2 = lab.WallPair(m=2).eval(wall[1:-1])
    assert np.abs(vals2[:, :, 1]).max() > 0.01


def test_odd_reflection_gates_and_involution():
    with pytest.raises(ReflectionTraceError, match="zero trace"):
        lab.odd_reflection(lab.BranchPower(2, 3))
    wp = lab.WallPair()
    refl = lab.odd_reflection(wp)
    pts = np.random.default_rng(5).uniform(0.01, 0.7, (40, 2))
    assert np.abs(refl.eval(pts) - wp.eval(pts)).max() == 0.0


def test_odd_reflection_linear_pair_self_reflective():
    lin = lab.LinearTuple.wall([1.0, -1.0])
    refl = lab.odd_reflection(lin)
    pts = np.random.default_rng(7).uniform(-0.8, 0.8, (60, 2))
    worst = max(
        metric_g(refl.eval(pts[i : i + 1])[0], lin.eval(pts[i : i + 1])[0])
        for i in range(pts.shape[0])
    )
    assert worst < 1e-12
    zero = lab.odd_reflection(lab.LinearTuple(np.zeros((2, 1, 2))))
    assert np.abs(zero.eval(pts)).max() == 0.0


def test_reflected_wall_pair_harmonic_across_wall():
    refl = lab.odd_reflection(lab.WallPair())
    h = 1.0 / 128.0
    ys = np.linspace(-0.7, 0.7, 8)
    cells = np.array([[sx * h, y] for y in ys for sx in (-1.5, -0.5, 0.5, 1.5)])
    order, coarse, fine = lab.harmonicity_order(refl, cells, h)
    assert order >= 1.8
    assert fine.max_defect < coarse.max_defect


def test_branch_power_harmonic_away_from_origin():
    pts = np.array([[0.4, 0.3], [-0.5, 0.1], [0.2, -0.6], [-0.3, -0.45]])
    for f in (lab.BranchPower(2, 3), lab.BranchPower(3, 4), lab.BranchPower(2, 1)):
        order, _, _ = lab.harmonicity_order(f, pts, 1.0 / 64.0)
        assert order >= 1.8


def test_matched_second_difference_chunks_agree(monkeypatch):
    rng = np.random.default_rng(8)
    vc, vm, vp = (rng.normal(size=(10, 3, 2)) for _ in range(3))
    whole = lab._matched_second_difference(vc, vm, vp)
    # 3! * 3! * (2 * 3 * 2 + 1) = 468 terms per sample: two samples a chunk
    monkeypatch.setattr(lab, "_CHUNK_ENTRIES", 1000)
    assert np.array_equal(lab._matched_second_difference(vc, vm, vp), whole)


def test_matched_second_difference_memory_independent_of_sample_count():
    rng = np.random.default_rng(9)
    peaks = []
    for samples in (1, 16):
        vc, vm, vp = (rng.normal(size=(samples, 5, 1)) for _ in range(3))
        tracemalloc.start()
        try:
            lab._matched_second_difference(vc, vm, vp)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < lab._CHUNK_ENTRIES * 8


# ---------------------------------------------------------------------------
# radial-derivative bounds


def test_hardt_simon_homogeneous_lhs_zero():
    z = np.zeros(2)
    rep = lab.hardt_simon_check(lab.LinearTuple.wall([2.0, -2.0]), z, 0.3)
    assert rep.lhs <= 1e-8
    assert rep.rhs > 0.0 and rep.ratio == 0.0
    cone = lab.HomogeneousProfile(
        lambda w: np.stack([w[:, 0:1], -w[:, 0:1]], axis=1), 2, 1
    )
    assert lab.hardt_simon_check(cone, z, 0.3).lhs <= 1e-8


def test_hardt_simon_ratio_stable_across_rungs():
    z = np.array([0.0, 0.5])
    r1 = lab.hardt_simon_check(lab.BranchPower(2, 3), z, 0.1)
    r2 = lab.hardt_simon_check(lab.BranchPower(2, 3), z, 0.05)
    assert r1.ratio == pytest.approx(r2.ratio, rel=0.1)


def test_hardt_simon_sampled_matches_analytic_rhs(half_grid):
    u = SampledQFunction.from_function(half_grid, lab.BranchPower(2, 3).eval, 2, 2)
    z = np.array([0.0, 0.3])
    sampled = lab.hardt_simon_check(u, z, 0.25)
    analytic = lab.hardt_simon_check(lab.BranchPower(2, 3), z, 0.25)
    assert sampled.rhs == pytest.approx(analytic.rhs, rel=0.05)
    assert sampled.lhs > 0.0 and sampled.excluded == 0
    dup = SampledQFunction(half_grid, np.repeat(u.values[:, :1], 2, axis=1))
    assert lab.hardt_simon_check(dup, z, 0.25).excluded > 0
