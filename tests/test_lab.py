"""Tests for the harmonic test-function library and its diagnostics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvalued import lab, points
from qvalued.errors import ReflectionTraceError
from qvalued.geometry import Domain
from qvalued.points import SampledQFunction, metric_g


@pytest.fixture(scope="module")
def disk_grid():
    return Domain.ball(2, 1.0).sample(1.0 / 64.0)


class _SlowPair(lab.AnalyticQFunction):
    """{|x|^1.1, -|x|^1.1}: decays too slowly for the Q = 2 exponent."""

    q, m, n = 2, 1, 2

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1) ** 1.1
        return np.stack([r[:, None], -r[:, None]], axis=1)


class _ConstantPair(lab.AnalyticQFunction):
    """{c, c}: both branches equal to one constant, on the plane."""

    q, m, n = 2, 1, 2

    def __init__(self, c):
        self.c = c

    def eval(self, points):
        return np.full((np.atleast_2d(points).shape[0], 2, 1), self.c)

    def jacobian(self, points):
        return np.zeros((np.atleast_2d(points).shape[0], 2, 1, 2))


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
    for f in (lab.BranchPower(2, 3), lab.BranchPower(3, 4), lab.WallPair(),
              lab.WallPair(m=2)):
        exact = f.jacobian(pts)
        fd = lab.AnalyticQFunction.jacobian(f, pts)
        assert np.abs(exact - fd).max() < 1e-8


# ---------------------------------------------------------------------------
# splits


def test_split_constant_and_linear_pairs():
    cpair = _ConstantPair(1.7)
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
    slopes = np.array(
        data.draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=q * m * 2, max_size=q * m * 2
            )
        )
    ).reshape(q, m, 2)
    u = lab.LinearTuple(slopes)
    pts = Domain.box(2, 1.0).sample(0.7).points
    ua, us = lab.average_symmetric_split(u)
    vals, va, vs = u.eval(pts), ua.eval(pts), us.eval(pts)
    assert va.shape == (pts.shape[0], 1, m) and vs.shape == vals.shape
    assert np.abs(vs.sum(axis=1)).max() < 1e-9
    assert np.abs(va + vs - vals).max() < 1e-12
    # squared-mass identity: |w|^2 = |w_s|^2 + Q |w_a|^2 per point
    lhs = np.sum(vals ** 2, axis=(1, 2))
    rhs = np.sum(vs ** 2, axis=(1, 2)) + q * np.sum(va[:, 0] ** 2, axis=1)
    assert np.abs(lhs - rhs).max() < 1e-7 * (1.0 + np.abs(lhs).max())


def test_split_refuses_sampled_data():
    grid = Domain.box(2, 1.0).sample(0.25)
    u = SampledQFunction.from_function(grid, lab.BranchPower(2, 3).eval, 2, 2)
    with pytest.raises(TypeError, match="analytic function, not sampled data"):
        lab.average_symmetric_split(u)


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


def test_branch_set_refuses_analytic_functions():
    with pytest.raises(TypeError, match="sampled data"):
        lab.branch_set_detect(lab.BranchPower(2, 3), 0.5)


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


@pytest.mark.parametrize("x0, pair, match", [
    ([math.nan, 0.0], (0.1, 0.2), "x0 must be finite"),
    ([math.inf, 0.0], (0.1, 0.2), "x0 must be finite"),
    ([0.0, 0.0, 7.0], (0.1, 0.2), "x0 dimension"),
    ([0.0, 0.0], (0.1, math.inf), "finite 0 < sigma <= rho"),
], ids=["nan-center", "inf-center", "3d-center", "inf-radius"])
def test_good_decay_refuses_a_bad_center_or_radius(x0, pair, match):
    # each used to return ratios [nan], no violation and vacuous=False: a pass
    with pytest.raises(ValueError, match=match):
        lab.good_decay_check(lab.BranchPower(2, 3), x0, [pair])


def test_good_decay_refuses_sampled_data_before_any_mass(disk_grid, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a mass was computed")

    monkeypatch.setattr(lab, "_mass", refuse)
    monkeypatch.setattr(SampledQFunction, "q_mass", refuse)
    u = SampledQFunction.from_function(disk_grid, lab.BranchPower(2, 3).eval, 2, 2)
    with pytest.raises(TypeError, match="analytic"):
        lab.good_decay_check(u, np.zeros(2), [(0.1, 0.2)])


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
    const = _ConstantPair(2.5)
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


@pytest.mark.parametrize("x0, match", [
    ([0.0, 0.0, 7.0], "x0 dimension"), ([math.nan, 0.0], "x0 must be finite"),
    ([0.0, math.inf], "x0 must be finite"),
], ids=["3d-center", "nan-center", "inf-center"])
def test_frequency_refuses_a_bad_center(x0, match):
    # on sampled data [0, 0, 7] used to give the values at [0, 0], and a NaN
    # center skipped every rung
    f = lab.BranchPower(2, 3)
    u = SampledQFunction.from_function(Domain.ball(2, 1.0).sample(1.0 / 32.0), f.eval, 2, 2)
    for v in (u, f):
        with pytest.raises(ValueError, match=match):
            lab.frequency_function(v, x0, [0.6, 0.3])


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
    vals = lab.WallPair().eval(wall)
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


@pytest.mark.parametrize("step", [0.0, -1.0 / 64.0, math.nan, math.inf])
def test_harmonicity_audit_refuses_a_step_that_is_not_finite_and_positive(step):
    # step 0 used to give max_defect = nan, and a negative step was accepted
    pts = np.array([[0.4, 0.3], [-0.5, 0.1]])
    f = lab.BranchPower(2, 3)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        lab.laplacian_defect(f, pts, step)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        lab.harmonicity_order(f, pts, step)


def test_branch_power_harmonic_away_from_origin():
    pts = np.array([[0.4, 0.3], [-0.5, 0.1], [0.2, -0.6], [-0.3, -0.45]])
    for f in (lab.BranchPower(2, 3), lab.BranchPower(3, 4), lab.BranchPower(2, 1)):
        order, _, _ = lab.harmonicity_order(f, pts, 1.0 / 64.0)
        assert order >= 1.8


def _reference_second_difference(vc, vm, vp):
    """The joint enumeration: every (sigma, tau) pair of permutations of the
    two neighbors, the flat first argmin of the summed squared second
    difference per sample."""
    q = vc.shape[1]
    perms = np.array(list(itertools.permutations(range(q))))
    k = perms.shape[0]
    sm, sp = vm[:, perms], vp[:, perms]
    diff = sm[:, :, None, :, :] - 2.0 * vc[:, None, None, :, :] + sp[:, None, :, :, :]
    cost = np.sum(diff * diff, axis=(3, 4)).reshape(vc.shape[0], k * k)
    pick = np.argmin(cost, axis=1)
    return diff.reshape(vc.shape[0], k * k, q, vc.shape[2])[np.arange(vc.shape[0]), pick]


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_matched_second_difference_equals_the_joint_enumeration(q, m):
    rng = np.random.default_rng(10 * q + m)
    # normal values, and small integers whose pairings tie exactly
    for vc, vm, vp in ([rng.normal(size=(40, q, m)) for _ in range(3)],
                       [rng.integers(-2, 3, size=(40, q, m)).astype(float)
                        for _ in range(3)]):
        assert np.array_equal(lab._matched_second_difference(vc, vm, vp),
                              _reference_second_difference(vc, vm, vp))


def test_matched_second_difference_follows_seven_smooth_sheets():
    rng = np.random.default_rng(12)
    vc = rng.normal(size=(3, 7, 1))
    delta = rng.normal(scale=1e-3, size=vc.shape)
    vm = np.stack([v[rng.permutation(7)] for v in vc - delta])
    vp = np.stack([v[rng.permutation(7)] for v in vc + delta])
    assert np.abs(lab._matched_second_difference(vc, vm, vp)).max() <= 1e-12


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
    assert peaks[1] - peaks[0] < points._CHUNK_ENTRIES * 8


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


def test_hardt_simon_refuses_sampled_data():
    grid = Domain.half_ball(2, 1.0).sample(1.0 / 16.0)
    u = SampledQFunction.from_function(grid, lab.BranchPower(2, 3).eval, 2, 2)
    with pytest.raises(TypeError, match="analytic"):
        lab.hardt_simon_check(u, np.array([0.0, 0.3]), 0.25)


# ---------------------------------------------------------------------------
# refusals


_LAB_REFUSALS = {
    "branch-power-q": (lambda: lab.BranchPower(0, 3), ValueError, "q >= 1"),
    "branch-power-p": (lambda: lab.BranchPower(2, 0), ValueError, "p >= 1"),
    "branch-power-m": (lambda: lab.BranchPower(2, 3, m=3), ValueError, "m = 1 or m = 2"),
    "wall-pair-d": (lambda: lab.WallPair(d=0.0), ValueError, "d must be positive"),
    "wall-pair-m": (lambda: lab.WallPair(m=3), ValueError, "m = 1 or m = 2"),
    "linear-tuple-shape": (lambda: lab.LinearTuple(np.zeros((2, 2))), ValueError,
                           "shape \\(Q, m, n\\)"),
    "abstract-eval": (lambda: lab.AnalyticQFunction().eval(np.zeros((1, 2))),
                      NotImplementedError, "^$"),
    "disk-rule-radius": (lambda: lab.disk_rule(np.zeros(2), 0.0), ValueError,
                         "positive radius"),
    "frequency-3d-analytic": (
        lambda: lab.frequency_function(lab.LinearTuple(np.ones((1, 1, 3))),
                                       np.zeros(3), [0.5]),
        ValueError, "plane only"),
    "frequency-3d-sampled": (
        lambda: lab.frequency_function(
            SampledQFunction.from_function(Domain.ball(3, 1.0).sample(0.25),
                                           lambda p: np.ones((len(p), 1, 1)), 1, 1),
            np.zeros(3), [0.5]),
        ValueError, "plane only"),
    "hardt-simon-off-wall": (
        lambda: lab.hardt_simon_check(lab.BranchPower(2, 3), [0.1, 0.5], 0.1),
        ValueError, "on the wall"),
    "hardt-simon-3d": (
        lambda: lab.hardt_simon_check(lab.BranchPower(2, 3), [0.0, 0.5, 0.0], 0.1),
        ValueError, "on the wall"),
    "hardt-simon-nan-wall-coordinate": (
        lambda: lab.hardt_simon_check(lab.BranchPower(2, 3), [math.nan, 0.5], 0.1),
        ValueError, "wall point must be finite"),
    "hardt-simon-nan-height": (
        lambda: lab.hardt_simon_check(lab.BranchPower(2, 3), [0.0, math.nan], 0.1),
        ValueError, "wall point must be finite"),
    "hardt-simon-infinite-height": (
        lambda: lab.hardt_simon_check(lab.BranchPower(2, 3), [0.0, math.inf], 0.1),
        ValueError, "wall point must be finite"),
    "hardt-simon-rho-large": (
        lambda: lab.hardt_simon_check(lab.BranchPower(2, 3), [0.0, 0.5], 0.2),
        ValueError, "rho outside"),
    "hardt-simon-rho-zero": (
        lambda: lab.hardt_simon_check(lab.BranchPower(2, 3), [0.0, 0.5], 0.0),
        ValueError, "rho outside"),
}


@pytest.mark.parametrize("case", sorted(_LAB_REFUSALS))
def test_lab_refuses_malformed_input(case):
    call, error, match = _LAB_REFUSALS[case]
    with pytest.raises(error, match=match):
        call()
