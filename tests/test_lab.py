"""Tests for the harmonic test-function library and its diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvalued import lab
from qvalued.errors import HomogeneityError, ReflectionTraceError
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


class _ConePair(lab.AnalyticQFunction):
    """{|x|, -|x|}: homogeneous degree one but not linear."""

    q, m, n = 2, 1, 2

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        return np.stack([r[:, None], -r[:, None]], axis=1)


def _const_single(c):
    return (lambda pts: np.full((pts.shape[0], 1), c),
            lambda pts: np.zeros((pts.shape[0], 1, 2)))


# ---------------------------------------------------------------------------
# quadrature and library basics


def test_kernel_self_test_matches_closed_form():
    value, exact = lab.kernel_self_test()
    assert exact == pytest.approx(2.0 * math.pi * math.sqrt(2.0))
    assert value == pytest.approx(exact, rel=1e-10)


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


def test_make_function_kinds():
    assert isinstance(lab.make_function("branch_power", q=3, p=4), lab.BranchPower)
    assert isinstance(lab.make_function("wall_pair", d=0.3), lab.WallPair)
    lt = lab.make_function("linear_tuple", coeffs=[1.0, -1.0])
    assert lt.q == 2 and lt.m == 1
    refl = lab.make_function("reflected_wall_pair")
    assert isinstance(refl, lab.OddReflection)
    with pytest.raises(ValueError):
        lab.make_function("spiral")
    with pytest.raises(ValueError):
        lab.LinearTuple.wall([1.0, -0.5])


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
# homogeneity, invariance, linearity


def test_homogeneity_deviation_oracle():
    # for the 3/2-power pair the closed form over the annulus is sqrt(pi (b-a))
    a, b = 0.2, 0.7
    dev = lab.homogeneity_deviation(lab.BranchPower(2, 3), a, b)
    assert dev == pytest.approx(math.sqrt(math.pi * (b - a)), rel=1e-10)
    lin = lab.LinearTuple.wall([1.0, -1.0])
    assert lab.homogeneity_deviation(lin, a, b) < 1e-10
    shifted = lab.SumOf(lin, *_const_single(0.3))
    assert lab.homogeneity_deviation(shifted, a, b) > 0.1


def test_translation_invariance_dimensions():
    rep = lab.translation_invariance_set(lab.LinearTuple.wall([1.0, -1.0], n=3))
    assert rep.dimension == 2
    rep2 = lab.translation_invariance_set(lab.PlanarExtension(lab.BranchPower(2, 3), 3))
    assert rep2.dimension == 1
    rep3 = lab.translation_invariance_set(lab.BranchPower(2, 3))
    assert rep3.dimension == 0


def test_linearity_classify_cases():
    rep = lab.linearity_classify(lab.LinearTuple.wall([1.5, -1.5]))
    assert rep.linear and rep.wall_form
    assert np.sort(rep.wall_slopes) == pytest.approx([-1.5, 1.5], abs=1e-10)
    assert abs(rep.wall_slopes.sum()) < 1e-10
    cone = lab.linearity_classify(_ConePair())
    assert not cone.linear and cone.residual > 0.1
    with pytest.raises(HomogeneityError):
        lab.linearity_classify(lab.BranchPower(2, 3))


# ---------------------------------------------------------------------------
# boundary kernel and radial-derivative bounds


def test_boundary_kernel_vacuous_and_scaling():
    const = lab.SumOf(lab.LinearTuple(np.zeros((2, 1, 2))), *_const_single(1.0))
    cand = lab.BlowupCandidate((const,), kappa=[np.array([1.0])])
    rep = lab.boundary_estimate_check(cand, np.zeros(2), 0.3)
    assert rep.vacuous and rep.ratio == 0.0
    # for the linear wall tuple the quadrature ratio scales exactly like 1/rho
    lin = lab.BlowupCandidate((lab.LinearTuple.wall([1.0, -1.0]),))
    r1 = lab.boundary_estimate_check(lin, np.zeros(2), 0.3)
    r2 = lab.boundary_estimate_check(lin, np.zeros(2), 0.15)
    assert 0.3 * r1.ratio == pytest.approx(0.15 * r2.ratio, rel=1e-3)
    with pytest.raises(ValueError):
        lab.boundary_estimate_check(lin, np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        lab.boundary_estimate_check(lin, np.array([0.3, 0.0]), 0.1)


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
    assert lab.hardt_simon_check(dup, z, 0.25, gap_tol=1e-6).excluded > 0


# ---------------------------------------------------------------------------
# blow-up candidates and transformations


def test_blowup_validation():
    with pytest.raises(ValueError):
        lab.BlowupCandidate(())
    with pytest.raises(ValueError):
        lab.BlowupCandidate((lab.WallPair(),), fine_class=2)
    cand = lab.BlowupCandidate((lab.WallPair(),), fine_class=5)
    assert cand.fine_class == 5 and cand.n_components == 1
    assert cand.domain().kind == "half_ball"


def test_rescale_and_renormalize_unit_mass():
    cand = lab.BlowupCandidate((lab.WallPair(),))
    rescaled, norm = lab.rescale_blowup(cand, np.zeros(2), 0.25)
    assert norm > 0.0
    assert rescaled.total_mass() == pytest.approx(1.0, rel=1e-10)
    renorm, norm2 = lab.renormalize_blowup(cand)
    assert renorm.total_mass() == pytest.approx(1.0, rel=1e-10)
    comp = renorm.components[0]
    origin = np.zeros((1, 2))
    assert np.abs(comp.eval(origin)[0].mean(axis=0)).max() < 1e-12
    assert np.abs(comp.jacobian(origin)[0].mean(axis=0)).max() < 1e-12
    with pytest.raises(ValueError):
        lab.rescale_blowup(cand, np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        lab.rescale_blowup(cand, np.array([0.2, 0.0]), 0.1)


def test_renormalize_adjusts_trace():
    shifted = lab.SumOf(lab.WallPair(), *_const_single(0.4))
    cand = lab.BlowupCandidate((shifted,), kappa=[np.array([0.4])])
    renorm, norm = lab.renormalize_blowup(cand)
    z = np.array([0.0, 0.3])
    # original trace 0.4 minus the removed constant jet 0.4, then normalized
    assert np.abs(renorm.kappa_at(z)[0]).max() < 1e-12


def test_splitting_lower_bound_oracle():
    lin = lab.BlowupCandidate((lab.LinearTuple.wall([1.0, -1.0]),))
    rep = lab.splitting_lower_bound([lin, lab.BlowupCandidate((lab.WallPair(),))])
    # degree-one data puts exactly 1/16 of its mass inside the half ball
    assert rep.ratios[0] == pytest.approx(15.0 / 16.0, rel=1e-12)
    assert 0.0 < rep.minimum <= rep.ratios[0]
    uncentered = lab.SumOf(lab.WallPair(), *_const_single(1.0))
    with pytest.raises(ValueError):
        lab.splitting_lower_bound([lab.BlowupCandidate((uncentered,))])


def test_pairwise_separation_smoke():
    rep = lab.pairwise_separation()
    assert rep.minimum > 1e-3
    assert len(rep.pairs) == len(rep.distances) >= 10
