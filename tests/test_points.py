"""Tests for tuple values, the matching metric, and sampled data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qvalued.errors import BranchAmbiguityError, OracleLimitError
from qvalued.geometry import Domain, QuadratureGrid, dyadic_ladder
from qvalued.points import (
    AqPoint,
    SampledQFunction,
    brute_force_metric,
    lebesgue_point_profile,
    match_batch,
    metric_g,
    numeric_derivative,
    optimal_assignment,
)
from qvalued.points import _best_pairings, _permutation_table


def _tuples(q=st.integers(1, 4), m=st.integers(1, 3)):
    def build(qv, mv, flat):
        need = qv * mv
        vals = (flat * (need // len(flat) + 1))[:need]
        return np.asarray(vals).reshape(qv, mv)

    return st.builds(
        build, q, m,
        st.lists(st.floats(-100, 100, allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=12),
    )


# ---------------------------------------------------------------------------
# the metric and its oracle


def test_metric_q1_is_euclidean():
    assert metric_g(AqPoint([[0.0, 0.0]]), AqPoint([[3.0, 4.0]])) == 5.0


def test_metric_identity():
    t = AqPoint([[0.3, -1.2], [2.0, 0.5], [0.3, -1.2]])
    assert metric_g(t, t) == 0.0


def test_metric_two_branch_worked_example():
    s = AqPoint([[0.0], [1.0]])
    t = AqPoint([[0.4], [0.5]])
    # identity matching 0.4^2 + 0.5^2 = 0.41 beats the swap's 0.61
    assert metric_g(s, t) == pytest.approx(math.sqrt(0.41), abs=1e-15)


def test_oracle_limit():
    big = AqPoint(np.zeros((9, 1)))
    with pytest.raises(OracleLimitError, match="oracle limit"):
        brute_force_metric(big, big)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(0)
    for _ in range(300):
        q = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        s = AqPoint(rng.normal(size=(q, m)))
        t = AqPoint(rng.normal(size=(q, m)))
        assert abs(metric_g(s, t) - brute_force_metric(s, t)) <= 1e-12


def test_metric_shape_mismatch():
    with pytest.raises(ValueError, match="share Q and m"):
        metric_g(AqPoint([[1.0]]), AqPoint([[1.0], [2.0]]))


@settings(max_examples=120, deadline=None)
@given(_tuples(), st.data())
def test_metric_axioms(s_branches, data):
    q, m = s_branches.shape
    t_branches = data.draw(_tuples(st.just(q), st.just(m)))
    u_branches = data.draw(_tuples(st.just(q), st.just(m)))
    s, t, u = AqPoint(s_branches), AqPoint(t_branches), AqPoint(u_branches)
    assert metric_g(s, t) == pytest.approx(metric_g(t, s), abs=1e-12)
    perm = data.draw(st.permutations(range(q)))
    assert metric_g(AqPoint(s_branches[list(perm)]), t) == pytest.approx(
        metric_g(s, t), abs=1e-12
    )
    assert metric_g(s, AqPoint(s_branches[list(perm)])) <= 1e-12
    assert metric_g(s, u) <= metric_g(s, t) + metric_g(t, u) + 1e-12


@settings(max_examples=80, deadline=None)
@given(_tuples())
def test_norm_decomposition(branches):
    w = AqPoint(branches)
    ws = w.symmetric_part()
    wa = w.average()
    lhs = w.norm() ** 2
    rhs = ws.norm() ** 2 + w.q * float(wa @ wa)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_canonical_storage_is_permutation_invariant():
    rng = np.random.default_rng(4)
    b = rng.normal(size=(4, 2))
    p = AqPoint(b)
    for _ in range(5):
        q = AqPoint(b[rng.permutation(4)])
        assert p == q
        assert hash(p) == hash(q)
        assert np.array_equal(p.branches, q.branches)


def test_norm_is_distance_to_zero_tuple():
    p = AqPoint([[3.0, 0.0], [0.0, 4.0]])
    assert p.norm() == pytest.approx(5.0)
    assert metric_g(p, AqPoint.zero(2, 2)) == pytest.approx(5.0)


def test_optimal_assignment_reports_matching():
    # second coordinates force the cross pairing despite first-coordinate order
    s = AqPoint([[0.0, 0.0], [0.1, 10.0]])
    t = AqPoint([[0.0, 10.0], [0.1, 0.0]])
    sigma, dist = optimal_assignment(s, t)
    assert list(sigma) == [1, 0]
    assert dist == pytest.approx(math.sqrt(0.02))


def _pair_costs(a, b):
    """d2[s, i, j] = |a[s, i] - b[s, j]|^2, written independently of the
    library."""
    return ((a[:, :, None, :] - b[:, None, :, :]) ** 2).sum(axis=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 10), st.integers(1, 3), st.data())
def test_match_batch_is_an_optimal_pairing(S, q, m, data):
    values = arrays(float, (2, S, q, m),
                    elements=st.floats(-100, 100, allow_nan=False))
    a, b = data.draw(values)
    labels, sq_cost, margin = match_batch(a, b)
    assert labels.shape == (S, q) and sq_cost.shape == margin.shape == (S,)
    assert np.array_equal(np.sort(labels, axis=1), np.tile(np.arange(q), (S, 1)))
    d2 = _pair_costs(a, b)
    paired = d2[np.arange(S)[:, None], labels, np.arange(q)].sum(axis=1)
    assert np.allclose(paired, sq_cost, rtol=1e-12, atol=0)
    assert np.all(margin >= 0)
    for s in range(S):
        want = metric_g(a[s], b[s]) ** 2
        assert sq_cost[s] == pytest.approx(want, rel=1e-12, abs=0)
        if q <= 6 or (m == 1 and q <= 8):  # scalar values above 6 are sorted
            assert sq_cost[s] == pytest.approx(brute_force_metric(a[s], b[s]) ** 2,
                                               rel=1e-12, abs=0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(2, 6), st.integers(1, 3), st.data())
def test_match_batch_breaks_exact_ties_lexicographically(S, q, m, data):
    # small integers make every pairing cost exact, so ties are exact
    a, b = data.draw(arrays(float, (2, S, q, m), elements=st.integers(-2, 2)))
    labels, _, _ = match_batch(b, a)
    for s in range(S):
        sigma, _ = optimal_assignment(a[s], b[s])
        assert np.array_equal(labels[s], sigma)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.booleans(), st.data())
def test_match_batch_two_branches_is_the_enumeration(S, m, integer, data):
    """The closed-form Q = 2 kernel equals the enumeration of both pairings
    bit for bit, distances summed over components in index order; exact
    ties (small integers) go to the identity pairing."""
    elements = (st.integers(-2, 2) if integer
                else st.floats(-100, 100, allow_nan=False, allow_subnormal=False))
    a, b = data.draw(arrays(float, (2, S, 2, m), elements=elements))
    diff = a[:, :, None, :] - b[:, None, :, :]
    d2 = diff[..., 0] * diff[..., 0]
    for c in range(1, m):
        d2 = d2 + diff[..., c] * diff[..., c]
    got = match_batch(a, b)
    want = _best_pairings(d2, _permutation_table(2))
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    tied = d2[:, 0, 0] + d2[:, 1, 1] == d2[:, 1, 0] + d2[:, 0, 1]
    assert np.all(got[0][tied] == [0, 1])


@pytest.mark.parametrize("q, m", [(7, 2), (8, 2), (7, 1), (8, 1)],
                         ids=["7", "8", "7-scalar", "8-scalar"])
def test_match_batch_margin_above_enumeration_is_the_best_swap(q, m):
    """Above Q = 6 the margin is the gap to the cheapest pairing one
    transposition away from the returned one."""
    rng = np.random.default_rng(q)
    a, b = rng.normal(size=(2, 400, q, m))
    labels, sq_cost, margin = match_batch(a, b)
    d2 = _pair_costs(a, b)
    for s in range(len(a)):
        own = d2[s, labels[s], np.arange(q)].sum()
        swapped = []
        for i in range(q):
            for j in range(i + 1, q):
                other = labels[s].copy()
                other[i], other[j] = other[j], other[i]
                swapped.append(d2[s, other, np.arange(q)].sum())
        want = max(min(swapped) - own, 0.0)
        assert margin[s] == pytest.approx(want, rel=0, abs=1e-12 * sq_cost[s])
    assert np.all(margin > 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.sampled_from([7, 8, 10]), st.data())
def test_match_batch_pairs_scalar_ties_by_stable_rank(S, q, data):
    """Above Q = 6, scalar values pair by rank, equal values ranked by
    branch index: b's t-th branch in that order gets a's t-th.  Small
    integers make ties exact."""
    a, b = data.draw(arrays(float, (2, S, q, 1), elements=st.integers(-2, 2)))
    labels, _, _ = match_batch(a, b)
    for s in range(S):
        rank_a = sorted(range(q), key=lambda i: (a[s, i, 0], i))
        rank_b = sorted(range(q), key=lambda j: (b[s, j, 0], j))
        want = dict(zip(rank_b, rank_a))
        assert labels[s].tolist() == [want[j] for j in range(q)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [2, 3, 7])
def test_match_batch_refuses_non_finite_values(q, m, bad):
    # warnings are errors in this suite, so a warning on the way fails too
    a, b = np.random.default_rng(q).normal(size=(2, 5, q, m))
    a[3, q - 1, m - 1] = bad
    for x, y in ((a, b), (b, a), (a, a)):
        with pytest.raises(ValueError, match="finite"):
            match_batch(x, y)


def test_match_batch_chunks_agree_with_metric():
    # Q = 6 over more rows than one chunk of pairing terms holds
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 3000, 6, 2))
    _, sq_cost, _ = match_batch(a, b)
    want = [metric_g(x, y) ** 2 for x, y in zip(a, b)]
    assert np.allclose(sq_cost, want, rtol=1e-12, atol=0)


def test_optimal_assignment_lexmin_on_ties():
    # both pairings cost the same; the lexicographically smaller one wins
    s = AqPoint([[0.0], [1.0]])
    t = AqPoint([[0.5], [0.5]])
    sigma, dist = optimal_assignment(s, t)
    assert list(sigma) == [0, 1]
    assert dist == pytest.approx(math.sqrt(0.5))


# ---------------------------------------------------------------------------
# sampled functions


@pytest.fixture(scope="module")
def disk_grid():
    return Domain.ball(2, 1.0).sample(1.0 / 128.0)


def test_sampled_shape_validation(disk_grid):
    with pytest.raises(ValueError, match="sample count"):
        SampledQFunction(disk_grid, np.zeros((3, 2, 1)))
    u = SampledQFunction(disk_grid, np.zeros((disk_grid.size, 2)))
    assert u.m == 1 and u.q == 2 and u.n == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampled_refuses_non_finite_values(disk_grid, bad):
    vals = np.zeros((disk_grid.size, 2, 1))
    vals[0, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledQFunction(disk_grid, vals)


def test_q_mass_constant(disk_grid):
    u = SampledQFunction(disk_grid, np.ones((disk_grid.size, 2, 1)))
    # |u| = sqrt(2) per node, so the 2-mass is 2 * area
    assert u.q_mass(2.0) == pytest.approx(2.0 * math.pi, rel=5e-3)


def test_value_at_picks_nearest(disk_grid):
    vals = disk_grid.points[:, :1][:, None, :] * np.array([[1.0], [-1.0]])
    u = SampledQFunction(disk_grid, vals)
    got = u.value_at([0.5, 0.0])
    x_node = disk_grid.points[u.nearest_index([0.5, 0.0]), 0]
    assert metric_g(got, AqPoint([[x_node], [-x_node]])) == 0.0


def test_numeric_derivative_linear_tuples():
    grid = Domain.ball(2, 1.0).sample(1.0 / 64.0)
    vals = np.stack([grid.points[:, :1], -grid.points[:, :1]], axis=1)
    u = SampledQFunction(grid, vals)
    jac = numeric_derivative(u, [0.5, 0.2], h=1.0 / 64.0)
    # rows follow the canonical (ascending) branch order at the center
    assert jac == pytest.approx(
        np.array([[[-1.0, 0.0]], [[1.0, 0.0]]]), abs=1e-10
    )
    single = SampledQFunction(grid, (2.0 * grid.points[:, 0]
                                     + 3.0 * grid.points[:, 1])[:, None, None])
    jac1 = numeric_derivative(single, [0.1, -0.2], h=1.0 / 64.0)
    assert jac1 == pytest.approx(np.array([[[2.0, 3.0]]]), abs=1e-10)


def test_numeric_derivative_branch_point_refuses():
    from qvalued.lab import LinearTuple

    u = LinearTuple.wall([1.0, -1.0])
    with pytest.raises(BranchAmbiguityError, match="ambiguous"):
        numeric_derivative(u, [0.0, 0.3], h=1.0 / 64.0)
    # on a cell-centered grid the wall sits between nodes; a gap tolerance
    # at the cell scale still flags the near-collision
    grid = Domain.ball(2, 1.0).sample(1.0 / 64.0)
    vals = np.stack([grid.points[:, :1], -grid.points[:, :1]], axis=1)
    s = SampledQFunction(grid, vals)
    with pytest.raises(BranchAmbiguityError):
        numeric_derivative(s, [0.0, 0.3], h=1.0 / 64.0, gap_tol=0.02)


def test_numeric_derivative_branch_power_closed_form():
    from qvalued.lab import BranchPower

    f = BranchPower(2, 3, m=1)
    jac = numeric_derivative(f, [1.0, 0.0], h=1e-4)
    # branches of Re z^{3/2} have gradient (±3/2, 0) at z = 1
    assert jac == pytest.approx(
        np.array([[[-1.5, 0.0]], [[1.5, 0.0]]]), abs=1e-6
    )


def test_lebesgue_profile_constant_and_lipschitz(disk_grid):
    const = SampledQFunction(disk_grid, np.full((disk_grid.size, 2, 1), 1.3))
    _, avgs, _ = lebesgue_point_profile(const, [0.1, 0.0], [0.5, 0.25])
    assert np.all(avgs == 0.0)
    lip = SampledQFunction(
        disk_grid, np.linalg.norm(disk_grid.points, axis=1)[:, None, None]
    )
    radii, avgs, _ = lebesgue_point_profile(
        lip, [0.0, 0.0], [0.4, 0.2, 0.1], value=AqPoint([[0.0]])
    )
    assert np.all(avgs <= 1.05 * radii ** 2)


def test_lebesgue_profile_branch_power_decay(disk_grid):
    r3 = np.linalg.norm(disk_grid.points, axis=1) ** 1.5
    u = SampledQFunction(disk_grid, np.stack([r3, -r3], axis=1))
    radii, avgs, truncated = lebesgue_point_profile(
        u, [0.0, 0.0], dyadic_ladder(0.4, 2), value=AqPoint.zero(2)
    )
    assert not truncated
    # closed form: (pi rho^2)^-1 * int 2 r^3 = (4/5) rho^3
    assert avgs == pytest.approx(0.8 * radii ** 3, rel=0.06)
    slope = np.polyfit(np.log(radii), np.log(avgs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.06)


def test_lebesgue_profile_truncates_below_resolution(disk_grid):
    const = SampledQFunction(disk_grid, np.zeros((disk_grid.size, 1, 1)))
    radii, _, truncated = lebesgue_point_profile(
        const, [0.0, 0.0], [0.5, 1.0 / 256.0]
    )
    assert truncated and list(radii) == [0.5]


@pytest.mark.parametrize("ladder", [
    [0.5, math.nan, -0.25], [0.5, -0.25], [0.5, 0.0], [math.inf],
])
def test_lebesgue_profile_refuses_non_finite_or_non_positive_radius(disk_grid, ladder):
    # such rungs used to be dropped silently as truncated
    const = SampledQFunction(disk_grid, np.zeros((disk_grid.size, 1, 1)))
    with pytest.raises(ValueError, match="finite and positive"):
        lebesgue_point_profile(const, [0.0, 0.0], ladder)


@pytest.mark.parametrize("ladder", [[], np.array(0.5)])
def test_lebesgue_profile_refuses_an_empty_ladder(disk_grid, ladder):
    const = SampledQFunction(disk_grid, np.zeros((disk_grid.size, 1, 1)))
    with pytest.raises(ValueError, match="non-empty 1-D"):
        lebesgue_point_profile(const, [0.0, 0.0], ladder)


def test_from_function_paths_agree():
    grid = QuadratureGrid(np.array([[0.1, 0.0], [0.2, 0.3], [-0.4, 0.1]]),
                          np.ones(3), 0.1)
    fast = SampledQFunction.from_function(
        grid, lambda pts: np.stack([pts, -pts], axis=1), 2, 2
    )

    def per_node(x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise TypeError("one point at a time")
        return np.stack([x, -x])

    slow = SampledQFunction.from_function(grid, per_node, 2, 2)
    assert np.array_equal(fast.values, slow.values)


def test_from_function_propagates_errors_of_vectorised_callables():
    grid = QuadratureGrid(np.array([[0.1, 0.0], [0.2, 0.3]]), np.ones(2), 0.1)

    def broken(pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 2:
            raise ZeroDivisionError("bad block")
        return np.stack([pts, -pts])

    with pytest.raises(ZeroDivisionError, match="bad block"):
        SampledQFunction.from_function(grid, broken, 2, 2)
