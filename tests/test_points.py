"""Tests for tuple values, the matching metric, and sampled data."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qvalued.errors import OracleLimitError
from qvalued.geometry import Domain, QuadratureGrid, dyadic_ladder
from qvalued.lab import BranchPower
from qvalued.points import (
    AqPoint,
    SampledQFunction,
    branch_gaps,
    brute_force_metric,
    canonical_order,
    lebesgue_point_profile,
    match_batch,
    match_margins,
    matched_mass,
    metric_g,
)
from qvalued.points import _permutation_table


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


def test_metric_reads_a_flat_list_as_scalar_branches_like_aqpoint():
    # [1, 2] holds two scalar branches, in either form and mixed
    assert metric_g([1.0, 2.0], [2.0, 1.0]) == 0.0
    assert metric_g(AqPoint([1.0, 2.0]), [2.0, 1.0]) == 0.0
    assert metric_g([0.0, 1.0], AqPoint([0.5, 0.4])) == pytest.approx(
        math.sqrt(0.41), abs=1e-15)
    assert brute_force_metric([1.0, 2.0], AqPoint([2.0, 1.0])) == 0.0


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
    zero = AqPoint(np.zeros(w.branches.shape))
    wa = w.branches.mean(axis=0)
    ws = AqPoint(w.branches - wa)
    lhs = metric_g(w, zero) ** 2
    rhs = metric_g(ws, zero) ** 2 + w.q * float(wa @ wa)
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
    assert metric_g(p, AqPoint(np.zeros((2, 2)))) == pytest.approx(5.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("q", [1, 2, 7])
def test_metric_g_refuses_non_finite_values(q, bad):
    # warnings are errors in this suite, so a warning on the way fails too
    a, b = np.random.default_rng(q).normal(size=(2, q, 2))
    a[q - 1, 1] = bad
    for x, y in ((a, b), (b, a), (a, a)):
        with pytest.raises(ValueError, match="finite values"):
            metric_g(x, y)


def _pair_costs(a, b):
    """d2[s, i, j] = |a[s, i] - b[s, j]|^2, written independently of the
    library."""
    return ((a[:, :, None, :] - b[:, None, :, :]) ** 2).sum(axis=3)


def _index_order_costs(a, b):
    """_pair_costs with the components summed in index order."""
    diff = a[:, :, None, :] - b[:, None, :, :]
    d2 = diff[..., 0] * diff[..., 0]
    for c in range(1, a.shape[2]):
        d2 = d2 + diff[..., c] * diff[..., c]
    return d2


def _row_major_pairings(d2, margin):
    """Reference enumeration along rows of (S, Q, Q) distances d2: every
    pairing's total, summed over b's branches in index order, then the
    first least total and, with `margin`, a partial sort for the
    runner-up.  perms[0], the identity, serves as arange(Q)."""
    perms = _permutation_table(d2.shape[1])
    totals = d2[:, perms, perms[0]].sum(axis=2)
    best = totals.argmin(axis=1)
    sq_cost = np.take_along_axis(totals, best[:, None], axis=1)[:, 0]
    if not margin:
        return perms[best], sq_cost
    return perms[best], sq_cost, np.partition(totals, 1, axis=1)[:, 1] - sq_cost


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 10), st.integers(1, 3), st.data())
def test_match_batch_is_an_optimal_pairing(S, q, m, data):
    values = arrays(float, (2, S, q, m),
                    elements=st.floats(-100, 100, allow_nan=False))
    a, b = data.draw(values)
    labels, sq_cost, margin = match_margins(a, b)
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
    labels, _ = match_batch(b, a)
    d2 = _pair_costs(a, b)
    for s in range(S):
        # labels[s, i] is the branch of b[s] paired with a[s, i]
        want = min(itertools.permutations(range(q)),
                   key=lambda p: (sum(d2[s, i, j] for i, j in enumerate(p)), p))
        assert labels[s].tolist() == list(want)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.booleans(), st.data())
def test_match_batch_two_branches_is_the_enumeration(S, m, integer, data):
    """The closed-form Q = 2 kernel equals the enumeration of both pairings
    bit for bit, distances summed over components in index order; exact
    ties (small integers) go to the identity pairing."""
    elements = (st.integers(-2, 2) if integer
                else st.floats(-100, 100, allow_nan=False, allow_subnormal=False))
    a, b = data.draw(arrays(float, (2, S, 2, m), elements=elements))
    d2 = _index_order_costs(a, b)
    got = match_margins(a, b)
    for x, y in zip(got, _row_major_pairings(d2, margin=True)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    for x, y in zip(match_batch(a, b), _row_major_pairings(d2, margin=False)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    tied = d2[:, 0, 0] + d2[:, 1, 1] == d2[:, 1, 0] + d2[:, 0, 1]
    assert np.all(got[0][tied] == [0, 1])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(3, 6), st.integers(1, 2), st.booleans(),
       st.data())
def test_match_batch_enumeration_is_the_row_major_reference(S, q, m, integer, data):
    """Up to six branches both entries equal the row-major enumeration bit
    for bit: labels, costs, margins and the lexicographic tie rule (small
    integers make ties exact)."""
    elements = (st.integers(-2, 2) if integer
                else st.floats(-100, 100, allow_nan=False, allow_subnormal=False))
    a, b = data.draw(arrays(float, (2, S, q, m), elements=elements))
    d2 = _index_order_costs(a, b)
    for match, margin in ((match_batch, False), (match_margins, True)):
        got, want = match(a, b), _row_major_pairings(d2, margin)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("integer", [False, True], ids=["floats", "ties"])
def test_match_batch_chunked_columns_equal_one_chunk(monkeypatch, integer):
    """A Q = 6 batch of more columns than one chunk of pairing terms holds
    (S Q! > _CHUNK_ENTRIES) equals the same batch matched in one chunk."""
    from qvalued import points

    rng = np.random.default_rng(6)
    S = points._CHUNK_ENTRIES // 720 + 100
    a, b = (rng.integers(-1, 2, size=(2, S, 6, 2)).astype(float) if integer
            else rng.normal(size=(2, S, 6, 2)))
    chunked = [match_batch(a, b), match_margins(a, b)]
    monkeypatch.setattr(points, "_CHUNK_ENTRIES", S * 720 * 6)
    whole = [match_batch(a, b), match_margins(a, b)]
    for got, want in zip(chunked, whole):
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("q", [1, 3, 4, 5, 6, 7, 8])
def test_match_batch_three_components_sum_in_index_order(q):
    """With three components each branch distance is summed over them in
    index order and the pairing total over b's branches in index order,
    bit for bit, in every body of the kernel and in a batch of one as in a
    batch; the distance agrees with the brute-force oracle."""
    rng = np.random.default_rng(q)
    a, b = rng.normal(size=(2, 60, q, 3))
    labels, sq_cost, _ = match_margins(a, b)
    assert np.array_equal(match_batch(a, b)[0], labels)
    d2 = _index_order_costs(a, b)
    for s in range(len(a)):
        total = d2[s, labels[s, 0], 0]
        for i in range(1, q):
            total = total + d2[s, labels[s, i], i]
        assert sq_cost[s] == total
        assert match_batch(a[s:s + 1], b[s:s + 1])[1][0] == total
        assert math.sqrt(sq_cost[s]) == pytest.approx(
            brute_force_metric(a[s], b[s]), rel=0, abs=1e-12)


@pytest.mark.parametrize("q", [7, 8, 10])
def test_scalar_costs_above_six_branches_sum_in_index_order(q):
    """Above six branches a scalar cost is sum_j (a[labels[j]] - b[j])^2,
    each term d * d, added in j order, in a batch and in a batch of one,
    where numpy's own sum would add eight or more terms pairwise."""
    rng = np.random.default_rng(q)
    a, b = rng.normal(size=(2, 400, q, 1))
    labels, sq_cost = match_batch(a, b)
    assert match_margins(a, b)[1].tobytes() == sq_cost.tobytes()
    for s in range(len(a)):
        d = a[s, labels[s], 0] - b[s, :, 0]
        total = d[0] * d[0]
        for j in range(1, q):
            total = total + d[j] * d[j]
        assert sq_cost[s] == total
        assert match_batch(a[s:s + 1], b[s:s + 1])[1][0] == total


@pytest.mark.parametrize("q, m", [(7, 2), (8, 2), (7, 1), (8, 1)],
                         ids=["7", "8", "7-scalar", "8-scalar"])
def test_match_batch_margin_above_enumeration_is_the_best_swap(q, m):
    """Above Q = 6 the margin is the gap to the cheapest pairing one
    transposition away from the returned one."""
    rng = np.random.default_rng(q)
    a, b = rng.normal(size=(2, 400, q, m))
    labels, sq_cost, margin = match_margins(a, b)
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
    labels, _ = match_batch(a, b)
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
        for match in (match_batch, match_margins):
            with pytest.raises(ValueError, match="finite"):
                match(x, y)


@pytest.mark.parametrize("q, m", [(2, 2), (3, 2), (7, 1), (7, 2)],
                         ids=["2", "3", "7-scalar", "7"])
def test_matching_refuses_overflowing_squared_distances(q, m):
    """Finite values whose squared branch distances overflow are refused by
    both matching entries and by metric_g, even where the best pairing
    costs 0; values whose squares stay finite are matched."""
    a = np.zeros((2, q, m))
    a[:, :, 0] = np.arange(q)
    a[1, q - 1, 0] = 1e200
    for match in (match_batch, match_margins):
        with pytest.raises(ValueError, match="finite squared distances"):
            match(a, a)
    with pytest.raises(ValueError, match="finite squared distances"):
        metric_g(a[1], a[1])
    a[1, q - 1, 0] = 1e100
    for match in (match_batch, match_margins):
        assert np.array_equal(match(a, a)[1], [0.0, 0.0])
    assert metric_g(a[1], a[1]) == 0.0
    # every squared distance finite, the matching cost not
    far = np.zeros((1, q, m))
    far[:, :, 0] = 1.3e154
    for match in (match_batch, match_margins):
        with pytest.raises(ValueError, match="finite squared distances"):
            match(a[:1], far)
    with pytest.raises(ValueError, match="finite squared distances"):
        metric_g(a[0], far[0])


def _layouts(x):
    """(S, Q, m) values in four memory layouts: C-contiguous rows, the
    transposed view of C-contiguous (Q, m, S) columns, Fortran-order rows,
    and a read-only view."""
    frozen = x.view()
    frozen.setflags(write=False)
    return (np.ascontiguousarray(x), x.transpose(1, 2, 0).copy().transpose(2, 0, 1),
            np.asfortranarray(x), frozen)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30), st.integers(1, 8), st.integers(1, 3), st.booleans(),
       st.data())
def test_matching_reads_any_memory_layout(S, q, m, rounded, data):
    """match_batch and match_margins return the same bytes on C-contiguous
    rows, transposed views of C-contiguous columns, Fortran-order rows
    and read-only views, through the column body (Q <= 6) and the row
    body (Q > 6) alike, an empty batch (S = 0) included, and write to
    none of them; rounded values make exact ties, broken alike."""
    elements = st.floats(-100, 100, allow_nan=False, allow_subnormal=False)
    a, b = data.draw(arrays(float, (2, S, q, m), elements=elements))
    if rounded:
        a, b = np.round(a / 50.0), np.round(b / 50.0)
    for match in (match_batch, match_margins):
        want = match(a, b)
        for x, y in zip(_layouts(a), _layouts(b)):
            kept = x.tobytes(), y.tobytes()
            got = match(x, y)
            assert (x.tobytes(), y.tobytes()) == kept
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200],
                         ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("q, m", [(1, 2), (2, 1), (2, 2), (3, 2), (7, 1), (7, 2)])
def test_matching_refuses_on_views_what_it_refuses_on_rows(q, m, bad):
    """Non-finite values and squared distances that overflow are refused on
    every memory layout with the ValueError and words of C-contiguous
    rows, by both entries."""
    a, b = np.random.default_rng(q).normal(size=(2, 5, q, m))
    a[3, q - 1, m - 1] = bad
    for match in (match_batch, match_margins):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError) as want:
                match(x, y)
            for xv, yv in zip(_layouts(x), _layouts(y)):
                with pytest.raises(ValueError) as got:
                    match(xv, yv)
                assert str(got.value) == str(want.value)
        view = b.transpose(1, 2, 0).copy().transpose(2, 0, 1)
        with pytest.raises(ValueError, match=r"two \(S, Q, m\) arrays of one shape"):
            match(view, view[1:])


@pytest.mark.parametrize("shape", [(3, 0, 2), (3, 1, 0), (3, 7, 0), (0, 0, 0)],
                         ids=["Q0", "m0", "Q7-m0", "S0-Q0-m0"])
def test_matching_refuses_a_batch_without_branches_or_components(shape):
    """Q = 0 and m = 0 batches are refused by name, at every S."""
    x = np.ones(shape)
    for match in (match_batch, match_margins):
        with pytest.raises(ValueError, match=r"Q >= 1 branches of m >= 1 components"):
            match(x, x)


def test_match_batch_chunks_agree_with_metric():
    # Q = 6 over more rows than one chunk of pairing terms holds
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 3000, 6, 2))
    _, sq_cost = match_batch(a, b)
    want = [metric_g(x, y) ** 2 for x, y in zip(a, b)]
    assert np.allclose(sq_cost, want, rtol=1e-12, atol=0)
    assert match_margins(a, b)[1].tobytes() == sq_cost.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 3), st.booleans(),
       st.data())
def test_match_batch_is_match_margins_without_the_margin(S, q, m, integer, data):
    """The cost-only entry returns the margin entry's labels and costs bit
    for bit; small integers make pairing costs tie exactly."""
    elements = (st.integers(-2, 2) if integer
                else st.floats(-100, 100, allow_nan=False))
    a, b = data.draw(arrays(float, (2, S, q, m), elements=elements))
    got = match_batch(a, b)
    want = match_margins(a, b)
    assert len(got) == 2 and len(want) == 3
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_cost_only_matching_computes_no_margin(monkeypatch):
    """Comparison ratios, fits and profiles run with the margin kernels
    refused: only label propagation asks for margins, and it asks
    match_margins."""
    from qvalued import points
    from qvalued.polyfit import best_fit, comparison_constant_ratios, random_qpolynomial

    def refuse(*args, **kwargs):
        raise AssertionError("a margin was computed for a cost-only match")

    monkeypatch.setattr(points, "_swap_margins", refuse)
    assert np.all(np.isfinite(comparison_constant_ratios(4, seed=0, q_branches=7)))
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    target = random_qpolynomial(np.random.default_rng(2), 2, 1, 3, 1)
    u = SampledQFunction(grid, target.eval(grid.points))
    assert best_fit(u, np.zeros(2), 1.1, 1, 2.0).polynomial.q == 3
    radii, _, _ = lebesgue_point_profile(u, np.zeros(2), dyadic_ladder(0.5, 3))
    assert radii.size
    # up to six branches the best pairing needs no runner-up
    monkeypatch.setattr(points, "_runner_up", refuse)
    a, b = np.random.default_rng(5).normal(size=(2, 20, 4, 2))
    match_batch(a, b)
    with pytest.raises(AssertionError, match="margin"):
        match_margins(a, b)


def test_up_to_six_branches_never_enter_the_row_body(monkeypatch):
    """Both entries match Q = 1 to 6 on columns, in every memory layout,
    and so does a Q = 1 fit's alternation, with the row body refused: it
    serves Q > 6 only.  The Q = 1 margin stays 0."""
    from qvalued import points
    from qvalued.polyfit import best_fit, random_qpolynomial

    def refuse(*args, **kwargs):
        raise AssertionError("the row body matched")

    monkeypatch.setattr(points, "_match_rows", refuse)
    rng = np.random.default_rng(4)
    for q in range(1, 7):
        for m in (1, 3):
            a, b = rng.normal(size=(2, 30, q, m))
            for x, y in zip(_layouts(a), _layouts(b)):
                match_batch(x, y)
            margin = match_margins(a, b)[2]
            if q == 1:
                assert margin.tobytes() == np.zeros(30).tobytes()
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    target = random_qpolynomial(np.random.default_rng(2), 2, 2, 1, 1)
    u = SampledQFunction(grid, target.eval(grid.points))
    assert best_fit(u, np.zeros(2), 1.1, 1, 2.0).polynomial.q == 1
    with pytest.raises(AssertionError, match="row body"):
        match_batch(*rng.normal(size=(2, 5, 7, 1)))


# ---------------------------------------------------------------------------
# tuple helpers


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(1, 6), st.integers(1, 3), st.data())
def test_canonical_order_sorts_rows_then_branch_index(S, q, m, data):
    # small integers make ties exact; m = 1 takes the argsort route
    values = data.draw(arrays(float, (S, q, m), elements=st.integers(-2, 2)))
    order = canonical_order(values)
    assert order.shape == (S, q)
    for s in range(S):
        want = sorted(range(q), key=lambda i: (tuple(values[s, i]), i))
        assert order[s].tolist() == want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(1, 6),
       st.lists(st.integers(1, 3), min_size=1, max_size=2), st.data())
def test_branch_gaps_is_the_closest_pair_by_brute_force(S, q, trailing, data):
    values = data.draw(arrays(float, (S, q, *trailing), elements=st.integers(-3, 3)))
    gaps = branch_gaps(values)
    assert gaps.shape == (S,)
    for s in range(S):
        want = min((float(np.sum((values[s, i] - values[s, j]) ** 2))
                    for i, j in itertools.combinations(range(q), 2)),
                   default=math.inf)
        assert gaps[s] == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.integers(1, 2),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.data())
def test_matched_mass_is_the_weighted_sum_of_metric_powers(S, q, m, q_exp, data):
    floats = st.floats(-10, 10, allow_nan=False)
    values, model = data.draw(arrays(float, (2, S, q, m), elements=floats))
    weights = data.draw(arrays(float, S, elements=st.floats(0, 1)))
    want = sum(weights[s] * metric_g(values[s], model[s]) ** q_exp for s in range(S))
    assert matched_mass(weights, values, model, q_exp) == pytest.approx(
        want, rel=1e-12, abs=1e-300)


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


@pytest.mark.parametrize("shape", [(0,), (0, 1), (2, 0)], ids=["Q0", "Q0-m1", "m0"])
def test_sampled_refuses_no_branches_or_components(disk_grid, shape):
    # Q = 0 data used to be built, and best_fit then divided by zero
    with pytest.raises(ValueError, match="Q, m >= 1"):
        SampledQFunction(disk_grid, np.zeros((disk_grid.size,) + shape))


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


def test_lebesgue_profile_constant_and_lipschitz(disk_grid):
    const = SampledQFunction(disk_grid, np.full((disk_grid.size, 2, 1), 1.3))
    _, avgs, _ = lebesgue_point_profile(const, [0.1, 0.0], [0.5, 0.25])
    assert np.all(avgs == 0.0)
    lip = SampledQFunction(
        disk_grid, np.linalg.norm(disk_grid.points, axis=1)[:, None, None]
    )
    radii, avgs, _ = lebesgue_point_profile(lip, [0.0, 0.0], [0.4, 0.2, 0.1])
    assert np.all(avgs <= 1.05 * radii ** 2)


def test_lebesgue_profile_branch_power_decay(disk_grid):
    # centered on a node, so that the value at the center is the zero tuple
    x0 = disk_grid.points[np.argmin(np.linalg.norm(disk_grid.points, axis=1))]
    r3 = np.linalg.norm(disk_grid.points - x0, axis=1) ** 1.5
    u = SampledQFunction(disk_grid, np.stack([r3, -r3], axis=1))
    radii, avgs, truncated = lebesgue_point_profile(u, x0, dyadic_ladder(0.4, 2))
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


@pytest.mark.parametrize("x0", [[math.nan, 0.0], [0.0, math.inf]])
def test_lebesgue_profile_refuses_a_non_finite_center(disk_grid, x0):
    # a NaN center used to give empty arrays flagged as truncated
    const = SampledQFunction(disk_grid, np.zeros((disk_grid.size, 1, 1)))
    with pytest.raises(ValueError, match="x0 must be finite"):
        lebesgue_point_profile(const, x0, [0.5, 0.25])


@pytest.mark.parametrize("x0", [[5.0, 5.0], [1.0 + 2.0 / 128.0, 0.0]])
def test_lebesgue_profile_refuses_a_center_off_the_sampled_domain(disk_grid, x0):
    # its reference value used to come from a node far from x0
    const = SampledQFunction(disk_grid, np.zeros((disk_grid.size, 1, 1)))
    with pytest.raises(ValueError, match="no grid node within one grid step"):
        lebesgue_point_profile(const, x0, [0.5, 0.25])


def test_lebesgue_profile_accepts_a_center_between_nodes():
    # the origin of a cell-centered grid is h / sqrt(2) from its nearest node
    grid = Domain.ball(2, 0.5).sample(1.0 / 64.0)
    assert np.min(np.linalg.norm(grid.points, axis=1)) == pytest.approx(
        math.sqrt(0.5) / 64.0)
    const = SampledQFunction(grid, np.zeros((grid.size, 1, 1)))
    radii, _, truncated = lebesgue_point_profile(const, [0.0, 0.0], [0.5, 0.25])
    assert list(radii) == [0.5, 0.25] and not truncated


@pytest.mark.parametrize("x", [[math.nan, 0.0], [0.0, -math.inf], [0.5], [0.5, 0.0, 0.0]])
def test_nearest_index_refuses_a_point_off_the_grid(disk_grid, x):
    # [nan, 0] used to return node 0
    const = SampledQFunction(disk_grid, np.zeros((disk_grid.size, 1, 1)))
    with pytest.raises(ValueError, match="x "):
        const.nearest_index(x)
    with pytest.raises(ValueError, match="x "):
        const.value_at(x)


@pytest.mark.parametrize("x", [[5.0, 5.0], [1.0 + 2.0 / 128.0, 0.0]])
def test_nearest_index_refuses_a_point_with_no_node_within_one_step(disk_grid, x):
    # [5, 5] used to get a node far from it
    const = SampledQFunction(disk_grid, np.zeros((disk_grid.size, 1, 1)))
    with pytest.raises(ValueError, match="no grid node within one grid step"):
        const.nearest_index(x)
    with pytest.raises(ValueError, match="no grid node within one grid step"):
        const.value_at(x)


@pytest.mark.parametrize("ladder", [[], np.array(0.5)])
def test_lebesgue_profile_refuses_an_empty_ladder(disk_grid, ladder):
    const = SampledQFunction(disk_grid, np.zeros((disk_grid.size, 1, 1)))
    with pytest.raises(ValueError, match="non-empty 1-D"):
        lebesgue_point_profile(const, [0.0, 0.0], ladder)


def test_from_function_refuses_a_callable_of_another_shape():
    # a per-node callable handed the point block returns (Q, S, m), not (S, Q, m)
    grid = QuadratureGrid(np.array([[0.1, 0.0], [0.2, 0.3], [-0.4, 0.1]]),
                          np.ones(3), 0.1)
    with pytest.raises(ValueError, match="expected \\(3, 2, 2\\)"):
        SampledQFunction.from_function(grid, lambda x: np.stack([x, -x]), 2, 2)


def test_from_function_propagates_errors_of_vectorised_callables():
    grid = QuadratureGrid(np.array([[0.1, 0.0], [0.2, 0.3]]), np.ones(2), 0.1)

    def broken(pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 2:
            raise ZeroDivisionError("bad block")
        return np.stack([pts, -pts])

    with pytest.raises(ZeroDivisionError, match="bad block"):
        SampledQFunction.from_function(grid, broken, 2, 2)


_POINTS_REFUSALS = {
    "aqpoint-3d": (lambda: AqPoint(np.zeros((2, 2, 2))), ValueError, "\\(Q, m\\) array"),
    "aqpoint-empty": (lambda: AqPoint(np.zeros((0, 2))), ValueError, "\\(Q, m\\) array"),
    "match-shapes": (lambda: match_batch(np.zeros((3, 2, 1)), np.zeros((3, 2, 2))),
                     ValueError, "one shape"),
    "match-2d": (lambda: match_batch(np.zeros((3, 2)), np.zeros((3, 2))),
                 ValueError, "one shape"),
    "profile-analytic": (
        lambda: lebesgue_point_profile(BranchPower(2, 3), np.zeros(2), [0.5]),
        TypeError, "sampled data"),
}


@pytest.mark.parametrize("case", sorted(_POINTS_REFUSALS))
def test_points_refuses_malformed_input(case):
    call, error, match = _POINTS_REFUSALS[case]
    with pytest.raises(error, match=match):
        call()
