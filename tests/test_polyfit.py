"""Tests for Q-valued polynomials, coefficient metrics, and the fitter."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from qvalued import lab, polyfit
from qvalued.errors import InsufficientSamplesError, RecenterError
from qvalued.geometry import (
    Domain,
    QuadratureGrid,
    _lattice_directions,
    neighbour_table,
)
from qvalued.points import (
    AqPoint,
    SampledQFunction,
    canonical_order,
    match_batch,
    match_margins,
    matched_mass,
    metric_g,
)
from qvalued.polyfit import (
    FitConfig,
    QPolynomial,
    best_fit,
    coefficient_metric,
    coefficient_tuple,
    comparison_constant_ratios,
    design_matrix,
    multi_indices,
    random_qpolynomial,
)
from qvalued.polyfit import (
    _EXTRAP_WEIGHTS,
    _FIT_TOL,
    _IRLS_FLOOR,
    _MAX_ITER,
    _alternate,
    _factor,
    _propagated_labels,
    _spectral_ranks,
)


def _manual_eval(poly, x):
    """Independent evaluation path: sum a_p / p! (x - c)^p per branch."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((poly.q, poly.m))
    for col, p in enumerate(poly.indices):
        mono = math.prod(
            (x[j] - poly.center[j]) ** pj for j, pj in enumerate(p)
        )
        fact = math.prod(math.factorial(pj) for pj in p)
        out += poly.coeffs[:, :, col] * mono / fact
    return out


# ---------------------------------------------------------------------------
# representation and exact algebra


def test_multi_indices_enumeration():
    idx = multi_indices(2, 2)
    assert len(idx) == 6
    assert len(set(idx)) == 6
    assert all(sum(p) <= 2 for p in idx)
    assert len(multi_indices(3, 3)) == 20


def test_eval_constant_and_linear():
    const = QPolynomial(np.zeros(2), 0, np.array([[[2.0]], [[-1.0]]]))
    assert metric_g(const.eval(np.array([[0.7, -0.3]]))[0],
                    AqPoint([[2.0], [-1.0]])) == 0.0
    idx = multi_indices(2, 1)
    coeffs = np.zeros((2, 1, len(idx)))
    slot = idx.index((1, 0))
    coeffs[0, 0, slot] = 1.0
    coeffs[1, 0, slot] = -1.0
    lin = QPolynomial(np.zeros(2), 1, coeffs)
    assert metric_g(lin.eval(np.array([[2.0, 0.0]]))[0],
                    AqPoint([[2.0], [-2.0]])) == 0.0


def test_eval_matches_manual_path():
    rng = np.random.default_rng(1)
    poly = replace(random_qpolynomial(rng, 2, 2, 3, 2), center=np.array([0.2, -0.1]))
    for x in rng.uniform(-1, 1, (5, 2)):
        direct = poly.eval(x[None, :])[0]
        assert np.abs(direct - _manual_eval(poly, x)).max() < 1e-13


def test_coefficients_are_derivatives_at_center():
    # a unit coefficient a_p alone evaluates to (x - c)^p / p!, whose p-th
    # partial derivative at the center c is 1
    center = np.array([0.3, 0.4])
    idx = multi_indices(2, 3)
    x = np.random.default_rng(2).uniform(-1, 1, (7, 2))
    for col, p in enumerate(idx):
        coeffs = np.zeros((1, 1, len(idx)))
        coeffs[0, 0, col] = 1.0
        got = QPolynomial(center, 3, coeffs).eval(x)[:, 0, 0]
        want = (np.prod((x - center) ** np.array(p), axis=1)
                / math.prod(math.factorial(pj) for pj in p))
        assert np.allclose(got, want, rtol=1e-13, atol=1e-15)


def test_recenter_preserves_values():
    rng = np.random.default_rng(6)
    poly = random_qpolynomial(rng, 2, 1, 2, 3)
    moved = poly.recenter([0.4, -0.2])
    for x in rng.uniform(-1, 1, (20, 2)):
        a = poly.eval(x[None, :])[0]
        b = moved.eval(x[None, :])[0]
        assert metric_g(AqPoint(a), AqPoint(b)) < 1e-10


# ---------------------------------------------------------------------------
# coefficient metric


def test_coefficient_metric_zero_and_q1():
    rng = np.random.default_rng(7)
    poly = random_qpolynomial(rng, 2, 1, 2, 2)
    assert coefficient_metric(poly, poly) == 0.0
    f = random_qpolynomial(rng, 2, 1, 1, 1)
    g = random_qpolynomial(rng, 2, 1, 1, 1)
    expected = np.linalg.norm((f.coeffs - g.coeffs)[0, 0])
    assert coefficient_metric(f, g) == pytest.approx(expected, rel=1e-14)


def test_coefficient_metric_uses_one_joint_assignment():
    # constants {0, 2} and slopes {0, 2} each match slot-by-slot, but no
    # single branch pairing achieves both at once
    idx = multi_indices(1, 1)
    c0, c1 = idx.index((0,)), idx.index((1,))
    fc = np.zeros((2, 1, 2))
    fc[0, 0, c0], fc[0, 0, c1] = 0.0, 0.0
    fc[1, 0, c0], fc[1, 0, c1] = 2.0, 2.0
    gc = np.zeros((2, 1, 2))
    gc[0, 0, c0], gc[0, 0, c1] = 0.0, 2.0
    gc[1, 0, c0], gc[1, 0, c1] = 2.0, 0.0
    f = QPolynomial(np.zeros(1), 1, fc)
    g = QPolynomial(np.zeros(1), 1, gc)
    joint = coefficient_metric(f, g)
    assert joint == pytest.approx(math.sqrt(8.0), rel=1e-14)
    tup = coefficient_tuple(f)
    assert tup.q == 2 and tup.m == 2
    # the whole (Q, m K) block, each branch's row in slot order
    assert tup == AqPoint(fc.reshape(2, 2))


def test_coefficient_metric_requires_shared_center():
    rng = np.random.default_rng(8)
    f = random_qpolynomial(rng, 2, 1, 2, 1)
    g = replace(random_qpolynomial(rng, 2, 1, 2, 1), center=np.array([0.5, 0.0]))
    with pytest.raises(RecenterError):
        coefficient_metric(f, g)
    # centers within a relative 1e-5 are still different charts
    f = replace(random_qpolynomial(rng, 2, 1, 2, 1), center=np.array([1.0, 0.5]))
    g = replace(random_qpolynomial(rng, 2, 1, 2, 1), center=np.array([1.0 + 1e-6, 0.5]))
    with pytest.raises(RecenterError):
        coefficient_metric(f, g)


# ---------------------------------------------------------------------------
# fitting


@pytest.fixture(scope="module")
def fit_grid():
    return Domain.ball(2, 1.0).sample(1.0 / 16.0)


def test_best_fit_interpolates_exact_samples(fit_grid):
    rng = np.random.default_rng(9)
    for trial in range(10):
        q = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        target = random_qpolynomial(rng, 2, m, q, k)
        u = SampledQFunction(fit_grid, target.eval(fit_grid.points))
        res = best_fit(u, np.zeros(2), 1.1, k, 2.0, FitConfig(restarts=8))
        assert res.residual <= 1e-18
        gap = coefficient_metric(res.polynomial.recenter(np.zeros(2)),
                                 target.recenter(np.zeros(2)))
        assert gap < 1e-8


def test_best_fit_q1_equals_least_squares(fit_grid):
    vals = (np.sin(fit_grid.points[:, 0]) *
            np.exp(fit_grid.points[:, 1]))[:, None, None]
    u = SampledQFunction(fit_grid, vals)
    res = best_fit(u, np.zeros(2), 1.1, 2, 2.0)
    design = design_matrix(fit_grid.points, np.zeros(2), multi_indices(2, 2))
    w = np.sqrt(fit_grid.weights)
    coef, *_ = np.linalg.lstsq(design * w[:, None], vals[:, 0, 0] * w,
                               rcond=None)
    assert np.abs(res.polynomial.coeffs[0, 0] - coef).max() < 1e-10


def test_best_fit_beats_taylor_challenger():
    grid = Domain.ball(2, 0.25, center=[0.6, 0.0]).sample(1.0 / 128.0)
    r = np.linalg.norm(grid.points, axis=1)
    theta = np.arctan2(grid.points[:, 1], grid.points[:, 0])
    vals = (r ** 1.5 * np.cos(1.5 * theta))[:, None]
    u = SampledQFunction(grid, np.stack([vals, -vals], axis=1))
    center = np.array([0.6, 0.0])
    res = best_fit(u, center, 0.25, 1, 2.0)

    # branchwise first-order expansion of the closed form at the center
    f0 = 0.6 ** 1.5
    fx = 1.5 * math.sqrt(0.6)
    idx = multi_indices(2, 1)
    coeffs = np.zeros((2, 1, len(idx)))
    coeffs[0, 0, idx.index((0, 0))], coeffs[1, 0, idx.index((0, 0))] = f0, -f0
    coeffs[0, 0, idx.index((1, 0))], coeffs[1, 0, idx.index((1, 0))] = fx, -fx
    taylor = QPolynomial(center, 1, coeffs)
    model = taylor.eval(grid.points)
    taylor_res = float(np.sum(
        grid.weights * np.array(
            [metric_g(AqPoint(a), AqPoint(b)) for a, b in zip(u.values, model)]
        ) ** 2
    ))
    assert res.residual <= taylor_res * (1.0 + 1e-12)

    # the reported residual is the direct quadrature of G(u, fit)^2
    fitted = res.polynomial.eval(grid.points)
    direct = float(np.sum(
        grid.weights * np.array(
            [metric_g(AqPoint(a), AqPoint(b)) for a, b in zip(u.values, fitted)]
        ) ** 2
    ))
    assert res.residual == pytest.approx(direct, rel=1e-10)


def test_best_fit_insufficient_samples(fit_grid):
    u = SampledQFunction(fit_grid, np.zeros((fit_grid.size, 1, 1)))
    tiny = u.restrict(np.zeros(2), 0.15)
    with pytest.raises(InsufficientSamplesError):
        best_fit(tiny, np.zeros(2), 0.14, 5, 2.0)


def test_local_excess_zero_on_polynomials(fit_grid):
    rng = np.random.default_rng(10)
    target = random_qpolynomial(rng, 2, 1, 2, 2)
    u = SampledQFunction(fit_grid, target.eval(fit_grid.points))
    assert best_fit(u, np.zeros(2), 1.1, 2, 2.0).residual <= 1e-16


def test_local_excess_closed_form_and_scaling():
    grid = Domain.ball(2, 1.0).sample(1.0 / 128.0)
    r = np.linalg.norm(grid.points, axis=1)
    u = SampledQFunction(grid, (r ** 1.5)[:, None, None])
    lam = 2.0
    u_scaled = SampledQFunction(
        grid, ((lam * r) ** 1.5)[:, None, None]
    )
    e_base = best_fit(u, np.zeros(2), 0.5, 1, 2.0).residual
    # affine fits of r^{3/2} over a disk have a closed-form best residual
    assert e_base == pytest.approx(18.0 * math.pi / 245.0 * 0.5 ** 5, rel=0.02)
    e_scaled = best_fit(u_scaled, np.zeros(2), 0.25, 1, 2.0).residual
    assert e_scaled == pytest.approx(e_base / lam ** 2, rel=0.05)


def test_comparison_ratio_stream_is_deterministic_prefix():
    short = comparison_constant_ratios(40, seed=123)
    long = comparison_constant_ratios(80, seed=123)
    assert np.array_equal(long[:40], short)
    assert np.all(np.isfinite(long)) and np.all(long > 0)


def _per_instance_ratios(instances, seed, q_branches):
    """comparison_constant_ratios (n = 2, m = 1, k = 2, q = 2) with one
    design matrix per instance, built on that instance's node subset: the
    reference for the design shared across instances."""
    rng = np.random.default_rng(seed)
    grid = Domain.ball(2, 1.0).sample(polyfit._RATIO_RESOLUTION)
    least = polyfit._RATIO_MIN_WEIGHT
    ratios = np.empty(instances)
    for i in range(instances):
        F = random_qpolynomial(rng, 2, 1, q_branches, 2)
        G = random_qpolynomial(rng, 2, 1, q_branches, 2)
        frac = rng.uniform(least / grid.total_weight(), 1.0)
        count = max(int(round(frac * grid.size)),
                    int(math.ceil(least / grid.weights[0])))
        subset = rng.choice(grid.size, size=min(count, grid.size), replace=False)
        D = design_matrix(grid.points[subset], F.center, F.indices)
        fv = np.einsum("sk,qmk->sqm", D, F.coeffs)
        gv = np.einsum("sk,qmk->sqm", D, G.coeffs)
        dists = np.sqrt(match_batch(fv, gv)[1])
        integral = float(np.sum(grid.weights[subset] * dists ** 2.0))
        ratios[i] = coefficient_metric(F, G) ** 2.0 / integral
    return ratios


@pytest.mark.parametrize("q", [2, 4, 7])
def test_comparison_ratios_share_one_design_bit_for_bit(q):
    assert (polyfit._RATIO_N, polyfit._RATIO_M, polyfit._RATIO_K,
            polyfit._RATIO_Q) == (2, 1, 2, 2.0)
    got = comparison_constant_ratios(3, seed=7, q_branches=q)
    want = _per_instance_ratios(3, 7, q)
    assert got.tobytes() == want.tobytes()


def test_random_qpolynomial_seeded():
    a = random_qpolynomial(np.random.default_rng(5), 2, 1, 2, 2)
    b = random_qpolynomial(np.random.default_rng(5), 2, 1, 2, 2)
    assert np.array_equal(a.coeffs, b.coeffs)


# ---------------------------------------------------------------------------
# label propagation and lazy starts


def _lattice_keys(points, resolution):
    return np.rint((points - points.min(axis=0)) / resolution).astype(int)


_PERMUTATIONS = {}


def _pairing(a, b):
    """(pairing, sq_cost, margin) of a against b, each a (Q, m) array, with
    the pairing totals summed in index order.  Up to Q = 6 every pairing is
    enumerated and an exact tie goes to the lexicographically smallest.
    Above it scalar values pair by rank, equal values ranked by branch
    index, and vector values take scipy's assignment, as match_batch's do
    (an enumeration would pick another of several tied optima); the margin
    is the least change of the total under one transposition."""
    Q, m = a.shape
    diff = a[:, None, :] - b[None, :, :]
    d2 = np.einsum("abm,abm->ab", diff, diff)
    branch = np.arange(Q)
    if Q <= 6:
        if Q not in _PERMUTATIONS:
            _PERMUTATIONS[Q] = np.array(list(itertools.permutations(range(Q))))
        perms = _PERMUTATIONS[Q]
        totals = d2[perms, branch].sum(axis=1)
        pick = int(np.argmin(totals))
        return perms[pick], totals[pick], np.partition(totals, 1)[1] - totals[pick]
    if m == 1:
        p = np.empty(Q, dtype=int)
        p[sorted(range(Q), key=lambda j: (b[j, 0], j))] = sorted(
            range(Q), key=lambda i: (a[i, 0], i))
        rows, cols = branch, np.argsort(p)
    else:
        rows, cols = linear_sum_assignment(d2)
        p = rows[np.argsort(cols)]
    change = min(d2[p[i], j] + d2[p[j], i] - d2[p[i], i] - d2[p[j], j]
                 for i, j in itertools.combinations(range(Q), 2))
    return p, d2[rows, cols].sum(), max(change, 0.0)


def _forest_oracle(points, values, resolution, start_labels, order):
    """Label propagation written out plainly: lattice keys in a dict, edges
    weighed one at a time, Kruskal's algorithm with union-find, labels
    composed by a breadth-first walk from each component's root.  Returns
    the labels and the last forest's edges as (child, parent, pairing) with
    labels[child] = pairing[labels[parent]]."""
    S, Q, _ = values.shape
    keys = [tuple(k) for k in _lattice_keys(points, resolution).tolist()]
    index_of = {k: s for s, k in enumerate(keys)}
    depth = min(order + 1, max(_EXTRAP_WEIGHTS))

    def shifted(s, step, times):
        return index_of.get(tuple(k + times * d for k, d in zip(keys[s], step)))

    half = _lattice_directions(points.shape[1])[0::2]
    edges = [(t, d) for t in range(S) for d in half if shifted(t, d, 1) is not None]

    def weigh(s, step, frames, reach):
        """(L, relative margin, pairing against the chain's first cell)."""
        chain = []
        while len(chain) < reach:
            c = shifted(s, step, len(chain) + 1)
            if c is None:
                break
            chain.append(c)
        framed = [values[c] if frames is None else values[c][frames[c]] for c in chain]
        weights = _EXTRAP_WEIGHTS[len(chain)]
        pred = weights[0] * framed[0]
        for w, v in zip(weights[1:], framed[1:]):
            pred = pred + w * v
        labs, cost, gap = _pairing(values[s], pred)
        raw = np.empty(Q, dtype=int)
        raw[np.arange(Q) if frames is None else frames[chain[0]]] = labs
        return len(chain), gap / (cost + gap) if cost + gap > 0 else 0.0, raw

    gaps = np.full(S, np.inf)
    for a in range(Q):
        for b in range(a + 1, Q):
            diff = values[:, a, :] - values[:, b, :]
            gaps = np.minimum(gaps, np.einsum("sm,sm->s", diff, diff))

    labels = None
    for _ in range(1 if depth == 1 else 3):
        weighed = []
        for index, (t, d) in enumerate(edges):
            u = shifted(t, d, 1)
            length, margin, pairing = weigh(t, d, labels, 1 if labels is None else depth)
            best = (length, margin, t, u, pairing)
            if labels is not None:
                length, margin, pairing = weigh(u, tuple(-x for x in d), labels, depth)
                if (length, margin) > best[:2]:
                    best = (length, margin, u, t, pairing)
            weighed.append((-best[0], -best[1], index) + best[2:])
        owner = list(range(S))

        def find(x):
            while owner[x] != x:
                owner[x] = owner[owner[x]]
                x = owner[x]
            return x

        tree = []
        for _, _, _, child, parent, pairing in sorted(weighed, key=lambda e: e[:3]):
            if find(child) != find(parent):
                owner[find(child)] = find(parent)
                tree.append((child, parent, pairing))
        near = {s: [] for s in range(S)}
        for child, parent, pairing in tree:
            near[parent].append((child, pairing))
            near[child].append((parent, np.argsort(pairing)))
        best_in = {}
        for s in range(S):  # first cell with the largest gap per component
            r = find(s)
            if r not in best_in or gaps[s] > gaps[best_in[r]]:
                best_in[r] = s
        new = np.full((S, Q), -1, dtype=int)
        for root in best_in.values():
            new[root] = start_labels[root]
            queue = [root]
            for s in queue:
                for t, pairing in near[s]:
                    if new[t, 0] < 0:
                        new[t] = pairing[new[s]]
                        queue.append(t)
        labels = new
    return labels, tree


def _two_balls():
    part = Domain.ball(2, 0.3).sample(1.0 / 16.0)
    pts = np.concatenate([part.points - 0.7, part.points + [0.7, 0.1]])
    return QuadratureGrid(pts, np.concatenate([part.weights] * 2), part.resolution)


PROPAGATION_GRIDS = {
    "ball": lambda: Domain.ball(2, 1.0).sample(1.0 / 16.0),
    "annulus": lambda: Domain.annulus(2, 0.4, 1.0).sample(1.0 / 16.0),
    "two_balls": _two_balls,
    "ball_3d": lambda: Domain.ball(3, 1.0).sample(1.0 / 5.0),
}


def _assert_table_matches_dict_lookup(points, resolution, depth):
    """neighbour_table against a dict of lattice keys, in which a key shared
    by several samples holds the one listed last."""
    keys = _lattice_keys(points, resolution)
    dirs = _lattice_directions(points.shape[1])
    table = neighbour_table(points, resolution, depth)
    index_of = {tuple(k): s for s, k in enumerate(keys)}
    expected = np.array([
        [[index_of.get(tuple(k + step * np.asarray(d)), -1) for step in range(1, depth + 1)]
         for d in dirs]
        for k in keys
    ])
    assert table.dtype == np.int32
    assert np.array_equal(table, expected)


@pytest.mark.parametrize("name", sorted(PROPAGATION_GRIDS))
def test_neighbour_table_matches_dict_lookup(name):
    grid = PROPAGATION_GRIDS[name]()
    _assert_table_matches_dict_lookup(grid.points, grid.resolution, 4)


@st.composite
def _keyed_samples(draw):
    """(points, resolution): a random subset of an n = 1-3 lattice, with
    repeated nodes, sometimes a second component far off, and sometimes
    jitter under the rounding; or scattered points with a few repeated.
    The resolution is the lattice's or 1e-9, under which nearly every
    coordinate is its own key."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = draw(st.sampled_from([1.0, 1.0 / 16.0, 0.3]))
    if draw(st.booleans()):
        side = draw(st.integers(1, 6))
        keys = rng.integers(0, side, (draw(st.integers(1, 40)), n))
        if draw(st.booleans()):
            keys = np.concatenate([keys, keys[::2] + draw(st.integers(side + 1, 10_000))])
        points = keys * h - 0.5
        if draw(st.booleans()):
            points += rng.uniform(-0.2, 0.2, points.shape) * h
    else:
        points = rng.uniform(-1.0, 1.0, (draw(st.integers(1, 60)), n))
        points = np.concatenate([points, points[rng.integers(0, len(points), 5)]])
    return points, draw(st.sampled_from([h, 1e-9]))


@settings(max_examples=150, deadline=None)
@given(sample=_keyed_samples(), depth=st.integers(1, 5))
def test_neighbour_table_matches_dict_lookup_on_drawn_samples(sample, depth):
    _assert_table_matches_dict_lookup(*sample, depth)


def _two_branch_field(points):
    """+-r^1.5 e^{1.5 i theta} in the leading plane: the branches coincide at
    the origin (zero margins) and their sheets cross along rays, where
    order-0 tracking along a lattice line breaks."""
    r = np.linalg.norm(points[:, :2], axis=1)
    th = 1.5 * np.arctan2(points[:, 1], points[:, 0])
    b = (r ** 1.5)[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    return np.stack([b, -b], axis=1)


def _assert_labels_match_oracle(grid, vals, orders):
    ranks = _spectral_ranks(vals)
    for order in orders:
        *_, got = _propagated_labels(grid, vals, ranks, order)
        want, tree = _forest_oracle(grid.points, vals, grid.resolution, ranks, order)
        assert np.array_equal(got, want), (vals.shape, order)
        assert np.array_equal(np.sort(got, axis=1), np.tile(np.arange(vals.shape[1]),
                                                            (grid.size, 1)))
        for child, parent, pairing in tree:
            assert np.array_equal(got[child], pairing[got[parent]])


@pytest.mark.parametrize("name", sorted(PROPAGATION_GRIDS))
def test_propagated_labels_match_forest_oracle(name):
    grid = PROPAGATION_GRIDS[name]()
    rng = np.random.default_rng(12)
    for q, m, k, noise in ((2, 1, 1, 0.0), (3, 2, 2, 0.0), (2, 3, 1, 0.05),
                           (4, 1, 3, 0.0), (7, 1, 1, 0.0), (3, 2, 2, 0.05)):
        vals = random_qpolynomial(rng, grid.dim, m, q, k).eval(grid.points)
        vals = vals + noise * rng.normal(size=vals.shape)
        _assert_labels_match_oracle(grid, vals, (0, k))
    _assert_labels_match_oracle(grid, _two_branch_field(grid.points), (1, 2))


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 7]), m=st.integers(1, 2), k=st.integers(0, 3),
       order=st.integers(0, 3), data=st.sampled_from(["exact", "noisy", "integer"]),
       holes=st.floats(0.0, 0.3), seed=st.integers(0, 2 ** 16))
def test_propagated_labels_match_forest_oracle_on_small_grids(q, m, k, order, data,
                                                             holes, seed):
    """Labels are a permutation per cell, agree with the pairing along every
    tree edge and equal the oracle's, on holey grids (several components,
    so several roots) and with exact ties between pairings."""
    rng = np.random.default_rng(seed)
    full = Domain.ball(2, 1.0).sample(1.0 / 4.0)
    keep = rng.random(full.size) >= holes
    grid = QuadratureGrid(full.points[keep], full.weights[keep], full.resolution)
    vals = random_qpolynomial(rng, 2, m, q, k).eval(grid.points)
    if data == "noisy":
        vals = vals + 0.05 * rng.normal(size=vals.shape)
    elif data == "integer":  # small integers: exact ties between pairings
        vals = np.round(2.0 * vals)
    _assert_labels_match_oracle(grid, vals, (order,))


def _second_pass_draws(grid, m):
    """(k, values) of the Q = 7 draws with m components, among five that the
    first order-k forest misses and the second one mends."""
    rng = np.random.default_rng(21)
    for case in range(80):
        draw_m, k = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        poly = random_qpolynomial(rng, 2, draw_m, 7, k)
        if case in (0, 11, 16, 66, 79) and draw_m == m:
            yield k, poly.eval(grid.points)


@pytest.mark.parametrize("q", [2, 3, 7])
@pytest.mark.parametrize("m", [1, 2])
def test_order_k_propagation_alone_is_exact(fit_grid, q, m):
    rng = np.random.default_rng(100 + 10 * q + m)
    weights = fit_grid.weights
    cases = [(k, random_qpolynomial(rng, 2, m, q, k).eval(fit_grid.points))
             for k in (1, 2, 3)]
    if q == 7:
        cases += list(_second_pass_draws(fit_grid, m))
    for k, vals in cases:
        design = design_matrix(fit_grid.points, np.zeros(2), multi_indices(2, k))
        *_, labels = _propagated_labels(fit_grid, vals, _spectral_ranks(vals), k)
        obj = _alternate(design, vals, weights, _factor(design, weights), labels,
                         2.0)[2]
        mass = float(np.sum(weights * np.einsum("sqm,sqm->s", vals, vals)))
        assert obj <= (100.0 * np.finfo(float).eps) ** 2 * mass


def test_serial_fit_stops_before_propagating(fit_grid, monkeypatch):
    calls = []
    original = polyfit._propagated_labels

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(polyfit, "_propagated_labels", counting)
    # two sheets that never cross: the spectral ranks are already exact
    x = fit_grid.points
    vals = np.stack([1.0 + 0.2 * x[:, 0], -1.0 + 0.3 * x[:, 1]], axis=1)
    u = SampledQFunction(fit_grid, vals[:, :, None])
    res = best_fit(u, np.zeros(2), 1.1, 1, 2.0)
    assert res.residual <= 1e-20
    assert calls == []
    # only the spectral start ran
    assert res.starts == len(res.log) == 1


def test_fits_through_a_warm_memo_equal_fits_on_a_fresh_grid():
    """A ball's kept geometry changes no fit: fits on a grid whose balls
    hold the lattice, propagation skeleton and factor that fits of other
    fields and degrees left there equal, to the bit, the fits on a fresh
    copy of the grid."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 16.0)
    rng = np.random.default_rng(29)
    balls = [(rng.uniform(-0.3, 0.3, 2), float(rng.uniform(0.3, 0.45))) for _ in range(3)]
    cases = []
    for _ in range(24):
        q, m, k = (int(v) for v in rng.integers((1, 1, 0), (4, 3, 4)))
        center, radius = balls[rng.integers(len(balls))]
        values = random_qpolynomial(rng, 2, m, q, k).eval(grid.points)
        values += 0.05 * rng.normal(size=values.shape)
        cases.append((values, center, radius, k, float(rng.choice([2.0, 1.5]))))

    def fit(g, values, center, radius, k, q_exp):
        res = best_fit(SampledQFunction(g, values), center, radius, k, q_exp)
        return res.polynomial.coeffs.tobytes(), repr(res.residual), res.log

    for case in cases:
        fit(grid, *case)
    assert len(grid._memo["balls"]) == len(balls)
    for case in cases:
        fresh = QuadratureGrid(grid.points, grid.weights, grid.resolution)
        assert fit(grid, *case) == fit(fresh, *case)


def test_fits_on_one_ball_and_degree_share_one_factor(fit_grid, monkeypatch):
    factored = []
    original = polyfit._factor

    def counting(design, weights):
        factored.append(design.shape)
        return original(design, weights)

    monkeypatch.setattr(polyfit, "_factor", counting)
    grid = QuadratureGrid(fit_grid.points, fit_grid.weights, fit_grid.resolution)
    rng = np.random.default_rng(3)
    for k in (1, 2, 1, 2, 1):
        u = SampledQFunction(grid, random_qpolynomial(rng, 2, 1, 2, k).eval(grid.points))
        res = best_fit(u, np.zeros(2), 1.1, k, 2.0)
        assert res.residual <= 1e-16
    assert factored == [(grid.size, 3), (grid.size, 6)]
    sub = u.restrict(np.zeros(2), 1.1)
    design, factor = sub.grid._memo[("fit", np.zeros(2).tobytes(), 1)]
    skeleton = polyfit._lattice_skeleton(sub.grid, 2)
    for kept in (design,) + factor + skeleton:
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0


def test_values_through_a_kept_design_equal_eval_on_raw_points():
    """Audit masses read a polynomial's values through the ball's kept
    design; they equal, to the bit, eval on a fresh copy of the ball's
    points, for polynomials centered on the ball's center and off it.  A
    fit's design at its own center is that same kept design."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 32.0)
    rng = np.random.default_rng(30)
    balls = [(rng.uniform(-0.3, 0.3, 2), float(rng.uniform(0.3, 0.45))) for _ in range(3)]
    for _ in range(30):
        q, m, k = (int(v) for v in rng.integers((1, 1, 0), (4, 3, 4)))
        center, radius = balls[rng.integers(len(balls))]
        pole = center if rng.random() < 0.5 else rng.uniform(-0.5, 0.5, 2)
        P = QPolynomial(pole, k, random_qpolynomial(rng, 2, m, q, k).coeffs)
        ball, idx = grid.restrict(center, radius)
        raw = np.array(grid.points[idx])
        for _ in range(2):  # the second call reads the kept design
            kept = P.eval(ball)
            assert kept.tobytes() == P.eval(raw).tobytes()
        values = rng.normal(size=(ball.size, q, m))
        for q_exp in (2.0, 1.5):
            assert matched_mass(ball.weights, values, kept, q_exp) \
                == matched_mass(grid.weights[idx], values, P.eval(raw), q_exp)
    center, radius = balls[0]
    u = SampledQFunction(grid, random_qpolynomial(rng, 2, 1, 2, 2).eval(grid.points))
    best_fit(u, center, radius, 2, 2.0)
    memo = u.restrict(center, radius).grid._memo
    assert memo[("fit", center.tobytes(), 2)][0] is memo[("design", center.tobytes(), 2)]


def _fit_inputs(u, center, radius, k):
    """best_fit's set-up at q_exp = 2: the ball, its canonically ordered
    values, the design, its factor and the deterministic start labels,
    which read the values less their branch mean."""
    sub = u.restrict(center, radius)
    values = np.take_along_axis(
        sub.values, canonical_order(sub.values)[:, :, None], axis=1)
    design = design_matrix(sub.grid.points, center, multi_indices(2, k))
    symmetric = values - values.mean(axis=1, keepdims=True)
    ranks = _spectral_ranks(symmetric)
    starts = [ranks, *_propagated_labels(sub.grid, symmetric, ranks, k)]
    return sub, values, design, _factor(design, sub.grid.weights), starts


def _ungated_fit(u, center, radius, k):
    """Every start of the schedule before the restart gate, all run: the
    spectral and propagated starts, then the eight default_rng(0) random
    labelings.  Returns the least outcome's polynomial and objective."""
    sub, values, design, factor, starts = _fit_inputs(u, center, radius, k)
    weights = sub.grid.weights
    rng = np.random.default_rng(0)
    starts += [np.argsort(rng.random(starts[0].shape), axis=1) for _ in range(8)]
    outcomes = [_alternate(design, values, weights, factor, labels, 2.0)
                for labels in starts]
    coeffs, _, obj, _, _ = min(outcomes, key=lambda o: (o[2], o[0].tobytes()))
    return QPolynomial(center, k, coeffs).canonical_branch_order(), obj


def _two_branch_sample():
    grid = Domain.ball(2, 1.0).sample(1.0 / 40.0)
    return SampledQFunction(grid, _two_branch_field(grid.points))


@pytest.mark.parametrize("center, ran", [((0.5, 0.0), 3), ((0.0, 0.0), 11)])
def test_random_restarts_run_only_where_the_deterministic_starts_disagree(
        center, ran):
    u = _two_branch_sample()
    center = np.array(center)
    res = best_fit(u, center, 0.2, 1, 2.0)
    kinds = [entry[0] for entry in res.log]
    assert kinds == ["spectral", "order0", "order_k"] + ["random"] * (ran - 3)
    deterministic = [entry[1] for entry in res.log[:3]]
    # off the branch point the three starts agree and the restarts are
    # skipped; at the branch point they disagree and all eight run
    assert (max(deterministic) - min(deterministic)
            > _FIT_TOL * min(deterministic)) == (ran == 11)
    assert res.starts == len(res.log) == ran
    poly, obj = _ungated_fit(u, center, 0.2, 1)
    assert res.polynomial.coeffs.tobytes() == poly.coeffs.tobytes()
    assert res.residual == obj
    assert res.residual == min(entry[1] for entry in res.log)
    assert "log" not in repr(res)


def test_deterministic_starts_with_equal_labels_share_one_alternation(monkeypatch):
    """Off the branch point the spectral, order-0 and order-k labels agree:
    one alternation serves all three, and the log is the one written by
    alternating from every deterministic start."""
    u = _two_branch_sample()
    center = np.array([0.5, 0.0])
    sub, values, design, factor, starts = _fit_inputs(u, center, 0.2, 1)
    want = []
    for kind, labels in zip(("spectral", "order0", "order_k"), starts):
        _, _, obj, conv, iters = _alternate(design, values, sub.grid.weights, factor,
                                            labels, 2.0)
        want.append((kind, obj, iters, conv))
    calls = []
    original = polyfit._alternate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polyfit, "_alternate", counting)
    res = best_fit(u, center, 0.2, 1, 2.0)
    assert res.log == tuple(want)
    assert len(calls) == 1 < len(res.log)


def test_a_random_labeling_equal_to_an_earlier_one_is_not_alternated_again(
        monkeypatch):
    """At the branch point the deterministic starts disagree and the eight
    restarts run.  With a generator that draws the same labeling each time,
    one alternation serves all eight, and the fit is the one written by
    alternating from every start."""
    u = _two_branch_sample()
    center = np.zeros(2)
    sub, values, design, factor, starts = _fit_inputs(u, center, 0.2, 1)
    draw = np.random.default_rng(0).random((sub.size, 2))
    drawn = np.argsort(draw, axis=1)
    outcomes = [_alternate(design, values, sub.grid.weights, factor, labels, 2.0)
                for labels in starts + [drawn]]
    want = [(kind, obj, iters, conv) for kind, (_, _, obj, conv, iters)
            in zip(["spectral", "order0", "order_k"] + ["random"] * 8,
                   outcomes + [outcomes[-1]] * 7)]
    coeffs = min(outcomes, key=lambda o: (o[2], o[0].tobytes()))[0]
    poly = QPolynomial(center, 1, coeffs).canonical_branch_order()

    class Repeating:
        def __init__(self, seed):
            pass

        def random(self, size):
            return draw.copy()

    calls = []
    original = polyfit._alternate

    def counting(*args):
        calls.append(args[4])
        return original(*args)

    monkeypatch.setattr(np.random, "default_rng", Repeating)
    monkeypatch.setattr(polyfit, "_alternate", counting)
    res = best_fit(u, center, 0.2, 1, 2.0)
    assert res.log == tuple(want)
    assert sum(np.array_equal(labels, drawn) for labels in calls) == 1
    assert len(calls) == len(outcomes)
    assert res.residual == min(o[2] for o in outcomes)
    assert res.polynomial.coeffs.tobytes() == poly.coeffs.tobytes()


def test_fit_starts_read_the_symmetric_part():
    """One affine map added to every branch changes no pairing: the best fit
    shifts by it and keeps its residual.  The starts read the values less
    their branch mean, so they do not see the map; read raw, they tilted
    the spectral axis and the forest's margins, and on this ball across
    the branch point the residual moved by 0.24%."""
    grid = Domain.ball(2, 0.5).sample(1.0 / 64.0)
    field = _two_branch_field(grid.points)
    c = np.random.default_rng(1).normal(size=(2, 3))  # c0 + c1 x + c2 y per component
    affine = c[:, 0] + grid.points @ c[:, 1:].T
    plain = best_fit(SampledQFunction(grid, field), np.zeros(2), 0.15, 2, 2.0)
    moved = best_fit(SampledQFunction(grid, field + affine[:, None, :]),
                     np.zeros(2), 0.15, 2, 2.0)
    assert moved.residual == pytest.approx(plain.residual, rel=1e-9, abs=0.0)


def _count_csgraph_calls(monkeypatch, events):
    """Append the name of each connected_components, minimum_spanning_tree
    and breadth_first_order call that label propagation makes to
    `events`."""
    import scipy.sparse.csgraph as csgraph

    for name in ("connected_components", "minimum_spanning_tree",
                 "breadth_first_order"):
        def counting(*args, _original=getattr(csgraph, name), _name=name, **kwargs):
            events.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(csgraph, name, counting)


def test_order_k_propagation_stops_at_its_fixed_point(monkeypatch):
    """Where the first order-k forest returns the order-0 labels that framed
    it, the second is not grown: one depth-2 sweep, forward and backward
    chains in one call, instead of two.  The labels are still the
    oracle's, which grows every forest."""
    sub, values, _, _, (ranks, *_) = _fit_inputs(
        _two_branch_sample(), np.array([0.5, 0.0]), 0.2, 1)
    reach = []
    events = []
    original = polyfit._chain_pairings

    def counting(values, frames, cells, chains, lengths, extrap):
        reach.append(chains.shape[1])
        events.append(chains.shape[1])
        return original(values, frames, cells, chains, lengths, extrap)

    monkeypatch.setattr(polyfit, "_chain_pairings", counting)
    _count_csgraph_calls(monkeypatch, events)
    zero, labels = _propagated_labels(sub.grid, values, ranks, 1)
    assert reach == [1, 2]
    assert np.array_equal(labels, zero)
    want, _ = _forest_oracle(sub.grid.points, values, sub.grid.resolution, ranks, 1)
    assert np.array_equal(labels, want)
    # the fixed-point pass agrees with its frames on every edge
    assert "minimum_spanning_tree" not in events[events.index(2):]


@pytest.mark.parametrize("k", [1, 2])
def test_propagation_off_the_branch_point_makes_no_csgraph_call(monkeypatch, k):
    """Off the branch point every lattice edge's pairing agrees with the
    spectral labels, so every spanning forest composes to them: no forest
    is grown, and the labels are still the oracle's at orders 0 and k."""
    sub, values, _, _, (ranks, *_) = _fit_inputs(
        _two_branch_sample(), np.array([0.5, 0.0]), 0.2, k)
    events = []
    _count_csgraph_calls(monkeypatch, events)
    zero, labels = _propagated_labels(sub.grid, values, ranks, k)
    assert events == []
    for order, got in ((0, zero), (k, labels)):
        want, _ = _forest_oracle(sub.grid.points, values, sub.grid.resolution,
                                 ranks, order)
        assert np.array_equal(got, want), order
        assert np.array_equal(got, ranks), order


def test_propagation_across_the_branch_point_grows_its_forests(monkeypatch):
    """A ball holding the branch point disagrees with its spectral labels on
    some edge, so the forests are grown.  Each is one graph with one
    minimum spanning tree and one breadth-first order: the roots come from
    the tree, with no pass over the components."""
    sub, values, _, _, (ranks, *_) = _fit_inputs(
        _two_branch_sample(), np.zeros(2), 0.2, 1)
    events = []
    _count_csgraph_calls(monkeypatch, events)
    zero, labels = _propagated_labels(sub.grid, values, ranks, 1)
    grown = events.count("minimum_spanning_tree")
    assert grown >= 2
    assert events == ["minimum_spanning_tree", "breadth_first_order"] * grown
    assert not np.array_equal(zero, ranks)
    for order, got in ((0, zero), (1, labels)):
        want, _ = _forest_oracle(sub.grid.points, values, sub.grid.resolution,
                                 ranks, order)
        assert np.array_equal(got, want), order


def _three_sheets(grid):
    """Q = 3 planar sheets one apart that never cross: order-0 tracking and
    the spectral ranks agree on every lattice edge."""
    x = grid.points
    sheets = [j + 0.1 * x[:, 0] - 0.05 * j * x[:, 1] for j in (-1, 0, 1)]
    return np.stack(sheets, axis=1)[:, :, None]


def test_propagation_checks_every_column_of_the_pairings(monkeypatch):
    """Start labels that swap branches 1 and 2 on the right half of the ball
    agree with every edge's pairing on column 0 but not on column 1 across
    x = 0: the forest must be grown, and it composes the oracle's labels,
    not the start labels."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 8.0)
    values = _three_sheets(grid)
    ranks = _spectral_ranks(values)
    swapped = ranks.copy()
    right = grid.points[:, 0] > 0
    swapped[right] = swapped[right][:, [0, 2, 1]]
    events = []
    _count_csgraph_calls(monkeypatch, events)
    (labels,) = _propagated_labels(grid, values, swapped, 0)
    assert events.count("minimum_spanning_tree") == 1
    want, _ = _forest_oracle(grid.points, values, grid.resolution, swapped, 0)
    assert np.array_equal(labels, want)
    assert not np.array_equal(labels, swapped)
    assert np.array_equal(labels[:, 0], swapped[:, 0])


def test_an_edgeless_cell_keeps_its_start_labels(monkeypatch):
    """A one-cell component has no edge to disagree with: alone it returns
    its start labels with no csgraph call, and beside a component whose
    forest is grown it is a root that keeps them."""
    h = 1.0 / 8.0
    lone = QuadratureGrid(np.zeros((1, 2)), np.full(1, h * h), h)
    values = _three_sheets(lone)
    start = np.array([[1, 2, 0]])
    events = []
    _count_csgraph_calls(monkeypatch, events)
    for order in (0, 1):
        *_, labels = _propagated_labels(lone, values, start, order)
        assert np.array_equal(labels, start)
    assert events == []

    ball = Domain.ball(2, 0.5).sample(h)
    grid = QuadratureGrid(np.vstack([ball.points, [[2.0, 2.0]]]),
                          np.append(ball.weights, h * h), h)
    values = _three_sheets(grid)
    swapped = _spectral_ranks(values)
    swapped[:3] = swapped[:3][:, [0, 2, 1]]
    swapped[-1] = start[0]
    (labels,) = _propagated_labels(grid, values, swapped, 0)
    assert events.count("minimum_spanning_tree") == 1
    assert np.array_equal(labels[-1], start[0])
    want, _ = _forest_oracle(grid.points, values, grid.resolution, swapped, 0)
    assert np.array_equal(labels, want)


def test_exact_fit_logs_the_starts_up_to_the_floor(fit_grid):
    rng = np.random.default_rng(31)
    for q, k in ((1, 1), (2, 1), (2, 2), (3, 1)):
        target = random_qpolynomial(rng, 2, 1, q, k)
        u = SampledQFunction(fit_grid, target.eval(fit_grid.points))
        res = best_fit(u, np.zeros(2), 1.1, k, 2.0)
        assert res.residual <= 1e-18
        kinds = [entry[0] for entry in res.log]
        assert kinds == (["zero"] if q == 1 else
                         ["spectral", "order0", "order_k"][:len(kinds)]), (q, k)
        assert res.log[-1][1] == res.residual
        assert all(entry[3] for entry in res.log)


@pytest.mark.parametrize("q_exp", [1.0, 1.5])
def test_exact_fit_below_q2_stops_at_the_spectral_start(fit_grid, q_exp):
    """The rounding floor is in the units of the q_exp objective: at q_exp
    below 2 an exact fit stops after one start instead of alternating
    from every start on rounding noise."""
    target = random_qpolynomial(np.random.default_rng(2), 2, 1, 3, 1)
    for scale in (1e-3, 1.0, 1e3):
        u = SampledQFunction(fit_grid, scale * target.eval(fit_grid.points))
        res = best_fit(u, np.zeros(2), 1.1, 1, q_exp)
        assert [entry[0] for entry in res.log] == ["spectral"], scale


def test_fit_stopping_at_the_order_zero_start_grows_no_order_k_forest(fit_grid,
                                                                      monkeypatch):
    reach = []
    original = polyfit._chain_pairings

    def counting(values, frames, cells, chains, lengths, extrap):
        reach.append(chains.shape[1])
        return original(values, frames, cells, chains, lengths, extrap)

    monkeypatch.setattr(polyfit, "_chain_pairings", counting)
    # two planar sheets far apart: ranked along the dominant first
    # component, the spectral start swaps them across x = 0, while
    # nearest-value tracking (order 0) labels them exactly
    x = fit_grid.points
    vals = np.stack([np.stack([x[:, 0], 0.2 + 0.05 * x[:, 1]], axis=1),
                     np.stack([-x[:, 0], np.full(len(x), -0.2)], axis=1)], axis=1)
    u = SampledQFunction(fit_grid, vals)
    for k in (1, 2):
        reach.clear()
        assert best_fit(u, np.zeros(2), 1.1, k, 2.0).residual <= 1e-20
        assert reach == [1], k  # the order-0 forest only


@pytest.mark.parametrize("name", ["ball", "two_balls"])
def test_order_k_propagation_first_yields_the_order_zero_labels(name):
    grid = PROPAGATION_GRIDS[name]()
    rng = np.random.default_rng(8)
    for q, m, k, noise in ((2, 2, 1, 0.0), (3, 1, 2, 0.05), (7, 1, 3, 0.0)):
        vals = random_qpolynomial(rng, grid.dim, m, q, k).eval(grid.points)
        vals = vals + noise * rng.normal(size=vals.shape)
        ranks = _spectral_ranks(vals)
        (zero,) = _propagated_labels(grid, vals, ranks, 0)
        first, _ = _propagated_labels(grid, vals, ranks, k)
        assert np.array_equal(first, zero), (q, m, k)


def _chain_pairings_by_gathers(values, frames, cells, chains, lengths, extrap):
    """`polyfit._chain_pairings` in its earlier formulation, kept as its
    oracle: branch frames by take_along_axis, the whole (N, depth, Q, m)
    gather of the framed chains, Newton terms summed in chain order, and
    pairings written by put_along_axis; one match of all rows at once."""
    S, Q, m = values.shape
    if frames is None:
        frames = np.broadcast_to(np.arange(Q), (S, Q))
    framed = np.take_along_axis(values, frames[..., None], axis=1)
    terms = extrap[lengths][..., None, None] * framed[chains]
    pred = terms[:, 0]
    for j in range(1, chains.shape[1]):
        pred = pred + terms[:, j]
    labs, cost, gap = match_margins(values[cells], pred)
    pairings = np.empty((len(cells), Q), dtype=np.int8)
    np.put_along_axis(pairings, frames[chains[:, 0]], labs, axis=1)
    margins = np.zeros(len(cells))
    np.divide(gap, cost + gap, out=margins, where=cost + gap > 0)
    return pairings, margins


@settings(max_examples=60, deadline=None)
@given(q=st.integers(2, 6), m=st.integers(1, 3), depth=st.integers(1, 5),
       frames=st.sampled_from(["none", "identity", "random"]),
       ties=st.booleans(), chunks=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_chain_pairings_are_the_bits_of_the_gathered_formulation(q, m, depth, frames,
                                                                 ties, chunks, seed):
    """Flat takes, the Newton sum one chain position at a time and the
    direct pairing write give the earlier formulation's bytes, across the
    row chunks of _TABLE_CHUNK_ENTRIES values, with -1 padding in the
    chains, and with no frames for the raw branch order."""
    rng = np.random.default_rng(seed)
    S = int(rng.integers(2, 40))
    step = max(polyfit._TABLE_CHUNK_ENTRIES // (max(depth, q) * q * m), 1)
    N = chunks * step + int(rng.integers(1, step))
    values = rng.normal(size=(S, q, m))
    if ties:  # equal branches and equal costs: zero margins, signed zeros
        values = np.round(values)
    chains = rng.integers(-1, S, size=(N, depth))
    chains[:, 0] = rng.integers(0, S, size=N)  # a chain starts in the grid
    lengths = polyfit._run_lengths(chains)
    extrap = np.zeros((depth + 1, depth))
    for length in range(1, depth + 1):
        extrap[length, :length] = _EXTRAP_WEIGHTS[length]
    cells = rng.integers(0, S, size=N)
    framing = {"none": None,
               "identity": np.broadcast_to(np.arange(q), (S, q)),
               "random": np.argsort(rng.random((S, q)), axis=1)}[frames]
    got = polyfit._chain_pairings(values, framing, cells, chains, lengths, extrap)
    want = _chain_pairings_by_gathers(values, framing, cells, chains, lengths, extrap)
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_rank_deficient_fit_is_the_minimum_norm_solution(k):
    """On one lattice row the 2-D design has dependent columns (y is the
    constant 0.3 there), and best_fit returns np.linalg.lstsq's
    minimum-norm coefficients."""
    h = 1.0 / 16.0
    x = h * np.arange(-12, 13)
    pts = np.stack([x, np.full(x.size, 0.3)], axis=1)
    grid = QuadratureGrid(pts, np.full(x.size, h * h), h)
    vals = np.random.default_rng(4).normal(size=(x.size, 1, 1))
    res = best_fit(SampledQFunction(grid, vals), np.zeros(2), 1.0, k, 2.0)
    sw = np.sqrt(grid.weights)
    design = design_matrix(pts, np.zeros(2), multi_indices(2, k))
    want, _, rank, _ = np.linalg.lstsq(design * sw[:, None], vals[:, 0, 0] * sw,
                                       rcond=None)
    assert rank < design.shape[1]
    assert np.allclose(res.polynomial.coeffs[0, 0], want, rtol=0,
                       atol=1e-10 * np.abs(want).max())
    fitted = design @ want
    assert res.residual == pytest.approx(
        float(np.sum(grid.weights * (vals[:, 0, 0] - fitted) ** 2)), rel=1e-10)


def _lstsq_alternate(design, values, weights, labels, q_exp):
    """The alternation with one np.linalg.lstsq solve of the weighted design
    per iteration: the reference for the factored one.  It returns the
    labels and objective of its last iterate at q_exp = 2 and of its least
    objective iterate, the first of equal ones, at other exponents."""
    S, Q, m = values.shape
    prev_obj, g = math.inf, None
    least = None
    for _ in range(_MAX_ITER):
        w = weights
        if q_exp != 2.0 and g is not None:
            w = weights * np.maximum(g, _IRLS_FLOOR) ** (q_exp - 2.0)
        rhs = values[np.arange(S)[:, None], labels].reshape(S, Q * m)
        sw = np.sqrt(w)[:, None]
        sol = np.linalg.lstsq(design * sw, rhs * sw, rcond=None)[0]
        new_labels, costs = match_batch(values, (design @ sol).reshape(S, Q, m))
        g = np.sqrt(costs)
        obj = float(np.sum(weights * g ** q_exp))
        if least is None or obj < least[1]:
            least = (new_labels, obj)
        same = np.array_equal(new_labels, labels)
        labels = new_labels
        if same and abs(prev_obj - obj) <= _FIT_TOL * obj:
            break
        prev_obj = obj
    return (labels, obj) if q_exp == 2.0 else least


@pytest.mark.parametrize("q_exp", [1.5, 2.0, 3.0])
def test_factored_alternation_matches_lstsq_alternation(fit_grid, q_exp):
    rng = np.random.default_rng(23)
    weights = fit_grid.weights
    cases = [(_r15_pair(fit_grid).values, 1)]
    for q, m, k in ((2, 1, 1), (2, 2, 2), (3, 1, 1)):
        vals = random_qpolynomial(rng, 2, m, q, k).eval(fit_grid.points)
        cases.append((vals + 0.05 * rng.normal(size=vals.shape), k))
    for vals, k in cases:
        design = design_matrix(fit_grid.points, np.zeros(2), multi_indices(2, k))
        factor = _factor(design, weights)
        starts = (_spectral_ranks(vals),
                  np.argsort(rng.random(vals.shape[:2]), axis=1))
        for labels in starts:
            _, got, obj, _, _ = _alternate(design, vals, weights, factor, labels,
                                           q_exp)
            want, want_obj = _lstsq_alternate(design, vals, weights, labels, q_exp)
            assert np.array_equal(got, want), (vals.shape, k)
            assert obj == pytest.approx(want_obj, rel=1e-12, abs=0), (vals.shape, k)


def test_branch_major_model_is_the_sample_major_model():
    """The alternation forms its model as (Q, m, S) columns, y.T @ basis.T,
    and hands match_batch their transposed (S, Q, m) view; those are the
    bytes of the sample-major model (basis @ y).T, so no fit moves.
    Checked on balls of the h = 1/80 disk from 51 to 12,864 nodes, k = 0..3
    and Q m up to 12.
    QPolynomial.eval's formula, `_evaluate`, gives the same bytes at k = 0;
    at k >= 1 its einsum sums over the K coefficients in an order of its
    own and differs from the matrix product in the last bits, so there it
    is held to the K-term dot product's rounding bound.

    The gather and the projection stay sample-major: against project @ G,
    a branch-major gather Gt fed to the projection as a transposed operand,
    project @ Gt.T, changes the projection's bits in 5 of 20 of these cases
    at Q m = 2 and at Q m = 4, and in 97 of 100 at Q m >= 6."""
    grid = Domain.ball(2, 1.0).sample(1.0 / 80.0)
    center = np.array([0.01, -0.02])
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    sizes = []
    for radius in (0.05, 0.1, 0.2, 0.4, 0.8):
        sub, _ = grid.restrict(center, radius)
        S = sub.size
        sizes.append(S)
        for k in range(4):
            design = design_matrix(sub.points, center, multi_indices(2, k))
            project, basis, _ = _factor(design, sub.weights)
            K = basis.shape[1]
            for q, m in ((1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (4, 3), (6, 2),
                         (12, 1)):
                y = project @ rng.normal(size=(S, q * m))
                model = (y.T @ basis.T).reshape(q, m, S)
                rows = basis @ y
                assert model.tobytes() == rows.T.tobytes(), (S, k, q, m)
                formula = polyfit._evaluate(
                    basis, y.reshape(K, q, m).transpose(1, 2, 0))
                formula = formula.transpose(1, 2, 0)
                if K == 1:
                    assert model.tobytes() == formula.tobytes(), (S, q, m)
                bound = K * eps * (np.abs(basis) @ np.abs(y)).T.reshape(q, m, S)
                assert np.all(np.abs(model - formula) <= bound), (S, k, q, m)
    assert sizes[0] < 60 and sizes[-1] > 12800


def _confirming_alternate(design, values, weights, factor, labels, max_iter):
    """The q = 2 alternation that runs the iteration confirming a repeated
    labeling: the reference for the one that skips it.  Returns the bytes of
    its coefficients and labels, its objective, converged flag, iteration
    count and the number of matchings it ran."""
    S, Q, m = values.shape
    project, basis, solve = factor
    flat = values.reshape(S * Q, m)
    offsets = np.arange(0, S * Q, Q)[:, None]
    prev_obj, converged, matchings = math.inf, False, 0
    for iterations in range(1, max_iter + 1):
        y = project @ flat.take(labels + offsets, axis=0).reshape(S, Q * m)
        new_labels, costs = match_batch(values, (basis @ y).reshape(S, Q, m))
        matchings += 1
        g = np.sqrt(np.maximum(costs, 0.0))
        obj = float(np.sum(weights * g ** 2.0))
        same = np.array_equal(new_labels, labels)
        labels = new_labels
        if same and abs(prev_obj - obj) <= _FIT_TOL * max(obj, 1e-300):
            converged = True
            break
        prev_obj = obj
    coeffs = (solve @ y).reshape(-1, Q, m).transpose(1, 2, 0)
    return (coeffs.tobytes(), labels.tobytes(), obj, converged, iterations,
            matchings)


def test_a_repeated_labeling_ends_a_q2_alternation_without_confirming_it(
        fit_grid, monkeypatch):
    """At q = 2 a labeling that matches back to itself fixes every later
    iterate: the alternation stops there, converged, one matching short of
    the reference, with its outcome, and counts only the iterations that
    ran.  Where the cap falls on that iteration the reference stops
    unconverged, and the alternation still converged."""
    rng = np.random.default_rng(23)
    weights = fit_grid.weights
    cases = [(_r15_pair(fit_grid).values, 1)]
    for q, m, k in ((2, 1, 1), (2, 2, 2), (3, 1, 1)):
        vals = random_qpolynomial(rng, 2, m, q, k).eval(fit_grid.points)
        cases.append((vals + 0.05 * rng.normal(size=vals.shape), k))
    matchings = []
    original = polyfit.match_batch

    def counting(*args):
        matchings.append(1)
        return original(*args)

    monkeypatch.setattr(polyfit, "match_batch", counting)
    for vals, k in cases:
        design = design_matrix(fit_grid.points, np.zeros(2), multi_indices(2, k))
        factor = _factor(design, weights)
        for labels in (_spectral_ranks(vals),
                       np.argsort(rng.random(vals.shape[:2]), axis=1)):
            want = _confirming_alternate(design, vals, weights, factor, labels,
                                         _MAX_ITER)
            ran = want[4] - 1  # all but the confirming iteration
            capped = _confirming_alternate(design, vals, weights, factor, labels,
                                           ran)
            assert want[3] and not capped[3] and capped[:3] == want[:3]
            for cap in (_MAX_ITER, ran):
                monkeypatch.setattr(polyfit, "_MAX_ITER", cap)
                matchings.clear()
                coeffs, got, obj, conv, iters = _alternate(
                    design, vals, weights, factor, labels, 2.0)
                assert (coeffs.tobytes(), got.tobytes(), obj, conv, iters) == \
                    want[:3] + (True, ran)
                assert len(matchings) == ran


def test_an_alternation_copies_neither_data_nor_model(fit_grid, monkeypatch):
    """Every iteration hands the kernel views of the start's one copy of
    the data, at any Q: above six branches the row body reads strided
    (S, Q, m) views of the data and model columns, m = 1 and m = 2 alike,
    and up to six the column body reads the data columns themselves."""
    from qvalued import points

    calls = []

    def spying(body):
        def spy(x, y, margin):
            calls.append((x, y))  # kept alive, so no copy reuses an address
            return body(x, y, margin)
        return spy

    monkeypatch.setattr(points, "_match_rows", spying(points._match_rows))
    monkeypatch.setattr(points, "_match_columns", spying(points._match_columns))
    rng = np.random.default_rng(31)
    weights = fit_grid.weights
    design = design_matrix(fit_grid.points, np.zeros(2), multi_indices(2, 1))
    factor = _factor(design, weights)
    for q, m in ((8, 1), (8, 2), (1, 2), (2, 2), (3, 1), (6, 1)):
        vals = rng.normal(size=(fit_grid.size, q, m))
        calls.clear()
        labels = np.argsort(rng.random(vals.shape[:2]), axis=1)
        iterations = _alternate(design, vals, weights, factor, labels, 2.0)[4]
        assert len(calls) == iterations >= min(q, 2), (q, m)
        data = {x.__array_interface__["data"][0] for x, _ in calls}
        assert len(data) == 1, (q, m)
        for x, y in calls:
            assert x.base is not None and y.base is not None, (q, m)
            if q > 6:
                assert not x.flags.c_contiguous and not y.flags.c_contiguous
                assert x.shape == y.shape == vals.shape
            else:
                assert x.flags.c_contiguous and x.shape == (q, m, fit_grid.size)


def _r15_pair(grid):
    r = np.linalg.norm(grid.points, axis=1)
    th = np.arctan2(grid.points[:, 1], grid.points[:, 0])
    a = (r ** 1.5 * np.cos(1.5 * th))[:, None]
    return SampledQFunction(grid, np.stack([a, -a], axis=1))


@pytest.mark.parametrize("q_exp", [1.0, 3.0])
def test_reweighted_fit_interpolates_exact_samples(fit_grid, q_exp):
    rng = np.random.default_rng(17)
    for q, m, k in ((1, 1, 2), (2, 1, 1), (2, 2, 2), (3, 1, 1)):
        target = random_qpolynomial(rng, 2, m, q, k)
        u = SampledQFunction(fit_grid, target.eval(fit_grid.points))
        res = best_fit(u, np.zeros(2), 1.1, k, q_exp)
        gap = coefficient_metric(res.polynomial.recenter(np.zeros(2)),
                                 target.recenter(np.zeros(2)))
        assert gap <= 1e-8, (q, m, k)


@pytest.mark.parametrize("q_exp", [1.0, 3.0, 4.0])
def test_reweighted_residual_is_the_matched_objective(fit_grid, q_exp):
    u = _r15_pair(fit_grid)
    sub = u.restrict(np.zeros(2), 1.1)

    def objective(poly):
        costs = match_batch(sub.values, poly.eval(sub.grid.points))[1]
        return float(np.sum(sub.grid.weights * np.sqrt(costs) ** q_exp))

    res = best_fit(u, np.zeros(2), 1.1, 1, q_exp)
    assert res.residual == pytest.approx(objective(res.polynomial), rel=1e-12,
                                         abs=0.0)
    # reweighting must improve on the plain least-squares polynomial
    assert res.residual < objective(best_fit(u, np.zeros(2), 1.1, 1, 2.0).polynomial)


@pytest.mark.parametrize("q_exp, k, match", [
    (0.0, 1, "q_exp"), (-2.0, 1, "q_exp"), (0.5, 1, "q_exp"),
    (math.nan, 1, "q_exp"), (math.inf, 1, "q_exp"), (2.0, -1, "degree"),
])
def test_best_fit_refuses_undefined_exponent_or_degree(fit_grid, q_exp, k,
                                                      match):
    u = _r15_pair(fit_grid)
    with pytest.raises(ValueError, match=match):
        best_fit(u, np.zeros(2), 1.1, k, q_exp)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_samples_are_refused_before_any_fit(fit_grid, bad,
                                                       monkeypatch):
    """One non-finite sample used to reach best_fit, which fitted it with a
    finite residual and converged=True; the sampled function refuses it, so
    no fit ever sees it."""
    calls = []
    original = polyfit.best_fit

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(polyfit, "best_fit", counting)
    vals = _two_branch_field(fit_grid.points)
    vals[fit_grid.size // 2, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        polyfit.best_fit(SampledQFunction(fit_grid, vals), np.zeros(2), 0.5, 1, 2.0)
    with pytest.raises(ValueError, match="finite"):
        polyfit.best_fit(SampledQFunction.from_function(
            fit_grid, lambda x: vals, q=2, m=2), np.zeros(2), 0.5, 1, 2.0)
    assert calls == []


def _poly(degree, q, m):
    return QPolynomial(np.zeros(2), degree, np.zeros((q, m, len(multi_indices(2, degree)))))


_POLYFIT_REFUSALS = {
    "best-fit-analytic": (
        lambda: best_fit(lab.BranchPower(2, 3), np.zeros(2), 0.5, 1, 2.0),
        TypeError, "sampled data"),
    "coeffs-shape": (lambda: QPolynomial(np.zeros(2), 1, np.zeros((2, 3))),
                     ValueError, "coeffs must have shape"),
    "coeffs-count": (lambda: QPolynomial(np.zeros(2), 1, np.zeros((2, 1, 4))),
                     ValueError, "coefficient count 4"),
    "metric-degree": (lambda: coefficient_metric(_poly(1, 2, 1), _poly(2, 2, 1)),
                      ValueError, "share degree"),
    "metric-q": (lambda: coefficient_metric(_poly(1, 2, 1), _poly(1, 3, 1)),
                 ValueError, "share degree"),
    "metric-m": (lambda: coefficient_metric(_poly(1, 2, 1), _poly(1, 2, 2)),
                 ValueError, "share degree"),
}


@pytest.mark.parametrize("case", sorted(_POLYFIT_REFUSALS))
def test_polyfit_refuses_malformed_input(case):
    call, error, match = _POLYFIT_REFUSALS[case]
    with pytest.raises(error, match=match):
        call()
