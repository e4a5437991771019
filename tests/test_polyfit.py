"""Tests for Q-valued polynomials, coefficient metrics, and the fitter."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from qvalued import polyfit
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
    match_batch,
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
    assert metric_g(const.eval_point([0.7, -0.3]),
                    AqPoint([[2.0], [-1.0]])) == 0.0
    idx = multi_indices(2, 1)
    coeffs = np.zeros((2, 1, len(idx)))
    slot = idx.index((1, 0))
    coeffs[0, 0, slot] = 1.0
    coeffs[1, 0, slot] = -1.0
    lin = QPolynomial(np.zeros(2), 1, coeffs)
    assert metric_g(lin.eval_point([2.0, 0.0]),
                    AqPoint([[2.0], [-2.0]])) == 0.0


def test_eval_matches_manual_path():
    rng = np.random.default_rng(1)
    poly = random_qpolynomial(rng, 2, 2, 3, 2, center=np.array([0.2, -0.1]))
    for x in rng.uniform(-1, 1, (5, 2)):
        direct = poly.eval(x[None, :])[0]
        assert np.abs(direct - _manual_eval(poly, x)).max() < 1e-13


def test_coefficients_are_derivatives_at_center():
    rng = np.random.default_rng(2)
    poly = random_qpolynomial(rng, 2, 1, 2, 2, center=np.array([0.3, 0.4]))
    idx = poly.indices
    d10 = poly.derivative(0)
    d01 = poly.derivative(1)
    at_c = poly.center[None, :]
    assert np.allclose(d10.eval(at_c)[0, :, 0],
                       poly.coeffs[:, 0, idx.index((1, 0))])
    assert np.allclose(d01.eval(at_c)[0, :, 0],
                       poly.coeffs[:, 0, idx.index((0, 1))])
    d20 = d10.derivative(0)
    assert np.allclose(d20.eval(at_c)[0, :, 0],
                       poly.coeffs[:, 0, idx.index((2, 0))])


def test_rescale_rules():
    rng = np.random.default_rng(3)
    poly = random_qpolynomial(rng, 2, 1, 2, 1)
    same = poly.rescale(poly.center, 1.0)
    assert np.array_equal(same.coeffs, poly.coeffs)
    doubled = poly.rescale(poly.center, 2.0)
    idx = poly.indices
    for col, p in enumerate(idx):
        factor = 2.0 ** sum(p)
        assert np.allclose(doubled.coeffs[:, :, col],
                           factor * poly.coeffs[:, :, col])


def test_rescale_evaluation_identity():
    rng = np.random.default_rng(4)
    poly = random_qpolynomial(rng, 2, 2, 2, 3, center=np.array([0.1, 0.2]))
    x0 = np.array([0.25, -0.4])
    rho = 0.37
    scaled = poly.rescale(x0, rho)
    for x in rng.uniform(-1, 1, (100, 2)):
        lhs = scaled.eval(x[None, :])[0]
        rhs = poly.eval((x0 + rho * x)[None, :])[0]
        assert metric_g(AqPoint(lhs), AqPoint(rhs)) < 1e-12


def test_rescale_composes_exactly():
    rng = np.random.default_rng(5)
    poly = random_qpolynomial(rng, 2, 1, 3, 2)
    x0 = np.array([0.3, 0.1])
    once = poly.rescale(x0, 0.6 * 0.5)
    twice = poly.rescale(x0, 0.6).rescale(np.zeros(2), 0.5)
    assert np.allclose(once.coeffs, twice.coeffs, atol=1e-15)


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
    rho = 0.5
    scale = np.array([rho ** sum(p) for p in f.indices])
    expected = np.linalg.norm((f.coeffs - g.coeffs)[0, 0] * scale)
    assert coefficient_metric(f, g, rho=rho) == pytest.approx(expected, rel=1e-14)


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


def test_coefficient_metric_requires_shared_center():
    rng = np.random.default_rng(8)
    f = random_qpolynomial(rng, 2, 1, 2, 1)
    g = random_qpolynomial(rng, 2, 1, 2, 1, center=np.array([0.5, 0.0]))
    with pytest.raises(RecenterError):
        coefficient_metric(f, g)
    # centers within a relative 1e-5 are still different charts
    f = random_qpolynomial(rng, 2, 1, 2, 1, center=np.array([1.0, 0.5]))
    g = random_qpolynomial(rng, 2, 1, 2, 1, center=np.array([1.0 + 1e-6, 0.5]))
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


@pytest.mark.parametrize("name", sorted(PROPAGATION_GRIDS))
def test_neighbour_table_matches_dict_lookup(name):
    grid = PROPAGATION_GRIDS[name]()
    keys = _lattice_keys(grid.points, grid.resolution)
    dirs = _lattice_directions(grid.dim)
    table = neighbour_table(grid.points, grid.resolution, dirs, 4)
    index_of = {tuple(k): s for s, k in enumerate(keys)}
    expected = np.array([
        [[index_of.get(tuple(k + step * np.asarray(d)), -1) for step in range(1, 5)]
         for d in dirs]
        for k in keys
    ])
    assert np.array_equal(table, expected)


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
    assert res.starts == 2 + 1 + FitConfig().restarts


def _fit_inputs(u, center, radius, k):
    """best_fit's set-up at q_exp = 2: the ball, its canonically ordered
    values, the design, its factor and the deterministic start labels."""
    sub = u.restrict(center, radius)
    values = np.take_along_axis(
        sub.values, polyfit._lex_order(sub.values)[:, :, None], axis=1)
    design = design_matrix(sub.grid.points, center, multi_indices(2, k))
    ranks = _spectral_ranks(values)
    starts = [ranks, *_propagated_labels(sub.grid, values, ranks, k)]
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
    res = best_fit(u, center, 0.2, 1)
    kinds = [entry[0] for entry in res.log]
    assert kinds == ["spectral", "order0", "order_k"] + ["random"] * (ran - 3)
    deterministic = [entry[1] for entry in res.log[:3]]
    # off the branch point the three starts agree and the restarts are
    # skipped; at the branch point they disagree and all eight run
    assert (max(deterministic) - min(deterministic)
            > _FIT_TOL * min(deterministic)) == (ran == 11)
    assert res.starts == 11
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
    res = best_fit(u, center, 0.2, 1)
    assert res.log == tuple(want)
    assert len(calls) == 1 < len(res.log)


def test_order_k_propagation_stops_at_its_fixed_point(monkeypatch):
    """Where the first order-k forest returns the order-0 labels that framed
    it, the second is not grown: one forward and one backward depth-2
    sweep instead of two of each.  The labels are still the oracle's,
    which grows every forest."""
    sub, values, _, _, (ranks, *_) = _fit_inputs(
        _two_branch_sample(), np.array([0.5, 0.0]), 0.2, 1)
    reach = []
    original = polyfit._chain_pairings

    def counting(values, cells, chains, frames, extrap):
        reach.append(chains.shape[1])
        return original(values, cells, chains, frames, extrap)

    monkeypatch.setattr(polyfit, "_chain_pairings", counting)
    zero, labels = _propagated_labels(sub.grid, values, ranks, 1)
    assert reach == [1, 2, 2]
    assert np.array_equal(labels, zero)
    want, _ = _forest_oracle(sub.grid.points, values, sub.grid.resolution, ranks, 1)
    assert np.array_equal(labels, want)


def test_exact_fit_logs_the_starts_up_to_the_floor(fit_grid):
    rng = np.random.default_rng(31)
    for q, k in ((1, 1), (2, 1), (2, 2), (3, 1)):
        target = random_qpolynomial(rng, 2, 1, q, k)
        u = SampledQFunction(fit_grid, target.eval(fit_grid.points))
        res = best_fit(u, np.zeros(2), 1.1, k)
        assert res.residual <= 1e-18
        kinds = [entry[0] for entry in res.log]
        assert kinds == (["zero"] if q == 1 else
                         ["spectral", "order0", "order_k"][:len(kinds)]), (q, k)
        assert res.log[-1][1] == res.residual
        assert all(entry[3] for entry in res.log)


def test_fit_stopping_at_the_order_zero_start_grows_no_order_k_forest(fit_grid,
                                                                      monkeypatch):
    reach = []
    original = polyfit._chain_pairings

    def counting(values, cells, chains, frames, extrap):
        reach.append(chains.shape[1])
        return original(values, cells, chains, frames, extrap)

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
        assert best_fit(u, np.zeros(2), 1.1, k).residual <= 1e-20
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
    res = best_fit(SampledQFunction(grid, vals), np.zeros(2), 1.0, k)
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
    per iteration: the reference for the factored one."""
    S, Q, m = values.shape
    prev_obj, g = math.inf, None
    for _ in range(_MAX_ITER):
        w = weights
        if q_exp != 2.0 and g is not None:
            w = weights * np.maximum(g, _IRLS_FLOOR) ** (q_exp - 2.0)
        rhs = values[np.arange(S)[:, None], labels].reshape(S, Q * m)
        sw = np.sqrt(w)[:, None]
        sol = np.linalg.lstsq(design * sw, rhs * sw, rcond=None)[0]
        new_labels, costs, _ = match_batch(values, (design @ sol).reshape(S, Q, m))
        g = np.sqrt(costs)
        obj = float(np.sum(weights * g ** q_exp))
        same = np.array_equal(new_labels, labels)
        labels = new_labels
        if same and abs(prev_obj - obj) <= _FIT_TOL * obj:
            return labels, obj
        prev_obj = obj
    return labels, prev_obj


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


@pytest.mark.parametrize("q_exp", [1.0, 3.0])
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
    assert res.residual < objective(best_fit(u, np.zeros(2), 1.1, 1).polynomial)


@pytest.mark.parametrize("q_exp, k, match", [
    (0.0, 1, "q_exp"), (-2.0, 1, "q_exp"), (0.5, 1, "q_exp"),
    (math.nan, 1, "q_exp"), (math.inf, 1, "q_exp"), (2.0, -1, "degree"),
])
def test_best_fit_refuses_undefined_exponent_or_degree(fit_grid, q_exp, k,
                                                      match):
    u = _r15_pair(fit_grid)
    with pytest.raises(ValueError, match=match):
        best_fit(u, np.zeros(2), 1.1, k, q_exp)
