"""Multi-valued polynomials and assignment-coupled least squares.

A QPolynomial is an unordered tuple of Q polynomial maps R^n -> R^m sharing
one center.  Coefficients are stored in derivative convention: the stored
a_p equals the p-th partial derivative at the center, and evaluation divides
by p factorial.  Rescaling x -> center + rho * x then multiplies a_p by
rho^|p| exactly.

Fitting alternates two steps: match each sample's branches to the current
model branches with an exact assignment solve, then refit all branch
polynomials by weighted least squares.  The weighted design sqrt(w) X is
factored once per fit by a thin SVD, cut at np.linalg.lstsq's default
rank, and every start and iteration reuses that factor: an iteration is
one gather of the labelled values and two matrix products.  For exponents
other than 2 the refit is iteratively reweighted with a floored weight,
and the design is factored again whenever the weights change.

The alternation is multi-started.  The deterministic starts are a
spectral labeling and labels propagated over the sample lattice: labels
composed along a maximum-margin spanning forest (quality-guided growing as
a spanning tree over edges sorted by reliability, Herraez et al. 2002).
The lattice is the grid's own neighbour table (`QuadratureGrid.lattice`),
which a ball restriction gathers from its parent grid's.  Every lattice
edge is weighed by matching one cell against the Newton extrapolation of
the lattice chain beyond its neighbour, in chunked `match_batch` calls;
scipy's csgraph takes the edges as CSR arrays built directly from the
table and returns the forest, and pointer jumping composes the pairings
down it.  Random labelings follow only where the deterministic starts end
at objectives more than the alternation's own tolerance apart, as near a
branch point; where they agree, further starts would only find the same
basin again.  Starts are built lazily, so a fit that reaches the rounding
floor never computes the starts after it.  No known result is computed
twice: a deterministic start whose labels equal an earlier one's reuses
that start's alternation, and the order-k forests stop at a fixed point,
a forest that returns the labels that framed it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InsufficientSamplesError, RecenterError
from .points import AqPoint, SampledQFunction, match_batch

__all__ = [
    "multi_indices",
    "QPolynomial",
    "coefficient_tuple",
    "coefficient_metric",
    "FitConfig",
    "FitResult",
    "best_fit",
    "random_qpolynomial",
    "comparison_constant_ratios",
]

@functools.lru_cache(maxsize=None)
def multi_indices(n, k):
    """Multi-indices p with |p| <= k in graded lexicographic order, as an
    immutable tuple of tuples, computed once per (n, k)."""
    out = []
    for total in range(k + 1):
        grade = [p for p in itertools.product(range(total + 1), repeat=n)
                 if sum(p) == total]
        out.extend(sorted(grade))
    return tuple(out)


def _factorials(indices):
    return np.array([math.prod(math.factorial(pi) for pi in p) for p in indices])


def design_matrix(points, center, indices):
    """Columns (x - center)^p / p! for each multi-index p."""
    X = np.atleast_2d(np.asarray(points, dtype=float)) - center
    cols = np.empty((X.shape[0], len(indices)))
    fact = _factorials(indices)
    for col, p in enumerate(indices):
        mono = np.ones(X.shape[0])
        for axis, power in enumerate(p):
            if power:
                mono = mono * X[:, axis] ** power
        cols[:, col] = mono / fact[col]
    return cols


@dataclass(frozen=True, eq=False)
class QPolynomial:
    """Unordered tuple of Q polynomial branches R^n -> R^m, one shared center.

    Polynomials compare and hash by identity; coefficient_metric compares
    their values."""

    center: np.ndarray
    degree: int
    coeffs: np.ndarray  # (Q, m, K) in multi_indices(n, degree) order

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).ravel()
        a = np.asarray(self.coeffs, dtype=float)
        if a.ndim != 3:
            raise ValueError("coeffs must have shape (Q, m, K)")
        idx = multi_indices(c.shape[0], self.degree)
        if a.shape[2] != len(idx):
            raise ValueError(
                "coefficient count %d does not match degree %d in R^%d"
                % (a.shape[2], self.degree, c.shape[0])
            )
        a = a.copy()
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "coeffs", a)

    @property
    def n(self):
        return self.center.shape[0]

    @property
    def q(self):
        return self.coeffs.shape[0]

    @property
    def m(self):
        return self.coeffs.shape[1]

    @property
    def indices(self):
        return multi_indices(self.n, self.degree)

    def eval(self, points):
        """Values at points, shape (S, Q, m)."""
        D = design_matrix(points, self.center, self.indices)
        return np.einsum("sk,qmk->sqm", D, self.coeffs)

    def eval_point(self, x):
        return AqPoint(self.eval(np.asarray(x, float)[None, :])[0])

    def derivative(self, axis):
        """Branchwise partial derivative along one axis, degree reduced by 1."""
        k = max(self.degree - 1, 0)
        src = {p: i for i, p in enumerate(self.indices)}
        tgt = multi_indices(self.n, k)
        out = np.zeros((self.q, self.m, len(tgt)))
        for col, p in enumerate(tgt):
            shifted = list(p)
            shifted[axis] += 1
            j = src.get(tuple(shifted))
            if j is not None:
                out[:, :, col] = self.coeffs[:, :, j]
        return QPolynomial(self.center, k, out)

    def recenter(self, new_center):
        """Exact Taylor shift of the center; values are unchanged."""
        new_center = np.asarray(new_center, dtype=float).ravel()
        delta = new_center - self.center
        idx = self.indices
        pos = {p: i for i, p in enumerate(idx)}
        fact = _factorials(idx)
        out = np.zeros_like(self.coeffs)
        for col, p in enumerate(idx):
            # a'_p = sum_r a_{p+r} delta^r / r!
            for rcol, r in enumerate(idx):
                total = tuple(pi + ri for pi, ri in zip(p, r))
                j = pos.get(total)
                if j is None:
                    continue
                mono = math.prod(d ** ri for d, ri in zip(delta, r) if ri) if any(r) else 1.0
                out[:, :, col] += self.coeffs[:, :, j] * mono / fact[rcol]
        return QPolynomial(new_center, self.degree, out)

    def rescale(self, x0, rho):
        """Polynomial x -> P(x0 + rho x), centered at the origin.

        With x0 equal to the current center this multiplies each a_p by
        rho^|p| exactly; otherwise the center is first shifted.
        """
        base = self if np.array_equal(np.asarray(x0, float).ravel(), self.center) \
            else self.recenter(x0)
        scale = np.array([rho ** sum(p) for p in base.indices])
        return QPolynomial(np.zeros(self.n), self.degree,
                           base.coeffs * scale[None, None, :])

    def canonical_branch_order(self):
        flat = self.coeffs.reshape(self.q, -1)
        key = np.lexsort(flat.T[::-1])
        return replace(self, coeffs=self.coeffs[key])


def coefficient_tuple(poly, r=None, rho=1.0):
    """Coefficients through order r as one unordered tuple.

    All (component, multi-index) slots of a branch stay together, so the
    matching metric on these tuples uses one joint branch pairing.  Slots
    are scaled by rho^|p|.
    """
    r = poly.degree if r is None else r
    if r > poly.degree:
        raise ValueError("order %d exceeds degree %d" % (r, poly.degree))
    idx = poly.indices
    keep = [i for i, p in enumerate(idx) if sum(p) <= r]
    if not keep:
        raise ValueError("no coefficients of order %d" % r)
    scale = np.array([rho ** sum(idx[i]) for i in keep])
    block = poly.coeffs[:, :, keep] * scale[None, None, :]
    return AqPoint(block.reshape(poly.q, -1))


def coefficient_metric(fpoly, gpoly, r=None, rho=1.0):
    """Matching distance between two polynomials' coefficient tuples.

    Requires an identical center; otherwise the tuples live in different
    charts ("recenter first").
    """
    from .points import metric_g

    if fpoly.degree != gpoly.degree or fpoly.q != gpoly.q or fpoly.m != gpoly.m:
        raise ValueError("polynomials must share degree, Q, and m")
    if not np.array_equal(fpoly.center, gpoly.center):
        raise RecenterError("recenter first")
    a = coefficient_tuple(fpoly, r, rho)
    b = coefficient_tuple(gpoly, r, rho)
    return metric_g(a, b)


# An alternation stops when its labels repeat and its objective moves by
# at most _FIT_TOL relative, or after _MAX_ITER iterations.  Reweighting
# floors the matching distances at _IRLS_FLOOR.
_FIT_TOL = 1e-12
_MAX_ITER = 200
_IRLS_FLOOR = 1e-9


@dataclass(frozen=True)
class FitConfig:
    """restarts: the most random labelings run after the deterministic
    starts, drawn from default_rng(0); they run only when those starts
    disagree."""

    restarts: int = 8


@dataclass(frozen=True)
class FitResult:
    """A fit and how it was reached.  `iterations` and `converged` are the
    winning start's; `starts` counts the scheduled starts, however many
    ran.  `log` holds one (kind, objective, iterations, converged) entry
    per start that ran, in order, a start that shared an earlier one's
    labels with that one's outcome; the kinds are "zero" (Q = 1),
    "spectral", "order0", "order_k" and "random"."""

    polynomial: QPolynomial
    residual: float
    converged: bool
    iterations: int
    starts: int
    log: tuple = field(repr=False)

    def __iter__(self):  # ergonomic unpacking: poly, residual = best_fit(...)
        return iter((self.polynomial, self.residual))


def _factor(design, weights):
    """Thin SVD U S V^T of sqrt(w) X, cut at np.linalg.lstsq's default
    rank: singular values at most eps max(S, K) times the largest count as
    zero.

    Returns (project, basis, solve).  For right-hand sides rhs of shape
    (S, r), y = project @ rhs is U^T (sqrt(w) rhs); basis @ y = (U /
    sqrt(w)) y is the weighted least-squares model on the nodes, and
    solve @ y = V S^-1 y its minimum-norm coefficients, the ones lstsq
    returns.
    """
    sw = np.sqrt(weights)[:, None]
    u, s, vt = np.linalg.svd(design * sw, full_matrices=False)
    keep = s > np.finfo(float).eps * max(design.shape) * s.max(initial=0.0)
    u = u[:, keep]
    return (u * sw).T, u / sw, vt[keep].T / s[keep]


def _spectral_ranks(values):
    """Rank branches per sample along the dominant value direction."""
    S, Q, m = values.shape
    pooled = values.reshape(-1, m)
    pooled = pooled - pooled.mean(axis=0)
    if m == 1:
        axis = np.ones(1)
    else:
        _, _, vt = np.linalg.svd(pooled, full_matrices=False)
        axis = vt[0]
    proj = values @ axis
    return np.argsort(-proj, axis=1)


# Forward-difference extrapolation weights: with r equally spaced trailing
# values, sum_j w[j] v(-1-j) reproduces any polynomial of degree r-1 at 0.
_EXTRAP_WEIGHTS = {
    1: (1.0,),
    2: (2.0, -1.0),
    3: (3.0, -3.0, 1.0),
    4: (4.0, -6.0, 4.0, -1.0),
    5: (5.0, -10.0, 10.0, -5.0, 1.0),
}


# Entries in the largest transient array of one chunk of chain matches:
# the scratch memory of a propagation stays fixed as the grid grows.
_TABLE_CHUNK_ENTRIES = 1 << 14

# Forests grown at order k after the order-0 one: the first frames its
# chains by the order-0 labels, the second by the first one's.
_ORDER_K_PASSES = 2


def _extrapolate(extrap, chains, lengths):
    """Newton extrapolation along (N, depth, Q, m) chains with the weights
    extrap[lengths], summed term by term in chain order.  Zero-weight
    padding terms add signed zeros, which leave every squared difference
    to the prediction unchanged."""
    terms = extrap[lengths][..., None, None] * chains
    pred = terms[:, 0]
    for j in range(1, chains.shape[1]):
        pred = pred + terms[:, j]
    return pred


def _chain_pairings(values, cells, chains, frames, extrap):
    """Match each cell against the prediction of its lattice chain.

    Row i predicts values[cells[i]] from the chain chains[i] (cell indices,
    -1 off the grid), its in-grid run L taken in the branch frames `frames`
    (values[c][frames[c]] for chain cell c), and matches it with
    `match_batch` in row chunks of at most _TABLE_CHUNK_ENTRIES values.
    Returns int8 pairings P with values[cell][P[j]] matched to
    values[first chain cell][j], int8 run lengths, and relative margins
    gap / (sq_cost + gap) (0 where both vanish).
    """
    N, depth = chains.shape
    Q, m = values.shape[1:]
    lengths = np.cumprod(chains >= 0, axis=1).sum(axis=1).astype(np.int8)
    pairings = np.empty((N, Q), dtype=np.int8)
    margins = np.zeros(N)
    step = max(_TABLE_CHUNK_ENTRIES // (max(depth, Q) * Q * m), 1)
    for lo in range(0, N, step):
        run = chains[lo:lo + step]
        labs, cost, gap = match_batch(
            values[cells[lo:lo + step]],
            _extrapolate(extrap, values[run[..., None], frames[run]], lengths[lo:lo + step]))
        # from the chain's frames back to its first cell's raw branches
        np.put_along_axis(pairings[lo:lo + step], frames[run[:, 0]], labs, axis=1)
        np.divide(gap, cost + gap, out=margins[lo:lo + step], where=cost + gap > 0)
    return pairings, lengths, margins


def _propagated_labels(grid, values, start_labels, order=0):
    """Labels composed along a maximum-margin spanning forest of the sample
    lattice (quality-guided unwrapping as a spanning tree over edges sorted
    by reliability: Herraez et al. 2002, Ghiglia & Pritt 1998, ch. 4).

    Every lattice edge {t, t + d} (from the grid's own neighbour table,
    `grid.lattice`) is weighed by matching a cell against the Newton
    extrapolation of the chain t + d, ..., t + Ld running away from it, L
    its in-grid run of at most order + 1 cells; the key is (L, relative
    margin), longer first.  Branch restrictions to lattice lines are 1-D
    polynomials, so with order >= fit degree the prediction is exact for
    polynomial data, and a small margin flags an ambiguous match, as where
    branch sheets cross.  Of the two directions of an edge the better key is
    kept (at order 0 one direction serves: the pairing only inverts).  The
    edges, listed by ascending tail, are CSR arrays as they stand, and
    csgraph's minimum spanning tree on the key ranks, all distinct, gives
    the unique heaviest forest.  Each component is rooted where the
    branches are farthest apart (the first such cell), and the root takes
    its start labels; one breadth-first order from a virtual node joined to
    every root (the tree's CSR arrays plus one row) gives the parents, and
    pointer jumping composes the pairings down the forest in log-depth
    numpy steps.

    Order 0 degenerates to nearest-value tracking, the stabler choice for
    rough data.  At order k the chains need branch frames: the order-0
    forest's labels frame the first of _ORDER_K_PASSES further forests,
    and each forest's labels frame the next.  A forest depends only on its
    frames, so the passes stop early at a fixed point, a forest whose
    labels equal its frames: every later pass would return them again.
    This is a generator: it yields the order-0 labels and then, for
    order > 0, the order-k labels.  One order-0 forest thus serves both
    starts of a fit, and a caller that stops after the first yield never
    grows the order-k forests.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import (
        breadth_first_order,
        connected_components,
        minimum_spanning_tree,
    )

    S, Q, m = values.shape
    depth = min(order + 1, max(_EXTRAP_WEIGHTS))
    table = grid.lattice(depth)
    # undirected edges {tail, head = tail + d}, d over the half directions,
    # in (cell, direction) order: row `tail` of a CSR adjacency
    tail, half = np.nonzero(table[:, 0::2, 0] >= 0)
    head = table[tail, 2 * half, 0]
    count = tail.size
    indptr = np.zeros(S + 1, dtype=head.dtype)
    np.cumsum(np.bincount(tail, minlength=S), out=indptr[1:])

    def graph(data):
        return csr_matrix((data, head, indptr), shape=(S, S))

    _, component = connected_components(graph(np.ones(count)), directed=False)
    gaps = np.full(S, np.inf)
    for a in range(Q):
        for b in range(a + 1, Q):
            diff = values[:, a, :] - values[:, b, :]
            gaps = np.minimum(gaps, np.einsum("sm,sm->s", diff, diff))
    by = np.lexsort((-gaps, component))
    roots = by[np.r_[0, np.flatnonzero(np.diff(component[by])) + 1]]
    # extrap[L] holds the weights of a chain of length L, zero-padded
    extrap = np.zeros((depth + 1, depth))
    for length in range(1, depth + 1):
        extrap[length, :length] = _EXTRAP_WEIGHTS[length]

    def grow(reach, frames):
        """Labels composed along the forest of chains of at most `reach`
        cells, framed by `frames`."""
        pairing, length, margin = _chain_pairings(
            values, tail, table[tail, 2 * half, :reach], frames,
            extrap[:reach + 1, :reach])
        child, parent = tail, head
        if reach > 1:
            back = _chain_pairings(values, head, table[head, 2 * half + 1], frames,
                                   extrap)
            flip = (back[1] > length) | ((back[1] == length) & (back[2] > margin))
            pairing = np.where(flip[:, None], back[0], pairing)
            length = np.where(flip, back[1], length)
            margin = np.where(flip, back[2], margin)
            child, parent = np.where(flip, head, tail), np.where(flip, tail, head)
        # labels[child] = pairing[labels[parent]] on every edge
        ranked = np.lexsort((-margin, -length))
        weight = np.empty(count)
        weight[ranked] = np.arange(1, count + 1)  # csgraph drops zero weights
        tree = minimum_spanning_tree(graph(weight))
        edge = ranked[tree.data.astype(np.intp) - 1]
        # the tree's rows plus row S, the virtual node, joined to every root
        forest = csr_matrix(
            (np.ones(edge.size + roots.size), np.r_[tree.indices, roots],
             np.r_[tree.indptr, edge.size + roots.size]),
            shape=(S + 1, S + 1))
        _, up = breadth_first_order(forest, S, directed=False, return_predecessors=True)
        up[S] = S
        # compose[v] maps labels[up[v]] to labels[v]; the virtual node S
        # holds the identity, so labels[root] = start_labels[root]
        compose = np.empty((S + 1, Q), dtype=np.intp)
        compose[S] = np.arange(Q)
        compose[roots] = start_labels[roots]
        down = up[child[edge]] == parent[edge]
        compose[child[edge[down]]] = pairing[edge[down]]
        compose[parent[edge[~down]]] = np.argsort(pairing[edge[~down]], axis=1)
        while np.any(up != S):
            compose = np.take_along_axis(compose, compose[up], axis=1)
            up = up[up]
        return compose[:S]

    labels = grow(1, np.broadcast_to(np.arange(Q), (S, Q)))  # raw branch order
    yield labels
    if depth > 1:
        for _ in range(_ORDER_K_PASSES):
            frames, labels = labels, grow(depth, labels)
            if np.array_equal(labels, frames):  # a fixed point of grow
                break
        yield labels


def _alternate(design, values, weights, factor, labels, q_exp):
    """Alternate weighted least squares and branch matching from `labels`.

    factor = _factor(design, weights) serves every iteration at q_exp = 2
    and every start of a fit.  An iteration gathers the labelled values
    with one flat take, projects them on the factor, and matches the data
    against the model values; the coefficients are formed once, when the
    start ends.  At other exponents the least squares are iteratively
    reweighted by floored powers w g^(q_exp - 2) of the matching distances
    g, and the design is factored again each time those weights change.
    Returns (coeffs, labels, objective, converged, iterations).
    """
    S, Q, m = values.shape
    flat = values.reshape(S * Q, m)
    offsets = np.arange(0, S * Q, Q)[:, None]
    prev_obj = math.inf
    g = None
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        if q_exp != 2.0 and g is not None:
            factor = _factor(
                design, weights * np.maximum(g, _IRLS_FLOOR) ** (q_exp - 2.0))
        project, basis, _ = factor
        y = project @ flat.take(labels + offsets, axis=0).reshape(S, Q * m)
        new_labels, costs, _ = match_batch(values, (basis @ y).reshape(S, Q, m))
        g = np.sqrt(np.maximum(costs, 0.0))
        obj = float(np.sum(weights * g ** q_exp))
        same = np.array_equal(new_labels, labels)
        labels = new_labels
        if same and abs(prev_obj - obj) <= _FIT_TOL * max(obj, 1e-300):
            converged = True
            prev_obj = obj
            break
        prev_obj = obj
    coeffs = (factor[2] @ y).reshape(-1, Q, m).transpose(1, 2, 0)  # (Q, m, K)
    return coeffs, labels, prev_obj, converged, iterations


def best_fit(u, center, radius, k, q_exp=2.0, cfg=None):
    """Best degree-k polynomial tuple on the sampled region.

    Restricts u to the ball, then minimizes the weighted sum of matching
    distances to the q_exp power via alternating assignment and regression,
    multi-started from sorted, lattice-propagated, and random labelings.
    Starts are built lazily, in that order, and the loop stops at the
    first start whose objective reaches the rounding floor, so later starts
    (the propagations included) are never computed.  A deterministic start
    whose labels equal those of one that ran takes that start's outcome
    without alternating again, and is logged with it; random labelings are
    always alternated.  The cfg.restarts random labelings run only when
    the deterministic starts end more than _FIT_TOL apart, relative to the
    least of them; otherwise the fit is their minimum.  q_exp must be finite and at least 1, k non-negative.
    Returns a FitResult; its residual is the attained weighted objective.
    """
    cfg = cfg or FitConfig()
    if not (math.isfinite(q_exp) and q_exp >= 1.0):
        raise ValueError("q_exp must be finite and at least 1, got %r" % q_exp)
    if k < 0:
        raise ValueError("degree k must be non-negative, got %r" % k)
    if isinstance(u, SampledQFunction):
        sub = u.restrict(center, radius)
    else:
        raise TypeError("best_fit needs sampled data")
    center = np.asarray(center, dtype=float).ravel()
    X = sub.grid.points
    weights = sub.grid.weights
    # Canonical per-sample branch order makes the fit independent of how the
    # caller happened to order branch values.
    if sub.m == 1:
        values = np.sort(sub.values, axis=1)
    else:
        order = _lex_order(sub.values)
        values = np.take_along_axis(sub.values, order[:, :, None], axis=1)
    indices = multi_indices(center.shape[0], k)
    K = len(indices)
    if sub.size < K:
        raise InsufficientSamplesError(
            "insufficient samples: %d nodes for %d coefficients" % (sub.size, K)
        )
    design = design_matrix(X, center, indices)
    factor = _factor(design, weights)

    Q = sub.q
    scheduled = 1 if Q == 1 else 2 + (k > 0) + cfg.restarts

    def deterministic():
        if Q == 1:
            yield "zero", np.zeros((sub.size, 1), dtype=int)
            return
        ranks = _spectral_ranks(values)
        yield "spectral", ranks
        yield from zip(("order0", "order_k"),
                       _propagated_labels(sub.grid, values, ranks, k))

    outcomes = []
    log = []
    ran = []  # (labels, outcome) of each deterministic start that ran

    def randoms():
        # Pulled once every deterministic outcome is in.  Starts that end
        # within the alternation's own tolerance of each other found one
        # basin from different labelings; random labelings run only where
        # they disagree.
        objs = [out[2] for out in outcomes]
        if max(objs) - min(objs) <= _FIT_TOL * max(min(objs), 1e-300):
            return
        rng = np.random.default_rng(0)
        for _ in range(cfg.restarts):
            yield "random", np.argsort(rng.random((sub.size, Q)), axis=1)

    # An objective this far below the data's quadratic mass can only be
    # rounding noise: the fit is an interpolation and further starts are
    # pointless.
    mass = float(np.sum(weights * np.einsum("sqm,sqm->s", values, values)))
    exact_floor = (100.0 * np.finfo(float).eps) ** 2 * max(mass, 1e-300)

    for kind, labels0 in itertools.chain(deterministic(), randoms()):
        if kind == "random":
            out = _alternate(design, values, weights, factor, labels0, q_exp)
        else:
            # the alternation depends only on its start labels
            out = next((o for seen, o in ran if np.array_equal(seen, labels0)), None)
            if out is None:
                out = _alternate(design, values, weights, factor, labels0, q_exp)
                ran.append((labels0, out))
        outcomes.append(out)
        log.append((kind, out[2], out[4], out[3]))
        if out[2] <= exact_floor:
            break

    # Every outcome before one at the floor lies above it, so the least
    # objective, with lexicographic coefficients as the tie-break, also
    # picks that one.
    coeffs, _, obj, conv, iters = min(
        outcomes, key=lambda o: (o[2], o[0].tobytes()))
    poly = QPolynomial(center, k, coeffs).canonical_branch_order()
    return FitResult(poly, obj, conv, iters, scheduled, tuple(log))


def _lex_order(values):
    """Per-sample branch order sorting rows lexicographically, vectorized by
    making the sample index the primary sort key."""
    S, Q, m = values.shape
    keys = [values[:, :, c].ravel() for c in range(m - 1, -1, -1)]
    keys.append(np.repeat(np.arange(S), Q))
    order = np.lexsort(keys)
    return order.reshape(S, Q) - np.arange(S)[:, None] * Q


def random_qpolynomial(rng, n, m, q, k, center=None):
    """Polynomial tuple with independent standard normal coefficients; test fodder."""
    center = np.zeros(n) if center is None else np.asarray(center, float)
    K = len(multi_indices(n, k))
    coeffs = rng.normal(0.0, 1.0, size=(q, m, K))
    return QPolynomial(center, k, coeffs)


_RATIO_MIN_WEIGHT = 0.2  # least weight of a node subset in comparison_constant_ratios
_RATIO_RESOLUTION = 1.0 / 32  # grid step of its unit ball


def comparison_constant_ratios(instances, seed=0, n=2, m=1, k=2, q_exp=2.0,
                               q_branches=2):
    """Sample the coefficient-vs-integral comparison ratio.

    For random polynomial pairs (F, G) and random node subsets E of the unit
    ball with weight at least _RATIO_MIN_WEIGHT, computes

        G(a, b)^q / integral_E G(F, G)^q

    with a, b the joint coefficient tuples.  The running supremum of these
    ratios estimates the comparison constant; stability under doubling the
    instance count is the caller's check.  The inequality itself is scale
    invariant, so the unit radius loses no generality.
    """
    rng = np.random.default_rng(seed)
    from .geometry import Domain

    grid = Domain.ball(n, 1.0).sample(_RATIO_RESOLUTION)
    total = grid.total_weight()
    ratios = np.empty(instances)
    for i in range(instances):
        F = random_qpolynomial(rng, n, m, q_branches, k)
        G = random_qpolynomial(rng, n, m, q_branches, k)
        frac = rng.uniform(_RATIO_MIN_WEIGHT / total, 1.0)
        count = max(int(round(frac * grid.size)),
                    int(math.ceil(_RATIO_MIN_WEIGHT / grid.weights[0])))
        count = min(count, grid.size)
        subset = rng.choice(grid.size, size=count, replace=False)
        # F and G share center, degree and points, so one design serves both
        D = design_matrix(grid.points[subset], F.center, F.indices)
        fv = np.einsum("sk,qmk->sqm", D, F.coeffs)
        gv = np.einsum("sk,qmk->sqm", D, G.coeffs)
        dists = np.sqrt(match_batch(fv, gv)[1])
        integral = float(np.sum(grid.weights[subset] * dists ** q_exp))
        top = coefficient_metric(F, G) ** q_exp
        ratios[i] = top / integral
    return ratios
