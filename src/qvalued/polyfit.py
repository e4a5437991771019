"""Multi-valued polynomials and assignment-coupled least squares.

A QPolynomial is an unordered tuple of Q polynomial maps R^n -> R^m sharing
one center.  Coefficients are stored in derivative convention: the stored
a_p equals the p-th partial derivative at the center, and evaluation divides
by p factorial.  Rescaling x -> center + rho * x then multiplies a_p by
rho^|p| exactly.  The coefficient metric matches the whole (Q, m K)
coefficient blocks of two tuples at one center, as stored: the comparison
between coefficients and integral excess that it serves does not depend on
scale, so every caller works at rho = 1 on the unit ball, and
comparison_constant_ratios samples one shape, degree-2 scalar tuples in the
plane at exponent 2.

Fitting alternates two steps: match each sample's branches to the current
model branches with an exact assignment solve, then refit all branch
polynomials by weighted least squares.  The weighted design sqrt(w) X is
factored by a thin SVD, cut at np.linalg.lstsq's default rank, once per
ball and degree while its grid keeps the ball: the ball's own grid keeps
the design and its factor
(`QuadratureGrid.cached`), so every start and iteration of every fit on
that ball reuses them, whatever the field.  An iteration is one gather of
the labelled values and two matrix products.  For exponents
other than 2 the refit is iteratively reweighted with a floored weight,
the design is factored again whenever the weights change, and since
reweighting need not descend, a start ends at its least-objective iterate.

The alternation is multi-started.  The deterministic starts, which read
the values less their branch mean, are a spectral labeling and labels
propagated over the sample lattice: labels composed along a
maximum-margin spanning forest (quality-guided growing as a spanning tree
over edges sorted by reliability, Herraez et al. 2002).  The lattice is
the grid's own neighbour table (`QuadratureGrid.lattice`), which a ball
restriction gathers from its parent grid's; the edges, CSR arrays and
chains read from it depend on the lattice alone and are kept on the grid
per chain depth (`_lattice_skeleton`).  Every lattice edge is
weighed by matching one cell against the Newton extrapolation of the
lattice chain beyond its neighbour, in chunked `match_margins` calls; the
chains are read by flat takes of the framed values, summed one chain
position at a time, with no (edges, depth, Q, m) gather.  scipy's
csgraph takes the edges, and a heavier one from a virtual node to every
cell, as CSR arrays built directly from the table, and returns one
tree: the forest and the root of each of its components.  Pointer jumping
composes the pairings down it.  Random labelings follow only where the
deterministic starts end at objectives more than the alternation's own
tolerance apart, as near a branch point.  Starts are built lazily, so a
fit that reaches the rounding floor never computes the starts after it.
No known result is computed twice: a start whose labels equal an earlier
one's reuses that start's alternation, and the order-k forests stop at a
fixed point, a forest that returns the labels that framed it.  Nor is a
forest grown whose labels are known: where every lattice edge's pairing
agrees with the labels in hand, every spanning forest composes to them,
so propagation returns them without a csgraph call.  Within one
certificate or audit (`_shared_fits`, the only fit memo) a ball is fitted
once: a repeated `best_fit` call returns the earlier FitResult.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InsufficientSamplesError, RecenterError
from .points import (
    AqPoint,
    SampledQFunction,
    branch_gaps,
    canonical_order,
    match_batch,
    match_margins,
    matched_mass,
)

__all__ = [
    "multi_indices",
    "QPolynomial",
    "coefficient_tuple",
    "coefficient_metric",
    "FitConfig",
    "FitResult",
    "best_fit",
    "exact_floor",
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

    def canonical_branch_order(self):
        order = canonical_order(self.coeffs.reshape(1, self.q, -1))[0]
        return replace(self, coeffs=self.coeffs[order])


def coefficient_tuple(poly):
    """The whole (Q, m K) coefficient block as one unordered tuple.

    All (component, multi-index) slots of a branch stay together in its
    row, so the matching metric on these tuples uses one joint branch
    pairing.  The comparison with the integral excess that it serves is
    scale invariant, so the slots are taken as stored, at rho = 1.
    """
    return AqPoint(poly.coeffs.reshape(poly.q, -1))


def coefficient_metric(fpoly, gpoly):
    """Matching distance between two polynomials' coefficient tuples.

    Requires an identical center; otherwise the tuples live in different
    charts ("recenter first").
    """
    from .points import metric_g

    if fpoly.degree != gpoly.degree or fpoly.q != gpoly.q or fpoly.m != gpoly.m:
        raise ValueError("polynomials must share degree, Q, and m")
    if not np.array_equal(fpoly.center, gpoly.center):
        raise RecenterError("recenter first")
    return metric_g(coefficient_tuple(fpoly), coefficient_tuple(gpoly))


# An alternation stops when its labels repeat and, at exponents other than
# 2, its objective moves by at most _FIT_TOL relative; or after _MAX_ITER
# iterations.  Reweighting
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
    winning start's, counting the alternation iterations that ran; `starts`
    counts the starts that ran, len(log).  `log` holds one (kind, objective,
    iterations, converged) entry per start that ran, in order, a start that
    shared an earlier one's labels with that one's outcome; the kinds are
    "zero" (Q = 1), "spectral", "order0", "order_k" and "random"."""

    polynomial: QPolynomial
    residual: float
    converged: bool
    iterations: int
    starts: int
    log: tuple = field(repr=False)


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


def _fit_geometry(points, center, indices, weights):
    """(design, _factor(design, weights)) of a ball's nodes, read-only: what
    a fit derives from the ball alone, kept on its grid per center and
    degree."""
    design = design_matrix(points, center, indices)
    factor = _factor(design, weights)
    for array in (design,) + factor:
        array.setflags(write=False)
    return design, factor


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


def _run_lengths(chains):
    """In-grid run of each row of (N, depth) chains (cell indices, -1 off
    the grid): its count of leading in-grid cells, as int8."""
    inside = chains[:, 0] >= 0
    lengths = inside.astype(np.int8)
    for j in range(1, chains.shape[1]):
        inside &= chains[:, j] >= 0
        lengths += inside
    return lengths


def _chain_pairings(values, frames, cells, chains, lengths, extrap):
    """Match each cell against the prediction of its lattice chain.

    Row i predicts values[cells[i]] from the chain chains[i] (cell indices,
    -1 off the grid), its in-grid run lengths[i] taken in the branch frames
    `frames` (values[c][frames[c]] for chain cell c; None for the raw
    branch order), and matches it with `match_margins` in row chunks of at
    most _TABLE_CHUNK_ENTRIES values: the only matching whose margin the
    library reads.  Every array is read by flat takes: the framed values
    are gathered once for the whole grid, and the Newton extrapolation with
    the weights extrap[lengths] is summed one chain position at a time, in
    chain order, from a take of that position's cells.  Zero-weight padding
    terms add signed zeros, which leave every squared difference to the
    prediction unchanged.
    Returns int8 pairings P with values[cell][P[j]] matched to
    values[first chain cell][j], and relative margins gap / (sq_cost + gap)
    (0 where both vanish).
    """
    N, depth = chains.shape
    S, Q, m = values.shape
    framed = values if frames is None else values.reshape(S * Q, m).take(
        frames + np.arange(0, S * Q, Q)[:, None], axis=0)
    pairings = np.empty((N, Q), dtype=np.int8)
    margins = np.zeros(N)
    step = max(_TABLE_CHUNK_ENTRIES // (max(depth, Q) * Q * m), 1)
    for lo in range(0, N, step):
        run = chains[lo:lo + step]
        weights = extrap[lengths[lo:lo + step]][:, :, None, None]
        pred = weights[:, 0] * framed.take(run[:, 0], axis=0)
        for j in range(1, depth):
            pred = pred + weights[:, j] * framed.take(run[:, j], axis=0)
        labs, cost, gap = match_margins(values.take(cells[lo:lo + step], axis=0), pred)
        if frames is None:
            pairings[lo:lo + step] = labs
        else:
            # from the chain's frames back to its first cell's raw branches
            rows = np.arange(lo, lo + run.shape[0])[:, None]
            pairings[rows, frames.take(run[:, 0], axis=0)] = labs
        np.divide(gap, cost + gap, out=margins[lo:lo + step], where=cost + gap > 0)
    return pairings, margins


def _agrees(pairing, labels, child, parent):
    """Whether labels[child] == pairing[labels[parent]] on every edge, the
    rows of `pairing`.  Column 0 is checked first, at about a quarter of the
    full check's cost: it rejects most labelings that disagree, and at
    Q <= 2 it decides the whole permutation."""
    count, Q = pairing.shape
    flat = pairing.ravel()
    offsets = np.arange(0, count * Q, Q)
    if not np.array_equal(flat.take(offsets + labels[:, 0].take(parent)),
                          labels[:, 0].take(child)):
        return False
    return Q <= 2 or np.array_equal(
        flat.take(offsets[:, None] + labels.take(parent, axis=0)),
        labels.take(child, axis=0))


def _lattice_skeleton(grid, depth):
    """The part of a propagation at chain depth `depth` that depends on the
    lattice alone, kept on the grid per depth (`QuadratureGrid.cached`):
    (tail, head, indptr, indices, extrap, cells, chains, runs).

    The undirected edges {tail, head = tail + d}, d over the half
    directions, in (cell, direction) order, are row `tail` of a CSR
    adjacency (indptr, indices); its row S, the virtual node, is joined to
    every cell.  extrap[L] holds the weights of a chain of length L,
    zero-padded.  chains are the chains of every edge, forward from its
    tail and, at depth > 1, then backward from its head, cells the cells
    they predict and runs their in-grid runs; order 0 reads the first cell
    of each forward chain.
    """

    def build():
        table = grid.lattice(depth)
        S = table.shape[0]
        tail, half = np.nonzero(table[:, 0::2, 0] >= 0)
        indices = np.r_[table[tail, 2 * half, 0], np.arange(S, dtype=table.dtype)]
        head = indices[:tail.size]
        tail = tail.astype(table.dtype)  # kept at the table's width, not intp's
        indptr = np.empty(S + 2, dtype=table.dtype)
        indptr[0], indptr[-1] = 0, tail.size + S
        np.cumsum(np.bincount(tail, minlength=S), out=indptr[1:-1])
        extrap = np.zeros((depth + 1, depth))
        for length in range(1, depth + 1):
            extrap[length, :length] = _EXTRAP_WEIGHTS[length]
        cells, chains = tail, table[tail, 2 * half]
        if depth > 1:
            cells = np.concatenate([tail, head])
            chains = np.concatenate([chains, table[head, 2 * half + 1]])
        skeleton = (tail, head, indptr, indices, extrap, cells, chains,
                    _run_lengths(chains))
        for array in skeleton:
            array.setflags(write=False)
        return skeleton

    return grid.cached(("skeleton", depth), build)


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
    edges, listed by ascending tail, are CSR arrays as they stand, with
    one more row: a virtual node S joined to every cell by an edge heavier
    than any lattice edge, ranked by the cell's branch gap, widest first
    (the lower index on ties).  csgraph's minimum spanning tree on these
    ranks, all distinct, is the unique heaviest lattice forest plus, per
    component, the virtual edge to its root: the cell where the branches
    are farthest apart, the first such cell.  One breadth-first order of
    that tree from S gives the parents.  Only lattice edges write the
    pairings, so each root keeps its start labels, and pointer jumping
    composes the pairings down the forest in log-depth numpy steps.

    A forest is grown only where an edge disagrees with the labels in hand:
    the start labels at order 0, the frames at order k (whose roots hold
    the start labels).  If those labels satisfy the pairing of every edge,
    any spanning forest composes to them, so they are returned with no
    csgraph call (`_agrees`, column 0 first).  The branch gaps are ranked
    once, for the first forest grown, and not at all when none is.

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
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

    S, Q, m = values.shape
    depth = min(order + 1, max(_EXTRAP_WEIGHTS))
    tail, head, indptr, indices, extrap, cells, chains, runs = _lattice_skeleton(grid, depth)
    count = tail.size

    @functools.cache
    def root_weights():
        """Virtual-edge weights: heavier than every lattice edge, lightest
        at the widest branch gap (the lower index on ties).  Ranked once,
        and only if a forest is grown."""
        weight = np.empty(S)
        by = np.argsort(-branch_gaps(values), kind="stable")
        weight[by] = np.arange(count + 1, count + S + 1)
        return weight

    def grow(frames):
        """Labels composed along the forest of the lattice chains: with no
        frames (order 0) the first cell of each forward chain, in raw branch
        order; at order k both directions' chains, framed by `frames`, in
        one call."""
        if frames is None:
            length = np.ones(count, dtype=np.int8)
            pairing, margin = _chain_pairings(values, None, tail, chains[:count, :1],
                                              length, extrap[:2, :1])
            child, parent = tail, head
        else:
            both, margins = _chain_pairings(values, frames, cells, chains, runs, extrap)
            pairing, length, margin = both[:count], runs[:count], margins[:count]
            back = both[count:], runs[count:], margins[count:]
            flip = (back[1] > length) | ((back[1] == length) & (back[2] > margin))
            pairing = np.where(flip[:, None], back[0], pairing)
            length = np.where(flip, back[1], length)
            margin = np.where(flip, back[2], margin)
            child, parent = np.where(flip, head, tail), np.where(flip, tail, head)
        # labels[child] = pairing[labels[parent]] on every edge.  Labels that
        # satisfy every edge and hold the start labels at the roots are what
        # any spanning forest composes to: at order 0 the start labels, at
        # order k the frames, whose roots hold them already.
        held = start_labels if frames is None else frames
        if _agrees(pairing, held, child, parent):
            return held
        ranked = np.lexsort((-margin, -length))
        weight = np.empty(count + S)
        weight[ranked] = np.arange(1, count + 1)  # csgraph drops zero weights
        weight[count:] = root_weights()
        tree = minimum_spanning_tree(
            csr_matrix((weight, indices, indptr), shape=(S + 1, S + 1)))
        edge = ranked[tree.data[:tree.indptr[S]].astype(np.intp) - 1]
        _, up = breadth_first_order(tree, S, directed=False, return_predecessors=True)
        up[S] = S
        # compose[v] maps labels[up[v]] to labels[v].  Only the lattice edges
        # of the tree write it, so each root keeps its start labels, and the
        # virtual node S holds the identity.
        compose = np.empty((S + 1, Q), dtype=np.intp)
        compose[:S] = start_labels
        compose[S] = np.arange(Q)
        down = up[child[edge]] == parent[edge]
        compose[child[edge[down]]] = pairing[edge[down]]
        compose[parent[edge[~down]]] = np.argsort(pairing[edge[~down]], axis=1)
        while np.any(up != S):
            compose = np.take_along_axis(compose, compose[up], axis=1)
            up = up[up]
        return compose[:S]

    labels = grow(None)
    yield labels
    if depth > 1:
        for _ in range(_ORDER_K_PASSES):
            frames, labels = labels, grow(labels)
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
    Reweighting need not lower the objective from one iteration to the
    next, so there the start ends at its iterate of least objective (the
    first of equal ones), with the coefficients of the factor that produced
    it; at q_exp = 2 it ends at its last iterate.  There a labeling that
    matches back to itself fixes every later iterate, so the start ends
    there, converged.  `iterations` counts the iterations that ran.
    Returns (coeffs, labels, objective, converged, iterations).
    """
    S, Q, m = values.shape
    flat = values.reshape(S * Q, m)
    offsets = np.arange(0, S * Q, Q)[:, None]
    prev_obj = math.inf
    g = None
    kept = None  # (objective, y, solve, labels) of the iterate the start ends at
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        if q_exp != 2.0 and g is not None:
            factor = _factor(
                design, weights * np.maximum(g, _IRLS_FLOOR) ** (q_exp - 2.0))
        project, basis, solve = factor
        y = project @ flat.take(labels + offsets, axis=0).reshape(S, Q * m)
        new_labels, costs = match_batch(values, (basis @ y).reshape(S, Q, m))
        g = np.sqrt(np.maximum(costs, 0.0))
        obj = float(np.sum(weights * g ** q_exp))
        if kept is None or q_exp == 2.0 or obj < kept[0]:
            kept = (obj, y, solve, new_labels)
        same = np.array_equal(new_labels, labels)
        labels = new_labels
        # at q_exp = 2 a repeated labeling fixes every later iterate: the
        # next one would repeat this one bit for bit
        if same and (abs(prev_obj - obj) <= _FIT_TOL * max(obj, 1e-300)
                     or (q_exp == 2.0 and math.isfinite(obj))):
            converged = True
            break
        prev_obj = obj
    obj, y, solve, labels = kept
    coeffs = (solve @ y).reshape(-1, Q, m).transpose(1, 2, 0)  # (Q, m, K)
    return coeffs, labels, obj, converged, iterations


# FitResults shared by the best_fit calls of one block (`_shared_fits`),
# keyed by (u, center bytes, radius, k, q_exp, cfg); u hashes by identity,
# and the key holds it while the block lasts.  None outside one.
_SHARED_FITS = contextvars.ContextVar("_SHARED_FITS", default=None)


@contextlib.contextmanager
def _shared_fits():
    """Within the block, a best_fit call with the arguments of an earlier
    one (the same u object, the same center bytes, equal radius, k, q_exp
    and cfg) returns that call's FitResult.  A fit depends on nothing else,
    so this changes no result.  An inner block joins the memo, which ends
    with the outermost block; as a decorator, with the outermost call."""
    if _SHARED_FITS.get() is not None:
        yield
        return
    token = _SHARED_FITS.set({})
    try:
        yield
    finally:
        _SHARED_FITS.reset(token)


def best_fit(u, center, radius, k, q_exp, cfg=None):
    """Best degree-k polynomial tuple on the sampled region.

    Restricts u to the ball, then minimizes the weighted sum of matching
    distances to the q_exp power via alternating assignment and regression,
    multi-started from sorted, lattice-propagated, and random labelings;
    the sorted and propagated ones read the values less their branch mean.
    Starts are built lazily, in that order, and the loop stops at the
    first start whose objective reaches the rounding floor, so later starts
    (the propagations included) are never computed.  A start whose labels
    equal those of one that ran takes that start's outcome without
    alternating again, and is logged with it.  The cfg.restarts random
    labelings run only when the deterministic starts end more than _FIT_TOL
    apart, relative to the least of them; otherwise the fit is their
    minimum.  q_exp must be finite and at least 1, k non-negative.
    Returns a FitResult; its residual is the attained weighted objective.
    Inside `_shared_fits` a call repeating an earlier one's arguments, the
    same u object and center bytes, returns that call's FitResult.
    """
    cfg = cfg or FitConfig()
    if not (math.isfinite(q_exp) and q_exp >= 1.0):
        raise ValueError("q_exp must be finite and at least 1, got %r" % q_exp)
    if k < 0:
        raise ValueError("degree k must be non-negative, got %r" % k)
    if not isinstance(u, SampledQFunction):
        raise TypeError("best_fit needs sampled data")
    memo = _SHARED_FITS.get()
    if memo is not None:
        key = (u, np.asarray(center, dtype=float).tobytes(), radius, k, q_exp, cfg)
        if key in memo:
            return memo[key]
    sub = u.restrict(center, radius)
    center = np.asarray(center, dtype=float).ravel()
    X = sub.grid.points
    weights = sub.grid.weights
    # Canonical per-sample branch order makes the fit independent of how the
    # caller happened to order branch values.
    values = np.take_along_axis(
        sub.values, canonical_order(sub.values)[:, :, None], axis=1)
    indices = multi_indices(center.shape[0], k)
    K = len(indices)
    if sub.size < K:
        raise InsufficientSamplesError(
            "insufficient samples: %d nodes for %d coefficients" % (sub.size, K)
        )
    design, factor = sub.grid.cached(
        ("fit", center.tobytes(), k), lambda: _fit_geometry(X, center, indices, weights))

    Q = sub.q

    def deterministic():
        if Q == 1:
            yield "zero", np.zeros((sub.size, 1), dtype=int)
            return
        # the branch mean moves every branch alike and changes no pairing,
        # so the starts read the symmetric part, values less their mean,
        # summed branch by branch: values.mean(axis=1) gives the same bits
        # at twice the cost (43 against 19 us at 812 nodes, Q = m = 2, in
        # fits that take about 0.5 ms)
        mean = functools.reduce(np.add, values.swapaxes(0, 1)) / Q
        symmetric = values - mean[:, None]
        ranks = _spectral_ranks(symmetric)
        yield "spectral", ranks
        yield from zip(("order0", "order_k"),
                       _propagated_labels(sub.grid, symmetric, ranks, k))

    log = []
    ran = []  # (labels, outcome) of each start that ran

    def randoms():
        # Pulled once every deterministic outcome is in.  Starts that end
        # within the alternation's own tolerance of each other found one
        # basin from different labelings; random labelings run only where
        # they disagree.
        objs = [out[2] for _, out in ran]
        if max(objs) - min(objs) <= _FIT_TOL * max(min(objs), 1e-300):
            return
        rng = np.random.default_rng(0)
        for _ in range(cfg.restarts):
            yield "random", np.argsort(rng.random((sub.size, Q)), axis=1)

    # at the floor the fit is an interpolation: further starts are pointless
    floor = exact_floor(sub.q_mass(q_exp), q_exp)

    for kind, labels0 in itertools.chain(deterministic(), randoms()):
        # the alternation depends only on its start labels
        out = next((o for seen, o in ran if np.array_equal(seen, labels0)), None)
        if out is None:
            out = _alternate(design, values, weights, factor, labels0, q_exp)
            ran.append((labels0, out))
        log.append((kind, out[2], out[4], out[3]))
        if out[2] <= floor:
            break

    # Every outcome before one at the floor lies above it, so the least
    # objective, with lexicographic coefficients as the tie-break, also
    # picks that one.
    coeffs, _, obj, conv, iters = min(
        (out for _, out in ran), key=lambda o: (o[2], o[0].tobytes()))
    poly = QPolynomial(center, k, coeffs).canonical_branch_order()
    result = FitResult(poly, obj, conv, iters, len(log), tuple(log))
    if memo is not None:
        memo[key] = result
    return result


def exact_floor(mass, q_exp):
    """Rounding floor of a q_exp-th power objective, (100 eps)^q_exp times
    the data's q_exp-th power mass (`SampledQFunction.q_mass`): an objective
    at or below it is rounding noise of an exact polynomial fit, in the
    objective's own units at every q_exp."""
    return (100.0 * np.finfo(float).eps) ** q_exp * max(mass, 1e-300)


def random_qpolynomial(rng, n, m, q, k):
    """Polynomial tuple centered at the origin with independent standard
    normal coefficients; test fodder."""
    K = len(multi_indices(n, k))
    coeffs = rng.normal(0.0, 1.0, size=(q, m, K))
    return QPolynomial(np.zeros(n), k, coeffs)


_RATIO_MIN_WEIGHT = 0.2  # least weight of a node subset in comparison_constant_ratios
_RATIO_RESOLUTION = 1.0 / 32  # grid step of its unit ball
# its polynomial tuples: degree 2, scalar, in the plane; its exponent q
_RATIO_N, _RATIO_M, _RATIO_K, _RATIO_Q = 2, 1, 2, 2.0


def comparison_constant_ratios(instances, seed, q_branches=2):
    """Sample the coefficient-vs-integral comparison ratio.

    For random pairs (F, G) of q_branches-valued degree-2 scalar polynomial
    tuples on the plane and random node subsets E of the unit disk with
    weight at least _RATIO_MIN_WEIGHT, computes

        G(a, b)^2 / integral_E G(F, G)^2

    with a, b the joint coefficient tuples.  The running supremum of these
    ratios estimates the comparison constant; stability under doubling the
    instance count is the caller's check.  The inequality itself is scale
    invariant, so the unit radius loses no generality.
    """
    rng = np.random.default_rng(seed)
    from .geometry import Domain

    n, m, k = _RATIO_N, _RATIO_M, _RATIO_K
    grid = Domain.ball(n, 1.0).sample(_RATIO_RESOLUTION)
    total = grid.total_weight()
    # every F and G shares the center, degree and nodes, so one design on
    # the whole grid serves all; its rows are computed row by row, so a
    # subset's rows equal those of a design built on the subset alone
    full = design_matrix(grid.points, np.zeros(n), multi_indices(n, k))
    integrals = np.empty(instances)
    tuples = np.empty((2, instances, q_branches, m * full.shape[1]))
    for i in range(instances):
        F = random_qpolynomial(rng, n, m, q_branches, k)
        G = random_qpolynomial(rng, n, m, q_branches, k)
        frac = rng.uniform(_RATIO_MIN_WEIGHT / total, 1.0)
        count = max(int(round(frac * grid.size)),
                    int(math.ceil(_RATIO_MIN_WEIGHT / grid.weights[0])))
        count = min(count, grid.size)
        subset = rng.choice(grid.size, size=count, replace=False)
        D = full[subset]
        fv = np.einsum("sk,qmk->sqm", D, F.coeffs)
        gv = np.einsum("sk,qmk->sqm", D, G.coeffs)
        integrals[i] = matched_mass(grid.weights[subset], fv, gv, _RATIO_Q)
        tuples[:, i] = coefficient_tuple(F).branches, coefficient_tuple(G).branches
    return np.sqrt(match_batch(*tuples)[1]) ** _RATIO_Q / integrals
