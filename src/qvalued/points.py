"""Unordered value tuples, the matching metric, and sampled multi-valued data.

An AqPoint is an unordered Q-tuple of vectors in R^m.  The distance between
two such tuples is the smallest root-sum-of-squares over all pairings of
their branches, computed exactly: by an assignment solver, by enumerating
the pairings of a few branches, or, for scalar values, by sorting.  The
space is a metric space, not a vector space: branch arithmetic only makes
sense after fixing a pairing.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BelowResolutionError,
    BranchAmbiguityError,
    EmptyIntersectionError,
    OracleLimitError,
)
from .geometry import _ladder_radii, squared_distances, unit_ball_volume

__all__ = [
    "AqPoint",
    "metric_g",
    "brute_force_metric",
    "optimal_assignment",
    "match_batch",
    "SampledQFunction",
    "numeric_derivative",
    "lebesgue_point_profile",
]

_BRUTE_FORCE_LIMIT = 8
# match_batch enumerates all Q! pairings up to this Q; above it, it sorts
# scalar values and solves one assignment per sample of vector values
_ENUMERATION_LIMIT = 6
# pairing terms match_batch holds at once: rows per chunk = this // (Q! Q)
_CHUNK_ENTRIES = 1 << 20
_TIE_TOL = 1e-12  # optimal_assignment: pairings this close (relative) to the optimum tie


@functools.lru_cache(maxsize=None)
def _permutation_table(q):
    """All permutations of range(q), lexicographic, as a (q!, q) array."""
    return np.array(list(itertools.permutations(range(q))), dtype=int)


def _canonical(branches):
    """Rows sorted lexicographically, first coordinate most significant."""
    key = np.lexsort(branches.T[::-1])
    return branches[key]


class AqPoint:
    """Unordered tuple of Q vectors in R^m, stored in canonical row order."""

    __slots__ = ("branches",)

    def __init__(self, branches):
        arr = np.asarray(branches, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("branches must form a (Q, m) array with Q, m >= 1")
        arr = _canonical(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "branches", arr)

    @property
    def q(self):
        return self.branches.shape[0]

    @property
    def m(self):
        return self.branches.shape[1]

    @classmethod
    def zero(cls, q, m=1):
        return cls(np.zeros((q, m)))

    def norm(self):
        """Distance to the Q-fold zero tuple; no matching needed."""
        return float(np.linalg.norm(self.branches))

    def average(self):
        return self.branches.mean(axis=0)

    def symmetric_part(self):
        """The tuple with its branch average subtracted from every branch."""
        return AqPoint(self.branches - self.average())

    def translate(self, v):
        return AqPoint(self.branches + np.asarray(v, dtype=float))

    def __eq__(self, other):
        if not isinstance(other, AqPoint):
            return NotImplemented
        return self.branches.shape == other.branches.shape and bool(
            np.array_equal(self.branches, other.branches)
        )

    def __hash__(self):
        return hash((self.branches.shape, self.branches.tobytes()))

    def __repr__(self):
        rows = ", ".join(str(list(row)) for row in self.branches)
        return "AqPoint([%s])" % rows


def _branch_arrays(s, t):
    a = s.branches if isinstance(s, AqPoint) else np.atleast_2d(np.asarray(s, float))
    b = t.branches if isinstance(t, AqPoint) else np.atleast_2d(np.asarray(t, float))
    if a.shape != b.shape:
        raise ValueError("tuples must share Q and m")
    return a, b


def _cost_matrix(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def metric_g(s, t):
    """Matching distance: min over pairings of the root-sum-of-squares."""
    from scipy.optimize import linear_sum_assignment

    a, b = _branch_arrays(s, t)
    if a.shape[0] == 1:
        return float(np.linalg.norm(a[0] - b[0]))
    cost = _cost_matrix(a, b)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(max(cost[rows, cols].sum(), 0.0))


def brute_force_metric(s, t):
    """Same distance by exhausting all Q! pairings; oracle for metric_g."""
    a, b = _branch_arrays(s, t)
    q = a.shape[0]
    if q > _BRUTE_FORCE_LIMIT:
        raise OracleLimitError("oracle limit: Q = %d exceeds %d" % (q, _BRUTE_FORCE_LIMIT))
    perms = _permutation_table(q)
    cost = _cost_matrix(a, b)
    totals = cost[np.arange(q), perms].sum(axis=1)
    return math.sqrt(max(totals.min(), 0.0))


def optimal_assignment(s, t):
    """Optimal pairing (as an index array sigma with b[sigma[i]] matched to
    a[i]) together with the distance.

    Among pairings whose cost ties the optimum within _TIE_TOL relative, the
    lexicographically smallest index array is returned, which keeps
    downstream branch tracking deterministic.
    """
    from scipy.optimize import linear_sum_assignment

    a, b = _branch_arrays(s, t)
    q = a.shape[0]
    cost = _cost_matrix(a, b)
    rows, cols = linear_sum_assignment(cost)
    best = cost[rows, cols].sum()
    slack = _TIE_TOL * (1.0 + best)
    sigma = np.empty(q, dtype=int)
    rows_left = list(range(q))
    cols_left = list(range(q))
    budget = best
    for i in list(rows_left):
        # Greedily pin the smallest column that still admits an optimal
        # completion on the remaining minor.
        chosen = None
        for j in sorted(cols_left):
            rl = [r for r in rows_left if r != i]
            cl = [c for c in cols_left if c != j]
            if rl:
                sub = cost[np.ix_(rl, cl)]
                rr, cc = linear_sum_assignment(sub)
                rest = sub[rr, cc].sum()
            else:
                rest = 0.0
            if cost[i, j] + rest <= budget + slack:
                chosen = j
                budget -= cost[i, j]
                break
        if chosen is None:  # numerical safety net; fall back to solver's pick
            chosen = cols[rows.tolist().index(i)]
            budget -= cost[i, chosen]
        sigma[i] = chosen
        rows_left.remove(i)
        cols_left.remove(chosen)
    total = cost[np.arange(q), sigma].sum()
    return sigma, math.sqrt(max(total, 0.0))


def _best_pairings(d2, perms):
    """Per row of d2: (cheapest pairing, its total, the gap to the runner-up).
    totals[:, p] sums d2[:, perms[p, i], i] over i in index order; perms[0],
    the identity, serves as arange(Q)."""
    totals = d2[:, perms, perms[0]].sum(axis=2)
    low = np.partition(totals, 1, axis=1)
    return perms[totals.argmin(axis=1)], low[:, 0], low[:, 1] - low[:, 0]


def _swap_margins(d2, labels):
    """Per row of d2: the gap from the pairing `labels` to the cheapest
    pairing one transposition away, clamped at 0.  Swapping the partners
    of b's branches i and j changes the total by
    d2[l_i, j] + d2[l_j, i] - d2[l_i, i] - d2[l_j, j]."""
    S, Q = labels.shape
    rows = np.arange(S)[:, None]
    own = d2[rows, labels, np.arange(Q)]
    i, j = np.triu_indices(Q, 1)
    change = d2[rows, labels[:, i], j] + d2[rows, labels[:, j], i] - own[:, i] - own[:, j]
    return np.maximum(change.min(axis=1), 0.0)


def _column_distance(x, y):
    """Squared distances between (m, S) component columns, per sample,
    summed over components in index order."""
    diff = x - y
    diff *= diff
    total = diff[0]
    for c in range(1, diff.shape[0]):
        total += diff[c]
    return total


def match_batch(a, b):
    """Optimal branch pairing of a[s] with b[s] for every sample s.

    a and b have shape (S, Q, m).  Returns (labels, sq_cost, margin):
    labels[s, i] is the branch of a[s] matched to b[s, i], sq_cost[s] the
    squared matching distance G(a[s], b[s])^2, and margin[s] the gap
    between the best and the runner-up pairing cost.  Up to
    Q = _ENUMERATION_LIMIT every pairing is enumerated in lexicographic
    order, in row chunks of at most _CHUNK_ENTRIES terms, and an exact tie
    goes to the lexicographically smallest pairing, as in
    optimal_assignment.  Above it, scalar values (m = 1) are paired by
    rank, the t-th smallest branch of a[s] with the t-th smallest of b[s]:
    by the rearrangement inequality that pairing is optimal, and an exact
    tie goes to the stable sort, equal values ranked by branch index.
    Vector values above it get one exact assignment solve per sample.
    Above the limit the margin is the gap to the cheapest pairing one
    transposition away from the optimum, clamped at 0 against rounding.
    For Q = 1 the margin is 0.  Q = 2 takes its two pairings in closed
    form, each branch distance summed over components in index order;
    scipy is imported only for vector values above _ENUMERATION_LIMIT.
    Values that are not finite, or whose squared distances overflow, are
    refused with ValueError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or a.shape != b.shape:
        raise ValueError("match_batch needs two (S, Q, m) arrays of one shape")
    # non-finite input makes every pairing cost of its sample non-finite,
    # and the largest cost too (NaN propagates through max): one check of
    # the costs refuses it, and _match raises no warning on the way
    labels, sq_cost, margin = _match(a, b)
    if not math.isfinite(sq_cost.max(initial=0.0)):
        raise ValueError(_NON_FINITE)
    return labels, sq_cost, margin


_NON_FINITE = "match_batch needs finite values with finite squared distances"


@np.errstate(invalid="ignore", over="ignore")
def _match(a, b):
    """match_batch on validated arrays, non-finite costs passed through."""
    S, Q, m = a.shape
    if Q == 2:
        # the two pairings in closed form, on contiguous (m, S) columns per
        # branch: the totals, ties and labels of the enumeration below,
        # without its 4-D difference array and per-row sort (the einsum
        # there sums up to two components in the same order)
        at = a.transpose(1, 2, 0).copy()
        bt = b.transpose(1, 2, 0).copy()
        keep = _column_distance(at[0], bt[0]) + _column_distance(at[1], bt[1])
        swap = _column_distance(at[1], bt[0]) + _column_distance(at[0], bt[1])
        crossed = swap < keep
        best = np.minimum(keep, swap)
        labels = np.stack([crossed, ~crossed], axis=1).astype(int)
        return labels, best, np.maximum(keep, swap) - best
    diff = a[:, :, None, :] - b[:, None, :, :]
    d2 = np.einsum("sabm,sabm->sab", diff, diff)
    del diff  # m times the size of d2; free it before the pairing work
    if Q == 1:
        return np.zeros((S, 1), dtype=int), d2[:, 0, 0], np.zeros(S)
    if Q > _ENUMERATION_LIMIT:
        # cols[s, r]: the branch of b paired with a's branch r
        cols = np.empty((S, Q), dtype=int)
        if m == 1:
            np.put_along_axis(cols, np.argsort(a[:, :, 0], axis=1, kind="stable"),
                              np.argsort(b[:, :, 0], axis=1, kind="stable"), axis=1)
        else:
            if not np.isfinite(d2).all():  # scipy refuses these in its own words
                raise ValueError(_NON_FINITE)
            from scipy.optimize import linear_sum_assignment

            for s in range(S):
                cols[s] = linear_sum_assignment(d2[s])[1]
        labels = np.argsort(cols, axis=1)
        sq_cost = np.take_along_axis(d2, cols[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        return labels, sq_cost, _swap_margins(d2, labels)
    perms = _permutation_table(Q)
    if S * perms.size <= _CHUNK_ENTRIES:
        return _best_pairings(d2, perms)
    step = max(_CHUNK_ENTRIES // perms.size, 1)
    parts = [_best_pairings(d2[lo:lo + step], perms) for lo in range(0, S, step)]
    return tuple(np.concatenate(col) for col in zip(*parts))


@dataclass(frozen=True, eq=False)
class SampledQFunction:
    """Multi-valued samples on a quadrature grid.

    values has shape (S, Q, m): per grid node, Q branch vectors.  Branch
    order per node carries no meaning.  Like grids and polynomials, sampled
    functions compare and hash by identity.
    """

    grid: object
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 2:
            vals = vals[:, :, None]
        if vals.ndim != 3:
            raise ValueError("values must have shape (S, Q, m)")
        if vals.shape[0] != self.grid.size:
            raise ValueError("sample count disagrees with grid size")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def q(self):
        return self.values.shape[1]

    @property
    def m(self):
        return self.values.shape[2]

    @property
    def n(self):
        return self.grid.dim

    @property
    def size(self):
        return self.grid.size

    def point(self, index):
        return AqPoint(self.values[index])

    def nearest_index(self, x):
        d2 = squared_distances(self.grid.points, np.asarray(x, float))
        return int(np.argmin(d2))

    def value_at(self, x):
        """Tuple at the nearest grid node."""
        return self.point(self.nearest_index(x))

    def restrict(self, center, radius):
        sub, idx = self.grid.restrict(center, radius)
        return SampledQFunction(sub, self.values[idx])

    def q_mass(self, q_exp=2.0):
        """Weighted integral of |u|^q over the grid."""
        mags = np.sqrt(np.einsum("sqm,sqm->s", self.values, self.values))
        return float(np.sum(self.grid.weights * mags ** q_exp))

    @classmethod
    def from_function(cls, grid, fn, q, m):
        """Sample a callable x -> (Q, m) array on grid points.

        Callables that accept the whole (S, n) point block at once and
        return (S, Q, m) are used as-is.  A callable that returns another
        shape, or rejects the block with TypeError, ValueError or IndexError
        (the errors of a per-point function handed a block), is invoked per
        node; any other error propagates.
        """
        try:
            block = np.asarray(fn(grid.points), dtype=float)
            if block.shape == (grid.size, q, m):
                return cls(grid, block.copy())
        except (TypeError, ValueError, IndexError):
            pass
        vals = np.empty((grid.size, q, m))
        for i, x in enumerate(grid.points):
            vals[i] = np.asarray(fn(x), dtype=float).reshape(q, m)
        return cls(grid, vals)


def _evaluate(u, x):
    """Tuple value of an analytic function, or of sampled data's nearest node."""
    if hasattr(u, "eval_point"):
        return u.eval_point(x)
    if isinstance(u, SampledQFunction):
        return u.value_at(x)
    raise TypeError("cannot evaluate %r at a point" % type(u))


def numeric_derivative(u, x0, h, gap_tol=None):
    """Branchwise Jacobians at x0 by central differences with branch tracking.

    Pre: branches at x0 separable; otherwise the pairing of neighbor values
    to center branches is meaningless and a BranchAmbiguityError is raised.
    Returns an array of shape (Q, m, n), row i the Jacobian of the branch
    matched to center branch i (branches in the center tuple's canonical
    order).
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.shape[0]
    center = _evaluate(u, x0)
    q, m = center.q, center.m
    scale = max(center.norm(), 1.0)
    if gap_tol is None:
        gap_tol = 1e-6 * scale
    if q > 1:
        gaps = _cost_matrix(center.branches, center.branches)
        np.fill_diagonal(gaps, np.inf)
        if math.sqrt(gaps.min()) <= gap_tol:
            raise BranchAmbiguityError(
                "branch point: derivative matching ambiguous"
            )
    jac = np.empty((q, m, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        plus = _evaluate(u, x0 + step)
        minus = _evaluate(u, x0 - step)
        sp, _ = optimal_assignment(center, plus)
        sm, _ = optimal_assignment(center, minus)
        jac[:, :, j] = (plus.branches[sp] - minus.branches[sm]) / (2.0 * h)
    return jac


def lebesgue_point_profile(u, x0, ladder, q_exp=2.0, value=None):
    """Averaged q-th power distance to the value at x0 per ladder radius.

    Returns (radii_used, averages, truncated) where truncated flags ladder
    rungs dropped by `QuadratureGrid.restrict_indices`: at most two grid
    steps, or holding no node.  An empty ladder, or a radius that is not
    finite and positive, is refused with ValueError.
    """
    if not isinstance(u, SampledQFunction):
        raise TypeError("profile requires sampled data")
    x0 = np.asarray(x0, dtype=float).ravel()
    if value is None:
        value = u.value_at(x0)
    ref = value.branches if isinstance(value, AqPoint) else AqPoint(value).branches
    omega = unit_ball_volume(u.n)
    radii, averages = [], []
    truncated = False
    for rho in _ladder_radii(ladder):
        try:
            idx = u.grid.restrict_indices(x0, rho)
        except (BelowResolutionError, EmptyIntersectionError):
            truncated = True
            continue
        vals = u.values[idx]
        dists = np.sqrt(match_batch(vals, np.broadcast_to(ref, vals.shape))[1])
        mass = float(np.sum(u.grid.weights[idx] * dists ** q_exp))
        radii.append(rho)
        averages.append(mass / (omega * rho ** u.n))
    return np.asarray(radii), np.asarray(averages), truncated
