"""Unordered value tuples, the matching metric, and sampled multi-valued data.

An AqPoint is an unordered Q-tuple of vectors in R^m.  The distance between
two such tuples is the smallest root-sum-of-squares over all pairings of
their branches, computed exactly: by enumerating the pairings of a few
branches, by sorting scalar values, or by an assignment solver.  The
space is a metric space, not a vector space: branch arithmetic only makes
sense after fixing a pairing.

All matching in the package goes through one kernel with two entries:
match_batch returns the pairings and their costs, and match_margins adds
how far each pairing is from the next best one; metric_g is match_batch
on a batch of one pair.  Only label propagation reads the margin, so
every other caller skips the work of finding a runner-up.  Up
to six branches the kernel works on branch-major (Q, m, S) copies of its
inputs, so each numpy step runs along the long sample axis: one (Q, Q, S)
block of squared branch distances, each summed over components in index
order, and one (Q!, S) table of pairing totals, each summed over branches
in index order, whose first least row per column wins.  A Lebesgue-point
profile averages the squared matching distance, exponent 2, to the value
at its center over each ball of a ladder.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BelowResolutionError, OracleLimitError
from .geometry import _grid_point, _ladder_radii, squared_distances, unit_ball_volume

__all__ = [
    "AqPoint",
    "metric_g",
    "brute_force_metric",
    "match_batch",
    "match_margins",
    "canonical_order",
    "branch_gaps",
    "matched_mass",
    "SampledQFunction",
    "lebesgue_point_profile",
]

_BRUTE_FORCE_LIMIT = 8
# matching enumerates all Q! pairings up to this Q; above it, it sorts
# scalar values and solves one assignment per sample of vector values
_ENUMERATION_LIMIT = 6
# pairing terms matching holds at once: columns per chunk = this // (Q! Q)
_CHUNK_ENTRIES = 1 << 20
_NON_FINITE = "matching needs finite values with finite squared distances"


@functools.lru_cache(maxsize=None)
def _permutation_table(q):
    """All permutations of range(q), lexicographic, as a (q!, q) array."""
    return np.array(list(itertools.permutations(range(q))), dtype=int)


def canonical_order(values):
    """Per sample of (S, Q, m) values, the branch order that sorts its rows
    lexicographically, first component most significant, an exact tie kept
    in branch order: values[s, order[s]] is the canonical tuple.  One
    lexsort along the branch axis of the (m, S, Q) component keys, last key
    most significant; for scalar values it is the stable argsort."""
    return np.lexsort(values.transpose(2, 0, 1)[::-1], axis=-1)


class AqPoint:
    """Unordered tuple of Q vectors in R^m, stored in canonical row order."""

    __slots__ = ("branches",)

    def __init__(self, branches):
        arr = np.asarray(branches, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("branches must form a (Q, m) array with Q, m >= 1")
        arr = arr[canonical_order(arr[None])[0]]
        arr.setflags(write=False)
        object.__setattr__(self, "branches", arr)

    @property
    def q(self):
        return self.branches.shape[0]

    @property
    def m(self):
        return self.branches.shape[1]

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
    """(Q, m) branch rows of two tuples, each an AqPoint or values that
    AqPoint reads as one: a 1-D list holds Q scalar branches."""
    a = (s if isinstance(s, AqPoint) else AqPoint(s)).branches
    b = (t if isinstance(t, AqPoint) else AqPoint(t)).branches
    if a.shape != b.shape:
        raise ValueError("tuples must share Q and m")
    return a, b


def metric_g(s, t):
    """Matching distance: min over pairings of the root-sum-of-squares,
    the square root of match_batch's cost for the one pair (s, t).

    Values that are not finite, or whose squared branch distances or
    matching cost overflow, are refused with ValueError by match_batch."""
    a, b = _branch_arrays(s, t)
    return math.sqrt(match_batch(a[None], b[None])[1][0])


def brute_force_metric(s, t):
    """Same distance by exhausting all Q! pairings; oracle for metric_g."""
    a, b = _branch_arrays(s, t)
    q = a.shape[0]
    if q > _BRUTE_FORCE_LIMIT:
        raise OracleLimitError("oracle limit: Q = %d exceeds %d" % (q, _BRUTE_FORCE_LIMIT))
    perms = _permutation_table(q)
    cost = _pair_distances(a[None], b[None])[0]
    totals = cost[np.arange(q), perms].sum(axis=1)
    return math.sqrt(max(totals.min(), 0.0))


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
    """Squared distances between (..., m, S) component columns, per sample,
    summed over components in index order."""
    diff = x - y
    diff *= diff
    total = diff[..., 0, :]
    for c in range(1, diff.shape[-2]):
        total += diff[..., c, :]
    return total


def _enumerated_pairings(at, bt, perms, margin):
    """Per sample column of (Q, m, S) branch columns: the cheapest of the
    pairings `perms` and its total, and with `margin` the gap to the
    runner-up.  With d2[i, j] = |a_i - b_j|^2 as one (Q, Q, S) block,
    totals[p] adds d2[perms[p, i], i] over i in index order (a reduction
    over a middle axis runs in index order); the first least total wins,
    so an exact tie goes to the smallest perms row."""
    Q = perms.shape[1]
    d2 = _column_distance(at[:, None], bt[None, :])
    _refuse_overflow(d2.max(initial=0.0))
    # one (Q!, Q, S) gather rather than Q (Q!, S) ones: a call's largest
    # array then outweighs the rest, so the allocator keeps its heap
    # between calls instead of trimming and faulting it back in
    totals = d2.reshape(Q * Q, -1)[perms * Q + np.arange(Q)].sum(axis=1)
    best = totals.argmin(axis=0)
    sq_cost = totals.min(axis=0)
    labels = perms.take(best, axis=0)
    if not margin:
        return labels, sq_cost
    return labels, sq_cost, _runner_up(totals, best) - sq_cost


def _runner_up(totals, best):
    """Per column s of (P, S) pairing totals: the least total once row
    best[s], the winner, is set aside, so the winner's own total again
    where another pairing ties it.  Overwrites the winners in `totals`."""
    totals[best, np.arange(best.size)] = np.inf
    return totals.min(axis=0)


def _pair_distances(a, b):
    """d2[s, i, j] = |a[s, i] - b[s, j]|^2 for (S, Q, m) arrays: every
    branch-to-branch squared distance outside the enumeration's columns."""
    diff = a[:, :, None, :] - b[:, None, :, :]
    return np.einsum("sabm,sabm->sab", diff, diff)


def branch_gaps(values):
    """Squared distance between the closest two branches of each sample of
    (S, Q, ...) values, trailing axes read as one vector; inf where Q = 1."""
    S, Q = values.shape[:2]
    flat = values.reshape(S, Q, math.prod(values.shape[2:]))
    d2 = _pair_distances(flat, flat)
    d2[:, np.arange(Q), np.arange(Q)] = np.inf
    return d2.min(axis=(1, 2), initial=np.inf)


def matched_mass(weights, values, model, q_exp):
    """sum_s weights[s] G(values[s], model[s])^q_exp for (S, Q, m) values
    and models of one shape."""
    dists = np.sqrt(match_batch(values, model)[1])
    return float(np.sum(weights * dists ** q_exp))


def _refuse_overflow(bound):
    """ValueError unless `bound` is finite.  NaN input reaches the bounds
    matching checks through max and sums, which propagate it."""
    if not math.isfinite(bound):
        raise ValueError(_NON_FINITE)


def _batch_arrays(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or a.shape != b.shape:
        raise ValueError("matching needs two (S, Q, m) arrays of one shape")
    return a, b


def match_batch(a, b):
    """Optimal branch pairing of a[s] with b[s] for every sample s.

    a and b have shape (S, Q, m).  Returns (labels, sq_cost): labels[s, i]
    is the branch of a[s] matched to b[s, i], and sq_cost[s] the squared
    matching distance G(a[s], b[s])^2.  Up to Q = _ENUMERATION_LIMIT the
    samples are copied once into branch-major (Q, m, S) columns and every
    pairing is enumerated in lexicographic order, in column chunks of at
    most _CHUNK_ENTRIES pairing terms: each branch distance is summed over
    components in index order, each pairing total over b's branches in
    index order, and an exact tie goes to the first least total, the
    lexicographically smallest labels[s].  Above it, scalar values (m = 1)
    are paired by rank, the t-th smallest branch of a[s] with the t-th
    smallest of b[s]: by the rearrangement inequality that pairing is
    optimal, and an exact tie goes to the stable sort, equal values ranked
    by branch index.
    Vector values above it get one exact assignment solve per sample.
    Q = 2 takes its two pairings in closed form on the same columns, with
    the same sums and tie rule; scipy is imported only for vector values
    above _ENUMERATION_LIMIT.

    Values that are not finite, or whose squared branch distances overflow
    (values about 1e154 apart), are refused with ValueError; so is a
    sample whose matching cost overflows.

    The cost is all that fitting, masses and profiles read; match_margins
    adds the margin that only label propagation reads.
    """
    return _match(*_batch_arrays(a, b), margin=False)


def match_margins(a, b):
    """match_batch's (labels, sq_cost) and the margin of each pairing.

    margin[s] is the gap between the best and the runner-up pairing cost
    up to Q = _ENUMERATION_LIMIT, 0 where two pairings tie at the least
    cost; the runner-up is the least total of the (Q!, S) table once each
    column's winner is set aside.  Above it the margin is the gap to the
    cheapest pairing one transposition away from the optimum, clamped at 0
    against rounding.  For Q = 1 the margin is 0.  Label propagation weighs
    its lattice edges by these margins; no other caller reads them, and
    they cost a second pass over the pairing totals or over all
    transpositions per sample.
    """
    return _match(*_batch_arrays(a, b), margin=True)


@np.errstate(invalid="ignore", over="ignore")
def _match(a, b, margin):
    """The kernel of match_batch, with match_margins' margins when
    `margin` is set, on (S, Q, m) arrays of one shape.  Input that matching
    refuses is refused here, with no warning on the way."""
    S, Q, m = a.shape
    if 2 <= Q <= _ENUMERATION_LIMIT:
        # branch-major (Q, m, S) columns: every step below runs along the
        # long sample axis, none along a short row of Q or Q! entries
        at = a.transpose(1, 2, 0).copy()
        bt = b.transpose(1, 2, 0).copy()
        if Q == 2:
            # the two pairings in closed form: the totals, ties and labels
            # of the enumeration, without its (Q!, S) table and argmin
            keep = _column_distance(at[0], bt[0]) + _column_distance(at[1], bt[1])
            swap = _column_distance(at[1], bt[0]) + _column_distance(at[0], bt[1])
            worst = np.maximum(keep, swap)
            # both pairing totals finite, so the four squared distances too
            _refuse_overflow(worst.max(initial=0.0))
            crossed = swap < keep
            best = np.minimum(keep, swap)
            labels = np.empty((S, 2), dtype=int)
            labels[:, 0] = crossed
            labels[:, 1] = ~crossed
            if not margin:
                return labels, best
            return labels, best, worst - best
        perms = _permutation_table(Q)
        step = max(_CHUNK_ENTRIES // perms.size, 1)
        parts = [_enumerated_pairings(at[..., lo:lo + step], bt[..., lo:lo + step],
                                      perms, margin)
                 for lo in range(0, max(S, 1), step)]
        found = (parts[0] if len(parts) == 1
                 else tuple(np.concatenate(col) for col in zip(*parts)))
        _refuse_overflow(found[1].max(initial=0.0))
        return found
    if Q > _ENUMERATION_LIMIT and m == 1:
        x, y = a[:, :, 0], b[:, :, 0]
        rank_a = np.argsort(x, axis=1, kind="stable")
        rank_b = np.argsort(y, axis=1, kind="stable")
        # cols[s, r]: the branch of b paired with a's branch r
        cols = np.empty((S, Q), dtype=int)
        np.put_along_axis(cols, rank_a, rank_b, axis=1)
        labels = np.argsort(cols, axis=1)
        sq_cost = ((x - np.take_along_axis(y, cols, axis=1)) ** 2).sum(axis=1)
        # on the line the farthest pair of branches joins opposite extremes
        low_a, high_a = np.take_along_axis(x, rank_a[:, [0, -1]], axis=1).T
        low_b, high_b = np.take_along_axis(y, rank_b[:, [0, -1]], axis=1).T
        far = np.maximum(high_a - low_b, high_b - low_a)
        _refuse_overflow((far * far).max(initial=0.0))
        _refuse_overflow(sq_cost.max(initial=0.0))
        if not margin:
            return labels, sq_cost
        return labels, sq_cost, _swap_margins(_pair_distances(a, b), labels)
    d2 = _pair_distances(a, b)
    # checked before the solve: scipy refuses non-finite costs in its own words
    _refuse_overflow(d2.max(initial=0.0))
    if Q == 1:
        found = (np.zeros((S, 1), dtype=int), d2[:, 0, 0])
        return found + (np.zeros(S),) if margin else found
    from scipy.optimize import linear_sum_assignment

    cols = np.empty((S, Q), dtype=int)
    for s in range(S):
        cols[s] = linear_sum_assignment(d2[s])[1]
    labels = np.argsort(cols, axis=1)
    sq_cost = np.take_along_axis(d2, cols[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    _refuse_overflow(sq_cost.max(initial=0.0))
    if not margin:
        return labels, sq_cost
    return labels, sq_cost, _swap_margins(d2, labels)


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
        if vals.ndim != 3 or vals.shape[1] < 1 or vals.shape[2] < 1:
            raise ValueError("values must have shape (S, Q, m) with Q, m >= 1")
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
        """Index of the grid node nearest x.  ValueError unless x is a
        finite point of the grid's dimension with that node within one grid
        step: no sample stands for a point off the grid."""
        x = _grid_point(x, self.n, "x")
        d2 = squared_distances(self.grid.points, x)
        i = int(np.argmin(d2))
        if math.sqrt(d2[i]) > self.grid.resolution:
            raise ValueError(
                "point %s has no grid node within one grid step (h = %g)"
                % (x.tolist(), self.grid.resolution))
        return i

    def value_at(self, x):
        """Tuple at the nearest grid node."""
        return self.point(self.nearest_index(x))

    def restrict(self, center, radius):
        sub, idx = self.grid.restrict(center, radius)
        return SampledQFunction(sub, self.values[idx])

    def q_mass(self, q_exp):
        """Weighted integral of |u|^q over the grid, |u|^2 summed over each
        node's branches and components; its power is exactly 1 at q = 2."""
        sq = np.einsum("sqm,sqm->s", self.values, self.values)
        return float(np.sum(self.grid.weights * sq ** (0.5 * q_exp)))

    @classmethod
    def from_function(cls, grid, fn, q, m):
        """Sample a callable that maps the (S, n) block of grid points to
        (S, Q, m) values; any other shape is refused with ValueError."""
        block = np.array(fn(grid.points), dtype=float)
        if block.shape != (grid.size, q, m):
            raise ValueError("function returned shape %s, expected %s"
                             % (block.shape, (grid.size, q, m)))
        return cls(grid, block)


def lebesgue_point_profile(u, x0, ladder):
    """Averaged squared matching distance to the value at x0 per ladder
    radius: the Lebesgue-point profile at exponent 2.

    Returns (radii_used, averages, truncated) where truncated flags ladder
    rungs of at most two grid steps, which `QuadratureGrid.restrict`
    refuses; a longer rung holds x0's node.  A center x0 that is not a
    finite point of the grid's dimension or has no grid node within one
    grid step, an empty ladder, or a radius that is not finite and positive
    is refused with ValueError.
    """
    if not isinstance(u, SampledQFunction):
        raise TypeError("profile requires sampled data")
    x0 = _grid_point(x0, u.n, "x0")
    ref = u.value_at(x0).branches
    omega = unit_ball_volume(u.n)
    radii, averages = [], []
    truncated = False
    for rho in _ladder_radii(ladder):
        try:
            ball = u.restrict(x0, rho)
        except BelowResolutionError:
            truncated = True
            continue
        mass = matched_mass(ball.grid.weights, ball.values,
                            np.broadcast_to(ref, ball.values.shape), 2.0)
        radii.append(rho)
        averages.append(mass / (omega * rho ** u.n))
    return np.asarray(radii), np.asarray(averages), truncated
