"""Bounded domains, midpoint quadrature grids, and dyadic radius ladders.

Domains are open subsets of R^n supporting membership tests and uniform
cell sampling.  A grid keeps every axis-aligned cell whose center lies
inside the domain and assigns it the full cell weight h^n, so integrals are
plain weighted sums over cell centers.

A grid's sample lattice is a function of its points, `neighbour_table`,
which no grid keeps; a fit keeps what it reads from it (`polyfit`'s
propagation skeleton).  A restriction is a grid of its own, with no link
to the grid it was cut from.  On lattice points a ball's table is its
source grid's table restricted to the ball; on a scattered, off-lattice
point set, which no lattice fits, the two can differ.

A grid keeps everything it computes about itself in one memo: the
geometry a fit or an audit derives from its nodes
(`QuadratureGrid.cached`) and its balls.  A ball, keyed by its normalised
center bytes and float radius, keeps its node indices, its sub-grid's
points and weights, and a memo of its own, which every restriction to
that ball reads.  So a repeat restriction is one dict lookup, and the
propagation skeleton, the design matrices and the least-squares factors
of a ball are computed once per grid, however many fields, degrees or
polynomials are fitted or evaluated on it.  Memo entries hold arrays and
dicts, never a grid, so a grid and its memo are freed together by
reference counting, and a restriction never keeps the grid it was cut from
alive.  A grid keeps balls while their node counts sum to at most twice
its own size, which holds the whole working set of one certificate (on the
benchmark's, 51 balls with 1.12 times the grid's nodes); a restriction
past that is computed and dropped, as the first one is.  Kept arrays are
read-only.

The table is built by direct addressing.  Each axis ranks its distinct
lattice keys; every node's index is written to its cell of a box with one
cell per combination of ranks, plus a padding slab per axis for steps to a
key no node has; and every (node, direction, step) is read with one
gather.  A box of more than a fixed number of cells per node, as a
scattered, off-lattice point set gives, is never allocated: those cells
are found by one sorted search instead.

Per-node kernels read an (S, n) point array one coordinate column at a
time, along the long sample axis.  An operation on the whole array runs
numpy's inner loop over the n coordinates once per row, which costs about
three times as much on a planar grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BelowResolutionError,
    DegenerateDomainError,
    EmptyIntersectionError,
)

__all__ = [
    "Domain",
    "QuadratureGrid",
    "dyadic_ladder",
    "neighbour_table",
    "squared_distances",
    "unit_ball_volume",
]


def unit_ball_volume(n):
    """Lebesgue measure of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def dyadic_ladder(rho0, depth):
    """Radii rho0 * 2^-j for j = 0..depth, largest first."""
    if not (math.isfinite(rho0) and rho0 > 0):
        raise ValueError("ladder base radius must be finite and positive")
    if not isinstance(depth, numbers.Integral) or depth < 0:
        raise ValueError("ladder depth must be a nonnegative integer")
    return rho0 * np.exp2(-np.arange(depth + 1, dtype=float))


def _ladder_radii(ladder):
    """A ladder's radii as a float array; ValueError unless a non-empty 1-D
    sequence of finite, positive radii."""
    rungs = np.asarray(ladder, dtype=float)
    if rungs.ndim != 1 or rungs.size == 0:
        raise ValueError("ladder must be a non-empty 1-D sequence of radii")
    if not np.all(np.isfinite(rungs) & (rungs > 0)):
        raise ValueError("ladder radii must be finite and positive")
    return rungs


def _lattice_directions(n):
    """Signed lattice steps: each unit axis step and, in the leading plane,
    the two diagonals, each followed by its negative."""
    half = [tuple(int(i == a) for i in range(n)) for a in range(n)]
    if n >= 2:
        half += [(1, 1) + (0,) * (n - 2), (1, -1) + (0,) * (n - 2)]
    return [d for hd in half for d in (hd, tuple(-x for x in hd))]


def _grid_point(x, dim, name):
    """x as a float vector; ValueError naming `name` unless it has `dim`
    coordinates, all finite."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != dim:
        raise ValueError("%s dimension mismatch" % name)
    if not np.all(np.isfinite(x)):
        raise ValueError("%s must be finite, got %s" % (name, x))
    return x


def _index_dtype(size):
    return np.int32 if size < 2 ** 31 else np.int64


# The largest rank box neighbour_table allocates, in cells per sample.  A
# lattice sample's box holds one to a few cells per sample (13 on the
# annulus 0.95 < r < 1 at h = 1/64); a scattered point set's can hold S^n,
# and is searched instead.
_BOX_CELLS_PER_SAMPLE = 16


def _rank_cells(points, resolution, offsets, depth):
    """(own, target, cells): each sample's cell in the rank box, the cell
    one offsets[k] away from it as target[:, k], and the box's cell count.

    Each axis keys its coordinates on the lattice and ranks the distinct
    keys; the box is C-ordered over the axes, one slab per rank and a last,
    padding slab.  A step of t <= depth to a key that no sample has lands
    in the padding slab, which no sample's own cell is in.
    """
    S, n = points.shape
    ranks, nears = [], []
    for a in range(n):
        column = points[:, a]
        keys = np.rint((column - column.min()) / resolution).astype(int)
        coords, rank = np.unique(keys, return_inverse=True)
        # near[r, depth + t]: the rank of coords[r] + t, else the padding slab
        want = coords[:, None] + np.arange(-depth, depth + 1)
        near = np.searchsorted(coords, want)
        near[coords[np.minimum(near, coords.shape[0] - 1)] != want] = coords.shape[0]
        ranks.append(rank)
        nears.append(near)
    sides = [near.shape[0] + 1 for near in nears]
    cells = math.prod(sides)
    cell_dtype = _index_dtype(cells)
    own = np.zeros(S, dtype=cell_dtype)
    target = np.zeros((S, offsets.shape[0]), dtype=cell_dtype)
    stride = 1
    for a in reversed(range(n)):
        own += ranks[a] * stride
        step = nears[a].astype(cell_dtype) * stride
        target += step[:, depth + offsets[:, a]].take(ranks[a], axis=0)
        stride *= sides[a]
    return own, target, cells


def neighbour_table(points, resolution, depth):
    """Lattice neighbours by index: table[s, d, j] is the sample one lattice
    step of (j + 1) * dirs[d] away from sample s, or -1 where there is none,
    dirs = _lattice_directions(n) for points in R^n.

    Points sit on a lattice of side `resolution` anchored at their
    coordinate-wise minimum and are keyed by rounding.  A sample is
    addressed by the ranks of its keys among each axis's distinct keys, so
    the rank box (`_rank_cells`) stays small whatever the lattice extent.
    Every sample's index is written to its cell in index order
    (np.maximum.at), so where samples share a key the one listed last is
    found, and every (sample, direction, step) is read with one gather.  A
    box of more than _BOX_CELLS_PER_SAMPLE cells per sample, as off-lattice
    points give, is never allocated: the same cells are then found with one
    sorted search over the samples' own cells.
    """
    points = np.asarray(points, dtype=float)
    S, n = points.shape
    dirs = _lattice_directions(n)
    # the len(dirs) * depth lattice offsets, in table order
    offsets = (np.arange(1, depth + 1)[:, None] * np.asarray(dirs)[:, None, :]).reshape(-1, n)
    own, target, cells = _rank_cells(points, resolution, offsets, depth)
    node = np.arange(S, dtype=_index_dtype(S))
    if cells <= _BOX_CELLS_PER_SAMPLE * S:
        box = np.full(cells, -1, dtype=node.dtype)
        np.maximum.at(box, own, node)
        table = box[target]
    else:
        order = np.argsort(own, kind="stable")
        own_sorted = own[order]
        pos = np.searchsorted(own_sorted, target, side="right")
        pos -= 1
        np.maximum(pos, 0, out=pos)
        table = node[order].take(pos)
        table[own_sorted.take(pos) != target] = -1
    return table.reshape(S, len(dirs), depth)


def squared_distances(points, x):
    """Squared Euclidean distances between `points` and `x`, coordinates on
    the last axis, the other axes broadcast: from each row of an (S, n)
    array to one point x, or from (P, 1, n) to (1, T, n) for a table.

    Each coordinate column's squared differences are added in index order:
    below numpy's pairwise block of 8 coordinates these are the bytes of
    np.sum((points - x) ** 2, axis=-1), at about a third of its cost.
    """
    d2 = np.square(points[..., 0] - x[..., 0])
    for axis in range(1, points.shape[-1]):
        d2 += np.square(points[..., axis] - x[..., axis])
    return d2


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Midpoint-rule nodes: cell centers, weights h^n, and the cell side h.

    A grid's one memo keeps its balls and what fits compute from its nodes
    alone (see the module docstring).  Grids compare and hash by identity;
    compare their arrays with np.array_equal.
    """

    points: np.ndarray
    weights: np.ndarray
    resolution: float

    def __post_init__(self):
        pts = np.atleast_2d(np.array(self.points, dtype=float))
        wts = np.array(self.weights, dtype=float).ravel()
        if pts.shape[0] != wts.shape[0]:
            raise ValueError("points and weights disagree in length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("points and weights must be finite")
        if np.any(wts <= 0):
            raise ValueError("weights must be positive")
        if not (np.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError("resolution must be positive and finite, got %r"
                             % (self.resolution,))
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "_memo", {})

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def total_weight(self):
        return float(self.weights.sum())

    def cached(self, key, build):
        """build(), computed on the first call with `key` and kept in this
        grid's memo.  For geometry that depends on the grid alone, never on
        sampled values; build returns read-only arrays, or tuples of them,
        and no grid."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def restrict(self, center, radius):
        """(sub-grid, idx): the nodes within `radius` of `center`, idx their
        read-only indices here.  The sub-grid reads the memo of its ball.

        The radius must exceed two grid cells, else BelowResolutionError: a
        handful of nodes is not a meaningful quadrature of a ball.  A center
        that is not a finite point of the grid's dimension, or a NaN radius,
        is refused with ValueError, and a ball with no node with
        EmptyIntersectionError.

        A ball's indices, points and weights are gathered once, read-only,
        from this grid's validated arrays, and the sub-grid is built on them
        with no copy and no second check.  This grid keeps the ball, those
        arrays and its memo while the node counts of its kept balls sum to
        at most twice its size; a ball past that is computed and dropped, as
        the first one is.
        """
        center = _grid_point(center, self.dim, "center")
        radius = float(radius)
        if math.isnan(radius):
            raise ValueError("radius must not be NaN")
        if radius <= 2.0 * self.resolution:
            raise BelowResolutionError(
                "restriction radius %g below resolution (h = %g)"
                % (radius, self.resolution)
            )
        balls = self._memo.setdefault("balls", {})
        key = (center.tobytes(), radius)
        ball = balls.get(key)
        if ball is None:
            idx = np.nonzero(squared_distances(self.points, center) <= radius * radius)[0]
            if idx.size == 0:
                raise EmptyIntersectionError("empty intersection")
            ball = (idx, self.points[idx], self.weights[idx], {})
            for array in ball[:3]:
                array.setflags(write=False)
            kept = sum(other[0].size for other in balls.values())
            if kept + idx.size <= 2 * self.size:
                balls[key] = ball
        idx, points, weights, memo = ball
        sub = object.__new__(QuadratureGrid)
        for name, value in (("points", points), ("weights", weights),
                            ("resolution", self.resolution), ("_memo", memo)):
            object.__setattr__(sub, name, value)
        return sub, idx


@dataclass(frozen=True)
class Domain:
    """Open domain of one of four kinds: ball, half_ball, annulus, box.

    A half ball keeps the side where the first coordinate exceeds the
    center's; a box is a cube of the given half width.
    """

    kind: str
    n: int
    center: np.ndarray = field(default=None)
    radius: float = 0.0
    inner_radius: float = 0.0
    half_width: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise DegenerateDomainError("degenerate domain: dimension < 1")
        c = self.center
        c = np.zeros(self.n) if c is None else np.asarray(c, dtype=float).ravel()
        if c.shape[0] != self.n:
            raise DegenerateDomainError("degenerate domain: bad center")
        if not (np.all(np.isfinite(c)) and all(
                math.isfinite(v) for v in (self.radius, self.inner_radius, self.half_width))):
            raise DegenerateDomainError("degenerate domain: non-finite geometry")
        object.__setattr__(self, "center", c)
        if self.kind in ("ball", "half_ball"):
            if self.radius <= 0:
                raise DegenerateDomainError("degenerate domain: radius <= 0")
        elif self.kind == "annulus":
            if not 0 < self.inner_radius < self.radius:
                raise DegenerateDomainError("degenerate domain: bad annulus radii")
        elif self.kind == "box":
            if self.half_width <= 0:
                raise DegenerateDomainError("degenerate domain: half width <= 0")
        else:
            raise DegenerateDomainError("degenerate domain: unknown kind %r" % self.kind)

    @classmethod
    def ball(cls, n, radius, center=None):
        return cls("ball", n, center, radius=float(radius))

    @classmethod
    def half_ball(cls, n, radius, center=None):
        return cls("half_ball", n, center, radius=float(radius))

    @classmethod
    def annulus(cls, n, inner_radius, outer_radius, center=None):
        return cls(
            "annulus", n, center, radius=float(outer_radius),
            inner_radius=float(inner_radius),
        )

    @classmethod
    def box(cls, n, half_width, center=None):
        return cls("box", n, center, half_width=float(half_width))

    @property
    def extent(self):
        """Half-width of the coordinate bounding box around the center."""
        return self.half_width if self.kind == "box" else self.radius

    def contains(self, points):
        """Boolean mask of strict interior membership."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "box":
            return np.all(np.abs(pts - self.center) < self.half_width, axis=1)
        r2 = squared_distances(pts, self.center)
        if self.kind == "ball":
            return r2 < self.radius ** 2
        if self.kind == "half_ball":
            return (r2 < self.radius ** 2) & (pts[:, 0] > self.center[0])
        return (r2 < self.radius ** 2) & (r2 > self.inner_radius ** 2)

    def sample(self, resolution):
        """Uniform cell grid over the bounding box, keeping interior centers."""
        h = float(resolution)
        if not (math.isfinite(h) and h > 0):
            raise ValueError("resolution must be positive and finite, got %r" % h)
        R = self.extent
        if h > R:
            raise BelowResolutionError(
                "resolution %g too coarse for extent %g" % (h, R)
            )
        cells = int(math.ceil(2.0 * R / h - 1e-12))
        axis = -R + (np.arange(cells) + 0.5) * h
        grids = np.meshgrid(*([axis] * self.n), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1) + self.center
        mask = self.contains(pts)
        if not np.any(mask):
            raise DegenerateDomainError("degenerate domain: no interior cells")
        pts = pts[mask]
        wts = np.full(pts.shape[0], h ** self.n)
        return QuadratureGrid(pts, wts, h)
