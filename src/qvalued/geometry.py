"""Bounded domains, midpoint quadrature grids, and dyadic radius ladders.

Domains are open subsets of R^n supporting membership tests and uniform
cell sampling.  A grid keeps every axis-aligned cell whose center lies
inside the domain and assigns it the full cell weight h^n, so integrals are
plain weighted sums over cell centers.

A grid owns its sample lattice: the neighbour table over the signed
lattice directions, built once, lazily, on a grid that is no restriction
and deepened only when a deeper one is asked for.  A restriction keeps a
link to that grid and the indices of its nodes there, so its lattice is a
gather of the parent's rows.  Points and weights are read-only, so a
built lattice cannot go stale.
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


def _index_dtype(size):
    return np.int32 if size < 2 ** 31 else np.int64


def neighbour_table(points, resolution, dirs, depth):
    """Lattice neighbours by index: table[s, d, j] is the sample one lattice
    step of (j + 1) * dirs[d] away from sample s, or -1 where there is none.

    Points sit on a lattice of side `resolution` anchored at their
    coordinate-wise minimum and are keyed by rounding.  Keys are linearised
    over the per-axis ranks of the coordinates present (so the linear range
    stays small whatever the lattice extent) and found with one sorted
    search per offset.  Where samples share a key the one listed last is
    found.
    """
    points = np.asarray(points, dtype=float)
    keys = np.rint((points - points.min(axis=0)) / resolution).astype(int)
    S, n = keys.shape
    coords = [np.unique(keys[:, a]) for a in range(n)]
    dims = tuple(c.shape[0] for c in coords)

    def linear(lattice):
        """Linear key of each lattice point; -1 where a coordinate occurs in
        no sample."""
        present = np.ones(lattice.shape[0], dtype=bool)
        ranks = []
        for a in range(n):
            r = np.minimum(np.searchsorted(coords[a], lattice[:, a]), dims[a] - 1)
            present &= coords[a][r] == lattice[:, a]
            ranks.append(r)
        return np.where(present, np.ravel_multi_index(ranks, dims), -1)

    own = linear(keys)
    order = np.argsort(own, kind="stable")
    own_sorted = own[order]
    table = np.full((S, len(dirs), depth), -1, dtype=_index_dtype(S))
    for di, d in enumerate(dirs):
        for j in range(depth):
            target = linear(keys + (j + 1) * np.asarray(d))
            pos = np.maximum(np.searchsorted(own_sorted, target, side="right") - 1, 0)
            hit = (target >= 0) & (own_sorted[pos] == target)
            table[hit, di, j] = order[pos[hit]]
    return table


def squared_distances(points, x):
    """Squared Euclidean distances from each row of `points` to `x`.

    The squared coordinate differences are added column by column in index
    order: the bytes of np.sum((points - x) ** 2, axis=1), whose reduction
    over a short axis costs about three times as much.
    """
    d = points - x
    d *= d
    d2 = d[:, 0]
    for axis in range(1, d.shape[1]):
        d2 = d2 + d[:, axis]
    return d2


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Midpoint-rule nodes: cell centers, weights h^n, and the cell side h.

    `parent` and `parent_index` link a restriction to the grid its lattice
    is gathered from and to its nodes' indices there.  Grids compare and
    hash by identity; compare their arrays with np.array_equal.
    """

    points: np.ndarray
    weights: np.ndarray
    resolution: float
    parent: QuadratureGrid | None = field(default=None, repr=False)
    parent_index: np.ndarray | None = field(default=None, repr=False)

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
        if self.parent is not None:
            index = np.array(self.parent_index, dtype=np.intp)
            if index.shape != wts.shape:
                raise ValueError("a parent link needs one parent index per node")
            index.setflags(write=False)
            object.__setattr__(self, "parent_index", index)
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "_lattice", None)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def total_weight(self):
        return float(self.weights.sum())

    def lattice(self, depth):
        """neighbour_table(points, resolution, _lattice_directions(dim),
        depth), built once and kept.

        A grid that is no restriction builds the table, again only when a
        deeper one is asked for; a restriction gathers its rows from the
        parent's table, mapping parent indices to its own and keeping -1.
        """
        table = self._lattice
        if table is None or table.shape[2] < depth:
            if self.parent is None:
                table = neighbour_table(self.points, self.resolution,
                                        _lattice_directions(self.dim), depth)
            else:
                inv = np.full(self.parent.size + 1, -1, dtype=_index_dtype(self.size))
                inv[self.parent_index] = np.arange(self.size)
                table = inv[self.parent.lattice(depth)[self.parent_index]]
            object.__setattr__(self, "_lattice", table)
        return table[:, :, :depth]

    def restrict_indices(self, center, radius):
        """Indices of nodes within distance `radius` of `center`.

        The radius must exceed two grid cells; a handful of nodes is not a
        meaningful quadrature of a ball.
        """
        center = np.asarray(center, dtype=float).ravel()
        if center.shape[0] != self.dim:
            raise ValueError("center dimension mismatch")
        if radius <= 2.0 * self.resolution:
            raise BelowResolutionError(
                "restriction radius %g below resolution (h = %g)"
                % (radius, self.resolution)
            )
        d2 = squared_distances(self.points, center)
        idx = np.nonzero(d2 <= radius * radius)[0]
        if idx.size == 0:
            raise EmptyIntersectionError("empty intersection")
        return idx

    def restrict(self, center, radius):
        """(sub-grid, idx): the nodes within `radius` of `center`, idx their
        indices here.  The sub-grid links to this grid's own parent where it
        has one, so every restriction gathers from one table."""
        idx = self.restrict_indices(center, radius)
        if self.parent is None:
            parent, parent_index = self, idx
        else:
            parent, parent_index = self.parent, self.parent_index[idx]
        sub = QuadratureGrid(self.points[idx], self.weights[idx], self.resolution,
                             parent, parent_index)
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

    def is_convex(self):
        return self.kind != "annulus"

    def _bounding_radius(self):
        if self.kind == "box":
            return self.half_width
        return self.radius

    @property
    def extent(self):
        """Half-width of the coordinate bounding box around the center."""
        return self._bounding_radius()

    def contains(self, points):
        """Boolean mask of strict interior membership."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = pts - self.center
        if self.kind == "box":
            return np.all(np.abs(rel) < self.half_width, axis=1)
        r2 = np.sum(rel * rel, axis=1)
        if self.kind == "ball":
            return r2 < self.radius ** 2
        if self.kind == "half_ball":
            return (r2 < self.radius ** 2) & (rel[:, 0] > 0)
        return (r2 < self.radius ** 2) & (r2 > self.inner_radius ** 2)

    def sample(self, resolution):
        """Uniform cell grid over the bounding box, keeping interior centers."""
        h = float(resolution)
        if not (math.isfinite(h) and h > 0):
            raise ValueError("resolution must be positive and finite, got %r" % h)
        R = self._bounding_radius()
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
