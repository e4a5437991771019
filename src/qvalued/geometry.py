"""Bounded domains, midpoint quadrature grids, and measure-density estimates.

Domains are open subsets of R^n supporting membership tests, closed-form
diameters, and uniform cell sampling.  A grid keeps every axis-aligned cell
whose center lies inside the domain and assigns it the full cell weight h^n,
so integrals are plain weighted sums over cell centers.
"""

from __future__ import annotations

import math
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
    "unit_ball_volume",
    "a_weighted_constant",
    "AWeightedEstimate",
]


def unit_ball_volume(n):
    """Lebesgue measure of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def dyadic_ladder(rho0, depth):
    """Radii rho0 * 2^-j for j = 0..depth, largest first."""
    if rho0 <= 0:
        raise ValueError("ladder base radius must be positive")
    if depth < 0:
        raise ValueError("ladder depth must be nonnegative")
    return rho0 * np.exp2(-np.arange(depth + 1, dtype=float))


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
    table = np.full((S, len(dirs), depth), -1,
                    dtype=np.int32 if S < 2 ** 31 else np.int64)
    for di, d in enumerate(dirs):
        for j in range(depth):
            target = linear(keys + (j + 1) * np.asarray(d))
            pos = np.maximum(np.searchsorted(own_sorted, target, side="right") - 1, 0)
            hit = (target >= 0) & (own_sorted[pos] == target)
            table[hit, di, j] = order[pos[hit]]
    return table


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint-rule nodes: cell centers, weights h^n, and the cell side h."""

    points: np.ndarray
    weights: np.ndarray
    resolution: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        wts = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != wts.shape[0]:
            raise ValueError("points and weights disagree in length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("points and weights must be finite")
        if np.any(wts <= 0):
            raise ValueError("weights must be positive")
        if not (np.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError("resolution must be positive and finite, got %r"
                             % (self.resolution,))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def total_weight(self):
        return float(self.weights.sum())

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
        d2 = np.sum((self.points - center) ** 2, axis=1)
        idx = np.nonzero(d2 <= radius * radius)[0]
        if idx.size == 0:
            raise EmptyIntersectionError("empty intersection")
        return idx

    def restrict(self, center, radius):
        idx = self.restrict_indices(center, radius)
        return (
            QuadratureGrid(self.points[idx], self.weights[idx], self.resolution),
            idx,
        )


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

    def diameter(self):
        if self.kind in ("ball", "half_ball", "annulus"):
            # A half ball of radius r still spans 2r across the flat face.
            return 2.0 * self.radius
        return 2.0 * self.half_width * math.sqrt(self.n)

    def is_convex(self):
        return self.kind != "annulus"

    def volume(self):
        if self.kind == "ball":
            return unit_ball_volume(self.n) * self.radius ** self.n
        if self.kind == "half_ball":
            return unit_ball_volume(self.n) * self.radius ** self.n / 2.0
        if self.kind == "annulus":
            return unit_ball_volume(self.n) * (
                self.radius ** self.n - self.inner_radius ** self.n
            )
        return (2.0 * self.half_width) ** self.n

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

    def boundary_points(self, count=64):
        """Deterministic sample of the topological boundary of the closure.

        Dense parametric sampling in the plane; coarse direction sets in
        higher dimensions (axes and diagonals), which is all the density
        estimate needs.
        """
        c = self.center
        if self.n == 1:
            if self.kind == "box":
                ends = [c[0] - self.half_width, c[0] + self.half_width]
            elif self.kind == "annulus":
                ends = [c[0] - self.radius, c[0] - self.inner_radius,
                        c[0] + self.inner_radius, c[0] + self.radius]
            elif self.kind == "half_ball":
                ends = [c[0], c[0] + self.radius]
            else:
                ends = [c[0] - self.radius, c[0] + self.radius]
            return np.asarray(ends, dtype=float).reshape(-1, 1)
        if self.n == 2:
            theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
            circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            if self.kind == "ball":
                return c + self.radius * circle
            if self.kind == "annulus":
                return np.concatenate(
                    [c + self.radius * circle, c + self.inner_radius * circle]
                )
            if self.kind == "half_ball":
                phi = np.linspace(-math.pi / 2, math.pi / 2, count // 2)
                arc = c + self.radius * np.stack([np.cos(phi), np.sin(phi)], axis=1)
                t = np.linspace(-self.radius, self.radius, count // 2)
                wall = np.stack([np.full_like(t, c[0]), c[1] + t], axis=1)
                return np.concatenate([arc, wall])
            # box: walk the four edges
            t = np.linspace(-self.half_width, self.half_width, count // 4)
            w = self.half_width
            edges = [
                np.stack([t, np.full_like(t, -w)], axis=1),
                np.stack([t, np.full_like(t, w)], axis=1),
                np.stack([np.full_like(t, -w), t], axis=1),
                np.stack([np.full_like(t, w), t], axis=1),
            ]
            return c + np.concatenate(edges)
        dirs = []
        eye = np.eye(self.n)
        for i in range(self.n):
            dirs.extend([eye[i], -eye[i]])
        for signs in np.ndindex(*([2] * self.n)):
            v = np.where(np.asarray(signs) > 0, 1.0, -1.0) / math.sqrt(self.n)
            dirs.append(v)
        dirs = np.asarray(dirs)
        if self.kind == "box":
            return c + self.half_width * np.sign(dirs) * (np.abs(dirs) > 1e-12)
        out = [c + self.radius * dirs]
        if self.kind == "annulus":
            out.append(c + self.inner_radius * dirs)
        if self.kind == "half_ball":
            keep = dirs[:, 0] >= 0
            out = [c + self.radius * dirs[keep]]
            wall = dirs.copy()
            wall[:, 0] = 0.0
            norms = np.linalg.norm(wall, axis=1)
            wall = wall[norms > 1e-12] / norms[norms > 1e-12, None]
            out.append(c + self.radius * wall)
            out.append(c[None, :])
        return np.concatenate(out)


@dataclass(frozen=True)
class AWeightedEstimate:
    """Estimated lower density ratio inf |Omega ∩ B_rho(x)| / rho^n."""

    value: float
    worst_center: np.ndarray
    worst_radius: float
    radii: np.ndarray

    def constant(self):
        return self.value


def a_weighted_constant(domain, resolution, max_depth=10, interior_stride=None):
    """Estimate the measure-density constant of a domain.

    Sweeps dyadic radii from the diameter down (staying several cells above
    the grid step) and centers drawn from the closure: every sampled boundary
    point plus a strided subset of interior grid centers.  Returns the
    smallest observed ratio |Omega ∩ B_rho(x)| / rho^n, an estimate only;
    quadrature error near the small-radius end is O(h/rho).
    """
    grid = domain.sample(resolution)
    h = grid.resolution
    diam = domain.diameter()
    radii = dyadic_ladder(diam, max_depth)
    radii = radii[radii >= 8.0 * h]
    if not radii.size:
        raise BelowResolutionError(
            "no usable radii: diameter %g vs resolution %g" % (diam, h)
        )

    centers = [domain.boundary_points()]
    if interior_stride is None:
        interior_stride = max(1, grid.size // 256)
    centers.append(grid.points[::interior_stride])
    centers = np.concatenate(centers)

    best = math.inf
    best_x = centers[0]
    best_rho = radii[0]
    for x in centers:
        d2 = np.sum((grid.points - x) ** 2, axis=1)
        for rho in radii:
            mass = grid.weights[d2 <= rho * rho].sum()
            ratio = mass / rho ** domain.n
            if ratio < best:
                best, best_x, best_rho = ratio, x, rho
    return AWeightedEstimate(float(best), np.asarray(best_x), float(best_rho), radii)
