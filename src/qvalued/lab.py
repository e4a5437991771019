"""Closed-form multi-valued harmonic test functions and their diagnostics.

The first half of this module is a small library of Q-valued functions on the
plane with exact values and Jacobians: branch powers of z, tuples of linear
maps, degree-one homogeneous fields, and a two-valued wall pair whose trace
vanishes on {x1 = 0} so it can be oddly reflected.  The second half
measures such functions: frequency functions, symmetric-part decay
(analytic functions only), discrete branch sets, radial-derivative bounds
of Hardt-Simon type at a wall point (analytic functions only), and a
discrete harmonicity audit.

Quadrature throughout is polar: Gauss-Legendre in the radius (optionally
sqrt-stretched, which turns an r^(-1/2) endpoint singularity back into a
polynomial) times a uniform midpoint rule in the angle.  Quadrature sizes,
tolerances and floors are the module constants below, not arguments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ReflectionTraceError
from .geometry import _grid_point, _ladder_radii, neighbour_table, squared_distances
from .points import SampledQFunction, branch_gaps, match_batch

__all__ = [
    "AnalyticQFunction",
    "BranchPower",
    "LinearTuple",
    "HomogeneousProfile",
    "WallPair",
    "OddReflection",
    "odd_reflection",
    "average_symmetric_split",
    "branch_set_detect",
    "BranchSetReport",
    "good_decay_check",
    "GoodDecayReport",
    "frequency_function",
    "FrequencyReport",
    "hardt_simon_check",
    "RadialDerivativeReport",
    "laplacian_defect",
    "harmonicity_order",
    "HarmonicAudit",
    "disk_rule",
    "circle_rule",
]

_HALF = (-0.5 * math.pi, 0.5 * math.pi)
_CIRCLE_NT = 1024  # circle_rule nodes
_JACOBIAN_STEP = 1e-6  # central-difference step of the fallback Jacobians
_TRACE_TOL = 1e-8  # largest wall value odd_reflection accepts as zero trace
_DECAY_TOL = 0.05  # good_decay_check: ratios above 1 + this are violations
_DECAY_FLOOR_REL = 1e-12  # good_decay_check: vacuous below this share of the mass
_FREQUENCY_FLOOR = 1e-13  # frequency_function: relative floor of the denominator
_RADIAL_NR, _RADIAL_NT = 64, 128  # hardt_simon_check: disk rule sizes


# ---------------------------------------------------------------------------
# polar quadrature


def disk_rule(center, radius, nr=48, nt=256, phi=None, stretch=False):
    """Product rule on a disk sector: returns (points, weights, radii).

    `phi` is the angular interval (full circle by default, where the midpoint
    rule coincides with the periodic trapezoid rule).  `stretch` substitutes
    r = R u^2, exact for integrands with an r^(-1/2) radial singularity.
    """
    center = np.asarray(center, dtype=float).ravel()
    if radius <= 0:
        raise ValueError("disk rule needs a positive radius")
    lo, hi = phi if phi is not None else (0.0, 2.0 * math.pi)
    x, w = np.polynomial.legendre.leggauss(int(nr))
    if stretch:
        u = 0.5 * (x + 1.0)
        r = radius * u * u
        dr = radius * u * w  # includes the Jacobian 2u and the GL half-width
    else:
        r = 0.5 * radius * (x + 1.0)
        dr = 0.5 * radius * w
    theta = lo + (np.arange(int(nt)) + 0.5) * (hi - lo) / int(nt)
    wt = (hi - lo) / int(nt)
    rr = np.repeat(r, int(nt))
    tt = np.tile(theta, int(nr))
    pts = center[None, :] + np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=1)
    weights = np.repeat(r * dr, int(nt)) * wt  # area element r dr dtheta
    return pts, weights, rr


def circle_rule(center, radius):
    """Uniform nodes on a circle with arc-length weights."""
    center = np.asarray(center, dtype=float).ravel()
    theta = np.arange(_CIRCLE_NT) * 2.0 * math.pi / _CIRCLE_NT
    pts = center[None, :] + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    w = np.full(_CIRCLE_NT, 2.0 * math.pi * radius / _CIRCLE_NT)
    return pts, w


def _squared_values(vals):
    return np.sum(vals * vals, axis=(1, 2))


def _central_differences(fn, pts, n):
    """Central differences of fn along each of the n axes, stacked last."""
    cols = []
    for e in np.eye(n) * _JACOBIAN_STEP:
        plus = np.asarray(fn(pts + e), dtype=float)
        minus = np.asarray(fn(pts - e), dtype=float)
        cols.append((plus - minus) / (2.0 * _JACOBIAN_STEP))
    return np.stack(cols, axis=-1)


def _mass(f, center, radius):
    pts, w, _ = disk_rule(center, radius)
    return float(np.sum(w * _squared_values(f.eval(pts))))


# analytic Q-valued functions


class AnalyticQFunction:
    """Q-valued function with exact values and, where possible, Jacobians.

    `eval` maps (S, n) sample points to a (S, Q, m) value block whose branch
    order is locally continuous; subclasses without a closed-form Jacobian
    inherit a central-difference fallback that relies on that continuity.
    """

    n = 2
    q = 1
    m = 1

    def eval(self, points):
        raise NotImplementedError

    def jacobian(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _central_differences(self.eval, pts, self.n)


class BranchPower(AnalyticQFunction):
    """The Q-branch power multiset r^(p/Q) (cos, sin)((p/Q)(theta + 2 pi s)).

    Harmonic away from the origin; when p is not a multiple of Q the origin
    is its single branch point.  m = 1 keeps the cosine component only.
    """

    def __init__(self, q, p, m=2):
        if q < 1 or p < 1:
            raise ValueError("branch power needs q >= 1 and p >= 1")
        if m not in (1, 2):
            raise ValueError("planar branch powers have m = 1 or m = 2")
        self.q = int(q)
        self.p = int(p)
        self.m = int(m)
        self.n = 2
        self.alpha = float(p) / float(q)

    def _polar(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])

    def eval(self, points):
        r, th = self._polar(points)
        s = np.arange(self.q)
        phi = self.alpha * (th[:, None] + 2.0 * math.pi * s[None, :])
        rad = r[:, None] ** self.alpha
        comps = [rad * np.cos(phi)]
        if self.m == 2:
            comps.append(rad * np.sin(phi))
        return np.stack(comps, axis=2)

    def jacobian(self, points):
        r, th = self._polar(points)
        with np.errstate(divide="ignore", invalid="ignore"):
            rad = np.where(r > 0.0, r ** (self.alpha - 1.0), 0.0)
        s = np.arange(self.q)
        psi = self.alpha * (th[:, None] + 2.0 * math.pi * s[None, :]) - th[:, None]
        base = self.alpha * rad[:, None]
        out = np.empty((r.shape[0], self.q, self.m, 2))
        out[:, :, 0, 0] = base * np.cos(psi)
        out[:, :, 0, 1] = -base * np.sin(psi)
        if self.m == 2:
            out[:, :, 1, 0] = base * np.sin(psi)
            out[:, :, 1, 1] = base * np.cos(psi)
        return out


class LinearTuple(AnalyticQFunction):
    """Tuple of linear maps x -> A_j x, one (m, n) slope matrix per branch."""

    def __init__(self, slopes):
        arr = np.asarray(slopes, dtype=float)
        if arr.ndim != 3:
            raise ValueError("slopes must have shape (Q, m, n)")
        self.slopes = arr
        self.q, self.m, self.n = arr.shape

    @classmethod
    def wall(cls, coeffs):
        """The planar wall form sum_j [[a_j x^1]] of scalar slopes a_j, which
        sum to zero."""
        a = np.asarray(coeffs, dtype=float).ravel()
        if abs(a.sum()) > 1e-12:
            raise ValueError("wall slopes must sum to zero")
        slopes = np.zeros((a.shape[0], 1, 2))
        slopes[:, 0, 0] = a
        return cls(slopes)

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum("qmn,sn->sqm", self.slopes, pts)

    def jacobian(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.broadcast_to(
            self.slopes[None], (pts.shape[0],) + self.slopes.shape
        ).copy()


class HomogeneousProfile(AnalyticQFunction):
    """Degree-one homogeneous field |x| g(x/|x|) on the plane from a circle
    profile g.

    The profile maps (S, 2) unit vectors to (S, Q, m) values; the Jacobian
    falls back to central differences.
    """

    def __init__(self, profile, q, m):
        self.profile = profile
        self.q = int(q)
        self.m = int(m)

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        safe = np.where(r > 0.0, r, 1.0)
        g = np.asarray(self.profile(pts / safe[:, None]), dtype=float)
        return np.where(r[:, None, None] > 0.0, r[:, None, None] * g, 0.0)


class WallPair(AnalyticQFunction):
    """Two-valued pair {+Re w, -Re w} with w = (z^2 - d^2)^(3/2).

    Harmonic on the plane as a multiset, with branch points at (+-d, 0) and a
    trace on the wall {x1 = 0} that vanishes identically (z^2 - d^2 is a
    negative real there, so w is purely imaginary).  Restricted to the right
    half disk it is the natural zero-trace companion for reflection tests:
    one interior branch point at (d, 0).  m = 2 appends the imaginary part,
    which does not vanish on the wall.
    """

    def __init__(self, d=0.5, m=1):
        if d <= 0:
            raise ValueError("wall pair offset d must be positive")
        if m not in (1, 2):
            raise ValueError("wall pair has m = 1 or m = 2")
        self.d = float(d)
        self.q = 2
        self.m = int(m)
        self.n = 2

    def _w(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        z = pts[:, 0] + 1j * pts[:, 1]
        zeta = z * z - self.d * self.d
        return np.power(zeta, 1.5), 3.0 * z * np.sqrt(zeta)

    def eval(self, points):
        w, _ = self._w(points)
        out = np.empty((w.shape[0], 2, self.m))
        out[:, 0, 0] = w.real
        out[:, 1, 0] = -w.real
        if self.m == 2:
            out[:, 0, 1] = w.imag
            out[:, 1, 1] = -w.imag
        return out

    def jacobian(self, points):
        _, wp = self._w(points)
        out = np.empty((wp.shape[0], 2, self.m, 2))
        out[:, 0, 0, 0] = wp.real
        out[:, 0, 0, 1] = -wp.imag
        if self.m == 2:
            out[:, 0, 1, 0] = wp.imag
            out[:, 0, 1, 1] = wp.real
        out[:, 1] = -out[:, 0]
        return out


class OddReflection(AnalyticQFunction):
    """F = f on {x1 >= 0} and F(x) = -f(-x1, x2, ...) on {x1 < 0}.

    Construction checks that the source trace vanishes, to _TRACE_TOL, at the
    origin (n = 1) or at 18 wall points with x2 in [-0.85, 0.85]; a clean
    odd extension does not exist otherwise.
    """

    def __init__(self, source):
        self.source = source
        self.q, self.m, self.n = source.q, source.m, source.n
        trace_points = np.zeros((1 if self.n == 1 else 18, self.n))
        if self.n > 1:
            trace_points[:, 1] = np.linspace(-0.85, 0.85, 18)
        worst = float(np.sqrt(_squared_values(source.eval(trace_points)).max()))
        if worst > _TRACE_TOL:
            raise ReflectionTraceError(
                "reflection requires zero trace (wall deviation %.3g)" % worst
            )

    def _mirror(self, pts):
        out = pts.copy()
        out[:, 0] *= -1.0
        return out

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mask = pts[:, 0] >= 0.0
        out = np.empty((pts.shape[0], self.q, self.m))
        if mask.any():
            out[mask] = self.source.eval(pts[mask])
        if (~mask).any():
            out[~mask] = -self.source.eval(self._mirror(pts[~mask]))
        return out

    def jacobian(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mask = pts[:, 0] >= 0.0
        out = np.empty((pts.shape[0], self.q, self.m, self.n))
        if mask.any():
            out[mask] = self.source.jacobian(pts[mask])
        if (~mask).any():
            inner = self.source.jacobian(self._mirror(pts[~mask]))
            refl = -inner
            refl[:, :, :, 0] *= -1.0
            out[~mask] = refl
        return out


def odd_reflection(f):
    """Odd extension of a zero-trace half-space function across {x1 = 0}."""
    return OddReflection(f)


class _AverageOf(AnalyticQFunction):
    def __init__(self, source):
        self.source = source
        self.q = 1
        self.m, self.n = source.m, source.n

    def eval(self, points):
        return self.source.eval(points).mean(axis=1, keepdims=True)


class _SymmetricOf(AnalyticQFunction):
    def __init__(self, source):
        self.source = source
        self.q, self.m, self.n = source.q, source.m, source.n

    def eval(self, points):
        vals = self.source.eval(points)
        return vals - vals.mean(axis=1, keepdims=True)


def average_symmetric_split(u):
    """Split an analytic u into its branch average u_a and symmetric part
    u_s = u - u_a; the symmetric part keeps the branch count and its
    branches sum to zero pointwise.  Sampled data is refused with TypeError.
    """
    if isinstance(u, SampledQFunction):
        raise TypeError("average_symmetric_split needs an analytic function, not sampled data")
    return _AverageOf(u), _SymmetricOf(u)


# ---------------------------------------------------------------------------
# sampled-grid helpers


def _node_jacobians(u, indices=None):
    """Branch-matched first derivatives at grid nodes, shape (K, Q, m, n).

    Neighbors along each lattice axis are matched to the node's branches
    before differencing; a missing neighbor degrades to a one-sided
    difference, and an isolated node gets a zero column.
    """
    # columns 2d and 2d + 1: steps +e_d and -e_d
    table = neighbour_table(u.grid.points, u.grid.resolution, 1)
    idx = np.arange(u.size) if indices is None else np.asarray(indices, dtype=int)
    vals = u.values
    vc = vals[idx]

    def aligned(at):
        """Values at nodes `at`, branches reordered to best match vc."""
        near = vals[at]
        labels, _ = match_batch(near, vc)
        return np.take_along_axis(near, labels[:, :, None], axis=1)

    out = np.zeros((idx.shape[0], u.q, u.m, u.n))
    for d in range(u.n):
        plus = table[idx, 2 * d, 0]
        minus = table[idx, 2 * d + 1, 0]
        ip = np.where(plus >= 0, plus, idx)
        im = np.where(minus >= 0, minus, idx)
        vp = aligned(ip)
        vm = aligned(im)
        span = u.grid.points[ip, d] - u.grid.points[im, d]
        ok = span > 0.0
        col = np.zeros_like(vc)
        col[ok] = (vp[ok] - vm[ok]) / span[ok, None, None]
        out[:, :, :, d] = col
    return out


@dataclass(frozen=True)
class BranchSetReport:
    points: np.ndarray
    indices: np.ndarray
    gaps: np.ndarray


def branch_set_detect(u, tol):
    """Discrete branch set: nodes whose closest branch pair is within tol in
    value and matched first derivative combined.

    Value-only coincidence is not enough (crossing sheets decompose); the
    derivative term is what separates a genuine branch point from a
    transversal crossing.  u is sampled; an analytic function is refused
    with TypeError.
    """
    if not isinstance(u, SampledQFunction):
        raise TypeError("branch_set_detect needs sampled data, not an analytic function")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("branch tolerance must be positive and finite")
    vgap2 = branch_gaps(u.values)
    cand = np.nonzero(vgap2 < tol * tol)[0]
    total = vgap2[cand] + branch_gaps(_node_jacobians(u, cand))
    sel = total < tol * tol
    return BranchSetReport(u.grid.points[cand[sel]], cand[sel], np.sqrt(total[sel]))


# ---------------------------------------------------------------------------
# decay and frequency diagnostics


@dataclass(frozen=True)
class GoodDecayReport:
    pairs: tuple
    ratios: np.ndarray
    exponent: float
    vacuous: bool
    violations: tuple


def good_decay_check(u, x0, pairs):
    """Symmetric-part decay test at a putative branch point.

    For each pair (sigma, rho) with sigma <= rho, compares
    sigma^(-n) mass_s(sigma) against (sigma/rho)^(2(1+1/Q)) rho^(-n)
    mass_s(rho), where mass_s is the squared L2 mass of the symmetric part;
    ratios above 1 + _DECAY_TOL are violations.  Pairs with both masses
    below _DECAY_FLOOR_REL times the full mass at rho are vacuous; a report
    whose pairs are all vacuous counts as a pass.  u is analytic and the
    masses come from the polar disk rule; sampled data is refused with
    TypeError.  A center that is not a finite point of the plane, or a
    pair that is not finite with 0 < sigma <= rho, is refused with
    ValueError.
    """
    if isinstance(u, SampledQFunction):
        raise TypeError("good_decay_check needs an analytic function, not sampled data")
    pairs = [(float(s), float(r)) for s, r in pairs]
    if not pairs:
        raise ValueError("no admissible scale pairs")
    for s, r in pairs:
        if not (0.0 < s <= r and math.isfinite(r)):
            raise ValueError("scale pairs need finite 0 < sigma <= rho")
    x0 = _grid_point(x0, u.n, "x0")
    _, us = average_symmetric_split(u)
    n = u.n
    exponent = 2.0 * (1.0 + 1.0 / u.q)
    ratios = np.empty(len(pairs))
    vac = np.zeros(len(pairs), dtype=bool)
    for i, (s, r) in enumerate(pairs):
        ms, mr = _mass(us, x0, s), _mass(us, x0, r)
        floor = _DECAY_FLOOR_REL * (_mass(u, x0, r) + 1e-300)
        if ms <= floor and mr <= floor:
            ratios[i] = np.nan
            vac[i] = True
            continue
        rhs = (s / r) ** exponent * r ** (-n) * mr
        ratios[i] = (s ** (-n) * ms) / max(rhs, 1e-300)
    violations = tuple(
        (pairs[i][0], pairs[i][1], float(ratios[i]))
        for i in range(len(pairs))
        if not vac[i] and ratios[i] > 1.0 + _DECAY_TOL
    )
    return GoodDecayReport(tuple(pairs), ratios, exponent, bool(vac.all()), violations)


@dataclass(frozen=True)
class FrequencyReport:
    radii: np.ndarray
    values: np.ndarray
    skipped: tuple


def frequency_function(u, x0, ladder):
    """Frequency N(rho) = rho * Dirichlet(B_rho) / boundary L2 mass at x0.

    Planar only; the boundary integral is a trapezoid rule on the circle.
    Rungs whose denominator sits at rounding level (_FREQUENCY_FLOOR) are
    skipped and reported.  A center that is not a finite point of the
    plane, an empty ladder, or a radius that is not finite and positive,
    is refused with ValueError.
    """
    radii = _ladder_radii(ladder)
    if u.n != 2:
        raise ValueError("frequency function is implemented for the plane only")
    x0 = _grid_point(x0, u.n, "x0")
    if isinstance(u, SampledQFunction):
        jac = _node_jacobians(u)
        dens = np.sum(jac * jac, axis=(1, 2, 3))
        sq = np.sum(u.values ** 2, axis=(1, 2))
        rads = np.sqrt(squared_distances(u.grid.points, x0))
        h = u.grid.resolution

        def integrals(rho):  # Dirichlet energy, then the shell's mass / h
            inside = rads < rho
            shell = np.abs(rads - rho) <= 0.5 * h
            return (float(np.sum(u.grid.weights[inside] * dens[inside])),
                    float(np.sum(u.grid.weights[shell] * sq[shell])) / h)
    else:
        def integrals(rho):  # Dirichlet energy, then the circle's mass
            pts, w, _ = disk_rule(x0, rho)
            jac = u.jacobian(pts)
            dirich = float(np.sum(w * np.sum(jac * jac, axis=(1, 2, 3))))
            cpts, cw = circle_rule(x0, rho)
            return dirich, float(np.sum(cw * _squared_values(u.eval(cpts))))
    values = np.full(radii.shape[0], np.nan)
    skipped = []
    for i, rho in enumerate(radii):
        dirich, bdry = integrals(rho)
        if bdry <= _FREQUENCY_FLOOR * max(1.0, rho * dirich):
            skipped.append(float(rho))
            continue
        values[i] = rho * dirich / bdry
    return FrequencyReport(radii, values, tuple(skipped))


# ---------------------------------------------------------------------------
# radial-derivative bounds at the wall


def _require_wall_point(z):
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != 2 or abs(z[0]) > 1e-9:
        raise ValueError("expected a planar point on the wall {x1 = 0}")
    if not np.all(np.isfinite(z)):
        raise ValueError("wall point must be finite, got %s" % z)
    return z


def _check_kernel_range(z, rho):
    z = _require_wall_point(z)
    bound = 0.375 * (1.0 - np.linalg.norm(z))
    if not 0.0 < rho <= bound + 1e-12:
        raise ValueError("rho outside (0, (3/8)(1 - |z|)]")
    return z


@dataclass(frozen=True)
class RadialDerivativeReport:
    lhs: float
    rhs: float
    ratio: float


def _radial_lhs_analytic(v, z, rho):
    pts, w, r = disk_rule(z, 0.5 * rho, _RADIAL_NR, _RADIAL_NT, _HALF, stretch=True)
    vals = v.eval(pts)
    jac = v.jacobian(pts)
    va = v.eval(z[None, :])[0].mean(axis=0)
    rel = pts - z[None, :]
    pred = np.einsum("sqmn,sn->sqm", jac, rel)
    f = vals - va[None, None, :]
    dev = np.sum((pred - f) ** 2, axis=(1, 2))
    return float(np.sum(w * dev * r ** (-4.0)))


def _radial_rhs_analytic(v, z, rho):
    pts, w, _ = disk_rule(z, rho, _RADIAL_NR, _RADIAL_NT, _HALF)
    vals = v.eval(pts)
    va = v.eval(z[None, :])[0].mean(axis=0)
    dva = v.jacobian(z[None, :])[0].mean(axis=0)
    ell = va[None, :] + (pts - z[None, :]) @ dva.T
    diff = vals - ell[:, None, :]
    return float(np.sum(w * np.sum(diff * diff, axis=(1, 2))))


def hardt_simon_check(v, z, rho):
    """Radial-derivative bound for one function v at a wall point z.

    LHS integrates R^(2-n) |d/dR ((v - v_a(z))/R)|^2 over the half-radius
    half disk, RHS is rho^(-n-2) times the squared distance to the
    average-jet affine map at scale rho.  v is analytic: both sides use
    its exact values and Jacobians, by the chain rule.  Sampled data is
    refused with TypeError.
    """
    if isinstance(v, SampledQFunction):
        raise TypeError("hardt_simon_check needs an analytic function, not sampled data")
    z = _check_kernel_range(z, rho)
    lhs = _radial_lhs_analytic(v, z, rho)
    rhs = rho ** (-4.0) * _radial_rhs_analytic(v, z, rho)
    ratio = lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else math.inf)
    return RadialDerivativeReport(lhs, rhs, ratio)


# ---------------------------------------------------------------------------
# discrete harmonicity audit


@dataclass(frozen=True)
class HarmonicAudit:
    step: float
    defects: np.ndarray
    max_defect: float


def _matched_second_difference(vc, vm, vp):
    """Per-sample second difference minimizing over branch pairings.

    Chooses, for each sample, the pair of permutations (sigma, tau) applied
    to the two neighbors that minimizes the summed squared second
    difference vm[sigma] - 2 vc + vp[tau]; this is the discrete analog of
    following each locally smooth sheet.  For each sigma, in lexicographic
    order, match_batch pairs vp with 2 vc - vm[sigma], whose matching cost
    is that sum minimized over tau; a sigma replaces the kept one only where
    it is strictly cheaper, and match_batch's tie rule keeps the first tau,
    so an exact tie goes to the lexicographically first (sigma, tau).
    """
    best = np.full(vc.shape[0], np.inf)
    out = np.empty(vc.shape)
    for sigma in itertools.permutations(range(vc.shape[1])):
        sm = vm[:, list(sigma)]
        labels, cost = match_batch(vp, 2.0 * vc - sm)
        take = cost < best
        best[take] = cost[take]
        sp = np.take_along_axis(vp[take], labels[take, :, None], axis=1)
        out[take] = sm[take] - 2.0 * vc[take] + sp
    return out


def laplacian_defect(f, points, step):
    """Discrete Laplacian defect |sum_d matched second differences| / h^2.

    Exactly harmonic multisets with locally smooth sheets come out at
    O(h^2); the audit is the library's harmonicity certificate.  A step
    that is not finite and positive is refused with ValueError.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and positive, got %r" % step)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vc = f.eval(pts)
    lap = np.zeros_like(vc)
    for d in range(f.n):
        e = np.zeros(f.n)
        e[d] = step
        lap += _matched_second_difference(vc, f.eval(pts - e), f.eval(pts + e))
    defects = np.sqrt(np.sum(lap * lap, axis=(1, 2))) / (step * step)
    return HarmonicAudit(step, defects, float(defects.max()) if defects.size else 0.0)


def harmonicity_order(f, points, step):
    """Convergence order of the Laplacian defect under step halving."""
    coarse = laplacian_defect(f, points, step)
    fine = laplacian_defect(f, points, 0.5 * step)
    if fine.max_defect <= 0.0:
        return math.inf, coarse, fine
    return math.log2(coarse.max_defect / fine.max_defect), coarse, fine
