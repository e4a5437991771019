"""Closed-form multi-valued harmonic test functions and their diagnostics.

The first half of this module is a small library of Q-valued functions on the
plane with exact values and Jacobians: branch powers of z, tuples of linear
maps, degree-one homogeneous fields, superpositions with a single-valued
harmonic, and a two-valued wall pair whose trace vanishes on {x1 = 0} so it
can be oddly reflected.  The second half measures such functions: frequency
functions, symmetric-part decay, discrete branch sets, singular boundary
kernels, radial-derivative bounds of Hardt-Simon type, homogeneity and
translation-invariance tests, linearity classification, and a discrete
harmonicity audit.

Quadrature throughout is polar: Gauss-Legendre in the radius (optionally
sqrt-stretched, which turns an r^(-1/2) endpoint singularity back into a
polynomial) times a uniform midpoint rule in the angle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HomogeneityError, ReflectionTraceError
from .geometry import Domain
from .points import (
    _CHUNK_ENTRIES,
    _ENUMERATION_LIMIT,
    AqPoint,
    SampledQFunction,
    _permutation_table,
    match_batch,
    optimal_assignment,
)
from .polyfit import FitConfig, best_fit

__all__ = [
    "AnalyticQFunction",
    "BranchPower",
    "LinearTuple",
    "HomogeneousProfile",
    "SumOf",
    "WallPair",
    "OddReflection",
    "PlanarExtension",
    "PulledBack",
    "Scaled",
    "odd_reflection",
    "average_symmetric_split",
    "make_function",
    "generator_library",
    "pairwise_separation",
    "SeparationReport",
    "BlowupCandidate",
    "rescale_blowup",
    "renormalize_blowup",
    "splitting_lower_bound",
    "SplittingReport",
    "branch_set_detect",
    "BranchSetReport",
    "good_decay_check",
    "GoodDecayReport",
    "frequency_function",
    "FrequencyReport",
    "boundary_estimate_check",
    "kernel_self_test",
    "KernelReport",
    "hardt_simon_check",
    "RadialDerivativeReport",
    "homogeneity_deviation",
    "translation_invariance_set",
    "InvarianceReport",
    "linearity_classify",
    "LinearityReport",
    "laplacian_defect",
    "harmonicity_order",
    "HarmonicAudit",
    "disk_rule",
    "circle_rule",
]

_HALF = (-0.5 * math.pi, 0.5 * math.pi)


# ---------------------------------------------------------------------------
# polar quadrature


def disk_rule(center, radius, nr=48, nt=256, phi=None, inner=0.0, stretch=False):
    """Product rule on a disk sector: returns (points, weights, radii).

    `phi` is the angular interval (full circle by default, where the midpoint
    rule coincides with the periodic trapezoid rule).  `inner > 0` gives an
    annulus.  `stretch` substitutes r = R u^2, exact for integrands with an
    r^(-1/2) radial singularity; it requires inner = 0.
    """
    center = np.asarray(center, dtype=float).ravel()
    if radius <= inner or radius <= 0:
        raise ValueError("disk rule needs 0 <= inner < radius")
    lo, hi = phi if phi is not None else (0.0, 2.0 * math.pi)
    x, w = np.polynomial.legendre.leggauss(int(nr))
    if stretch:
        if inner > 0:
            raise ValueError("sqrt stretch only applies to a full sector")
        u = 0.5 * (x + 1.0)
        r = radius * u * u
        dr = radius * u * w  # includes the Jacobian 2u and the GL half-width
    else:
        r = inner + 0.5 * (radius - inner) * (x + 1.0)
        dr = 0.5 * (radius - inner) * w
    theta = lo + (np.arange(int(nt)) + 0.5) * (hi - lo) / int(nt)
    wt = (hi - lo) / int(nt)
    rr = np.repeat(r, int(nt))
    tt = np.tile(theta, int(nr))
    pts = center[None, :] + np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=1)
    weights = np.repeat(r * dr, int(nt)) * wt  # area element r dr dtheta
    return pts, weights, rr


def circle_rule(center, radius, nt=1024):
    """Uniform nodes on a circle with arc-length weights."""
    center = np.asarray(center, dtype=float).ravel()
    theta = np.arange(int(nt)) * 2.0 * math.pi / int(nt)
    pts = center[None, :] + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    w = np.full(int(nt), 2.0 * math.pi * radius / int(nt))
    return pts, w


def _squared_values(vals):
    return np.sum(vals * vals, axis=(1, 2))


def _mass(f, center, radius, nr=48, nt=256, phi=None, inner=0.0):
    pts, w, _ = disk_rule(center, radius, nr=nr, nt=nt, phi=phi, inner=inner)
    return float(np.sum(w * _squared_values(f.eval(pts))))


def kernel_self_test(nr=96, nt=64):
    """Quadrature control for the singular boundary kernel.

    Integrates |x|^(2-n-3/2) over the half-radius disk in the plane and
    returns (value, closed_form); the closed form is 2 pi sqrt(2).
    """
    pts, w, r = disk_rule(np.zeros(2), 0.5, nr=nr, nt=nt, stretch=True)
    value = float(np.sum(w * r ** (2.0 - 3.5)))
    return value, 2.0 * math.pi * math.sqrt(2.0)


# ---------------------------------------------------------------------------
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

    def jacobian(self, points, step=1e-6):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cols = []
        for d in range(self.n):
            e = np.zeros(self.n)
            e[d] = step
            cols.append((self.eval(pts + e) - self.eval(pts - e)) / (2.0 * step))
        return np.stack(cols, axis=-1)

    def eval_point(self, x):
        return AqPoint(self.eval(np.asarray(x, dtype=float)[None, :])[0])

    def __call__(self, points):
        return self.eval(points)

    def translate(self, offset):
        return PulledBack(self, np.asarray(offset, dtype=float), 1.0)


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

    def jacobian(self, points, step=None):
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
    def wall(cls, coeffs, n=2, zero_sum=True):
        """The wall form sum_j [[a_j x^1]] of scalar slopes a_j."""
        a = np.asarray(coeffs, dtype=float).ravel()
        if zero_sum and abs(a.sum()) > 1e-12:
            raise ValueError("wall slopes must sum to zero")
        slopes = np.zeros((a.shape[0], 1, n))
        slopes[:, 0, 0] = a
        return cls(slopes)

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum("qmn,sn->sqm", self.slopes, pts)

    def jacobian(self, points, step=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.broadcast_to(
            self.slopes[None], (pts.shape[0],) + self.slopes.shape
        ).copy()


class HomogeneousProfile(AnalyticQFunction):
    """Degree-one homogeneous field |x| g(x/|x|) from a circle profile g.

    The profile maps (S, n) unit vectors to (S, Q, m) values; the Jacobian
    falls back to central differences.
    """

    def __init__(self, profile, q, m, n=2):
        self.profile = profile
        self.q = int(q)
        self.m = int(m)
        self.n = int(n)

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        safe = np.where(r > 0.0, r, 1.0)
        g = np.asarray(self.profile(pts / safe[:, None]), dtype=float)
        return np.where(r[:, None, None] > 0.0, r[:, None, None] * g, 0.0)


class SumOf(AnalyticQFunction):
    """base plus a single-valued field added to every branch.

    `single` maps (S, n) to (S, m); pass `single_jacobian` mapping (S, n) to
    (S, m, n) when a closed form exists, otherwise it is differenced.
    """

    def __init__(self, base, single, single_jacobian=None):
        self.base = base
        self.single = single
        self.single_jacobian = single_jacobian
        self.q, self.m, self.n = base.q, base.m, base.n

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        add = np.asarray(self.single(pts), dtype=float)
        if add.ndim == 1:
            add = add[:, None]
        return self.base.eval(pts) + add[:, None, :]

    def jacobian(self, points, step=1e-6):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.single_jacobian is not None:
            sj = np.asarray(self.single_jacobian(pts), dtype=float)
        else:
            cols = []
            for d in range(self.n):
                e = np.zeros(self.n)
                e[d] = step
                plus = np.asarray(self.single(pts + e), dtype=float)
                minus = np.asarray(self.single(pts - e), dtype=float)
                cols.append((plus - minus) / (2.0 * step))
            sj = np.stack(cols, axis=-1)
            if sj.ndim == 2:
                sj = sj[:, None, :]
        return self.base.jacobian(pts) + sj[:, None, :, :]


class WallPair(AnalyticQFunction):
    """Two-valued pair {+Re w, -Re w} with w = (z^2 - d^2)^(3/2).

    Harmonic on the plane as a multiset, with branch points at (+-d, 0) and a
    trace on the wall {x1 = 0} that vanishes identically (z^2 - d^2 is a
    negative real there, so w is purely imaginary).  Restricted to the right
    half disk it is the natural zero-trace companion for reflection tests:
    one interior branch point at (d, 0).  m = 2 appends the imaginary part,
    which does not vanish on the wall.
    """

    def __init__(self, d=0.5, amplitude=1.0, m=1):
        if d <= 0:
            raise ValueError("wall pair offset d must be positive")
        if m not in (1, 2):
            raise ValueError("wall pair has m = 1 or m = 2")
        self.d = float(d)
        self.amplitude = float(amplitude)
        self.q = 2
        self.m = int(m)
        self.n = 2

    def _w(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        z = pts[:, 0] + 1j * pts[:, 1]
        zeta = z * z - self.d * self.d
        return self.amplitude * np.power(zeta, 1.5), 3.0 * self.amplitude * z * np.sqrt(zeta)

    def eval(self, points):
        w, _ = self._w(points)
        out = np.empty((w.shape[0], 2, self.m))
        out[:, 0, 0] = w.real
        out[:, 1, 0] = -w.real
        if self.m == 2:
            out[:, 0, 1] = w.imag
            out[:, 1, 1] = -w.imag
        return out

    def jacobian(self, points, step=None):
        _, wp = self._w(points)
        out = np.empty((wp.shape[0], 2, self.m, 2))
        out[:, 0, 0, 0] = wp.real
        out[:, 0, 0, 1] = -wp.imag
        if self.m == 2:
            out[:, 0, 1, 0] = wp.imag
            out[:, 0, 1, 1] = wp.real
        out[:, 1] = -out[:, 0]
        return out


class PulledBack(AnalyticQFunction):
    """source(offset + ratio x), the affine pullback used by rescalings."""

    def __init__(self, source, offset, ratio):
        self.source = source
        self.offset = np.asarray(offset, dtype=float).ravel()
        self.ratio = float(ratio)
        self.q, self.m, self.n = source.q, source.m, source.n

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.source.eval(self.offset[None, :] + self.ratio * pts)

    def jacobian(self, points, step=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.ratio * self.source.jacobian(self.offset[None, :] + self.ratio * pts)


class Scaled(AnalyticQFunction):
    """factor * source, branchwise."""

    def __init__(self, source, factor):
        self.source = source
        self.factor = float(factor)
        self.q, self.m, self.n = source.q, source.m, source.n

    def eval(self, points):
        return self.factor * self.source.eval(points)

    def jacobian(self, points, step=None):
        return self.factor * self.source.jacobian(points)


class _AffineShift(AnalyticQFunction):
    """source minus the single-valued affine map x -> c + L (x - z)."""

    def __init__(self, source, const, lin, about=None):
        self.source = source
        self.const = np.asarray(const, dtype=float).ravel()
        self.lin = np.asarray(lin, dtype=float)
        self.about = (
            np.zeros(source.n) if about is None else np.asarray(about, dtype=float).ravel()
        )
        self.q, self.m, self.n = source.q, source.m, source.n

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ell = self.const[None, :] + (pts - self.about[None, :]) @ self.lin.T
        return self.source.eval(pts) - ell[:, None, :]

    def jacobian(self, points, step=None):
        return self.source.jacobian(points) - self.lin[None, None, :, :]


class PlanarExtension(AnalyticQFunction):
    """A lower-dimensional source extended constantly in the new coordinates."""

    def __init__(self, source, n):
        if n <= source.n:
            raise ValueError("extension needs more coordinates than the source")
        self.source = source
        self.q, self.m = source.q, source.m
        self.n = int(n)

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.source.eval(pts[:, : self.source.n])

    def jacobian(self, points, step=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inner = self.source.jacobian(pts[:, : self.source.n])
        out = np.zeros((pts.shape[0], self.q, self.m, self.n))
        out[:, :, :, : self.source.n] = inner
        return out


class OddReflection(AnalyticQFunction):
    """F = f on {x1 >= 0} and F(x) = -f(-x1, x2, ...) on {x1 < 0}.

    Construction checks that the source trace on the wall vanishes; a clean
    odd extension does not exist otherwise.
    """

    def __init__(self, source, trace_points=None, trace_tol=1e-8):
        self.source = source
        self.q, self.m, self.n = source.q, source.m, source.n
        if trace_points is None:
            if self.n == 1:
                trace_points = np.zeros((1, 1))
            else:
                trace_points = np.zeros((18, self.n))
                trace_points[:, 1] = np.linspace(-0.85, 0.85, 18)
        vals = source.eval(np.atleast_2d(np.asarray(trace_points, dtype=float)))
        worst = float(np.sqrt(_squared_values(vals).max()))
        if worst > trace_tol:
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

    def jacobian(self, points, step=None):
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


def odd_reflection(f, trace_points=None, trace_tol=1e-8):
    """Odd extension of a zero-trace half-space function across {x1 = 0}."""
    return OddReflection(f, trace_points=trace_points, trace_tol=trace_tol)


class _AverageOf(AnalyticQFunction):
    def __init__(self, source):
        self.source = source
        self.q = 1
        self.m, self.n = source.m, source.n

    def eval(self, points):
        return self.source.eval(points).mean(axis=1, keepdims=True)

    def jacobian(self, points, step=None):
        return self.source.jacobian(points).mean(axis=1, keepdims=True)


class _SymmetricOf(AnalyticQFunction):
    def __init__(self, source):
        self.source = source
        self.q, self.m, self.n = source.q, source.m, source.n

    def eval(self, points):
        vals = self.source.eval(points)
        return vals - vals.mean(axis=1, keepdims=True)

    def jacobian(self, points, step=None):
        jac = self.source.jacobian(points)
        return jac - jac.mean(axis=1, keepdims=True)


def average_symmetric_split(u):
    """Split u into its branch average u_a and symmetric part u_s = u - u_a.

    Works on sampled and analytic functions alike; the symmetric part keeps
    the branch count and its branches sum to zero pointwise.
    """
    if isinstance(u, SampledQFunction):
        mean = u.values.mean(axis=1, keepdims=True)
        return (
            SampledQFunction(u.grid, mean.copy()),
            SampledQFunction(u.grid, u.values - mean),
        )
    return _AverageOf(u), _SymmetricOf(u)


def make_function(kind, **params):
    """Factory behind the command line: build a lab function by name."""
    if kind == "branch_power":
        return BranchPower(
            int(params.get("q", 2)), int(params.get("p", 3)), int(params.get("m", 2))
        )
    if kind == "linear_tuple":
        if "coeffs" in params:
            return LinearTuple.wall(
                params["coeffs"], int(params.get("n", 2)),
                zero_sum=bool(params.get("zero_sum", True)),
            )
        return LinearTuple(params["slopes"])
    if kind == "wall_pair":
        return WallPair(
            float(params.get("d", 0.5)),
            float(params.get("amplitude", 1.0)),
            int(params.get("m", 1)),
        )
    if kind == "reflected_wall_pair":
        return odd_reflection(
            WallPair(
                float(params.get("d", 0.5)),
                float(params.get("amplitude", 1.0)),
                m=1,
            )
        )
    raise ValueError("unknown lab function kind %r" % (kind,))


def generator_library():
    """Named library of pairwise-distinct lab functions for smoke tests."""
    entries = [
        ("branch_2_1", BranchPower(2, 1)),
        ("branch_2_3", BranchPower(2, 3)),
        ("branch_2_5", BranchPower(2, 5)),
        ("branch_3_4", BranchPower(3, 4)),
        ("branch_2_3_scalar", BranchPower(2, 3, m=1)),
        ("branch_2_1_scalar", BranchPower(2, 1, m=1)),
        ("wall_pair", WallPair()),
        ("wall_pair_near", WallPair(d=0.25)),
        ("linear_wall", LinearTuple.wall([1.0, -1.0])),
        ("linear_wall_steep", LinearTuple.wall([2.0, -2.0])),
        ("shifted_branch", SumOf(
            BranchPower(2, 3),
            lambda pts: np.stack([pts[:, 0] ** 2 - pts[:, 1] ** 2,
                                  2.0 * pts[:, 0] * pts[:, 1]], axis=1),
            lambda pts: np.stack(
                [np.stack([2.0 * pts[:, 0], -2.0 * pts[:, 1]], axis=1),
                 np.stack([2.0 * pts[:, 1], 2.0 * pts[:, 0]], axis=1)], axis=1),
        )),
    ]
    return tuple(entries)


@dataclass(frozen=True)
class SeparationReport:
    pairs: tuple
    distances: tuple
    minimum: float


def pairwise_separation(entries=None, center=(0.35, 0.12), radius=0.12, nr=12, nt=32):
    """Integrated matching distance between all same-signature library pairs.

    Returns the smallest L2 separation over a fixed subball; a unique
    continuation smoke test asserts it stays well away from zero.
    """
    if entries is None:
        entries = generator_library()
    pts, w, _ = disk_rule(np.asarray(center, dtype=float), radius, nr=nr, nt=nt)
    evals = [(name, f, f.eval(pts)) for name, f in entries]
    pairs, dists = [], []
    for i in range(len(evals)):
        for j in range(i + 1, len(evals)):
            ni, fi, vi = evals[i]
            nj, fj, vj = evals[j]
            if fi.q != fj.q or fi.m != fj.m:
                continue
            d2 = float(np.sum(w * match_batch(vi, vj)[1]))
            pairs.append((ni, nj))
            dists.append(math.sqrt(max(d2, 0.0)))
    dists_t = tuple(dists)
    return SeparationReport(tuple(pairs), dists_t, min(dists_t) if dists_t else math.inf)


# ---------------------------------------------------------------------------
# blow-up candidates on the unit half disk


@dataclass(frozen=True)
class BlowupCandidate:
    """Boundary candidate on the unit half disk: components plus a wall trace.

    `components` are Q_i-valued functions; `kappa` is the single-valued trace
    data, given per component as a constant vector, a callable z -> (m,), or a
    q = 1 polynomial (None means zero trace).  `fine_class` is the integer
    passthrough parameter of the ambient family; it is validated and stored,
    nothing more.
    """

    components: tuple
    kappa: object = None
    fine_class: int = 3

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("candidate needs at least one component")
        object.__setattr__(self, "components", comps)
        if int(self.fine_class) < 3:
            raise ValueError("fine class passthrough must be an integer >= 3")
        object.__setattr__(self, "fine_class", int(self.fine_class))

    @property
    def n_components(self):
        return len(self.components)

    def domain(self):
        return Domain.half_ball(2, 1.0)

    def kappa_at(self, z):
        """Trace values at a wall point, one (m_i,) vector per component."""
        z = np.asarray(z, dtype=float).ravel()
        out = []
        for i, comp in enumerate(self.components):
            if self.kappa is None:
                out.append(np.zeros(comp.m))
                continue
            item = self.kappa[i]
            if item is None:
                out.append(np.zeros(comp.m))
            elif hasattr(item, "eval_point"):
                out.append(np.asarray(item.eval_point(z).branches[0], dtype=float))
            elif callable(item):
                out.append(np.asarray(item(z), dtype=float).ravel())
            else:
                arr = np.asarray(item, dtype=float).ravel()
                out.append(np.broadcast_to(arr, (comp.m,)).astype(float))
        return out

    def total_mass(self, nr=64, nt=128):
        return sum(_mass(c, np.zeros(2), 1.0, nr=nr, nt=nt, phi=_HALF)
                   for c in self.components)


def _require_wall_point(z):
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != 2 or abs(z[0]) > 1e-9:
        raise ValueError("expected a planar point on the wall {x1 = 0}")
    return z


def rescale_blowup(v, z, sigma, nr=64, nt=128):
    """Rescaling v_{z, sigma} = v(z + sigma .) / ||v(z + sigma .)||_{L2}.

    z must lie on the wall and sigma in (0, (3/8)(1 - |z|)]; returns the new
    candidate together with the normalizing L2 norm.
    """
    z = _require_wall_point(z)
    bound = 0.375 * (1.0 - np.linalg.norm(z))
    if not 0.0 < sigma <= bound + 1e-12:
        raise ValueError("rescaling radius outside (0, (3/8)(1 - |z|)]")
    moved = [PulledBack(c, z, sigma) for c in v.components]
    norm2 = sum(_mass(c, np.zeros(2), 1.0, nr=nr, nt=nt, phi=_HALF) for c in moved)
    norm = math.sqrt(max(norm2, 0.0))
    if norm < 1e-150:
        raise ValueError("candidate vanishes near the rescaling center")
    comps = tuple(Scaled(c, 1.0 / norm) for c in moved)
    kappa = None
    if v.kappa is not None:
        kappa = [
            (lambda zz, idx=i: v.kappa_at(z + sigma * np.asarray(zz, dtype=float))[idx] / norm)
            for i in range(v.n_components)
        ]
    return BlowupCandidate(comps, kappa, v.fine_class), norm


def renormalize_blowup(v, nr=64, nt=128):
    """The map v -> (v - l_v) / ||v - l_v|| with l_v the average jet at 0.

    Each component loses the affine map built from its branch-average value
    and Jacobian at the origin; returns (candidate, norm).
    """
    origin = np.zeros((1, 2))
    shifted = []
    jets = []
    for comp in v.components:
        const = comp.eval(origin)[0].mean(axis=0)
        lin = comp.jacobian(origin)[0].mean(axis=0)
        jets.append((const, lin))
        shifted.append(_AffineShift(comp, const, lin))
    norm2 = sum(_mass(c, np.zeros(2), 1.0, nr=nr, nt=nt, phi=_HALF) for c in shifted)
    norm = math.sqrt(max(norm2, 0.0))
    if norm < 1e-150:
        raise ValueError("renormalization of an affine candidate")
    comps = tuple(Scaled(c, 1.0 / norm) for c in shifted)

    def trace_fn(idx):
        const, lin = jets[idx]

        def fn(zz):
            zz = np.asarray(zz, dtype=float).ravel()
            return (v.kappa_at(zz)[idx] - const - lin @ zz) / norm

        return fn

    kappa = [trace_fn(i) for i in range(v.n_components)]
    return BlowupCandidate(comps, kappa, v.fine_class), norm


@dataclass(frozen=True)
class SplittingReport:
    ratios: tuple
    minimum: float


def splitting_lower_bound(candidates, nr=64, nt=128, jet_tol=1e-8):
    """Empirical outer-mass constant: min over candidates of the share of L2
    mass outside the half ball of radius 1/2.

    Candidates must be centered (vanishing average jet at 0).  The minimum is
    a reported estimate of the splitting constant, never a certified one.
    """
    ratios = []
    origin = np.zeros((1, 2))
    for cand in candidates:
        if isinstance(cand, AnalyticQFunction):
            cand = BlowupCandidate((cand,))
        for comp in cand.components:
            const = comp.eval(origin)[0].mean(axis=0)
            lin = comp.jacobian(origin)[0].mean(axis=0)
            if np.linalg.norm(const) > jet_tol or np.linalg.norm(lin) > jet_tol:
                raise ValueError(
                    "splitting bound requires centered candidates "
                    "(vanishing average jet at 0)"
                )
        total = cand.total_mass(nr=nr, nt=nt)
        if total <= 0.0:
            raise ValueError("splitting bound on a vanishing candidate")
        inner = sum(
            _mass(c, np.zeros(2), 0.5, nr=nr, nt=nt, phi=_HALF) for c in cand.components
        )
        ratios.append(max(0.0, 1.0 - inner / total))
    return SplittingReport(tuple(ratios), min(ratios))


# ---------------------------------------------------------------------------
# sampled-grid helpers


def _node_jacobians(u, indices=None):
    """Branch-matched first derivatives at grid nodes, shape (K, Q, m, n).

    Neighbors along each lattice axis are matched to the node's branches
    before differencing; a missing neighbor degrades to a one-sided
    difference, and an isolated node gets a zero column.
    """
    table = u.grid.lattice(1)  # columns 2d and 2d + 1: steps +e_d and -e_d
    idx = np.arange(u.size) if indices is None else np.asarray(indices, dtype=int)
    vals = u.values
    vc = vals[idx]

    def aligned(at):
        """Values at nodes `at`, branches reordered to best match vc."""
        near = vals[at]
        labels, _, _ = match_batch(near, vc)
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


def branch_set_detect(u, tol, with_derivative=True):
    """Discrete branch set: nodes whose closest branch pair is within tol in
    value and matched first derivative combined.

    Value-only coincidence is not enough (crossing sheets decompose); the
    derivative term is what separates a genuine branch point from a
    transversal crossing.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("branch tolerance must be positive and finite")
    if u.q == 1:
        empty = np.empty((0, u.n))
        return BranchSetReport(empty, np.empty(0, dtype=int), np.empty(0))
    vals = u.values
    pair_ids = list(itertools.combinations(range(u.q), 2))
    vgap2 = np.full(u.size, np.inf)
    for i, j in pair_ids:
        vgap2 = np.minimum(vgap2, np.sum((vals[:, i] - vals[:, j]) ** 2, axis=1))
    cand = np.nonzero(vgap2 < tol * tol)[0]
    if not with_derivative:
        keep = cand
        gaps = np.sqrt(vgap2[keep])
    else:
        if cand.size:
            jac = _node_jacobians(u, cand)
            dgap2 = np.full(cand.shape[0], np.inf)
            for i, j in pair_ids:
                dgap2 = np.minimum(
                    dgap2, np.sum((jac[:, i] - jac[:, j]) ** 2, axis=(1, 2))
                )
            total = vgap2[cand] + dgap2
            sel = total < tol * tol
            keep = cand[sel]
            gaps = np.sqrt(total[sel])
        else:
            keep = cand
            gaps = np.empty(0)
    return BranchSetReport(u.grid.points[keep], keep, gaps)


# ---------------------------------------------------------------------------
# decay and frequency diagnostics


@dataclass(frozen=True)
class GoodDecayReport:
    pairs: tuple
    ratios: np.ndarray
    exponent: float
    vacuous: bool
    violations: tuple


def good_decay_check(u, x0, pairs, tol=0.05, nr=48, nt=256, floor_rel=1e-12):
    """Symmetric-part decay test at a putative branch point.

    For each pair (sigma, rho) with sigma <= rho, compares
    sigma^(-n) mass_s(sigma) against (sigma/rho)^(2(1+1/Q)) rho^(-n)
    mass_s(rho), where mass_s is the squared L2 mass of the symmetric part.
    Pairs with both masses at rounding level are vacuous; a report whose
    pairs are all vacuous counts as a pass.
    """
    pairs = [(float(s), float(r)) for s, r in pairs]
    if not pairs:
        raise ValueError("no admissible scale pairs")
    for s, r in pairs:
        if not 0.0 < s <= r:
            raise ValueError("scale pairs need 0 < sigma <= rho")
    x0 = np.asarray(x0, dtype=float).ravel()
    _, us = average_symmetric_split(u)
    n = u.n
    exponent = 2.0 * (1.0 + 1.0 / u.q)

    def mass_s(r):
        if isinstance(us, SampledQFunction):
            return us.restrict(x0, r).q_mass(2.0)
        return _mass(us, x0, r, nr=nr, nt=nt)

    def mass_full(r):
        if isinstance(u, SampledQFunction):
            return u.restrict(x0, r).q_mass(2.0)
        return _mass(u, x0, r, nr=nr, nt=nt)

    ratios = np.empty(len(pairs))
    vac = np.zeros(len(pairs), dtype=bool)
    for i, (s, r) in enumerate(pairs):
        ms, mr = mass_s(s), mass_s(r)
        floor = floor_rel * (mass_full(r) + 1e-300)
        if ms <= floor and mr <= floor:
            ratios[i] = np.nan
            vac[i] = True
            continue
        rhs = (s / r) ** exponent * r ** (-n) * mr
        ratios[i] = (s ** (-n) * ms) / max(rhs, 1e-300)
    violations = tuple(
        (pairs[i][0], pairs[i][1], float(ratios[i]))
        for i in range(len(pairs))
        if not vac[i] and ratios[i] > 1.0 + tol
    )
    return GoodDecayReport(tuple(pairs), ratios, exponent, bool(vac.all()), violations)


@dataclass(frozen=True)
class FrequencyReport:
    radii: np.ndarray
    values: np.ndarray
    skipped: tuple


def frequency_function(u, x0, ladder, nr=48, nt_disk=256, nt_circle=1024, floor=1e-13):
    """Frequency N(rho) = rho * Dirichlet(B_rho) / boundary L2 mass at x0.

    Planar only; the boundary integral is a trapezoid rule on the circle.
    Rungs whose denominator sits at rounding level are skipped and reported.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    radii = np.asarray(list(ladder), dtype=float)
    values = np.full(radii.shape[0], np.nan)
    skipped = []
    if isinstance(u, SampledQFunction):
        if u.n != 2:
            raise ValueError("frequency function is implemented for the plane only")
        jac = _node_jacobians(u)
        dens = np.sum(jac * jac, axis=(1, 2, 3))
        sq = np.sum(u.values ** 2, axis=(1, 2))
        rads = np.linalg.norm(u.grid.points - x0[None, :], axis=1)
        h = u.grid.resolution
        for i, rho in enumerate(radii):
            inside = rads < rho
            dirich = float(np.sum(u.grid.weights[inside] * dens[inside]))
            shell = np.abs(rads - rho) <= 0.5 * h
            bdry = float(np.sum(u.grid.weights[shell] * sq[shell])) / h
            if bdry <= floor * max(1.0, rho * dirich):
                skipped.append(float(rho))
                continue
            values[i] = rho * dirich / bdry
        return FrequencyReport(radii, values, tuple(skipped))
    if u.n != 2:
        raise ValueError("frequency function is implemented for the plane only")
    for i, rho in enumerate(radii):
        pts, w, _ = disk_rule(x0, rho, nr=nr, nt=nt_disk)
        jac = u.jacobian(pts)
        dirich = float(np.sum(w * np.sum(jac * jac, axis=(1, 2, 3))))
        cpts, cw = circle_rule(x0, rho, nt=nt_circle)
        bdry = float(np.sum(cw * _squared_values(u.eval(cpts))))
        if bdry <= floor * max(1.0, rho * dirich):
            skipped.append(float(rho))
            continue
        values[i] = rho * dirich / bdry
    return FrequencyReport(radii, values, tuple(skipped))


# ---------------------------------------------------------------------------
# boundary kernel and radial-derivative bounds


@dataclass(frozen=True)
class KernelReport:
    lhs: float
    rhs: float
    ratio: float
    vacuous: bool


def _check_kernel_range(z, rho):
    z = _require_wall_point(z)
    bound = 0.375 * (1.0 - np.linalg.norm(z))
    if not 0.0 < rho <= bound + 1e-12:
        raise ValueError("rho outside (0, (3/8)(1 - |z|)]")
    return z


def boundary_estimate_check(v, z, rho, nr=96, nt=128, floor=1e-24):
    """Singular-kernel boundary bound at a wall point z.

    LHS integrates the matching distance of v to its trace value at z against
    the kernel |x - z|^(-n - 3/2) over the half-radius half disk; RHS is the
    squared distance at scale rho, weighted by rho^(-n - 3/2).  The two sides
    carry different dimensions, so the ratio is an empirical constant whose
    scale behavior is measured, not assumed.
    """
    if isinstance(v, AnalyticQFunction):
        v = BlowupCandidate((v,))
    z = _check_kernel_range(z, rho)
    kap = v.kappa_at(z)
    lhs = 0.0
    rhs_mass = 0.0
    pts_l, w_l, r_l = disk_rule(z, 0.5 * rho, nr=nr, nt=nt, phi=_HALF, stretch=True)
    pts_r, w_r, _ = disk_rule(z, rho, nr=nr, nt=nt, phi=_HALF)
    for comp, kz in zip(v.components, kap):
        diff = comp.eval(pts_l) - kz[None, None, :]
        gdist = np.sqrt(np.sum(diff * diff, axis=(1, 2)))
        lhs += float(np.sum(w_l * gdist * r_l ** (-2.0 - 1.5)))
        diff = comp.eval(pts_r) - kz[None, None, :]
        rhs_mass += float(np.sum(w_r * np.sum(diff * diff, axis=(1, 2))))
    rhs = rho ** (-2.0 - 1.5) * rhs_mass
    vacuous = lhs <= floor and rhs <= floor
    ratio = 0.0 if vacuous else lhs / max(rhs, 1e-300)
    return KernelReport(lhs, rhs, ratio, vacuous)


@dataclass(frozen=True)
class RadialDerivativeReport:
    lhs: float
    rhs: float
    ratio: float
    excluded: int


def _radial_lhs_analytic(comp, z, rho, nr, nt):
    pts, w, r = disk_rule(z, 0.5 * rho, nr=nr, nt=nt, phi=_HALF, stretch=True)
    vals = comp.eval(pts)
    jac = comp.jacobian(pts)
    va = comp.eval(z[None, :])[0].mean(axis=0)
    rel = pts - z[None, :]
    pred = np.einsum("sqmn,sn->sqm", jac, rel)
    f = vals - va[None, None, :]
    dev = np.sum((pred - f) ** 2, axis=(1, 2))
    return float(np.sum(w * dev * r ** (-4.0)))


def _radial_rhs_analytic(comp, z, rho, nr, nt):
    pts, w, _ = disk_rule(z, rho, nr=nr, nt=nt, phi=_HALF)
    vals = comp.eval(pts)
    va = comp.eval(z[None, :])[0].mean(axis=0)
    dva = comp.jacobian(z[None, :])[0].mean(axis=0)
    ell = va[None, :] + (pts - z[None, :]) @ dva.T
    diff = vals - ell[:, None, :]
    return float(np.sum(w * np.sum(diff * diff, axis=(1, 2))))


def _radial_sampled(comp, z, rho, nphi, nsta, gap_tol):
    """Ray-station finite differences for sampled components.

    Stations along each ray are spaced at least two grid cells apart so that
    nearest-node snapping cannot collapse a difference; returns
    (lhs, rhs_mass, excluded ray count).  Rays with an ambiguous branch
    matching at any station are dropped entirely.
    """
    h = comp.grid.resolution
    step = max(2.0 * h, 0.5 * rho / max(int(nsta), 2))
    stations = np.arange(1, int(0.5 * rho / step) + 1) * step
    if stations.shape[0] < 2:
        raise ValueError(
            "rho too small for ray differencing at resolution %g" % h
        )
    phis = _HALF[0] + (np.arange(nphi) + 0.5) * (_HALF[1] - _HALF[0]) / nphi
    dphi = (_HALF[1] - _HALF[0]) / nphi
    x, wgl = np.polynomial.legendre.leggauss(nsta)
    va = comp.value_at(z).average()
    avg_plus = comp.value_at(z + np.array([2.0 * h, 0.0])).average()
    dva1 = (avg_plus - va) / (2.0 * h)
    avg_up = comp.value_at(z + np.array([0.0, 2.0 * h])).average()
    avg_dn = comp.value_at(z - np.array([0.0, 2.0 * h])).average()
    dva = np.stack([dva1, (avg_up - avg_dn) / (4.0 * h)], axis=1)
    lhs = 0.0
    rhs_mass = 0.0
    excluded = 0
    for phi in phis:
        e = np.array([math.cos(phi), math.sin(phi)])
        branches = []
        ambiguous = False
        for r in stations:
            p = comp.value_at(z + r * e)
            gaps = [
                np.linalg.norm(p.branches[i] - p.branches[j])
                for i, j in itertools.combinations(range(p.q), 2)
            ]
            if gaps and min(gaps) < gap_tol:
                ambiguous = True
                break
            branches.append(p.branches - va[None, :])
        if ambiguous:
            excluded += 1
            continue
        aligned = []
        for b in branches:
            if aligned:
                sigma, _ = optimal_assignment(aligned[-1], b)
                b = b[sigma]
            aligned.append(b)
        for i in range(len(aligned) - 1):
            r0, r1 = stations[i], stations[i + 1]
            g = (aligned[i + 1] / r1 - aligned[i] / r0) / (r1 - r0)
            rm = 0.5 * (r0 + r1)
            lhs += rm * step * dphi * float(np.sum(g * g))
        # RHS stations on (0, rho]: plain value sampling, no differencing
        r_r = 0.5 * rho * (x + 1.0)
        w_r = 0.5 * rho * wgl
        for r, wr in zip(r_r, w_r):
            if r < h:
                continue
            p = comp.value_at(z + r * e)
            ell = va + dva @ (r * e)
            diff = p.branches - ell[None, :]
            rhs_mass += r * wr * dphi * float(np.sum(diff * diff))
    return lhs, rhs_mass, excluded


def hardt_simon_check(v, z, rho, nr=64, nt=128, nphi=48, nsta=24, gap_tol=1e-8):
    """Radial-derivative bound: LHS integrates R^(2-n) |d/dR ((v - v_a(z))/R)|^2
    over the half-radius half disk, RHS is rho^(-n-2) times the squared
    distance to the average-jet affine map at scale rho.

    Analytic components use the chain rule; sampled components use finite
    differences along rays, with branch-ambiguous rays excluded and counted.
    """
    if isinstance(v, (AnalyticQFunction, SampledQFunction)):
        v = BlowupCandidate((v,))
    z = _check_kernel_range(z, rho)
    lhs = 0.0
    rhs_mass = 0.0
    excluded = 0
    for comp in v.components:
        if isinstance(comp, SampledQFunction):
            part_l, part_r, exc = _radial_sampled(comp, z, rho, nphi, nsta, gap_tol)
            lhs += part_l
            rhs_mass += part_r
            excluded += exc
        else:
            lhs += _radial_lhs_analytic(comp, z, rho, nr, nt)
            rhs_mass += _radial_rhs_analytic(comp, z, rho, nr, nt)
    rhs = rho ** (-4.0) * rhs_mass
    ratio = lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else math.inf)
    return RadialDerivativeReport(lhs, rhs, ratio, excluded)


# ---------------------------------------------------------------------------
# homogeneity, invariance, linearity


def homogeneity_deviation(v, inner, outer, center=None, nr=48, nt=256, half=False):
    """L2 size of d/dR (v/R) over an annulus; zero exactly on degree-one
    homogeneous fields about the center."""
    if not 0.0 < inner < outer:
        raise ValueError("annulus needs 0 < inner < outer")
    c = np.zeros(v.n) if center is None else np.asarray(center, dtype=float).ravel()
    phi = _HALF if half else None
    pts, w, r = disk_rule(c, outer, nr=nr, nt=nt, phi=phi, inner=inner)
    vals = v.eval(pts)
    jac = v.jacobian(pts)
    rel = pts - c[None, :]
    pred = np.einsum("sqmn,sn->sqm", jac, rel)
    dev = np.sum((pred - vals) ** 2, axis=(1, 2))
    return math.sqrt(max(float(np.sum(w * dev * r ** (-4.0))), 0.0))


@dataclass(frozen=True)
class InvarianceReport:
    directions: np.ndarray
    deviations: np.ndarray
    dimension: int
    tol: float


def translation_invariance_set(v, directions=None, shifts=(0.05, 0.1, 0.2),
                               tol=1e-9, samples=100, seed=0):
    """Estimate the wall-parallel directions along which v is invariant.

    Sweeps sampled base points by +-shift along each candidate direction and
    records the largest matching distance; directions below tol count toward
    the invariance dimension.
    """
    n = v.n
    if directions is None:
        directions = np.eye(n)[1:]
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    rng = np.random.default_rng(seed)
    low = np.full(n, -0.6)
    high = np.full(n, 0.6)
    low[0] = 0.08
    pts = rng.uniform(low, high, size=(samples, n))
    base = v.eval(pts)
    devs = np.empty(directions.shape[0])
    for i, e in enumerate(directions):
        worst = 0.0
        for t in shifts:
            for sign in (1.0, -1.0):
                moved = v.eval(pts + sign * t * e[None, :])
                worst = max(worst, float(np.sqrt(match_batch(base, moved)[1].max())))
        devs[i] = worst
    dim = int(np.sum(devs <= tol))
    return InvarianceReport(directions, devs, dim, tol)


@dataclass(frozen=True)
class LinearityReport:
    linear: bool
    residual: float
    slopes: np.ndarray
    wall_form: bool
    wall_slopes: object
    deviation: float


def linearity_classify(v, tol=1e-8, gate_tol=1e-4, resolution=1.0 / 48.0,
                       domain=None):
    """Classify a degree-one homogeneous candidate as linear or not.

    Gates on the homogeneity deviation over a fixed annulus, then fits a
    degree-1 tuple with the constant slots pinned to zero; linear means the
    relative fit residual stays under tol.  When the wall trace vanishes the
    slopes collapse to the form sum_j [[a_j x^1]] and are reported as such.
    """
    domain = Domain.half_ball(2, 1.0) if domain is None else domain
    half = domain.kind == "half_ball"
    scale2 = _mass(v, domain.center, 0.8, nr=32, nt=128,
                   phi=_HALF if half else None, inner=0.3)
    scale = math.sqrt(max(scale2, 0.0))
    dev = homogeneity_deviation(v, 0.3, 0.8, center=domain.center, half=half)
    if dev > gate_tol * max(scale, 1e-12):
        raise HomogeneityError(
            "not degree-one homogeneous on the test annulus "
            "(deviation %.3g against scale %.3g)" % (dev, scale)
        )
    grid = domain.sample(resolution)
    u = SampledQFunction.from_function(grid, v.eval, v.q, v.m)
    fit = best_fit(u, domain.center, domain.radius * 0.98, 1, 2.0,
                   FitConfig(restarts=4, zero_constant=True))
    mass = u.q_mass(2.0)
    rel = math.sqrt(max(fit.residual, 0.0) / max(mass, 1e-300))
    linear = rel <= tol
    poly = fit.polynomial
    cols = [i for i, p in enumerate(poly.indices) if sum(p) == 1]
    order = sorted(range(len(cols)), key=lambda i: poly.indices[cols[i]].index(1))
    slopes = np.stack([poly.coeffs[:, :, cols[i]] for i in order], axis=2)
    wall = np.zeros((9, v.n))
    wall[:, 1] = np.linspace(-0.8, 0.8, 9)
    trace = float(np.sqrt(_squared_values(v.eval(wall)).max()))
    wall_slopes = None
    wall_form = False
    if linear and v.m == 1 and trace <= 1e-8 * max(scale, 1.0):
        off_axis = float(np.abs(slopes[:, :, 1:]).max()) if v.n > 1 else 0.0
        if off_axis <= 1e-8 * max(1.0, float(np.abs(slopes).max())):
            wall_form = True
            wall_slopes = slopes[:, 0, 0].copy()
    return LinearityReport(linear, rel, slopes, wall_form, wall_slopes, dev)


# ---------------------------------------------------------------------------
# discrete harmonicity audit


@dataclass(frozen=True)
class HarmonicAudit:
    step: float
    defects: np.ndarray
    max_defect: float


def _matched_second_difference(vc, vm, vp):
    """Per-sample second difference minimizing over branch pairings.

    Chooses, for each sample, the pair of permutations applied to the two
    neighbors that minimizes the summed squared second difference; this is
    the discrete analog of following each locally smooth sheet.  Samples
    go through in chunks that hold at most _CHUNK_ENTRIES terms (the
    differences, their squares and the pairing costs), so peak memory does
    not grow with the sample count.
    """
    S, q, m = vc.shape
    if q == 1:
        return vm - 2.0 * vc + vp
    if q > _ENUMERATION_LIMIT:
        raise ValueError("branch matching tables stop at Q = %d" % _ENUMERATION_LIMIT)
    perms = _permutation_table(q)
    k = perms.shape[0]
    step = max(_CHUNK_ENTRIES // (k * k * (2 * q * m + 1)), 1)
    out = np.empty((S, q, m))
    for lo in range(0, S, step):
        c, sm, sp = vc[lo:lo + step], vm[lo:lo + step, perms], vp[lo:lo + step, perms]
        diff = sm[:, :, None, :, :] - 2.0 * c[:, None, None, :, :] + sp[:, None, :, :, :]
        cost = np.sum(diff * diff, axis=(3, 4)).reshape(c.shape[0], k * k)
        pick = np.argmin(cost, axis=1)
        out[lo:lo + step] = diff.reshape(c.shape[0], k * k, q, m)[np.arange(c.shape[0]), pick]
    return out


def laplacian_defect(f, points, step):
    """Discrete Laplacian defect |sum_d matched second differences| / h^2.

    Exactly harmonic multisets with locally smooth sheets come out at
    O(h^2); the audit is the library's harmonicity certificate.
    """
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
