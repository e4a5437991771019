"""Campanato-style dyadic decay analysis for sampled multi-valued data.

Everything here is built on one quantity, the local excess

    E(x0, rho) = inf_P  sum over nodes of w G(u, P)^q   on Omega ∩ B_rho(x0),

the infimum running over degree-k polynomial tuples.  Excess profiles over
dyadic radius ladders yield seminorms (sup of rho^-lambda E to the 1/q),
measured decay exponents (log-log slopes), and coefficient flows (per-rung
fitted coefficients and their Cauchy behavior as the radius shrinks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BelowResolutionError,
    EmptyIntersectionError,
    ExponentBandError,
    InsufficientSamplesError,
)
from .geometry import dyadic_ladder
from .points import AqPoint, match_batch, metric_g, optimal_assignment
from .polyfit import best_fit, coefficient_tuple

__all__ = [
    "ExcessProfile",
    "excess_profile",
    "campanato_seminorm",
    "SeminormReport",
    "DecayFit",
    "decay_exponent",
    "holder_from_campanato",
    "infer_band",
    "CoefficientFlow",
    "coefficient_flow",
    "derivative_chain_check",
    "dyadic_consistency",
    "cross_center_check",
]

_EXCESS_FLOOR_FACTOR = 100.0


@dataclass(frozen=True)
class ExcessProfile:
    center: np.ndarray
    radii: np.ndarray
    excesses: np.ndarray
    truncated: bool
    fits: tuple

    def __len__(self):
        return self.radii.shape[0]


def excess_profile(u, x0, k, q_exp=2.0, ladder=None, cfg=None):
    """Local excess per rung of a dyadic radius ladder.

    Rungs that fall below the grid resolution (or lose all nodes, or leave
    the fit under-determined) truncate the profile and are flagged rather
    than fatal: a deep ladder on a coarse grid is a normal request.  A
    missing or empty ladder is refused with ValueError.
    """
    rungs = np.asarray([] if ladder is None else ladder, dtype=float)
    if rungs.ndim != 1 or rungs.size == 0:
        raise ValueError("ladder must be a non-empty 1-D sequence of radii")
    x0 = np.asarray(x0, dtype=float).ravel()
    radii, excesses, fits = [], [], []
    truncated = False
    for rho in rungs:
        try:
            res = best_fit(u, x0, rho, k, q_exp, cfg)
        except (BelowResolutionError, EmptyIntersectionError,
                InsufficientSamplesError):
            truncated = True
            continue
        radii.append(rho)
        excesses.append(res.residual)
        fits.append(res)
    if not radii:
        raise BelowResolutionError("ladder entirely below resolution")
    return ExcessProfile(x0, np.asarray(radii), np.asarray(excesses),
                         truncated, tuple(fits))


@dataclass(frozen=True)
class SeminormReport:
    value: float
    lam: float
    worst_center: np.ndarray
    worst_radius: float
    table: tuple  # (center, rho, excess, scaled) rows

    def __float__(self):
        return self.value


def campanato_seminorm(u, k, q_exp, lam, centers, ladder, cfg=None):
    """Supremum of [rho^-lambda E(x0, rho)]^(1/q) over centers and rungs."""
    rows = []
    best = -math.inf
    worst = (None, None)
    for x0 in np.atleast_2d(np.asarray(centers, dtype=float)):
        prof = excess_profile(u, x0, k, q_exp, ladder, cfg)
        for rho, exc in zip(prof.radii, prof.excesses):
            scaled = (exc / rho ** lam) ** (1.0 / q_exp)
            rows.append((x0.copy(), float(rho), float(exc), float(scaled)))
            if scaled > best:
                best = scaled
                worst = (x0.copy(), float(rho))
    return SeminormReport(float(best), float(lam), worst[0], worst[1],
                          tuple(rows))


@dataclass(frozen=True)
class DecayFit:
    lambda_hat: float
    r_squared: float
    radii: np.ndarray
    excesses: np.ndarray
    exact: bool
    floor: float

    def holder_alpha(self, n, q_exp):
        ell = infer_band(self.lambda_hat, n, q_exp)
        return holder_from_campanato(self.lambda_hat, n, ell, q_exp)


def decay_exponent(u, x0, k, q_exp=2.0, ladder=None, cfg=None, min_rungs=4):
    """Log-log slope of the excess profile.

    Rungs whose excess sits at rounding level (relative to the local q-mass)
    are dropped; if every rung is there, the data is an exact polynomial
    tuple to machine precision and an exact-fit sentinel is returned instead
    of a meaningless slope.
    """
    prof = excess_profile(u, x0, k, q_exp, ladder, cfg)
    top = float(np.max(prof.radii))
    mass = u.restrict(prof.center, top).q_mass(q_exp)
    floor = _EXCESS_FLOOR_FACTOR * np.finfo(float).eps * max(mass, 1e-300)
    keep = prof.excesses > floor
    if not np.any(keep):
        return DecayFit(math.inf, 1.0, prof.radii, prof.excesses, True, floor)
    if keep.sum() < min_rungs:
        raise BelowResolutionError(
            "only %d usable rungs, need %d" % (int(keep.sum()), min_rungs)
        )
    x = np.log(prof.radii[keep])
    y = np.log(prof.excesses[keep])
    slope, _ = np.polyfit(x, y, 1)
    r = np.corrcoef(x, y)[0, 1]
    return DecayFit(float(slope), float(r * r), prof.radii, prof.excesses,
                    False, floor)


def infer_band(lam, n, q_exp):
    """Integer ell with n + ell q < lambda < n + (ell+1) q."""
    if lam <= n:
        raise ExponentBandError("exponent band violated")
    ell = int(math.floor((lam - n) / q_exp))
    if lam == n + ell * q_exp:
        raise ExponentBandError("exponent band violated")
    return ell


def holder_from_campanato(lam, n, ell, q_exp):
    """Holder exponent (lambda - n - ell q)/q, validating the open band."""
    if not (n + ell * q_exp < lam < n + (ell + 1) * q_exp):
        raise ExponentBandError("exponent band violated")
    return (lam - n - ell * q_exp) / q_exp


@dataclass(frozen=True)
class CoefficientFlow:
    center: np.ndarray
    order: int
    radii: np.ndarray
    tuples: tuple       # AqPoint per rung, all centered at `center`
    step_distances: np.ndarray
    step_ratios: np.ndarray
    limit: AqPoint      # deepest rung tuple
    extrapolated: bool  # True when the ladder was truncated early

    def geometric_ratio_bound(self, n, q_exp, lam):
        return 2.0 ** ((n + self.order * q_exp - lam) / q_exp)


def coefficient_flow(u, x0, rho0, depth, k, q_exp=2.0, r=None, cfg=None):
    """Fitted coefficient tuples along a dyadic ladder at one center.

    Per rung, the best degree-k fit is taken and its coefficients through
    order r (all of a branch's slots jointly) form an unordered tuple in a
    fixed chart at x0, so successive rungs are directly comparable in the
    matching metric.  Reports per-step distances and their ratios; under a
    Campanato bound with exponent lambda the ratios should approach
    2^((n + r q - lambda)/q).  The deepest rung stands in for the shrinking-
    radius limit, flagged as extrapolated when the ladder was cut short.
    """
    r = k if r is None else r
    if r > k:
        raise ValueError("tuple order exceeds fit degree")
    prof = excess_profile(u, x0, k, q_exp, dyadic_ladder(rho0, depth), cfg)
    tuples = [coefficient_tuple(f.polynomial, r) for f in prof.fits]
    dists = np.array([
        metric_g(a, b) for a, b in zip(tuples[:-1], tuples[1:])
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dists[:-1] > 0, dists[1:] / np.maximum(dists[:-1], 1e-300),
                          np.nan) if dists.size > 1 else np.empty(0)
    return CoefficientFlow(prof.center, r, prof.radii, tuple(tuples),
                           dists, ratios, tuples[-1], prof.truncated)


def derivative_chain_check(u, x0, k, step, rho0, depth, q_exp=2.0, cfg=None):
    """Compare finite differences of order-(k-1) coefficient limits against
    the order-k limits: the flow's limit tuples should differentiate into
    each other slot by slot.

    Center-space differences require a branch matching between limits at
    nearby centers; points where that matching is ambiguous (tuple branches
    closer than the difference scale) are skipped and counted.
    """
    if k < 1:
        raise ValueError("chain check needs k >= 1")
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.shape[0]
    base = coefficient_flow(u, x0, rho0, depth, k, q_exp, r=k, cfg=cfg)
    idx = base.limit  # joint tuple through order k at x0
    from .polyfit import multi_indices

    idx_k = multi_indices(n, k)
    m = u.m
    # slot layout inside the joint tuple: (j, p) blocks of coefficient_tuple
    discrepancies = []
    skipped = 0
    for axis in range(n):
        flow_p = coefficient_flow(u, x0 + step * _unit(n, axis), rho0, depth,
                                  k, q_exp, r=k, cfg=cfg)
        flow_m = coefficient_flow(u, x0 - step * _unit(n, axis), rho0, depth,
                                  k, q_exp, r=k, cfg=cfg)
        sp, _ = optimal_assignment(idx, flow_p.limit)
        sm, _ = optimal_assignment(idx, flow_m.limit)
        margin = min(_pairwise_gap(flow_p.limit), _pairwise_gap(flow_m.limit))
        diff = (flow_p.limit.branches[sp] - flow_m.limit.branches[sm]) / (2 * step)
        if margin < 2.0 * step:
            skipped += 1
            continue
        # diff rows now approximate the derivative of each coefficient slot
        # along `axis`; compare slots a_p against slots a_{p+e_axis}
        pos = {p: i for i, p in enumerate(idx_k)}
        for col, p in enumerate(idx_k):
            if sum(p) >= k:
                continue
            shifted = list(p)
            shifted[axis] += 1
            target = pos[tuple(shifted)]
            for j in range(m):
                est = diff[:, j * len(idx_k) + col]
                ref = idx.branches[:, j * len(idx_k) + target]
                discrepancies.append(float(np.max(np.abs(est - ref))))
    return {
        "max_discrepancy": max(discrepancies) if discrepancies else 0.0,
        "skipped_axes": skipped,
        "count": len(discrepancies),
    }


def _unit(n, axis):
    e = np.zeros(n)
    e[axis] = 1.0
    return e


def _pairwise_gap(p):
    if p.q == 1:
        return math.inf
    b = p.branches
    d = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def dyadic_consistency(u, x0, k, q_exp, lam, ladder, seminorm=None,
                       centers=None, cfg=None):
    """Adjacent-rung polynomial drift against the explicit dyadic bound.

    For consecutive rungs rho_j, rho_{j+1} the quadrature of
    G(P_j, P_{j+1})^q over the smaller ball is compared with

        (2^q + 2^(q - lambda)) * rho_j^lambda * seminorm^q,

    the bound with fully explicit constant (rho_j the larger radius).
    Returns per-step ratios LHS / RHS, which should sit at or below one
    plus quadrature slack.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    prof = excess_profile(u, x0, k, q_exp, ladder, cfg)
    if seminorm is None:
        if centers is None:
            centers = [x0]
        seminorm = campanato_seminorm(u, k, q_exp, lam, centers, ladder,
                                      cfg).value
    constant = 2.0 ** q_exp + 2.0 ** (q_exp - lam)
    ratios = []
    for (rho_big, fit_big), (rho_small, fit_small) in zip(
        zip(prof.radii[:-1], prof.fits[:-1]),
        zip(prof.radii[1:], prof.fits[1:]),
    ):
        sub = u.restrict(x0, rho_small)
        pv = fit_big.polynomial.eval(sub.grid.points)
        qv = fit_small.polynomial.eval(sub.grid.points)
        dists = np.sqrt(match_batch(pv, qv)[1])
        lhs = float(np.sum(sub.grid.weights * dists ** q_exp))
        rhs = constant * rho_big ** lam * seminorm ** q_exp
        ratios.append(lhs / rhs if rhs > 0 else math.inf)
    return {
        "constant": constant,
        "radii": prof.radii,
        "ratios": np.asarray(ratios),
    }


def cross_center_check(u, x0, y0, k, q_exp, lam, comparison_constant,
                       seminorm, cfg=None):
    """Top-order coefficient agreement between fits at two nearby centers.

    Top-order coefficients of a degree-k polynomial are center-free, so the
    tuples are comparable without recentering.  The bound is

        C1 * 2^(q+1+lambda) * seminorm^q * rho^(lambda - n - k q),

    rho the center separation, C1 the empirical comparison constant.
    Returns the measured LHS, the bound, and their ratio.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    y0 = np.asarray(y0, dtype=float).ravel()
    rho = float(np.linalg.norm(x0 - y0))
    if rho <= 0:
        raise ValueError("centers must be distinct")
    n = x0.shape[0]
    fx = best_fit(u, x0, 2.0 * rho, k, q_exp, cfg)
    fy = best_fit(u, y0, 2.0 * rho, k, q_exp, cfg)
    a = coefficient_tuple(fx.polynomial, k, top_only=True)
    b = coefficient_tuple(fy.polynomial, k, top_only=True)
    lhs = metric_g(a, b) ** q_exp
    rhs = (comparison_constant * 2.0 ** (q_exp + 1.0 + lam)
           * seminorm ** q_exp * rho ** (lam - n - k * q_exp))
    return {"lhs": lhs, "bound": rhs,
            "ratio": lhs / rhs if rhs > 0 else math.inf,
            "separation": rho}
