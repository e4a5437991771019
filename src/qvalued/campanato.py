"""Campanato-style dyadic decay analysis for sampled multi-valued data.

Everything here is built on one quantity, the local excess

    E(x0, rho) = inf_P  sum over nodes of w G(u, P)^q   on Omega ∩ B_rho(x0),

the infimum running over degree-k polynomial tuples.  Excess profiles over
dyadic radius ladders yield seminorms (sup of rho^-lambda E to the 1/q)
and measured decay exponents (log-log slopes).  Every profile takes its
exponent q and its ladder from the caller; neither has a default.
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
from .geometry import _ladder_radii
from .polyfit import best_fit, exact_floor

__all__ = [
    "ExcessProfile",
    "excess_profile",
    "campanato_seminorm",
    "SeminormReport",
    "DecayFit",
    "decay_exponent",
    "holder_from_campanato",
    "infer_band",
]


@dataclass(frozen=True)
class ExcessProfile:
    center: np.ndarray
    radii: np.ndarray
    excesses: np.ndarray
    truncated: bool


def excess_profile(u, x0, k, q_exp, ladder):
    """Local excess per rung of a dyadic radius ladder.

    Rungs that fall below the grid resolution (or lose all nodes, or leave
    the fit under-determined) truncate the profile and are flagged rather
    than fatal: a deep ladder on a coarse grid is a normal request.  An
    empty ladder, a radius that is not finite and positive, or a center x0
    that is not a finite point of the grid's dimension is refused with
    ValueError.  A profile with no rung kept is refused: with
    EmptyIntersectionError naming x0 when every resolvable rung's ball
    holds no node, else with BelowResolutionError.
    """
    rungs = _ladder_radii(ladder)
    x0 = np.asarray(x0, dtype=float).ravel()
    radii, excesses = [], []
    dropped = set()
    for rho in rungs:
        try:
            res = best_fit(u, x0, rho, k, q_exp)
        except (BelowResolutionError, EmptyIntersectionError,
                InsufficientSamplesError) as exc:
            dropped.add(type(exc))
            continue
        radii.append(rho)
        excesses.append(res.residual)
    if not radii:
        if dropped - {BelowResolutionError} == {EmptyIntersectionError}:
            raise EmptyIntersectionError(
                "no grid node in any resolvable ball about x0 = %s"
                % x0.tolist())
        raise BelowResolutionError("ladder entirely below resolution")
    return ExcessProfile(x0, np.asarray(radii), np.asarray(excesses),
                         bool(dropped))


@dataclass(frozen=True)
class SeminormReport:
    value: float
    lam: float
    worst_center: np.ndarray
    worst_radius: float
    table: tuple  # (center, rho, excess, scaled) rows


def campanato_seminorm(u, k, q_exp, lam, centers, ladder):
    """Supremum of [rho^-lambda E(x0, rho)]^(1/q) over centers and rungs.
    An empty set of centers, like a lambda that is not finite, is refused
    with ValueError."""
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.size == 0:
        raise ValueError("campanato_seminorm needs at least one center")
    rows = []
    best = -math.inf
    worst = (None, None)
    for x0 in centers:
        prof = excess_profile(u, x0, k, q_exp, ladder)
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


def decay_exponent(u, x0, k, q_exp, ladder, min_rungs=4):
    """Log-log slope of the excess profile.

    Rungs whose excess is at or below best_fit's rounding floor for the
    q-mass of the top rung's ball (`polyfit.exact_floor`) are dropped; if
    every rung is there, the data is an exact polynomial tuple to machine
    precision and an exact-fit sentinel is returned instead of a
    meaningless slope.  min_rungs, the fewest kept rungs a slope is fitted
    to, must be at least 2: one rung has no slope.
    """
    if min_rungs < 2:
        raise ValueError("min_rungs must be at least 2, got %r" % min_rungs)
    prof = excess_profile(u, x0, k, q_exp, ladder)
    top = float(np.max(prof.radii))
    floor = exact_floor(u.restrict(prof.center, top).q_mass(q_exp), q_exp)
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
