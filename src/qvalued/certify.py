"""Iteration-lemma certificate engine.

The input is a decay hypothesis: around a marked bad set, local best-fit
excesses contract by a fixed modulus (sigma/rho)^(q mu) between comparable
scales, with explicit constants.  The engine turns such a hypothesis into a
quantitative Holder certificate by mechanically tracking the scale-iteration
argument: pick a dyadic contraction ratio gamma, convert the per-step gain
into a power law, and assemble the constant from the explicit factors.  A
second entry point audits the hypothesis on sampled data before certifying,
and refuses when the data violates its own premise.

Exponent chain (all certificates):

    lambda    = log_gamma(1/4)
    mu_prime  = min(mu, lambda / q)
    mu_tilde  = min(lambda, mu_prime)      # final Holder exponent
    lambda~   = n + q (k + mu_tilde)       # final Campanato exponent
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BelowResolutionError,
    InsufficientSamplesError,
    WeakConstantsError,
)
from .points import match_batch
from .polyfit import best_fit

__all__ = [
    "DecayHypothesis",
    "Stratification",
    "HolderCertificate",
    "AuditReport",
    "CertifyOutcome",
    "gamma_select",
    "certified_exponent",
    "certified_exponent_stratified",
    "audit_hypothesis",
    "end_to_end_certify",
]

GAMMA_T_MIN = 3
GAMMA_T_MAX = 64
DEFAULT_AUDIT_TOL = 0.05
OFFSET_WINDOW_FLOOR = 3


@dataclass(frozen=True)
class DecayHypothesis:
    """Constants of a two-part or three-part scale-decay premise.

    Two-part form (single function, one bad set): beta1 is the contraction
    constant on the bad set, beta2 the transfer constant off it.  Three-part
    form (N component functions, bad set plus per-component strata): beta0
    on the bad set, then (betas[i], beta_tildes[i]) per stratum.  beta caps
    the sup of the comparison polynomials, eps the top comparison scale.
    """

    n: int
    k: int
    q_exp: float
    mu: float
    eps: float = 0.2
    beta: float = 1.0
    beta1: float | None = None
    beta2: float | None = None
    beta0: float | None = None
    betas: tuple = ()
    beta_tildes: tuple = ()

    def __post_init__(self):
        if not (0.0 < self.mu < 1.0):
            raise ValueError("mu must lie in (0, 1)")
        if not (0.0 < self.eps < 0.25):
            raise ValueError("eps must lie in (0, 1/4)")
        if self.q_exp < 1.0:
            raise ValueError("q_exp must be at least 1")
        for name in ("beta", "beta1", "beta2", "beta0"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError("%s must be positive" % name)
        if len(self.betas) != len(self.beta_tildes):
            raise ValueError("betas and beta_tildes must pair up")
        if any(b <= 0 for b in self.betas + self.beta_tildes):
            raise ValueError("stratum constants must be positive")

    @property
    def n_strata(self):
        return len(self.betas)

    @property
    def stratified(self):
        return self.beta0 is not None


@dataclass(frozen=True)
class Stratification:
    """Finite samples of the bad sets an audit walks over.

    base is the primary bad set (boundary points, say); strata holds one
    point set per component (branch points, say); free_points are ordinary
    centers used for the off-set part of the audit, generated from the grid
    when absent.
    """

    base: np.ndarray
    strata: tuple = ()
    free_points: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "base", np.atleast_2d(
            np.asarray(self.base, dtype=float)))
        object.__setattr__(self, "strata", tuple(
            np.atleast_2d(np.asarray(s, dtype=float)) for s in self.strata))
        if self.free_points is not None:
            object.__setattr__(self, "free_points", np.atleast_2d(
                np.asarray(self.free_points, dtype=float)))

    def validate(self, min_sep=1e-9):
        """Finite-sample form of the closure condition: stratum points must
        keep off the base set, else the two levels are not distinguishable."""
        for i, s in enumerate(self.strata):
            d = np.linalg.norm(
                s[:, None, :] - self.base[None, :, :], axis=2)
            if d.size and d.min() < min_sep:
                raise ValueError(
                    "stratum %d touches the base bad set" % (i + 1))
        return self

    @property
    def n_strata(self):
        return len(self.strata)


@dataclass(frozen=True)
class HolderCertificate:
    gamma: float
    lam: float
    mu_prime: float
    mu_tilde: float
    lambda_tilde: float
    constant: float
    factors: tuple  # ((name, value), ...)
    n: int
    k: int
    q_exp: float
    audit: dict | None = None

    def as_dict(self):
        out = {
            "gamma": self.gamma,
            "lambda": self.lam,
            "mu_prime": self.mu_prime,
            "mu_tilde": self.mu_tilde,
            "lambda_tilde": self.lambda_tilde,
            "C": self.constant,
            "factors": [[name, value] for name, value in self.factors],
        }
        if self.audit is not None:
            out["audit"] = self.audit
        return out


def gamma_select(n, k, q_exp, beta1, mu):
    """Largest dyadic ratio gamma = 2^-t (t >= 3) with

        4^(n+kq) * beta1 * (2 gamma / (1 - gamma))^(q mu) < 1/4.

    Dyadic ratios keep certificates bit-for-bit reproducible and align the
    iteration scales with quadrature ladders.  Failing every t up to 64
    means the constants cannot support any contraction step.
    """
    if beta1 <= 0:
        raise ValueError("beta1 must be positive")
    if not (0.0 < mu < 1.0):
        raise ValueError("mu must lie in (0, 1)")
    lead = 4.0 ** (n + k * q_exp) * beta1
    for t in range(GAMMA_T_MIN, GAMMA_T_MAX + 1):
        gamma = 2.0 ** (-t)
        if lead * (2.0 * gamma / (1.0 - gamma)) ** (q_exp * mu) < 0.25:
            return gamma
    raise WeakConstantsError("hypothesis constants too weak")


def _exponent_chain(n, k, q_exp, mu, gamma):
    t = -math.log2(gamma)
    lam = 2.0 / t  # log base gamma of 1/4, exact for dyadic gamma
    mu_prime = min(mu, lam / q_exp)
    mu_tilde = min(lam, mu_prime)
    lambda_tilde = n + q_exp * (k + mu_tilde)
    return lam, mu_prime, mu_tilde, lambda_tilde


def certified_exponent(h: DecayHypothesis) -> HolderCertificate:
    """Certificate from the two-part hypothesis.

    The constant is assembled as a product of the explicit proof-chain
    factors, each logged by name: ball-comparison at ratio up to 4,
    recentering overhead, the geometric scale sum, and the off-set
    transfer constant.
    """
    beta1 = 1.0 if h.beta1 is None else h.beta1
    beta2 = 1.0 if h.beta2 is None else h.beta2
    gamma = gamma_select(h.n, h.k, h.q_exp, beta1, h.mu)
    lam, mu_prime, mu_tilde, lambda_tilde = _exponent_chain(
        h.n, h.k, h.q_exp, h.mu, gamma)
    factors = (
        ("scale_comparison", 4.0 ** (h.n + h.k * h.q_exp)),
        ("recentering", 2.0 ** (h.n + h.k * h.q_exp + h.q_exp * mu_prime)),
        ("geometric_sum", 4.0 / 3.0),
        ("off_set_transfer", beta2),
    )
    constant = math.prod(v for _, v in factors)
    return HolderCertificate(gamma, lam, mu_prime, mu_tilde, lambda_tilde,
                             constant, factors, h.n, h.k, h.q_exp)


def certified_exponent_stratified(h: DecayHypothesis, s: Stratification,
                                  offset_window=4) -> HolderCertificate:
    """Certificate from the three-part hypothesis.

    One dyadic ratio is shared by every level (the smallest the selections
    allow), so all strata run the same exponent chain; the final exponent
    is the minimum across strata.  The constant additionally pays for the
    offset window: a stratum point can hide up to `offset_window` dyadic
    steps below the scale at which the base set takes over, and each hidden
    step costs one recentering factor.
    """
    if h.beta0 is None:
        raise ValueError("three-part hypothesis needs beta0")
    if h.n_strata < 1:
        raise ValueError("need at least one stratum")
    if offset_window < OFFSET_WINDOW_FLOOR:
        raise ValueError("offset window below %d" % OFFSET_WINDOW_FLOOR)
    if s.n_strata != h.n_strata:
        raise ValueError("stratification and hypothesis disagree on strata")
    try:
        gamma = gamma_select(h.n, h.k, h.q_exp, h.beta0, h.mu)
    except WeakConstantsError:
        raise WeakConstantsError("hypothesis constants too weak (base set)")
    for i, b in enumerate(h.betas):
        try:
            gamma = min(gamma, gamma_select(h.n, h.k, h.q_exp, b, h.mu))
        except WeakConstantsError:
            raise WeakConstantsError(
                "hypothesis constants too weak (stratum %d)" % (i + 1))
    lam, mu_prime, mu_tilde, lambda_tilde = _exponent_chain(
        h.n, h.k, h.q_exp, h.mu, gamma)
    power = h.n + h.k * h.q_exp + h.q_exp * mu_prime
    factors = [
        ("scale_comparison", 4.0 ** (h.n + h.k * h.q_exp)),
        ("recentering", 2.0 ** power),
        ("geometric_sum", 4.0 / 3.0),
        ("base_transfer", h.beta0),
    ]
    for i, (b, bt) in enumerate(zip(h.betas, h.beta_tildes)):
        factors.append(("stratum_%d_transfer" % (i + 1), b * bt))
    factors.append(("offset_window", gamma ** (-offset_window * power)))
    constant = math.prod(v for _, v in factors)
    return HolderCertificate(gamma, lam, mu_prime, mu_tilde, lambda_tilde,
                             constant, tuple(factors), h.n, h.k, h.q_exp)


@dataclass(frozen=True)
class AuditReport:
    which: str
    checked: int
    violations: tuple
    beta_used: float
    tol: float
    worst_ratio: float = 0.0

    @property
    def clean(self):
        return len(self.violations) == 0


def _as_list(us):
    return list(us) if isinstance(us, (list, tuple)) else [us]


def _dist_to(points, x):
    if points.shape[0] == 0:
        return math.inf
    return float(np.min(np.linalg.norm(points - np.asarray(x, float), axis=1)))


ROUNDING_FLOOR = 1e3 * np.finfo(float).eps


def _scaled_masses(u, center, radius, poly, n, k, q_exp):
    """(scaled G-mass, scaled data mass) on the radius-ball.

    Both carry the radius^(-n-kq) normalization of the premise; the data
    mass calibrates the rounding floor below which a G-mass is
    numerically zero rather than small.
    """
    sub = u.restrict(center, radius)
    model = poly.eval(sub.grid.points)
    _, costs, _ = match_batch(sub.values, model)
    g = np.sqrt(np.maximum(costs, 0.0))
    mass = float(np.sum(sub.grid.weights * g ** q_exp))
    mags = np.sqrt(np.einsum("sqm,sqm->s", sub.values, sub.values))
    ref = float(np.sum(sub.grid.weights * (mags + 1e-300) ** q_exp))
    scale = radius ** (-(n + k * q_exp))
    return scale * mass, scale * ref


def _pair_ladder(u, rho_top, min_nodes_radius):
    """Admissible dyadic (sigma, rho) pairs: sigma <= rho/2, both resolvable."""
    h = u.grid.resolution
    floor = max(min_nodes_radius * h, 1e-12)
    radii = []
    rho = rho_top
    while rho >= floor:
        radii.append(rho)
        rho *= 0.5
    pairs = [(radii[j], radii[i])  # (sigma, rho), sigma strictly deeper
             for i in range(len(radii)) for j in range(i + 1, len(radii))]
    return radii, pairs


def _limit_fit(u, center, rho_top, k, q_exp, cfg, min_nodes_radius):
    """Comparison polynomial for one center: the best fit at the deepest
    admissible rung, the closest available stand-in for the shrinking-scale
    limit polynomial.  (A top-scale fit would carry scale-eps coefficient
    offsets that contaminate the fine-scale side of the premise.)
    """
    radii, _ = _pair_ladder(u, rho_top, min_nodes_radius)
    for rho in reversed(radii):
        try:
            return best_fit(u, center, rho, k, q_exp, cfg).polynomial
        except InsufficientSamplesError:
            continue
    raise BelowResolutionError("no rung supports a comparison fit")


def _audit_center(u_list, center, lhs_polys, rhs_poly_sets, beta, mu, h,
                  rho_top, tol, min_nodes_radius, coarse_only=False):
    """Check the decay premise at one center.

    lhs_polys: one polynomial per component (the center's own comparison).
    rhs_poly_sets: per component, the family the premise quantifies over on
    the coarse side; the binding case is the family member with the
    smallest coarse mass.
    Returns (checked, violations, worst_ratio) where ratio compares the
    fine-scale side against beta (sigma/rho)^(q mu) times the coarse side.
    """
    n, k, q_exp = h.n, h.k, h.q_exp
    radii, pairs = _pair_ladder(u_list[0], rho_top, min_nodes_radius)
    if not pairs:
        raise BelowResolutionError("no admissible scale pairs at this center")
    if coarse_only:
        cutoff = radii[max(0, len(radii) // 2 - 1)]
        pairs = [(s, r) for s, r in pairs if s >= cutoff and r == 2 * s]
        if not pairs:
            pairs = [(radii[1], radii[0])] if len(radii) > 1 else []
    floor_factor = ROUNDING_FLOOR ** min(q_exp, 2.0)
    lhs_mass = {}
    rhs_mass = {}
    data_mass = {}
    for rho in radii:
        pair_sums = [_scaled_masses(u, center, rho, P, n, k, q_exp)
                     for u, P in zip(u_list, lhs_polys)]
        lhs_mass[rho] = sum(g for g, _ in pair_sums)
        data_mass[rho] = sum(r for _, r in pair_sums)
        if rhs_poly_sets[0] is None:
            # same comparison polynomial on both sides of the premise
            rhs_mass[rho] = lhs_mass[rho]
        else:
            # the premise must hold against every coarse-side family
            # member, so compare with the least favorable (smallest) one
            rhs_mass[rho] = sum(
                min(_scaled_masses(u, center, rho, P, n, k, q_exp)[0]
                    for P in fam)
                for u, fam in zip(u_list, rhs_poly_sets))
    checked = 0
    violations = []
    worst = 0.0
    for sigma, rho in pairs:
        lhs = lhs_mass[sigma]
        rhs = beta * (sigma / rho) ** (q_exp * mu) * rhs_mass[rho]
        checked += 1
        if lhs <= floor_factor * data_mass[sigma]:
            # numerically exact fit at this scale; nothing to contract
            continue
        ratio = lhs / rhs if rhs > 0 else math.inf
        worst = max(worst, ratio)
        if ratio > 1.0 + tol:
            violations.append({
                "center": [float(c) for c in center],
                "sigma": sigma,
                "rho": rho,
                "ratio": ratio,
            })
    return checked, violations, worst


def _free_centers(u, bad_points, min_nodes_radius, cap=12):
    """Ordinary audit centers: grid nodes keeping clear of the bad sets."""
    pts = u.grid.points
    h = u.grid.resolution
    if bad_points.size:
        d = np.min(np.linalg.norm(
            pts[:, None, :] - bad_points[None, :, :], axis=2), axis=1)
    else:
        d = np.full(pts.shape[0], np.inf)
    # far enough that a nontrivial dyadic ladder fits under dist(x, bad)
    ok = np.flatnonzero(d >= 6.0 * min_nodes_radius * h)
    if ok.size == 0:
        raise BelowResolutionError("no free centers clear of the bad sets")
    stride = max(1, ok.size // cap)
    return pts[ok[::stride][:cap]]


def audit_hypothesis(us, h, s, which, mu=None, tol=DEFAULT_AUDIT_TOL,
                     cfg=None, min_nodes_radius=8.0, coarse_only=False,
                     fits=None):
    """Evaluate one part of the decay premise on sampled data.

    which = "I": contraction at base-set points (joint across components).
    which = "II": stratum points against the base-set comparison family.
    which = "III": ordinary points against base and stratum families.

    Per center and per admissible dyadic scale pair, both sides of the
    premise are computed by quadrature; ratios above 1 + tol are reported
    as violations with their location and scales.  `fits` can carry
    precomputed comparison polynomials keyed by (point tuple, fit radius).
    """
    u_list = _as_list(us)
    mu = h.mu if mu is None else mu
    fits = {} if fits is None else fits

    def fit_at(center, rho_top):
        key = (tuple(np.round(np.asarray(center, float), 12)), float(rho_top))
        if key not in fits:
            fits[key] = [
                _limit_fit(u, center, rho_top, h.k, h.q_exp, cfg,
                           min_nodes_radius)
                for u in u_list
            ]
        return fits[key]

    bad_all = np.vstack([s.base] + [g for g in s.strata]) if s.strata \
        else s.base

    if which == "I":
        beta = h.beta0 if h.stratified else (
            1.0 if h.beta1 is None else h.beta1)
        centers = s.base
        rho_top = h.eps

        def task(center):
            own = fit_at(center, rho_top)
            return _audit_center(u_list, center, own,
                                 [None] * len(u_list), beta, mu, h,
                                 rho_top, tol, min_nodes_radius, coarse_only)
    elif which == "II":
        if h.stratified:
            if s.n_strata == 0:
                raise ValueError("no strata to audit")
            base_fams = [
                [fit_at(y, h.eps)[i] for y in s.base]
                for i in range(len(u_list))
            ]
            jobs = []
            for i, pts in enumerate(s.strata):
                for x1 in pts:
                    jobs.append((i, x1))
            beta = max(h.betas)

            def task(job):
                i, x1 = job
                dist = _dist_to(s.base, x1)
                rho_top = min(0.25, dist) * 0.999
                own = fit_at(x1, min(rho_top, h.eps))
                lhs = [own[i]]
                fams = [base_fams[i]]
                return _audit_center([u_list[i]], x1, lhs, fams, h.betas[i],
                                     mu, h, rho_top, tol, min_nodes_radius,
                                     coarse_only)

            return _run_audit(jobs, task, which, beta, tol)
        beta = 1.0 if h.beta2 is None else h.beta2
        centers = s.free_points if s.free_points is not None else \
            _free_centers(u_list[0], s.base, min_nodes_radius)
        base_fams = [[fit_at(y, h.eps)[i] for y in s.base]
                     for i in range(len(u_list))]

        def task(center):
            dist = _dist_to(s.base, center)
            rho_top = min(0.25, dist) * 0.999
            own = fit_at(center, min(rho_top, h.eps))
            return _audit_center(u_list, center, own, base_fams, beta, mu,
                                 h, rho_top, tol, min_nodes_radius,
                                 coarse_only)
    elif which == "III":
        if not h.stratified:
            raise ValueError("part III exists only for the three-part form")
        beta = max(h.beta_tildes)
        bad = bad_all
        centers = s.free_points if s.free_points is not None else \
            _free_centers(u_list[0], bad, min_nodes_radius)
        base_fams = [[fit_at(y, h.eps)[i] for y in s.base]
                     for i in range(len(u_list))]
        strat_fams = [
            [fit_at(x1, min(min(0.25, _dist_to(s.base, x1)) * 0.999,
                            h.eps))[i]
             for pts in s.strata for x1 in pts]
            for i in range(len(u_list))
        ]
        jobs = []
        for i in range(len(u_list)):
            for center in centers:
                jobs.append((i, center))

        def task(job):
            i, center = job
            dist = _dist_to(bad, center)
            rho_top = min(0.25, dist) * 0.999
            own = fit_at(center, min(rho_top, h.eps))
            fams = [base_fams[i] + strat_fams[i]]
            return _audit_center([u_list[i]], center, [own[i]], fams,
                                 h.beta_tildes[i], mu, h, rho_top, tol,
                                 min_nodes_radius, coarse_only)

        return _run_audit(jobs, task, which, beta, tol)
    else:
        raise ValueError("which must be I, II, or III")

    return _run_audit(list(centers), task, which, beta, tol)


def _run_audit(jobs, task, which, beta, tol):
    checked = 0
    violations = []
    worst = 0.0
    for job in jobs:
        c, v, w = task(job)
        checked += c
        violations.extend(v)
        worst = max(worst, w)
    return AuditReport(which, checked, tuple(violations), beta, tol, worst)


@dataclass(frozen=True)
class CertifyOutcome:
    certificate: HolderCertificate | None
    audits: tuple
    refused: bool
    soundness: dict | None = None

    @property
    def ok(self):
        return not self.refused


def end_to_end_certify(us, s, k, q_exp, mu_claim, eps=0.2,
                       tol=DEFAULT_AUDIT_TOL, cfg=None, offset_window=4,
                       min_nodes_radius=8.0, soundness_depth=4):
    """Calibrate, audit, and certify in one pass.

    The hypothesis constants are first calibrated on coarse scale pairs
    (adjacent rungs in the top half of each ladder, padded by the audit
    tolerance), then the full dyadic range is audited against those
    constants.  Data whose fine scales decay no better than its coarse
    scales passes; data that degrades below the claimed modulus at fine
    scales refuses with the violation list.  A passing certificate is
    spot-checked for soundness: the certified Campanato exponent must not
    exceed the measured decay exponent at the audited centers.
    """
    u_list = _as_list(us)
    s.validate()
    n = u_list[0].n
    parts = ("I", "II", "III") if s.n_strata else ("I", "II")
    base_h = DecayHypothesis(
        n=n, k=k, q_exp=q_exp, mu=mu_claim, eps=eps,
        beta0=1.0 if s.n_strata else None,
        beta1=None if s.n_strata else 1.0,
        beta2=None if s.n_strata else 1.0,
        betas=(1.0,) * s.n_strata,
        beta_tildes=(1.0,) * s.n_strata,
    )
    fits = {}
    calibrated = {}
    for which in parts:
        rep = audit_hypothesis(u_list, base_h, s, which, tol=tol, cfg=cfg,
                               min_nodes_radius=min_nodes_radius,
                               coarse_only=True, fits=fits)
        calibrated[which] = max(rep.worst_ratio, 1.0) * (1.0 + tol)
    if s.n_strata:
        h = replace(base_h, beta0=calibrated["I"],
                    betas=(calibrated["II"],) * s.n_strata,
                    beta_tildes=(calibrated["III"],) * s.n_strata)
    else:
        h = replace(base_h, beta1=calibrated["I"], beta2=calibrated["II"])
    audits = []
    refused = False
    for which in parts:
        rep = audit_hypothesis(u_list, h, s, which, tol=tol, cfg=cfg,
                               min_nodes_radius=min_nodes_radius, fits=fits)
        audits.append(rep)
        if not rep.clean:
            refused = True
    if refused:
        return CertifyOutcome(None, tuple(audits), True)
    if s.n_strata:
        cert = certified_exponent_stratified(h, s, offset_window)
    else:
        cert = certified_exponent(h)
    soundness = _soundness_spot_check(u_list, s, cert, k, q_exp, eps,
                                      cfg, min_nodes_radius, soundness_depth)
    cert = replace(cert, audit={
        "checked": sum(a.checked for a in audits),
        "violations": [list(a.violations) for a in audits],
    })
    return CertifyOutcome(cert, tuple(audits), False, soundness)


def _soundness_spot_check(u_list, s, cert, k, q_exp, eps, cfg,
                          min_nodes_radius, depth):
    """Fraction of audited centers where measured decay meets the
    certificate's exponent; exact-polynomial centers count as sound."""
    from .campanato import decay_exponent
    from .geometry import dyadic_ladder

    centers = [np.asarray(c, float) for c in s.base]
    for pts in s.strata:
        centers.extend(np.asarray(c, float) for c in pts)
    if s.free_points is not None:
        centers.extend(np.asarray(c, float) for c in s.free_points)
    else:
        bad = np.vstack([s.base] + list(s.strata)) if s.strata else s.base
        centers.extend(_free_centers(u_list[0], bad, min_nodes_radius,
                                     cap=6))
    ladder = dyadic_ladder(eps, depth)
    results = []
    for center in centers:
        lam_hats = []
        for u in u_list:
            try:
                fitd = decay_exponent(u, center, k, q_exp, ladder, cfg,
                                      min_rungs=3)
            except BelowResolutionError:
                continue
            lam_hats.append(fitd.lambda_hat)
        if not lam_hats:
            continue
        lam_hat = min(lam_hats)
        results.append({
            "center": [float(c) for c in center],
            "lambda_hat": lam_hat,
            "sound": bool(cert.lambda_tilde <= lam_hat + 1e-9),
        })
    if not results:
        return {"fraction": math.nan, "centers": []}
    frac = sum(r["sound"] for r in results) / len(results)
    return {"fraction": frac, "centers": results}
