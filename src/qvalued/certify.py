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
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .campanato import decay_exponent
from .errors import (
    BelowResolutionError,
    InsufficientSamplesError,
    WeakConstantsError,
)
from .geometry import dyadic_ladder, squared_distances
from .points import matched_mass
from .polyfit import _shared_fits, best_fit, exact_floor

__all__ = [
    "DecayHypothesis",
    "Stratification",
    "HolderCertificate",
    "ScalePair",
    "AuditReport",
    "CertifyOutcome",
    "gamma_select",
    "certified_exponent",
    "audit_hypothesis",
    "end_to_end_certify",
]

GAMMA_T_MIN = 3
GAMMA_T_MAX = 64
DEFAULT_AUDIT_TOL = 0.05
OFFSET_WINDOW = 4  # dyadic steps a stratum point can hide below the base set
MIN_NODES_RADIUS = 8.0  # audit radii span at least this many grid steps
FREE_CENTERS = 12  # the most ordinary audit centers drawn from a grid
SOUNDNESS_DEPTH = 4  # rungs below eps in the soundness spot check's ladder
MIN_SEPARATION = 1e-9  # closest a stratum point may come to the base set


@dataclass(frozen=True)
class DecayHypothesis:
    """Constants of a two-part or three-part scale-decay premise.

    Two-part form (single function, one bad set): beta1 is the contraction
    constant on the bad set, beta2 the transfer constant off it.  Three-part
    form (N component functions, bad set plus per-component strata): beta0
    on the bad set, then (betas[i], beta_tildes[i]) per stratum.  eps is
    the top comparison scale.
    Constants of both forms together, strata without beta0, or beta0
    without a stratum are refused.
    """

    n: int
    k: int
    q_exp: float
    mu: float
    eps: float = 0.2
    beta1: float | None = None
    beta2: float | None = None
    beta0: float | None = None
    betas: tuple = ()
    beta_tildes: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        for name in ("q_exp", "mu", "eps", "beta1", "beta2", "beta0"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError("%s must be finite" % name)
        if not all(math.isfinite(b) for b in self.betas + self.beta_tildes):
            raise ValueError("stratum constants must be finite")
        if not (0.0 < self.mu < 1.0):
            raise ValueError("mu must lie in (0, 1)")
        if not (0.0 < self.eps < 0.25):
            raise ValueError("eps must lie in (0, 1/4)")
        if self.q_exp < 1.0:
            raise ValueError("q_exp must be at least 1")
        for name in ("beta1", "beta2", "beta0"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError("%s must be positive" % name)
        two = [f for f in ("beta1", "beta2") if getattr(self, f)]  # given constants
        three = [f for f in ("beta0", "betas", "beta_tildes") if getattr(self, f)]
        if two and three:
            raise ValueError("two-part constants %s mixed with three-part constants %s"
                             % (two, three))
        if three and self.beta0 is None:
            raise ValueError("three-part constants %s need beta0" % three)
        if self.beta0 is not None and not self.betas:
            raise ValueError("beta0 is a three-part constant: need at least one stratum")
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
    when absent.  A point that is not finite, or a stratum point within
    MIN_SEPARATION of the base set (the finite-sample form of the closure
    condition: the two levels would not be distinguishable), is refused
    with ValueError.
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
        for x in self.points():
            if not np.all(np.isfinite(x)):
                raise ValueError("point %s is not finite" % x.tolist())
        for i, s in enumerate(self.strata):
            if np.any(_set_distances(s, self.base) < MIN_SEPARATION):
                raise ValueError("stratum %d touches the base bad set" % (i + 1))

    def points(self):
        """Every point the stratification names: base, strata, free points."""
        sets = [self.base, *self.strata]
        if self.free_points is not None:
            sets.append(self.free_points)
        return np.vstack(sets)

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
    """Certificate from a two-part or a three-part hypothesis.

    The constant is the product of the proof-chain factors, each logged by
    name: ball-comparison at ratio up to 4, recentering overhead, the
    geometric scale sum, then the transfer constants.  gamma is the
    smallest selection over the levels: beta1 (two-part), or beta0 and each
    betas[i] (three-part).  The three-part constant also pays for the offset
    window: a stratum point can hide up to OFFSET_WINDOW dyadic steps below
    the base set's scale, and each hidden step costs one recentering factor.
    """
    if h.stratified:
        levels = [(" (base set)", h.beta0)] + [
            (" (stratum %d)" % (i + 1), b) for i, b in enumerate(h.betas)]
        transfers = [("base_transfer", h.beta0)] + [
            ("stratum_%d_transfer" % (i + 1), b * bt)
            for i, (b, bt) in enumerate(zip(h.betas, h.beta_tildes))]
    else:
        levels = [("", 1.0 if h.beta1 is None else h.beta1)]
        transfers = [("off_set_transfer", 1.0 if h.beta2 is None else h.beta2)]
    gamma = 1.0
    for where, beta in levels:
        try:
            gamma = min(gamma, gamma_select(h.n, h.k, h.q_exp, beta, h.mu))
        except WeakConstantsError:
            raise WeakConstantsError("hypothesis constants too weak" + where) from None
    lam, mu_prime, mu_tilde, lambda_tilde = _exponent_chain(
        h.n, h.k, h.q_exp, h.mu, gamma)
    power = h.n + h.k * h.q_exp + h.q_exp * mu_prime
    factors = [
        ("scale_comparison", 4.0 ** (h.n + h.k * h.q_exp)),
        ("recentering", 2.0 ** power),
        ("geometric_sum", 4.0 / 3.0),
    ] + transfers
    if h.stratified:
        factors.append(("offset_window", gamma ** (-OFFSET_WINDOW * power)))
    constant = math.prod(v for _, v in factors)
    return HolderCertificate(gamma, lam, mu_prime, mu_tilde, lambda_tilde,
                             constant, tuple(factors), h.n, h.k, h.q_exp)


@dataclass(frozen=True)
class ScalePair:
    """One admissible dyadic scale pair (sigma <= rho/2) at an audited center.

    fine is the scaled G-mass at sigma.  The coarse side at beta = 1 is
    decay * coarse, with decay = (sigma/rho)^(q mu) and coarse the scaled
    G-mass at rho.  exact marks a fine side below the rounding floor, where
    there is nothing to contract; calibrating marks the coarse pairs that
    end_to_end_certify calibrates its constants on.
    """

    center: tuple
    sigma: float
    rho: float
    fine: float
    decay: float
    coarse: float
    exact: bool
    calibrating: bool


@dataclass(frozen=True)
class AuditReport:
    which: str
    checked: int
    violations: tuple
    beta_used: float
    worst_ratio: float
    pairs: tuple = field(repr=False)  # the ScalePairs judged

    @property
    def clean(self):
        return len(self.violations) == 0


def _as_list(us):
    return list(us) if isinstance(us, (list, tuple)) else [us]


def _set_distances(points, targets):
    """Distance from each row of `points` to the nearest row of `targets`,
    inf where `targets` is empty.

    The root is taken of each row's least squared distance: below 8
    coordinates, the bytes of
    np.linalg.norm(points[:, None] - targets[None], axis=2).min(axis=1).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if targets.size == 0:
        return np.full(points.shape[0], np.inf)
    return np.sqrt(squared_distances(points[:, None], targets[None]).min(axis=1))


def _audit_ladder(u, rho_top):
    """Dyadic radii from rho_top down, largest first, each resolvable:
    at least MIN_NODES_RADIUS grid steps."""
    floor = max(MIN_NODES_RADIUS * u.grid.resolution, 1e-12)
    if not rho_top >= floor:
        return []
    depth = int(math.log2(rho_top / floor)) + 1
    return [r for r in dyadic_ladder(rho_top, depth).tolist() if r >= floor]


def _limit_fit(u, center, rho_top, k, q_exp):
    """Comparison polynomial for one center: the best fit at the deepest
    admissible rung, the closest available stand-in for the shrinking-scale
    limit polynomial.  (A top-scale fit would carry scale-eps coefficient
    offsets that contaminate the fine-scale side of the premise.)
    """
    for rho in reversed(_audit_ladder(u, rho_top)):
        try:
            return best_fit(u, center, rho, k, q_exp).polynomial
        except InsufficientSamplesError:
            continue
    raise BelowResolutionError("no rung supports a comparison fit")


def _pair_table(us, center, own, fams, rho_top, h):
    """ScalePairs of the decay premise at one center.

    us and own: the audited components and the center's own comparison
    polynomial on each (the fine side).  fams: per component, the family the
    premise quantifies over on the coarse side, whose binding case is the
    member with the smallest coarse mass; None compares own with itself.
    Every rung restricts each component once, for own and family alike,
    and evaluates each polynomial through the ball's kept design.  Pairs
    run over rho from the top, then sigma below it.
    """
    n, k, q_exp = h.n, h.k, h.q_exp
    radii = _audit_ladder(us[0], rho_top)
    if len(radii) < 2:
        step = us[0].grid.resolution
        raise BelowResolutionError(
            "no admissible scale pairs at center %s: rho_top = %g needs "
            "rho_top/2 >= %gh = %g; the largest admissible h is %g"
            % ([float(x) for x in center], rho_top, MIN_NODES_RADIUS,
               MIN_NODES_RADIUS * step, rho_top / (2.0 * MIN_NODES_RADIUS)))
    fine, coarse, data = {}, {}, {}
    for rho in radii:
        scale = rho ** (-(n + k * q_exp))
        subs = [u.restrict(center, rho) for u in us]
        fine[rho] = sum(
            scale * matched_mass(sub.grid.weights, sub.values,
                                 P.eval(sub.grid), q_exp)
            for sub, P in zip(subs, own))
        data[rho] = sum(scale * sub.q_mass(q_exp) for sub in subs)
        coarse[rho] = fine[rho] if fams is None else sum(
            min(scale * matched_mass(sub.grid.weights, sub.values,
                                     P.eval(sub.grid), q_exp)
                for P in fam)
            for sub, fam in zip(subs, fams))
    cutoff = radii[max(0, len(radii) // 2 - 1)]
    c = tuple(float(x) for x in center)
    pairs = [
        ScalePair(c, sigma, rho, fine[sigma],
                  (sigma / rho) ** (q_exp * h.mu), coarse[rho],
                  fine[sigma] <= exact_floor(data[sigma], q_exp),
                  sigma >= cutoff and rho == 2 * sigma)
        for i, rho in enumerate(radii) for sigma in radii[i + 1:]
    ]
    if not any(p.calibrating for p in pairs):
        # a short ladder calibrates on its top adjacent pair
        pairs[0] = replace(pairs[0], calibrating=True)
    return pairs


def _judge(which, pairs, betas, beta_used):
    """Report on a pair table, judging each pair at its own beta: the ratio
    of the fine side to beta (sigma/rho)^(q mu) times the coarse side."""
    violations = []
    worst = 0.0
    for p, beta in zip(pairs, betas):
        if p.exact:
            # numerically exact fit at this scale; nothing to contract
            continue
        rhs = beta * p.decay * p.coarse
        ratio = p.fine / rhs if rhs > 0 else math.inf
        worst = max(worst, ratio)
        if ratio > 1.0 + DEFAULT_AUDIT_TOL:
            violations.append({
                "center": list(p.center),
                "sigma": p.sigma,
                "rho": p.rho,
                "ratio": ratio,
            })
    return AuditReport(which, len(pairs), tuple(violations), beta_used, worst,
                       tuple(pairs))


def _free_centers(u, bad_points):
    """Ordinary audit centers: at most FREE_CENTERS grid nodes clear of the bad sets."""
    pts = u.grid.points
    h = u.grid.resolution
    d = _set_distances(pts, bad_points)
    # far enough that a nontrivial dyadic ladder fits under dist(x, bad)
    ok = np.flatnonzero(d >= 6.0 * MIN_NODES_RADIUS * h)
    if ok.size == 0:
        raise BelowResolutionError("no free centers clear of the bad sets")
    stride = max(1, ok.size // FREE_CENTERS)
    return pts[ok[::stride][:FREE_CENTERS]]


def _bad_all(s):
    return np.vstack([s.base] + list(s.strata)) if s.strata else s.base


@_shared_fits()
def audit_hypothesis(us, h, s, which):
    """Evaluate one part of the decay premise on sampled data.

    which = "I": contraction at base-set points (joint across components).
    which = "II": stratum points against the base-set comparison family.
    which = "III": ordinary points against base and stratum families.

    Per center and per admissible dyadic scale pair, both sides of the
    premise are computed by quadrature; ratios above 1 + DEFAULT_AUDIT_TOL
    are reported as violations with their location and scales.  The report
    keeps the pair table it judged, and fits each ball once, or once per
    enclosing `polyfit._shared_fits` block.  A point of `s` with no grid
    node within one grid step is refused with ValueError before any fit,
    and so are three-part counts of components, strata and constants that
    disagree: part i pairs component i, stratum i and betas[i], beta_tildes[i].
    """
    u_list = _as_list(us)
    if which not in ("I", "II", "III"):
        raise ValueError("which must be I, II, or III")
    if which == "III" and not h.stratified:
        raise ValueError("part III exists only for the three-part form")
    if which == "II" and h.stratified and s.n_strata == 0:
        raise ValueError("no strata to audit")
    if h.stratified and not len(u_list) == s.n_strata == h.n_strata:
        raise ValueError(
            "the three-part form pairs each component with one stratum and "
            "one (beta, beta_tilde) pair: got %d components, %d strata and "
            "%d stratum constant pairs" % (len(u_list), s.n_strata, h.n_strata))
    for u in u_list:
        for x in s.points():
            u.nearest_index(x)  # refuses a point with no node within one step

    def fit_at(center, rho_top):
        return [_limit_fit(u, center, rho_top, h.k, h.q_exp) for u in u_list]

    def top(center, bad):
        # largest audit radius whose ball keeps off the bad set
        return min(0.25, float(_set_distances(center, bad)[0])) * 0.999

    every = range(len(u_list))
    base_fams = [[fit_at(y, h.eps)[i] for y in s.base] for i in every]
    # jobs: (components, center, per-component family or None, beta, rho_top)
    if which == "I":
        beta_used = h.beta0 if h.stratified else (
            1.0 if h.beta1 is None else h.beta1)
        jobs = [(every, y, None, beta_used, h.eps) for y in s.base]
    elif h.stratified and which == "II":
        beta_used = max(h.betas)
        jobs = [([i], x1, base_fams, h.betas[i], top(x1, s.base))
                for i, pts in enumerate(s.strata) for x1 in pts]
    elif which == "II":
        beta_used = 1.0 if h.beta2 is None else h.beta2
        centers = s.free_points if s.free_points is not None else \
            _free_centers(u_list[0], s.base)
        jobs = [(every, x, base_fams, beta_used, top(x, s.base))
                for x in centers]
    else:
        beta_used = max(h.beta_tildes)
        bad = _bad_all(s)
        centers = s.free_points if s.free_points is not None else \
            _free_centers(u_list[0], bad)
        strat_fams = [
            [fit_at(x1, min(top(x1, s.base), h.eps))[i]
             for pts in s.strata for x1 in pts]
            for i in every
        ]
        fams = [b + t for b, t in zip(base_fams, strat_fams)]
        jobs = [([i], x, fams, h.beta_tildes[i], top(x, bad))
                for i in every for x in centers]

    pairs, betas = [], []
    for comps, center, fams, beta, rho_top in jobs:
        own = fit_at(center, min(rho_top, h.eps))
        rows = _pair_table(
            [u_list[i] for i in comps], center, [own[i] for i in comps],
            None if fams is None else [fams[i] for i in comps], rho_top, h)
        pairs += rows
        betas += [beta] * len(rows)
    return _judge(which, pairs, betas, beta_used)


@dataclass(frozen=True)
class CertifyOutcome:
    certificate: HolderCertificate | None
    audits: tuple
    refused: bool
    soundness: dict | None = None

    @property
    def ok(self):
        return not self.refused


@_shared_fits()
def end_to_end_certify(us, s, k, q_exp, mu_claim):
    """Calibrate, audit, and certify in one pass.

    Each part of the premise is audited once, at unit constants, and the
    pair table of that audit is judged twice.  The constants are calibrated
    on its coarse pairs (adjacent rungs in the top half of each ladder,
    padded by the audit tolerance); then every pair is judged against the
    calibrated constants.  Data whose fine scales decay no better than its
    coarse scales passes; data that degrades below the claimed modulus at
    fine scales refuses with the violation list.  A passing certificate is
    spot-checked for soundness: the certified Campanato exponent must not
    exceed the measured decay exponent at the audited centers.  A ball is
    fitted once per call (`polyfit._shared_fits`): the audits and the spot
    check's excess profiles reuse each other's fits where they meet.

    Every audited center needs a ladder of two rungs, rho_top/2 >=
    MIN_NODES_RADIUS h.  At a base point rho_top is eps = 0.2, so the grid
    step must be h <= eps / 16 = 1/80; a coarser grid raises
    BelowResolutionError naming the center, rho_top, the floor and the
    largest admissible h.
    """
    u_list = _as_list(us)
    n = u_list[0].n
    parts = ("I", "II", "III") if s.n_strata else ("I", "II")
    unit = DecayHypothesis(
        n=n, k=k, q_exp=q_exp, mu=mu_claim,
        beta0=1.0 if s.n_strata else None,
        beta1=None if s.n_strata else 1.0,
        beta2=None if s.n_strata else 1.0,
        betas=(1.0,) * s.n_strata,
        beta_tildes=(1.0,) * s.n_strata,
    )
    tables = [audit_hypothesis(u_list, unit, s, which).pairs
              for which in parts]
    calibrated = {}
    for which, pairs in zip(parts, tables):
        coarse = [p for p in pairs if p.calibrating]
        worst = _judge(which, coarse, repeat(1.0), 1.0).worst_ratio
        calibrated[which] = max(worst, 1.0) * (1.0 + DEFAULT_AUDIT_TOL)
    audits = tuple(
        _judge(which, pairs, repeat(calibrated[which]), calibrated[which])
        for which, pairs in zip(parts, tables))
    if any(not a.clean for a in audits):
        return CertifyOutcome(None, audits, True)
    if s.n_strata:
        h = replace(unit, beta0=calibrated["I"],
                    betas=(calibrated["II"],) * s.n_strata,
                    beta_tildes=(calibrated["III"],) * s.n_strata)
    else:
        h = replace(unit, beta1=calibrated["I"], beta2=calibrated["II"])
    cert = certified_exponent(h)
    soundness = _soundness_spot_check(u_list, s, cert, k, q_exp, unit.eps)
    cert = replace(cert, audit={
        "checked": sum(a.checked for a in audits),
        "violations": [list(a.violations) for a in audits],
    })
    return CertifyOutcome(cert, audits, False, soundness)


def _soundness_spot_check(u_list, s, cert, k, q_exp, eps):
    """Fraction of audited centers where measured decay meets the
    certificate's exponent; exact-polynomial centers count as sound.  Of
    the free centers the grid gave the audits, every other one is checked."""
    centers = list(s.points())
    if s.free_points is None:
        centers.extend(_free_centers(u_list[0], _bad_all(s))[::2])
    ladder = dyadic_ladder(eps, SOUNDNESS_DEPTH)
    results = []
    for center in centers:
        lam_hats = []
        for u in u_list:
            try:
                fitd = decay_exponent(u, center, k, q_exp, ladder,
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
