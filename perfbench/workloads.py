"""The four benchmark workloads: inputs from a seed, ops, and output checks.

Each builder takes a workload seed and a scratch directory and returns a
`Workload`: the fixed list of ops one pass runs, in order, and a warm-up
that runs the same code paths on small inputs so that lazy set-up is done
before timing.  An op's `run` calls into qvalued through module attributes
(`polyfit.best_fit`, `cli.main`, ...) so that the traced run sees the
wrapped functions.  An op's `check` raises `CheckFailed` on a wrong output
and otherwise returns a digest; the runner requires equal digests for the
same op in every pass.
"""

import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from qvalued import certify, cli, io, points, polyfit
from qvalued.geometry import Domain, dyadic_ladder

# Grid steps.  At h = 1/256 single ops take 20 s and more; these keep
# several passes inside one run while every check still holds (NOTES.md).
H_CLI = 1.0 / 64.0   # cli-fine and metric-compare field, radius 0.5: 3228 nodes
H_CERT = 1.0 / 80.0  # certify-e2e fields, unit disk: 20108 nodes
H_FIT = 1.0 / 16.0   # fit-interp, unit disk: 812 nodes (the c03 grid)

# The two-branch field +-r^1.5 e^{1.5 i (theta - theta0)} is the same
# unordered field for theta0 and theta0 + 2 pi / 3, and a quarter turn of
# the grid maps theta0 to theta0 - pi / 2; so theta0 and theta0 + pi / 6
# pose the same problem up to a lattice symmetry.  A workload samples ANGLES
# evenly spaced theta0 over that period, offset by the seed, so the pass
# cost depends little on the seed.
ANGLES = 3
PERIOD = math.pi / 6.0

FIT_COMBOS = tuple(itertools.product((1, 2, 3), (1, 2), (1, 2, 3)))  # Q, m, k
FIT_DRAWS = 3  # polynomial tuples per (Q, m, k) in one pass
RATIO_QS = (2, 4, 7)
RATIO_BATCH = 16
RATIO_ROUNDS = 4
PROFILE_LADDER = dyadic_ladder(0.5, 5)
LAMBDA_TILDE = 25.0 / 6.0

DEFAULT_SEEDS = {
    "fit-interp": 2024,
    "cli-fine": 0,
    "certify-e2e": 0,
    "metric-compare": 0,
}


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    label: str
    run: object    # () -> output
    check: object  # output -> digest; raises CheckFailed


@dataclass(frozen=True)
class Workload:
    ops: tuple
    warmup: object  # () -> None


def theta_offsets(seed):
    """ANGLES evenly spaced angles over one period; seed 0 starts at 0."""
    phi = ((seed * 0.6180339887498949) % 1.0) * PERIOD / ANGLES
    return [phi + j * PERIOD / ANGLES for j in range(ANGLES)]


def two_branch(grid, theta0):
    p = grid.points
    r = np.linalg.norm(p, axis=1)
    th = np.arctan2(p[:, 1], p[:, 0]) - theta0
    a = r ** 1.5
    b = np.stack([a * np.cos(1.5 * th), a * np.sin(1.5 * th)], axis=-1)
    return points.SampledQFunction(grid, np.stack([b, -b], axis=1))


def single_valued(grid):
    r = np.linalg.norm(grid.points, axis=1)
    return points.SampledQFunction(grid, (r ** 1.5)[:, None, None])


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# fit-interp: best_fit on exact random polynomial tuples (the c03 mix)


def _fit(u, k):
    return polyfit.best_fit(u, np.zeros(2), 1.1, k, 2.0,
                            polyfit.FitConfig(restarts=8))


def check_fit(target, res):
    _require(res.residual <= 1e-16, "residual %.3g above 1e-16" % res.residual)
    gap = polyfit.coefficient_metric(res.polynomial.recenter(np.zeros(2)),
                                     target.recenter(np.zeros(2)))
    _require(gap <= 1e-8, "coefficient gap %.3g above 1e-8" % gap)
    return res.polynomial.coeffs.tobytes() + repr(res.residual).encode()


def fit_interp(seed, workdir):
    grid = Domain.ball(2, 1.0).sample(H_FIT)
    rng = np.random.default_rng(seed)
    ops = []
    for q, m, k in FIT_COMBOS * FIT_DRAWS:
        target = polyfit.random_qpolynomial(rng, 2, m, q, k)
        u = points.SampledQFunction(grid, target.eval(grid.points))
        ops.append(Op("fit.Q%d" % q, partial(_fit, u, k),
                      partial(check_fit, target)))
    warm = Domain.ball(2, 1.0).sample(1.0 / 8.0)
    target = polyfit.random_qpolynomial(np.random.default_rng(1), 2, 2, 3, 1)
    u_warm = points.SampledQFunction(warm, target.eval(warm.points))
    return Workload(tuple(ops), partial(_fit, u_warm, 1))


# ---------------------------------------------------------------------------
# cli-fine: in-process CLI fit, exponent and lab audit on a written CSV


def _cli(argv):
    return cli.main(list(argv))


def _read_report(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckFailed("report missing: %s" % exc) from None
    return raw, json.loads(raw)


def check_cli_fit(out_json, rc):
    _require(rc == 0, "fit exited %r" % rc)
    raw, rep = _read_report(out_json)
    _require(rep.get("residual") is not None, "fit report has no residual")
    return raw


def check_cli_exponent(out_json, fit_json, rc):
    _require(rc == 0, "exponent exited %r" % rc)
    raw, rep = _read_report(out_json)
    lam = rep.get("lambda_hat")
    _require(lam is not None and 4.9 <= lam <= 5.1,
             "lambda_hat %r outside [4.9, 5.1]" % lam)
    _, fit = _read_report(fit_json)
    _require(fit.get("residual") == rep["excesses"][0],
             "fit residual %r differs from top-rung excess %r"
             % (fit.get("residual"), rep["excesses"][0]))
    return raw


def check_cli_audit(out_json, rc):
    _require(rc == 0, "lab audit exited %r" % rc)
    raw, rep = _read_report(out_json)
    freq = rep["frequency"]
    _require(len(freq["values"]) > 0, "no frequency values")
    _require(all(v is not None and math.isfinite(v) for v in freq["values"]),
             "non-finite frequency values %r" % freq["values"])
    _require(not freq["skipped"], "skipped rungs %r" % freq["skipped"])
    return raw


def cli_fine(seed, workdir):
    grid = Domain.ball(2, 0.5).sample(H_CLI)
    ops = []
    for j, theta0 in enumerate(theta_offsets(seed)):
        csv = os.path.join(workdir, "field%d.csv" % j)
        io.write_samples_csv(csv, two_branch(grid, theta0))
        fit_json = os.path.join(workdir, "fit%d.json" % j)
        exp_json = os.path.join(workdir, "exp%d.json" % j)
        audit_json = os.path.join(workdir, "audit%d.json" % j)
        ops += [
            Op("fit", partial(_cli, ["fit", "--in", csv, "--out", fit_json]),
               partial(check_cli_fit, fit_json)),
            Op("exponent",
               partial(_cli, ["exponent", "--in", csv, "--out", exp_json]),
               partial(check_cli_exponent, exp_json, fit_json)),
            Op("audit",
               partial(_cli, ["lab", "audit", "--in", csv, "--out", audit_json]),
               partial(check_cli_audit, audit_json)),
        ]
    warm_csv = os.path.join(workdir, "warm.csv")
    io.write_samples_csv(warm_csv, two_branch(Domain.ball(2, 0.5).sample(1.0 / 16.0), 0.0))
    warm_out = os.path.join(workdir, "warm-%s.json")
    warm_argv = (
        ["fit", "--in", warm_csv, "--out", warm_out % "fit"],
        ["excess", "--in", warm_csv, "--out", warm_out % "excess",
         "--ladder-depth", "3"],
        ["lab", "audit", "--in", warm_csv, "--out", warm_out % "audit"],
    )
    return Workload(tuple(ops), partial(_warm_cli, warm_argv))


def _warm_cli(argvs):
    for argv in argvs:
        rc = _cli(argv)
        if rc != 0:
            raise RuntimeError("warm-up %r exited %d" % (argv, rc))


# ---------------------------------------------------------------------------
# certify-e2e: end_to_end_certify on the single-valued and two-branch fields


def _certify(u):
    return certify.end_to_end_certify(
        u, certify.Stratification(base=[[0.0, 0.0]]), k=1, q_exp=2.0,
        mu_claim=0.5)


def check_certify(out):
    _require(out.ok, "certificate refused")
    frac = out.soundness["fraction"]
    _require(frac >= 0.95, "soundness fraction %r below 0.95" % frac)
    lam = out.certificate.lambda_tilde
    _require(abs(lam - LAMBDA_TILDE) <= 1e-15,
             "lambda_tilde %r is not 25/6" % lam)
    return repr((lam, frac, out.certificate.audit["checked"],
                 [c["lambda_hat"] for c in out.soundness["centers"]])).encode()


def certify_e2e(seed, workdir):
    grid = Domain.ball(2, 1.0).sample(H_CERT)
    ops = [Op("certify.single", partial(_certify, single_valued(grid)),
              check_certify)]
    for theta0 in theta_offsets(seed):
        ops.append(Op("certify.branch", partial(_certify, two_branch(grid, theta0)),
                      check_certify))
    return Workload(tuple(ops), partial(_warm_certify, ops[0].run, two_branch(grid, 0.0)))


def _warm_certify(single_op, u_branch):
    single_op()
    polyfit.best_fit(u_branch, np.zeros(2), 0.2, 1, 2.0)


# ---------------------------------------------------------------------------
# metric-compare: comparison-constant ratios and Lebesgue point profiles


def _ratios(seed, q):
    return polyfit.comparison_constant_ratios(RATIO_BATCH, seed=seed,
                                              q_branches=q)


def check_ratios(ratios):
    r = np.asarray(ratios, dtype=float)
    _require(r.shape == (RATIO_BATCH,), "got %r ratios" % (r.shape,))
    _require(bool(np.all(np.isfinite(r)) and np.all(r > 0)),
             "non-finite or non-positive ratio in %r" % r)
    return r.tobytes()


def _profile(u):
    return points.lebesgue_point_profile(u, np.zeros(2), PROFILE_LADDER)


def reference_profile(u, x0, ladder):
    """Lebesgue point profile (exponent 2, the library default) by
    enumerating every branch permutation, with the library's rung rules: rungs at or below two grid steps, or holding
    no node, are dropped and flag truncation."""
    x0 = np.asarray(x0, dtype=float)
    pts, vals, w = u.grid.points, u.values, u.grid.weights
    h, n, q = u.grid.resolution, pts.shape[1], vals.shape[1]
    d2 = np.sum((pts - x0) ** 2, axis=1)
    value = vals[int(np.argmin(d2))]
    omega = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    radii, averages, truncated = [], [], False
    for rho in np.asarray(ladder, dtype=float):
        mask = d2 <= rho * rho
        if rho <= 2.0 * h or not np.any(mask):
            truncated = True
            continue
        sub = vals[mask]
        best = np.full(sub.shape[0], np.inf)  # squared distance to value
        for perm in itertools.permutations(range(q)):
            cost = np.sum((sub - value[list(perm)]) ** 2, axis=(1, 2))
            best = np.minimum(best, cost)
        mass = float(np.sum(w[mask] * best))
        radii.append(rho)
        averages.append(mass / (omega * rho ** n))
    return np.asarray(radii), np.asarray(averages), truncated


def check_profile(u, out):
    radii, averages, truncated = out
    ref_radii, ref_avg, ref_trunc = reference_profile(u, np.zeros(2),
                                                      PROFILE_LADDER)
    _require(np.array_equal(radii, ref_radii) and truncated == ref_trunc,
             "rungs %r differ from reference %r" % (radii, ref_radii))
    rel = np.abs(averages - ref_avg) / np.maximum(np.abs(ref_avg), 1e-300)
    _require(bool(np.all(rel <= 1e-9)),
             "profile off reference by %.3g relative" % float(rel.max()))
    return np.asarray(averages).tobytes()


def metric_compare(seed, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(RATIO_ROUNDS):
        for q in RATIO_QS:
            batch_seed = int(rng.integers(2 ** 31))
            ops.append(Op("ratios.Q%d" % q, partial(_ratios, batch_seed, q),
                          check_ratios))
    grid = Domain.ball(2, 0.5).sample(H_CLI)
    for theta0 in theta_offsets(seed):
        u = two_branch(grid, theta0)
        ops.append(Op("profile", partial(_profile, u), partial(check_profile, u)))
    return Workload(tuple(ops), partial(_warm_metric, ops[-1].run))


def _warm_metric(profile_op):
    for q in RATIO_QS:
        polyfit.comparison_constant_ratios(1, seed=0, q_branches=q)
    profile_op()


BUILDERS = {
    "fit-interp": fit_interp,
    "cli-fine": cli_fine,
    "certify-e2e": certify_e2e,
    "metric-compare": metric_compare,
}
