"""Command-line front end: ingest samples, run analyses, emit reports.

`certify` certifies a two-part or a three-part hypothesis file, whichever
its keys give.  `lab generate` builds its four function kinds directly from
the flags, and refuses a kind flag that the chosen kind does not read.
Exit codes: 0 success, 2 input or parse error, 3 numeric failure, 4
certificate refusal.  Fits draw their random restarts from a fixed seed,
so repeated runs with the same flags produce byte-identical outputs.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import campanato, certify, io, lab
from .errors import QvaluedError, WeakConstantsError
from .geometry import Domain, dyadic_ladder
from .points import SampledQFunction
from .polyfit import best_fit

EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_REFUSED = 4


def _read_samples(path, resolution=None):
    if str(path).endswith(".json"):
        return io.read_samples_json(path)
    return io.read_samples_csv(path, resolution)


def _region(args, u):
    """Center and top radius for an analysis: domain config wins, else the
    deterministic bounding ball of the sample grid."""
    if getattr(args, "domain", None):
        dom, _ = io.read_domain_json(args.domain)
        return dom.center, dom.extent
    return io.bounding_ball(u)


def _csv_sibling(out):
    root, ext = os.path.splitext(str(out))
    return root + ".csv" if ext.lower() == ".json" else str(out) + ".csv"


def cmd_fit(args):
    u = _read_samples(args.infile, args.resolution)
    center, radius = _region(args, u)
    res = best_fit(u, center, radius, args.k, args.q)
    io.write_polynomial_json(
        args.out, res.polynomial, residual=res.residual,
        extra={
            "converged": bool(res.converged),
            "iterations": int(res.iterations),
            "starts": int(res.starts),
        },
    )
    return 0


def cmd_excess(args):
    u = _read_samples(args.infile, args.resolution)
    center, radius = _region(args, u)
    prof = campanato.excess_profile(
        u, center, args.k, args.q, dyadic_ladder(radius, args.ladder_depth - 1)
    )
    io.write_report_json(args.out, {
        "center": prof.center,
        "radii": prof.radii,
        "excesses": prof.excesses,
        "truncated": bool(prof.truncated),
    })
    io.write_profile_csv(_csv_sibling(args.out), prof.radii, prof.excesses,
                         labels=("rho", "excess"))
    return 0


def cmd_seminorm(args):
    u = _read_samples(args.infile, args.resolution)
    center, radius = _region(args, u)
    rep = campanato.campanato_seminorm(
        u, args.k, args.q, args.lam, [center],
        dyadic_ladder(radius, args.ladder_depth - 1)
    )
    io.write_report_json(args.out, {
        "value": rep.value,
        "lambda": rep.lam,
        "worst_center": rep.worst_center,
        "worst_radius": rep.worst_radius,
    })
    rows = rep.table
    io.write_profile_csv(_csv_sibling(args.out),
                         [r[1] for r in rows], [r[3] for r in rows],
                         labels=("rho", "scaled_excess"))
    return 0


def cmd_exponent(args):
    u = _read_samples(args.infile, args.resolution)
    center, radius = _region(args, u)
    fit = campanato.decay_exponent(
        u, center, args.k, args.q, dyadic_ladder(radius, args.ladder_depth - 1)
    )
    try:
        alpha = None if fit.exact else fit.holder_alpha(u.n, args.q)
    except QvaluedError:
        alpha = None
    io.write_report_json(args.out, {
        "lambda_hat": fit.lambda_hat,
        "alpha_hat": alpha,
        "r_squared": fit.r_squared,
        "exact": bool(fit.exact),
        "radii": fit.radii,
        "excesses": fit.excesses,
    })
    io.write_profile_csv(_csv_sibling(args.out), fit.radii, fit.excesses,
                         labels=("rho", "excess"))
    return 0


def cmd_certify(args):
    h = io.read_hypothesis_json(args.infile)
    cert = certify.certified_exponent(h)
    io.write_certificate_json(args.out, cert)
    return 0


# the kind flags each `lab generate --kind` reads, with their defaults
_LAB_FLAGS = {
    "branch_power": {"Q": 2, "p": 3, "m": 1},
    "linear_tuple": {"coeffs": None},
    "wall_pair": {"d": 0.5, "m": 1},
    "reflected_wall_pair": {"d": 0.5},
}


def _lab_function(args):
    reads = _LAB_FLAGS[args.kind]
    given = vars(args)
    stray = [flag for flag in ("Q", "p", "m", "d", "coeffs")
             if flag in given and flag not in reads]
    if stray:
        raise ValueError("--kind %s does not read %s"
                         % (args.kind, ", ".join("--" + flag for flag in stray)))
    flags = {flag: given.get(flag, default) for flag, default in reads.items()}
    if args.kind == "branch_power":
        return lab.BranchPower(flags["Q"], flags["p"], flags["m"])
    if args.kind == "linear_tuple":
        if not flags["coeffs"]:
            raise ValueError("linear_tuple needs --coeffs")
        return lab.LinearTuple.wall([float(tok) for tok in flags["coeffs"].split(",")])
    if args.kind == "wall_pair":
        return lab.WallPair(flags["d"], m=flags["m"])
    return lab.odd_reflection(lab.WallPair(flags["d"]))


def cmd_lab_generate(args):
    f = _lab_function(args)
    if args.domain:
        dom, res = io.read_domain_json(args.domain)
        resolution = res if args.resolution is None else args.resolution
    else:
        dom = Domain.ball(f.n, 1.0)
        resolution = args.resolution
    grid = dom.sample(1.0 / 64.0 if resolution is None else resolution)
    u = SampledQFunction.from_function(grid, f.eval, f.q, f.m)
    if str(args.out).endswith(".json"):
        io.write_samples_json(args.out, u)
    else:
        io.write_samples_csv(args.out, u)
    return 0


def cmd_lab_audit(args):
    u = _read_samples(args.infile, args.resolution)
    center, radius = io.bounding_ball(u)
    branch = lab.branch_set_detect(u, args.tol)
    freq = lab.frequency_function(
        u, center, dyadic_ladder(0.5 * radius, args.ladder_depth - 1)
    )
    io.write_report_json(args.out, {
        "branch_set": {
            "count": int(branch.indices.size),
            "points": branch.points,
            "gaps": branch.gaps,
        },
        "frequency": {
            "radii": freq.radii,
            "values": freq.values,
            "skipped": list(freq.skipped),
        },
    })
    return 0


def _add_common(sub, lam=False):
    sub.add_argument("--in", dest="infile", required=True,
                     help="input sample file (.csv or .json)")
    sub.add_argument("--out", required=True, help="output JSON path")
    sub.add_argument("--domain", help="domain config JSON")
    sub.add_argument("--k", type=int, default=1, help="polynomial degree")
    sub.add_argument("--q", type=float, default=2.0, help="metric exponent")
    sub.add_argument("--ladder-depth", type=int, default=6,
                     help="number of dyadic rungs")
    sub.add_argument("--resolution", type=float,
                     help="override the inferred grid step")
    if lam:
        sub.add_argument("--lambda", dest="lam", type=float, required=True,
                         help="Campanato exponent")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qvalued",
        description="Permutation-matched metrics, polynomial fits, Campanato "
                    "decay analysis, and Holder certificates for Q-valued data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit", help="best-fit polynomial tuple")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("excess", help="dyadic excess profile")
    _add_common(p)
    p.set_defaults(func=cmd_excess)

    p = subs.add_parser("seminorm", help="Campanato seminorm at fixed lambda")
    _add_common(p, lam=True)
    p.set_defaults(func=cmd_seminorm)

    p = subs.add_parser("exponent", help="empirical decay and Holder exponents")
    _add_common(p)
    p.set_defaults(func=cmd_exponent)

    p = subs.add_parser("certify", help="decay-hypothesis certificate")
    p.add_argument("--in", dest="infile", required=True,
                   help="hypothesis JSON")
    p.add_argument("--out", required=True, help="certificate JSON path")
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("lab", help="test-function generators and audits")
    labsubs = p.add_subparsers(dest="lab_command", required=True)

    g = labsubs.add_parser("generate", help="sample a library function")
    g.add_argument("--kind", required=True,
                   choices=["branch_power", "linear_tuple", "wall_pair",
                            "reflected_wall_pair"])
    # a kind refuses the kind flags it does not read, so these are left
    # unset unless given and take their defaults from _LAB_FLAGS
    g.add_argument("--Q", type=int, default=argparse.SUPPRESS,
                   help="branch count (branch_power; default 2)")
    g.add_argument("--p", type=int, default=argparse.SUPPRESS,
                   help="power numerator (branch_power; default 3)")
    g.add_argument("--m", type=int, default=argparse.SUPPRESS,
                   help="target dimension (branch_power, wall_pair; default 1)")
    g.add_argument("--d", type=float, default=argparse.SUPPRESS,
                   help="branch point offset (wall_pair, reflected_wall_pair; "
                        "default 0.5)")
    g.add_argument("--coeffs", default=argparse.SUPPRESS,
                   help="comma-separated wall slopes (linear_tuple)")
    g.add_argument("--domain", help="domain config JSON")
    g.add_argument("--resolution", type=float, help="grid step")
    g.add_argument("--out", required=True, help="sample file (.csv or .json)")
    g.set_defaults(func=cmd_lab_generate)

    a = labsubs.add_parser("audit", help="branch set and frequency report")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--tol", type=float, default=0.05,
                   help="branch separation threshold")
    a.add_argument("--ladder-depth", type=int, default=4)
    a.add_argument("--resolution", type=float)
    a.set_defaults(func=cmd_lab_audit)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "ladder_depth", 1) < 1:
        print("input error: --ladder-depth must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except WeakConstantsError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return EXIT_REFUSED
    except QvaluedError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except np.linalg.LinAlgError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
