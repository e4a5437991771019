"""File formats for sampled tuples, polynomials, certificates, and reports.

Sampled tuples are read and written.  Hypotheses and domain configs are
only read.  Polynomials, certificates, reports and profiles are only
written: no command reads them back.  Writers are atomic (temp file in the
target directory, then rename) and emit shortest round-trip decimals, so
equal inputs give byte-identical files.  A writer takes every field it
writes from its caller: a polynomial's residual and report keys, a
profile's column labels.
"""

import dataclasses
import json
import math
import os
import tempfile
import warnings

import numpy as np

from .certify import DecayHypothesis
from .geometry import Domain, QuadratureGrid, squared_distances
from .points import SampledQFunction


def _atomic_write(path, text):
    path = os.fspath(path)
    folder = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=folder, suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    """Recursively convert numpy containers; non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def write_report_json(path, obj):
    """Serialize a dict-like report; NaN and infinities are emitted as null."""
    text = json.dumps(_jsonable(obj), indent=1, sort_keys=True)
    _atomic_write(path, text + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sampled tuple functions
#
# CSV layout: first line `n,m,Q` (the three integers), then one row per grid
# node with n coordinates followed by Q*m values grouped by branch.  Branch
# order within a row carries no meaning.


def write_samples_csv(path, u):
    n, m, q = u.n, u.m, u.q
    lines = ["%d,%d,%d" % (n, m, q)]
    flat = u.values.reshape(u.size, q * m)
    for x, row in zip(u.grid.points, flat):
        cells = [repr(float(c)) for c in x] + [repr(float(v)) for v in row]
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _infer_resolution(points):
    """Smallest positive per-axis gap between distinct sorted coordinates."""
    best = math.inf
    for axis in range(points.shape[1]):
        u = np.unique(points[:, axis])
        if u.size > 1:
            best = min(best, float(np.diff(u).min()))
    if not math.isfinite(best):
        raise ValueError(
            "cannot infer grid resolution from coincident coordinates"
        )
    return best


def _samples_from_arrays(points, values, resolution):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    h = _infer_resolution(points) if resolution is None else float(resolution)
    weights = np.full(points.shape[0], h ** points.shape[1])
    grid = QuadratureGrid(points, weights, h)
    return SampledQFunction(grid, values)


def _refuse_ragged_rows(path, width):
    """Raise naming the first data row of `path` without `width` cells."""
    with open(path) as fh:
        fh.readline()  # the header
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if line and line.count(",") + 1 != width:
                raise ValueError("row %d has %d cells, expected %d"
                                 % (lineno, line.count(",") + 1, width))


def read_samples_csv(path, resolution):
    """Load a sampled tuple function; node weights are h^n cell measures.

    The grid step h is the given resolution, or where it is None, is
    inferred from the closest pair of distinct coordinate values.  The rows
    are parsed by np.loadtxt; a row of the wrong width is refused by its
    line number.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            n, m, q = (int(tok) for tok in header.split(","))
        except ValueError:
            raise ValueError("malformed sample header %r" % header) from None
        if min(n, m, q) < 1:
            raise ValueError("sample header %r needs n, m, Q >= 1" % header)
        width = n + q * m
        try:
            with warnings.catch_warnings():
                # an empty body is refused below, by name
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            _refuse_ragged_rows(path, width)
            raise
    if not data.size:
        raise ValueError("sample file has no data rows")
    if data.shape[1] != width:
        _refuse_ragged_rows(path, width)
    return _samples_from_arrays(
        data[:, :n], data[:, n:].reshape(-1, q, m), resolution
    )


def write_samples_json(path, u):
    obj = {
        "n": u.n,
        "m": u.m,
        "Q": u.q,
        "resolution": u.grid.resolution,
        "points": u.grid.points,
        "values": u.values,
    }
    write_report_json(path, obj)


def read_samples_json(path):
    """Load samples written by write_samples_json; points whose width is
    not the header's n, or values whose shape is not (S, Q, m), are
    refused with ValueError."""
    obj = read_json(path)
    values = np.asarray(obj["values"], dtype=float)
    expected = (int(obj["Q"]), int(obj["m"]))
    if values.ndim != 3 or values.shape[1:] != expected:
        raise ValueError("values shape %s does not match header" % (values.shape,))
    points = np.atleast_2d(np.asarray(obj["points"], dtype=float))
    if points.shape[1] != int(obj["n"]):
        raise ValueError("points have %d coordinates but the header says n = %d"
                         % (points.shape[1], int(obj["n"])))
    return _samples_from_arrays(points, values, obj.get("resolution"))


# ---------------------------------------------------------------------------
# polynomial tuples
#
# JSON layout: {n, m, Q, k, center, coeffs: [{i, j, p, a}]} where i is the
# 1-based branch index, j the 1-based component index, p the monomial
# multi-index, and a the coefficient.  Zero coefficients are included so the
# file determines the shape without consulting the degree.


def polynomial_to_dict(poly):
    entries = []
    idx = poly.indices
    for i in range(poly.q):
        for j in range(poly.m):
            for col, p in enumerate(idx):
                entries.append({
                    "i": i + 1,
                    "j": j + 1,
                    "p": list(p),
                    "a": float(poly.coeffs[i, j, col]),
                })
    return {
        "n": poly.n,
        "m": poly.m,
        "Q": poly.q,
        "k": poly.degree,
        "center": poly.center,
        "coeffs": entries,
    }


def write_polynomial_json(path, poly, residual, extra):
    """The polynomial's dict with its fit's residual and the `extra` keys."""
    obj = polynomial_to_dict(poly)
    obj["residual"] = float(residual)
    obj.update(extra)
    write_report_json(path, obj)


# ---------------------------------------------------------------------------
# certificates and hypotheses


def write_certificate_json(path, cert):
    write_report_json(path, cert.as_dict())


def hypothesis_from_dict(obj):
    """Build a decay hypothesis from parsed JSON; `q` and `q_exp` both work.
    An unknown key, both `q` and `q_exp`, a non-integral `n` or `k`, or
    constants DecayHypothesis refuses (two-part mixed with three-part ones,
    say) are refused with ValueError naming the keys."""
    known = {f.name for f in dataclasses.fields(DecayHypothesis)} | {"q"}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValueError("unknown hypothesis keys %s" % unknown)
    if "q" in obj and "q_exp" in obj:
        raise ValueError("hypothesis gives both 'q' and 'q_exp'")
    for key in ("n", "k"):
        if not float(obj[key]).is_integer():
            raise ValueError("%s must be an integer, got %r" % (key, obj[key]))
    kwargs = {
        "n": int(obj["n"]),
        "k": int(obj["k"]),
        "q_exp": float(obj.get("q_exp", obj.get("q", 2.0))),
        "mu": float(obj["mu"]),
    }
    for key in ("eps", "beta1", "beta2", "beta0"):
        if obj.get(key) is not None:
            kwargs[key] = float(obj[key])
    for key in ("betas", "beta_tildes"):
        if obj.get(key):
            kwargs[key] = tuple(float(v) for v in obj[key])
    return DecayHypothesis(**kwargs)


def read_hypothesis_json(path):
    return hypothesis_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# plot-ready profiles and domain configs


def write_profile_csv(path, radii, values, labels):
    lines = ["%s,%s" % labels]
    for rho, val in zip(np.asarray(radii, float), np.asarray(values, float)):
        lines.append("%s,%s" % (repr(float(rho)), repr(float(val))))
    _atomic_write(path, "\n".join(lines) + "\n")


# Each domain kind's own keys, in the order its Domain constructor takes them.
_DOMAIN_KEYS = {"ball": ("radius",), "half_ball": ("radius",),
                "annulus": ("inner_radius", "outer_radius"), "box": ("half_width",)}


def domain_from_dict(obj):
    """Rebuild a domain from config JSON; returns (domain, resolution|None).
    An unknown kind, a key its kind does not read, or a non-integral `n` is
    refused with ValueError naming the keys."""
    kind = obj["kind"]
    if kind not in _DOMAIN_KEYS:
        raise ValueError("unknown domain kind %r" % kind)
    own = _DOMAIN_KEYS[kind]
    unread = sorted(set(obj) - {"kind", "n", "center", "resolution", *own})
    if unread:
        raise ValueError("domain kind %r does not read keys %s" % (kind, unread))
    if not float(obj["n"]).is_integer():
        raise ValueError("n must be an integer, got %r" % obj["n"])
    dom = getattr(Domain, kind)(int(obj["n"]), *(float(obj[key]) for key in own),
                                obj.get("center"))
    res = obj.get("resolution")
    return dom, (float(res) if res is not None else None)


def read_domain_json(path):
    return domain_from_dict(read_json(path))


def bounding_ball(u):
    """Deterministic enclosing ball: bounding-box midpoint, padded radius."""
    pts = u.grid.points
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    radius = math.sqrt(squared_distances(pts, center).max()) + u.grid.resolution
    return center, radius
