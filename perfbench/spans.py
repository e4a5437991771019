"""Span recorder for the benchmark's traced run.

Tracing is done from outside the library: `instrument` replaces each named
public function of qvalued, in every namespace that binds it, with a wrapper
that records a span per call, and restores the originals on exit.  Methods
are patched on their class.  Spans are kept in memory and written out when
the run ends.
"""

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    counts: dict = field(default_factory=dict)


class Recorder:
    """Spans of one traced run.  Spans opened while another is open become
    its children; `paused` lets output checks call the library unrecorded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = None
        self.paused = False

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError("span %d closed out of order" % idx)

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


def self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return [(s.end - s.start) - c for s, c in zip(spans, child_time)]


# ---------------------------------------------------------------------------
# counters recorded beside a span, read from arguments and results


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _count_restrict(span, fn, args, kwargs, out):
    span.counts["nodes"] = int(out[1].size)


def _count_best_fit(span, fn, args, kwargs, out):
    span.counts["starts"] = int(out.starts)
    span.counts["iterations"] = int(out.iterations)
    span.counts["converged"] = int(bool(out.converged))


def _count_excess(span, fn, args, kwargs, out):
    span.counts["rungs"] = len(list(_bound(fn, args, kwargs)["ladder"]))
    span.counts["kept"] = int(len(out.radii))


def _count_audit(span, fn, args, kwargs, out):
    span.counts["checked"] = int(out.checked)


def _count_read(span, fn, args, kwargs, out):
    span.counts["bytes"] = os.path.getsize(_bound(fn, args, kwargs)["path"])


# (module, attribute path, counter hook).  The span name is
# "<module>.<attribute path>".
TARGETS = (
    ("points", "metric_g", None),
    ("points", "lebesgue_point_profile", None),
    ("polyfit", "comparison_constant_ratios", None),
    ("polyfit", "best_fit", _count_best_fit),
    ("polyfit", "QPolynomial.eval", None),
    ("geometry", "QuadratureGrid.restrict", _count_restrict),
    ("campanato", "excess_profile", _count_excess),
    ("campanato", "decay_exponent", None),
    ("certify", "audit_hypothesis", _count_audit),
    ("certify", "end_to_end_certify", None),
    ("lab", "branch_set_detect", None),
    ("lab", "frequency_function", None),
    ("io", "read_samples_csv", _count_read),
    ("io", "write_report_json", None),
    ("io", "write_polynomial_json", None),
    ("io", "write_profile_csv", None),
    ("cli", "main", None),
)

PACKAGE = "qvalued"


def _wrap(recorder, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.paused:
            return fn(*args, **kwargs)
        idx = recorder.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if hook is not None:
            hook(recorder.spans[idx], fn, args, kwargs, out)
        return out

    return wrapper


def bindings(module, path):
    """Every (namespace, attribute) in the package that binds the named
    object, with the object itself."""
    mod = sys.modules["%s.%s" % (PACKAGE, module)]
    owner_path, _, attr = path.rpartition(".")
    if owner_path:
        owner = getattr(mod, owner_path)
        return [(owner, attr)], owner.__dict__[attr]
    obj = getattr(mod, attr)
    places = []
    for modname, m in sorted(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for key, val in vars(m).items():
            if val is obj:
                places.append((m, key))
    return places, obj


@contextmanager
def instrument(recorder):
    """Patch every target for the duration of the block, then put each
    original object back where it was."""
    saved = []
    try:
        for module, path, hook in TARGETS:
            places, original = bindings(module, path)
            wrapper = _wrap(recorder, "%s.%s" % (module, path), original, hook)
            for ns, key in places:
                saved.append((ns, key, original))
                setattr(ns, key, wrapper)
        yield recorder
    finally:
        for ns, key, original in reversed(saved):
            setattr(ns, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced passes


def _sum(rows, key):
    return float(sum(r.get(key, 0) for r in rows))


def layer_metrics(recorder, n_passes):
    """Per-layer metrics, per traced pass, from the recorded spans.

    Calls and counters are totals over a pass; `self_s` is the summed self
    time of the layer's spans.  `trace_cover_frac` is the share of op time
    that the top-level library spans account for.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    by_name = {}
    for s, st in zip(spans, selfs):
        row = dict(s.counts, self_s=st)
        by_name.setdefault(s.name, []).append(row)

    # nodes a fit works on: the size of the restriction it made
    nodes = {}
    for s in spans:
        if s.name == "geometry.QuadratureGrid.restrict" and s.parent is not None:
            nodes[s.parent] = nodes.get(s.parent, 0) + s.counts.get("nodes", 0)
    fit_nodes = sum(n for i, n in nodes.items()
                    if spans[i].name == "polyfit.best_fit")

    def rows(name):
        return by_name.get(name, [])

    per = 1.0 / n_passes
    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    def calls_self(name, calls=True):
        if calls:
            put(name + ".calls", len(rows(name)) * per, "count")
        put(name + ".self_s", _sum(rows(name), "self_s") * per, "s")

    calls_self("points.metric_g")
    calls_self("points.lebesgue_point_profile", calls=False)
    calls_self("polyfit.comparison_constant_ratios", calls=False)

    fits = rows("polyfit.best_fit")
    calls_self("polyfit.best_fit")
    fit_self = _sum(fits, "self_s")
    put("polyfit.best_fit.nodes", fit_nodes * per, "count")
    put("polyfit.best_fit.us_per_node",
        1e6 * fit_self / fit_nodes if fit_nodes else 0.0, "us/node")
    put("polyfit.best_fit.starts", _sum(fits, "starts") * per, "count")
    put("polyfit.best_fit.iterations", _sum(fits, "iterations") * per, "count")
    put("polyfit.best_fit.converged_frac",
        _sum(fits, "converged") / len(fits) if fits else 0.0, "fraction")

    calls_self("polyfit.QPolynomial.eval")
    calls_self("geometry.QuadratureGrid.restrict")

    prof = rows("campanato.excess_profile")
    calls_self("campanato.excess_profile")
    rungs = _sum(prof, "rungs")
    put("campanato.excess_profile.rungs_kept_frac",
        _sum(prof, "kept") / rungs if rungs else 0.0, "fraction")
    calls_self("campanato.decay_exponent", calls=False)

    calls_self("certify.audit_hypothesis")
    put("certify.audit_hypothesis.checked",
        _sum(rows("certify.audit_hypothesis"), "checked") * per, "count")
    calls_self("certify.end_to_end_certify", calls=False)

    calls_self("lab.branch_set_detect", calls=False)
    calls_self("lab.frequency_function", calls=False)

    calls_self("io.read_samples_csv", calls=False)
    put("io.read_samples_csv.bytes",
        _sum(rows("io.read_samples_csv"), "bytes") * per, "B")
    writes = [r for name, rs in by_name.items()
              if name.startswith("io.write_") for r in rs]
    put("io.write_s", _sum(writes, "self_s") * per, "s")

    calls_self("cli.main", calls=False)

    ops = [i for i, s in enumerate(spans) if s.name.startswith("op:")]
    op_time = sum(spans[i].end - spans[i].start for i in ops)
    top = sum(s.end - s.start for s in spans
              if s.parent is not None and spans[s.parent].name.startswith("op:"))
    put("trace_cover_frac", top / op_time if op_time else 0.0, "fraction")
    return out
