"""Tests of the benchmark itself: tracing leaves no trace when off, the
self-time arithmetic, and one test per workload that a wrong output is
counted as a failed op.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qvalued import campanato, polyfit  # noqa: E402
from qvalued.geometry import Domain  # noqa: E402


def all_bindings():
    out = {}
    for module, path, _ in spans.TARGETS:
        places, original = spans.bindings(module, path)
        for ns, key in places:
            out[(id(ns), key)] = (ns, key, original)
    return out


def assert_all_original(snapshot):
    for ns, key, original in snapshot.values():
        current = ns.__dict__[key] if isinstance(ns, type) else getattr(ns, key)
        assert current is original, "%s.%s is wrapped" % (ns.__name__, key)


def failed_count(op, passes=1):
    tally = bench.Tally((op,))
    for _ in range(passes):
        tally.run_pass()
    return len(tally.errors)


def with_output(op, output):
    return workloads.Op(op.label, lambda: output, op.check)


# ---------------------------------------------------------------------------
# tracing


def test_untraced_run_leaves_every_wrapped_name_original():
    before = all_bindings()
    # best_fit is bound in several namespaces; all must be found
    assert len([k for (_, k) in before if k == "best_fit"]) >= 6
    seen = []

    def op_run():
        assert_all_original(before)
        seen.append(True)
        return 1

    op = workloads.Op("probe", op_run, lambda out: b"")
    bench.run_for(bench.Tally((op,)), seconds=0.0, min_passes=2)
    assert len(seen) == 2
    assert_all_original(before)


def test_instrument_wraps_every_binding_and_restores_it():
    before = all_bindings()
    recorder = spans.Recorder()
    with spans.instrument(recorder):
        assert campanato.best_fit is polyfit.best_fit
        assert campanato.best_fit is not before[(id(polyfit), "best_fit")][2]
        grid = Domain.ball(2, 1.0).sample(1.0 / 8.0)
        target = polyfit.random_qpolynomial(np.random.default_rng(3), 2, 1, 2, 1)
        u = workloads.points.SampledQFunction(grid, target.eval(grid.points))
        with recorder.span("op:probe"):
            campanato.excess_profile(u, np.zeros(2), 1, 2.0, [1.0, 0.5])
    assert_all_original(before)
    names = [s.name for s in recorder.spans]
    assert names.count("polyfit.best_fit") == 2
    assert names.count("campanato.excess_profile") == 1
    metrics = spans.layer_metrics(recorder, 1)
    assert metrics["polyfit.best_fit.calls"]["value"] == 2
    assert metrics["polyfit.best_fit.nodes"]["value"] > 0
    assert metrics["campanato.excess_profile.rungs_kept_frac"]["value"] == 1.0
    assert metrics["trace_cover_frac"]["value"] == pytest.approx(1.0, abs=0.05)


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    with rec.span("outer"):          # 0 .. 10
        with rec.span("a"):          # 1 .. 3
            pass
        with rec.span("b"):          # 4 .. 8
            with rec.span("c"):      # 5 .. 6
                pass
    assert [s.parent for s in rec.spans] == [None, 0, 0, 2]
    assert spans.self_times(rec.spans) == [4.0, 2.0, 3.0, 1.0]


# ---------------------------------------------------------------------------
# failure accounting and the per-workload checks


def test_raising_op_and_changed_output_count_as_failed():
    def boom():
        raise RuntimeError("boom")

    assert failed_count(workloads.Op("x", boom, lambda out: b"")) == 1
    outputs = iter([b"one", b"two"])
    op = workloads.Op("x", lambda: next(outputs), lambda out: out)
    assert failed_count(op, passes=2) == 1


def test_fit_interp_check_rejects_wrong_fit(tmp_path):
    op = workloads.fit_interp(2024, str(tmp_path)).ops[0]  # Q = 1, fast
    good = op.run()
    assert failed_count(with_output(op, good)) == 0
    assert failed_count(with_output(op, replace(good, residual=1e-3))) == 1
    shifted = replace(good.polynomial, coeffs=good.polynomial.coeffs + 1e-6)
    assert failed_count(with_output(op, replace(good, polynomial=shifted))) == 1


def test_cli_fine_checks_reject_wrong_reports(tmp_path):
    ops = workloads.cli_fine(0, str(tmp_path)).ops
    fit_op, exp_op, audit_op = ops[0], ops[1], ops[2]
    fit_json = fit_op.check.args[0]
    exp_json = exp_op.check.args[0]
    audit_json = audit_op.check.args[0]

    def write(path, obj):
        with open(path, "w") as fh:
            json.dump(obj, fh)

    write(fit_json, {"residual": 0.25})
    assert failed_count(with_output(fit_op, 0)) == 0
    assert failed_count(with_output(fit_op, 3)) == 1

    write(exp_json, {"lambda_hat": 4.98, "excesses": [0.25, 0.01]})
    assert failed_count(with_output(exp_op, 0)) == 0
    write(exp_json, {"lambda_hat": 3.0, "excesses": [0.25, 0.01]})
    assert failed_count(with_output(exp_op, 0)) == 1
    write(exp_json, {"lambda_hat": 4.98, "excesses": [0.26, 0.01]})
    assert failed_count(with_output(exp_op, 0)) == 1

    freq = {"radii": [0.2, 0.1], "values": [1.5, 1.4], "skipped": []}
    write(audit_json, {"frequency": freq})
    assert failed_count(with_output(audit_op, 0)) == 0
    write(audit_json, {"frequency": dict(freq, values=[1.5, None])})
    assert failed_count(with_output(audit_op, 0)) == 1
    write(audit_json, {"frequency": dict(freq, skipped=[0.05])})
    assert failed_count(with_output(audit_op, 0)) == 1


def test_certify_check_rejects_wrong_outcome(tmp_path):
    op = workloads.certify_e2e(0, str(tmp_path)).ops[0]

    def outcome(ok=True, frac=1.0, lam=25.0 / 6.0):
        cert = SimpleNamespace(lambda_tilde=lam, audit={"checked": 13})
        return SimpleNamespace(ok=ok, certificate=cert, soundness={
            "fraction": frac, "centers": [{"lambda_hat": 5.0}]})

    assert failed_count(with_output(op, outcome())) == 0
    assert failed_count(with_output(op, outcome(ok=False))) == 1
    assert failed_count(with_output(op, outcome(frac=0.9))) == 1
    assert failed_count(with_output(op, outcome(lam=4.0))) == 1


def test_metric_compare_checks_reject_wrong_values(tmp_path):
    ops = workloads.metric_compare(0, str(tmp_path)).ops
    ratio_op = ops[0]
    profile_op = [op for op in ops if op.label == "profile"][0]
    good = np.full(workloads.RATIO_BATCH, 2.0)
    assert failed_count(with_output(ratio_op, good)) == 0
    for bad in (math.nan, 0.0, -1.0):
        wrong = good.copy()
        wrong[3] = bad
        assert failed_count(with_output(ratio_op, wrong)) == 1

    radii, averages, truncated = profile_op.run()
    assert failed_count(with_output(profile_op, (radii, averages, truncated))) == 0
    off = averages * (1.0 + 1e-7)
    assert failed_count(with_output(profile_op, (radii, off, truncated))) == 1
    assert failed_count(with_output(profile_op, (radii[:-1], averages[:-1], truncated))) == 1
