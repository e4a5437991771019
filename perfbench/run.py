"""qvalued benchmark runner.

    python3 perfbench/run.py --workload fit-interp [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Run from a source checkout: the library is imported from `src/` next to this
directory, and the run stops with exit code 2 if it is missing.  One process
drives one workload in a closed loop, single-threaded with the library
defaults.  It times set-up SETUP_REPS times (a fresh interpreter importing
qvalued, then building the inputs and warming up; medians kept), then
repeats a pass over the workload's fixed op list until the time is used,
checking every op's output.

Times are reported at a reference CPU speed.  The run times a fixed
pure-Python calibration loop before and after every op and every set-up
step (import, build), and scales each by PROBE_REF_S / (mean of the two
loop times around it).  On a shared machine whose speed drifts by tens of
percent within seconds this keeps the figures comparable between runs; the
raw seconds are printed beside them.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
untraced passes for half the time and traced passes for the other half, and
prints the per-layer metrics from the traced passes (spans are written to
`.perfbench_out/`).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("fit-interp", "cli-fine", "certify-e2e", "metric-compare")
SETUP_REPS = 5
DEFAULT_SECONDS = 20

# The calibration loop, and its time on the reference machine (2 vCPU
# x86-64 VM, Python 3.11.7, unloaded).
PROBE_ITERS = 150_000
PROBE_REF_S = 0.008


def probe():
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i
    return time.perf_counter() - t0


def at_reference(seconds, before, after):
    """`seconds` at the reference speed, from the loop times around them."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def import_seconds(src):
    """Time to import qvalued and its CLI in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, %r); "
            "import qvalued, qvalued.cli; print(time.perf_counter() - t)" % src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def tail_percentile(latencies):
    """Highest percentile with at least ten ops above it, as (value, pct);
    None when there are fewer than eleven ops."""
    n = len(latencies)
    if n < 11:
        return None
    j = n - 11
    return sorted(latencies)[j], 100.0 * (j + 1) / n


def execute(op, recorder=None):
    """Run, time and check one op.  Returns (seconds, digest, error); an op
    that raises or fails its check has digest None and an error message."""
    t0 = time.perf_counter()
    try:
        if recorder is None:
            out = op.run()
        else:
            with recorder.span("op:" + op.label):
                out = op.run()
    except Exception as exc:
        return time.perf_counter() - t0, None, "raised %r" % (exc,)
    dt = time.perf_counter() - t0
    if recorder is not None:
        recorder.paused = True
    try:
        return dt, op.check(out), None
    except Exception as exc:
        return dt, None, "check failed: %s" % (exc,)
    finally:
        if recorder is not None:
            recorder.paused = False


class Tally:
    """Latencies, calibration times and failures across passes, with the
    first digest of each op kept so that every later pass must reproduce
    it.  `latencies` and `pass_times` are raw seconds; `scaled`,
    `pass_scaled` and `by_label` are at the reference speed.  A pass time is
    the sum of its op latencies."""

    def __init__(self, ops):
        self.ops = ops
        self.digests = [None] * len(ops)
        self.latencies = []
        self.scaled = []
        self.by_label = {}
        self.pass_times = []
        self.pass_scaled = []
        self.probes = []
        self.attempted = 0
        self.errors = []

    def run_pass(self, recorder=None):
        total = total_scaled = 0.0
        self.probes.append(probe())
        for i, op in enumerate(self.ops):
            if recorder is not None:
                recorder.op = self.attempted
            dt, digest, error = execute(op, recorder)
            self.probes.append(probe())
            scaled = at_reference(dt, self.probes[-2], self.probes[-1])
            total += dt
            total_scaled += scaled
            self.attempted += 1
            self.latencies.append(dt)
            self.scaled.append(scaled)
            self.by_label.setdefault(op.label, []).append(scaled)
            if error is None:
                if self.digests[i] is None:
                    self.digests[i] = digest
                elif digest != self.digests[i]:
                    error = "output differs from the first pass"
            if error is not None:
                self.errors.append("%s #%d: %s" % (op.label, i, error))
        self.pass_times.append(total)
        self.pass_scaled.append(total_scaled)
        return total_scaled

    def speed(self):
        """Median factor from this run's seconds to the reference speed."""
        return PROBE_REF_S / statistics.median(self.probes)


def run_for(tally, seconds, min_passes, recorder=None):
    """Repeat passes while the next one is expected to end within `seconds`.
    Returns the pass times of this call."""
    start = time.perf_counter()
    times = []
    while True:
        t0 = time.perf_counter()
        times.append(tally.run_pass(recorder))
        now = time.perf_counter()
        if len(times) >= min_passes and (now - start) + (now - t0) > seconds:
            return times


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload, seed, seconds, trace):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "AQC_THREADS": os.environ.get("AQC_THREADS"),
    }


def metric(value, unit, **extra):
    return dict(value=value, unit=unit, **extra)


def end_to_end(tally, setup, setup_raw):
    """Gated metrics at the reference speed, and raw figures printed beside
    them."""
    k = tally.speed()
    metrics = {
        "setup_s": metric(setup, "s"),
        "wall_s": metric(statistics.median(tally.pass_scaled), "s"),
        "op_p50_s": metric(statistics.median(tally.scaled), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "fail_frac": metric(len(tally.errors) / tally.attempted, "fraction"),
        "speed": metric(k, "x"),
        "setup_raw_s": metric(setup_raw, "s"),
        "wall_raw_s": metric(statistics.median(tally.pass_times), "s"),
        "op_p50_raw_s": metric(statistics.median(tally.latencies), "s"),
    }
    tail = tail_percentile(tally.scaled)
    if tail is not None:
        info["op_tail_s"] = metric(tail[0], "s", percentile=tail[1],
                                   ops=tally.attempted)
    for label, lat in sorted(tally.by_label.items()):
        info["%s_s" % label] = metric(statistics.median(lat), "s")
    return metrics, info


def per_layer(tally, recorder, untraced, traced, untraced_by_label):
    """Per-layer metrics of the traced passes, and the tracing overhead
    from the pass times of the two halves at the reference speed."""
    metrics = spans.layer_metrics(recorder, len(traced))
    for command in ("fit", "exponent", "audit"):
        lat = untraced_by_label.get(command)
        metrics["cli.%s_s" % command] = metric(
            statistics.median(lat) if lat else 0.0, "s")
    metrics["trace_overhead_frac"] = metric(
        statistics.median(traced) / statistics.median(untraced) - 1.0, "fraction")
    info = {"untraced_passes": metric(len(untraced), "count"),
            "traced_passes": metric(len(traced), "count"),
            "speed": metric(tally.speed(), "x")}
    return metrics, info


def run_workload(name, seed, seconds, trace):
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qvalued
    import workloads
    if not os.path.abspath(qvalued.__file__).startswith(src + os.sep):
        raise SystemExit("qvalued imported from %s, not %s" % (qvalued.__file__, src))

    seed = workloads.DEFAULT_SEEDS[name] if seed is None else seed
    workdir = os.path.join(OUT_DIR, "work-%s-%d" % (name, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        imports, builds = [], []  # (raw, reference-speed) seconds per rep
        for _ in range(SETUP_REPS):
            p0 = probe()
            dt = import_seconds(src)
            p1 = probe()
            imports.append((dt, at_reference(dt, p0, p1)))
            t = time.perf_counter()
            wl = workloads.BUILDERS[name](seed, workdir)
            wl.warmup()
            dt = time.perf_counter() - t
            builds.append((dt, at_reference(dt, p1, probe())))
        setup_raw = (statistics.median(r for r, _ in imports)
                     + statistics.median(r for r, _ in builds))
        setup = (statistics.median(x for _, x in imports)
                 + statistics.median(x for _, x in builds))

        tally = Tally(wl.ops)
        if not trace:
            run_for(tally, seconds, min_passes=2)
            metrics, info = end_to_end(tally, setup, setup_raw)
        else:
            untraced = run_for(tally, seconds / 2.0, min_passes=1)
            untraced_by_label = {k: list(v) for k, v in tally.by_label.items()}
            recorder = spans.Recorder()
            with spans.instrument(recorder):
                traced = run_for(tally, seconds / 2.0, min_passes=1,
                                 recorder=recorder)
            recorder.write(os.path.join(
                OUT_DIR, "trace-%s-seed%d.json" % (name, seed)))
            metrics, info = per_layer(tally, recorder, untraced, traced,
                                      untraced_by_label)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.errors)
    print("workload %s  seed %d  passes %d  ops %d  failed %d"
          % (name, seed, len(tally.pass_times), tally.attempted, failed))
    for err in tally.errors[:10]:
        print("  FAILED %s" % err, file=sys.stderr)
    for key, m in list(metrics.items()) + list(info.items()):
        extra = ""
        if "percentile" in m:
            extra = "  (p%.0f of %d ops)" % (m["percentile"], m["ops"])
        print("  %-44s %14.6g %s%s" % (key, m["value"], m["unit"], extra))
    print("provenance " + json.dumps(provenance(name, seed, seconds, trace),
                                     sort_keys=True))
    return {"correct": failed == 0, "attempted": tally.attempted,
            "failed": failed,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in metrics.items()}}


def run_all(args):
    """Run each workload in its own process, one after another.  Returns the
    combined result, or the exit code of a workload that failed to run."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            print("workload %s exited %d" % (name, done.returncode), file=sys.stderr)
            return done.returncode
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (name, key): m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, help="workload seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qvalued", "__init__.py")):
        print("no qvalued sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
        if isinstance(result, int):
            return result
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
