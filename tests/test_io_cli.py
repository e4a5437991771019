"""File-format round-trips and command-line behavior."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qvalued
from qvalued import io, lab
from qvalued.cli import main
from qvalued.geometry import Domain
from qvalued.points import SampledQFunction, metric_g
from qvalued.polyfit import QPolynomial, best_fit, multi_indices


@pytest.fixture(scope="module")
def bp_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("samples") / "bp.csv"
    grid = Domain.ball(2, 1.0).sample(1.0 / 32.0)
    u = SampledQFunction.from_function(
        grid, lab.BranchPower(2, 3, m=1).eval, 2, 1
    )
    io.write_samples_csv(path, u)
    return path, u


# ---------------------------------------------------------------------------
# round trips


def test_csv_round_trip_exact(bp_csv):
    path, u = bp_csv
    v = io.read_samples_csv(path)
    assert v.grid.resolution == u.grid.resolution
    assert np.array_equal(v.grid.points, u.grid.points)
    # branch order per row carries no meaning, so compare through the metric
    worst = max(
        metric_g(u.values[i], v.values[i]) for i in range(0, u.size, 29)
    )
    assert worst == 0.0


def _per_cell_parse(path):
    """The reader's former row loop, one float() per cell: (points, values)."""
    with open(path) as fh:
        n, m, q = (int(tok) for tok in fh.readline().split(","))
        rows = [[float(c) for c in line.strip().split(",")]
                for line in fh if line.strip()]
    data = np.asarray(rows)
    return data[:, :n], data[:, n:].reshape(-1, q, m)


def test_csv_parse_is_byte_equal_to_per_cell_floats(bp_csv, tmp_path):
    path, _ = bp_csv
    spelled = tmp_path / "spelled.csv"
    spelled.write_text(
        "2,2,1\n"
        "0.5,-0.25,1e-3,-0\n"
        "\n"
        " .75 , 0.125 ,+2.5E+2,4.9e-324\r\n"
        "1.0000000000000002,0.1,1.7976931348623157e308,-2.2250738585072014e-308\n")
    for csv in (path, spelled):
        u = io.read_samples_csv(csv)
        points, values = _per_cell_parse(csv)
        assert u.grid.points.tobytes() == points.tobytes()
        assert u.values.tobytes() == values.tobytes()


def test_json_round_trip_exact(bp_csv, tmp_path):
    _, u = bp_csv
    path = tmp_path / "bp.json"
    io.write_samples_json(path, u)
    v = io.read_samples_json(path)
    assert np.array_equal(v.values, u.values)
    assert np.array_equal(v.grid.points, u.grid.points)
    assert v.grid.resolution == u.grid.resolution


def test_csv_malformed_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("2,1,2\n0.0,0.0,1.0\n")
    with pytest.raises(ValueError, match="row 2"):
        io.read_samples_csv(bad)
    bad.write_text("not,a,header\n")
    with pytest.raises(ValueError, match="malformed sample header"):
        io.read_samples_csv(bad)
    bad.write_text("2,1,2\n")
    with pytest.raises(ValueError, match="no data rows"):
        io.read_samples_csv(bad)


def test_resolution_inference_and_override(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("1,1,1\n0.0,1.0\n0.25,2.0\n0.75,3.0\n")
    u = io.read_samples_csv(path)
    assert u.grid.resolution == 0.25
    forced = io.read_samples_csv(path, resolution=0.5)
    assert forced.grid.resolution == 0.5
    assert forced.grid.weights[0] == 0.5
    dup = tmp_path / "dup.csv"
    dup.write_text("1,1,1\n0.5,1.0\n0.5,2.0\n")
    with pytest.raises(ValueError, match="coincident"):
        io.read_samples_csv(dup)


def test_polynomial_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    k = 2
    coeffs = rng.normal(size=(3, 2, len(multi_indices(2, k))))
    poly = QPolynomial(np.array([0.1, -0.2]), k, coeffs)
    path = tmp_path / "poly.json"
    io.write_polynomial_json(path, poly, residual=0.5)
    back = io.read_polynomial_json(path)
    assert back.degree == k
    assert np.array_equal(back.center, poly.center)
    assert np.array_equal(back.coeffs, poly.coeffs)
    assert json.load(open(path))["residual"] == 0.5
    with pytest.raises(ValueError, match="exceeds degree"):
        io.polynomial_from_dict({
            "n": 2, "m": 1, "Q": 1, "k": 1, "center": [0.0, 0.0],
            "coeffs": [{"i": 1, "j": 1, "p": [2, 0], "a": 1.0}],
        })


def test_hypothesis_parsing():
    h = io.hypothesis_from_dict(
        {"n": 2, "k": 1, "q": 2.0, "mu": 0.5, "beta1": 1.0, "beta2": 1.0}
    )
    assert h.q_exp == 2.0 and h.mu == 0.5 and not h.stratified
    h2 = io.hypothesis_from_dict({
        "n": 2, "k": 1, "q_exp": 2.0, "mu": 0.5, "beta0": 1.0,
        "betas": [1.0], "beta_tildes": [2.0],
    })
    assert h2.stratified and h2.n_strata == 1


def test_domain_round_trip():
    cases = [
        Domain.ball(2, 1.0),
        Domain.half_ball(3, 0.5),
        Domain.annulus(2, 0.25, 1.0),
        Domain.box(2, 0.8, center=[0.1, 0.2]),
    ]
    for dom in cases:
        back, res = io.domain_from_dict(io.domain_to_dict(dom, 0.125))
        assert back.kind == dom.kind and back.n == dom.n
        assert np.array_equal(back.center, dom.center)
        assert back.extent == dom.extent
        assert res == 0.125
    with pytest.raises(ValueError, match="unknown domain kind"):
        io.domain_from_dict({"kind": "torus", "n": 2})


def test_atomic_writes_leave_no_partials(tmp_path):
    io.write_report_json(tmp_path / "r.json", {"a": [1.0, math.nan]})
    io.write_profile_csv(tmp_path / "p.csv", [0.5, 0.25], [1.0, 2.0])
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["p.csv", "r.json"]
    assert json.load(open(tmp_path / "r.json"))["a"] == [1.0, None]
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "rho,value" and lines[1] == "0.5,1.0"


# ---------------------------------------------------------------------------
# command line


def test_cli_lab_generate_golden(tmp_path):
    out = tmp_path / "samples.csv"
    rc = main(["lab", "generate", "--kind", "branch_power", "--Q", "2",
               "--p", "3", "--out", str(out), "--resolution", "0.0625"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "2,1,2"
    expected = Domain.ball(2, 1.0).sample(0.0625).size
    assert len(lines) - 1 == expected


def test_cli_generate_runs_as_module(tmp_path):
    out = tmp_path / "mod.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qvalued.cli", "lab", "generate", "--kind",
         "wall_pair", "--out", str(out), "--resolution", "0.125"],
        capture_output=True, text=True,
        # run next to the imported package, so -m finds it without PYTHONPATH
        cwd=os.path.dirname(os.path.dirname(qvalued.__file__)),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == "2,1,2"


def test_import_and_two_branch_fit_leave_scipy_optimize_unloaded(tmp_path, bp_csv):
    """Only matching above six branches and the single-pair metrics need
    scipy's assignment solver, so importing the package and its CLI and a
    Q = 2 `fit` never load scipy.optimize."""
    src, _ = bp_csv
    code = (
        "import sys, qvalued, qvalued.cli\n"
        "print('scipy.optimize' in sys.modules)\n"
        "assert qvalued.cli.main(%r) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
        % ["fit", "--in", str(src), "--k", "1", "--out", str(tmp_path / "fit.json")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(qvalued.__file__)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_cli_fit_deterministic_replay(tmp_path, bp_csv):
    src, u = bp_csv
    out1, out2 = tmp_path / "fit1.json", tmp_path / "fit2.json"
    base = ["fit", "--in", str(src), "--k", "1"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    center, radius = io.bounding_ball(u)
    res = best_fit(u, center, radius, 1, 2.0)
    lib = tmp_path / "lib.json"
    io.write_polynomial_json(
        lib, res.polynomial, residual=res.residual,
        extra={"converged": bool(res.converged),
               "iterations": int(res.iterations),
               "starts": int(res.starts)},
    )
    assert out1.read_bytes() == lib.read_bytes()


def test_cli_fit_exact_polynomial_residual(tmp_path):
    src = tmp_path / "lin.csv"
    rc = main(["lab", "generate", "--kind", "linear_tuple", "--coeffs",
               "1.0,-1.0", "--out", str(src), "--resolution", "0.125"])
    assert rc == 0
    out = tmp_path / "fit.json"
    assert main(["fit", "--in", str(src), "--out", str(out), "--k", "1"]) == 0
    report = json.load(open(out))
    assert report["residual"] <= 1e-16
    poly = io.polynomial_from_dict(report)
    assert poly.degree == 1 and poly.q == 2


def test_cli_exit_codes(tmp_path, bp_csv):
    assert main(["fit", "--in", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "o.json")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("garbage,not,a\n")
    assert main(["fit", "--in", str(bad),
                 "--out", str(tmp_path / "o.json")]) == 2
    weak = tmp_path / "weak.json"
    weak.write_text(json.dumps(
        {"n": 2, "k": 1, "q": 2.0, "mu": 0.001, "beta1": 1e9, "beta2": 1.0}
    ))
    assert main(["certify", "--in", str(weak),
                 "--out", str(tmp_path / "o.json")]) == 4
    # a ladder needs at least one rung
    for argv in (["exponent", "--ladder-depth", "0"],
                 ["lab", "audit", "--ladder-depth", "0"],
                 ["excess", "--ladder-depth", "-1"]):
        out = tmp_path / "ladder.json"
        assert main(argv + ["--in", str(bp_csv[0]), "--out", str(out)]) == 2
        assert not out.exists()


def test_non_finite_samples_exit_as_input_errors(tmp_path, bp_csv):
    src, u = bp_csv
    # one value inside the fitted ball becomes NaN
    lines = src.read_text().splitlines()
    row = u.nearest_index([0.1, 0.2]) + 1  # line 0 is the header
    cells = lines[row].split(",")
    cells[u.n] = "nan"
    lines[row] = ",".join(cells)
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        io.read_samples_csv(path)
    out = tmp_path / "o.json"
    assert main(["fit", "--in", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    js = tmp_path / "nan.json"
    io.write_samples_json(js, u)
    obj = json.loads(js.read_text())  # NaN is written as null
    obj["values"][3][1][0] = None
    js.write_text(json.dumps(obj))
    assert main(["fit", "--in", str(js), "--out", str(out)]) == 2


def test_cli_refuses_non_positive_resolution(tmp_path, bp_csv):
    src, u = bp_csv
    out = tmp_path / "o.json"
    for res in ("0", "-0.0625"):
        assert main(["fit", "--in", str(src), "--out", str(out),
                     "--resolution", res]) == 2
        assert not out.exists()
        assert main(["lab", "generate", "--kind", "wall_pair", "--out",
                     str(tmp_path / "g.csv"), "--resolution", res]) == 2
        assert not (tmp_path / "g.csv").exists()
    js = tmp_path / "zero.json"
    io.write_samples_json(js, u)
    obj = json.loads(js.read_text())
    obj["resolution"] = 0
    js.write_text(json.dumps(obj))
    assert main(["fit", "--in", str(js), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_generate_refuses_non_finite_geometry(tmp_path):
    out = tmp_path / "g.csv"
    for res in ("inf", "nan"):
        assert main(["lab", "generate", "--kind", "wall_pair", "--out", str(out),
                     "--resolution", res]) == 2
        assert not out.exists()
    for radius in ("Infinity", "NaN"):
        dom = tmp_path / "dom.json"
        dom.write_text('{"kind": "ball", "n": 2, "radius": %s}' % radius)
        assert main(["lab", "generate", "--kind", "wall_pair", "--out", str(out),
                     "--domain", str(dom), "--resolution", "0.125"]) == 3
        assert not out.exists()


def test_cli_refuses_undefined_exponent_or_degree(tmp_path, bp_csv):
    src, _ = bp_csv
    out = tmp_path / "o.json"
    for flags in (["--q", "0"], ["--q", "-2"], ["--q", "nan"], ["--k", "-1"]):
        assert main(["fit", "--in", str(src), "--out", str(out)] + flags) == 2
        assert not out.exists()


def test_cli_exit_numeric_on_starved_ladder(tmp_path, bp_csv):
    src, _ = bp_csv
    rc = main(["exponent", "--in", str(src), "--out",
               str(tmp_path / "o.json"), "--resolution", "0.5"])
    assert rc == 3


@pytest.mark.parametrize("change", [
    {"beta2": math.nan}, {"beta2": math.inf}, {"q": math.nan},
    {"k": -3}, {"n": 0}, {"betas": [math.nan], "beta_tildes": [1.0],
                         "beta0": 1.0},
    {"n": 2.7, "k": 1.9}, {"n": 2.5}, {"k": 1.5}, {"k": math.inf},
], ids=lambda c: ",".join("%s=%s" % item for item in c.items()))
def test_cli_certify_refuses_malformed_hypothesis(tmp_path, change):
    obj = {"n": 2, "k": 1, "q": 2.0, "mu": 0.5, "beta1": 1.0, "beta2": 1.0}
    obj.update(change)
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps(obj))
    out = tmp_path / "cert.json"
    assert main(["certify", "--in", str(hyp), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_certify_accepts_integral_floats(tmp_path):
    certs = []
    for n, k in ((2, 1), (2.0, 1.0)):
        hyp = tmp_path / "hyp.json"
        hyp.write_text(json.dumps(
            {"n": n, "k": k, "q": 2.0, "mu": 0.5, "beta1": 1.0, "beta2": 1.0}))
        out = tmp_path / ("cert-%s.json" % n)
        assert main(["certify", "--in", str(hyp), "--out", str(out)]) == 0
        certs.append(out.read_bytes())
    assert certs[0] == certs[1]


@pytest.mark.parametrize("tol", ["-0.05", "0", "nan", "inf"])
def test_cli_lab_audit_refuses_bad_tolerance(tmp_path, bp_csv, tol):
    out = tmp_path / "audit.json"
    assert main(["lab", "audit", "--in", str(bp_csv[0]), "--out", str(out),
                 "--tol=" + tol]) == 2
    assert not out.exists()


def test_cli_certify_golden(tmp_path):
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps(
        {"n": 2, "k": 1, "q": 2.0, "mu": 0.5, "beta1": 1.0, "beta2": 1.0}
    ))
    out = tmp_path / "cert.json"
    assert main(["certify", "--in", str(hyp), "--out", str(out)]) == 0
    cert = json.load(open(out))
    assert cert["lambda_tilde"] == pytest.approx(25.0 / 6.0, abs=1e-12)
    assert cert["gamma"] == 2.0 ** -12
    assert cert["mu_prime"] == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert cert["C"] > 0 and len(cert["factors"]) >= 3


def test_cli_exponent_report(tmp_path, bp_csv):
    src, _ = bp_csv
    out = tmp_path / "exp.json"
    assert main(["exponent", "--in", str(src), "--out", str(out),
                 "--k", "1", "--ladder-depth", "6"]) == 0
    report = json.load(open(out))
    assert 4.5 <= report["lambda_hat"] <= 5.6
    assert 0.4 <= report["alpha_hat"] <= 0.65
    csv_lines = (tmp_path / "exp.csv").read_text().splitlines()
    assert csv_lines[0] == "rho,excess"
    assert len(csv_lines) - 1 == len(report["radii"])


def test_cli_excess_and_seminorm(tmp_path, bp_csv):
    src, _ = bp_csv
    out = tmp_path / "ex.json"
    assert main(["excess", "--in", str(src), "--out", str(out), "--k", "1",
                 "--ladder-depth", "4"]) == 0
    report = json.load(open(out))
    assert len(report["radii"]) >= 3
    assert (tmp_path / "ex.csv").exists()
    out2 = tmp_path / "sn.json"
    assert main(["seminorm", "--in", str(src), "--out", str(out2), "--k", "1",
                 "--ladder-depth", "4", "--lambda", "5.0"]) == 0
    assert json.load(open(out2))["value"] > 0


def test_cli_lab_audit(tmp_path, bp_csv):
    src, _ = bp_csv
    out = tmp_path / "audit.json"
    assert main(["lab", "audit", "--in", str(src), "--out", str(out),
                 "--tol", "0.5"]) == 0
    report = json.load(open(out))
    assert report["branch_set"]["count"] >= 1
    values = [v for v in report["frequency"]["values"] if v is not None]
    assert values and all(0.0 <= v <= 3.0 for v in values)
