"""File-format round-trips and command-line behavior."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qvalued
from qvalued import cli, io, lab
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
    v = io.read_samples_csv(path, None)
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
        u = io.read_samples_csv(csv, None)
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


def test_json_samples_refuse_points_wider_or_narrower_than_the_header_n(
        bp_csv, tmp_path, capsys):
    # a header n = 3 over 2-D points used to load silently as n = 2
    _, u = bp_csv
    path = tmp_path / "bp.json"
    io.write_samples_json(path, u)
    obj = json.loads(path.read_text())
    obj["n"] = 3
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="2 coordinates but the header says n = 3"):
        io.read_samples_json(path)
    out = tmp_path / "o.json"
    assert main(["fit", "--in", str(path), "--out", str(out)]) == 2
    assert "n = 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header", ["2,1,0", "2,0,1"])
def test_cli_refuses_a_sample_header_without_branches_or_components(tmp_path, capsys, header):
    # "2,1,0" used to fail inside numpy with "cannot reshape array of size 0"
    src = tmp_path / "empty.csv"
    src.write_text(header + "\n0.0,0.0\n0.5,0.0\n")
    assert main(["fit", "--in", str(src), "--out", str(tmp_path / "o.json")]) == 2
    assert "needs n, m, Q >= 1" in capsys.readouterr().err


def test_csv_malformed_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("2,1,2\n0.0,0.0,1.0\n")
    with pytest.raises(ValueError, match="row 2"):
        io.read_samples_csv(bad, None)
    bad.write_text("not,a,header\n")
    with pytest.raises(ValueError, match="malformed sample header"):
        io.read_samples_csv(bad, None)
    bad.write_text("2,1,2\n")
    with pytest.raises(ValueError, match="no data rows"):
        io.read_samples_csv(bad, None)


def test_resolution_inference_and_override(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("1,1,1\n0.0,1.0\n0.25,2.0\n0.75,3.0\n")
    u = io.read_samples_csv(path, None)
    assert u.grid.resolution == 0.25
    forced = io.read_samples_csv(path, resolution=0.125)
    assert forced.grid.resolution == 0.125
    assert forced.grid.weights[0] == 0.125
    # a step above the coordinate gap would overlap the cells
    with pytest.raises(ValueError, match=r"resolution 0\.5 exceeds .* gap 0\.25"):
        io.read_samples_csv(path, resolution=0.5)
    dup = tmp_path / "dup.csv"
    dup.write_text("1,1,1\n0.5,1.0\n0.5,2.0\n")
    with pytest.raises(ValueError, match="coincident"):
        io.read_samples_csv(dup, None)


def test_polynomial_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    k = 2
    idx = multi_indices(2, k)
    coeffs = rng.normal(size=(3, 2, len(idx)))
    poly = QPolynomial(np.array([0.1, -0.2]), k, coeffs)
    path = tmp_path / "poly.json"
    io.write_polynomial_json(path, poly, 0.5, {"starts": 3})
    obj = json.loads(path.read_text())
    assert (obj["n"], obj["m"], obj["Q"], obj["k"]) == (2, 2, 3, k)
    assert obj["center"] == [0.1, -0.2] and obj["residual"] == 0.5
    assert obj["starts"] == 3
    assert len(obj["coeffs"]) == coeffs.size  # zero coefficients included
    back = np.zeros_like(coeffs)
    for entry in obj["coeffs"]:
        back[entry["i"] - 1, entry["j"] - 1, idx.index(tuple(entry["p"]))] = entry["a"]
    assert np.array_equal(back, poly.coeffs)


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


@pytest.mark.parametrize("obj, keys", [
    ({"n": 2, "k": 1, "mu": 0.5, "beta_1": 50.0}, ["beta_1"]),
    ({"n": 2, "k": 1, "q": 2.0, "q_exp": 3.0, "mu": 0.5}, ["q", "q_exp"]),
    ({"n": 2, "k": 1, "mu": 0.5, "beta1": 1.0, "beta0": 1.0, "betas": [1.0],
      "beta_tildes": [1.0]}, ["beta1", "beta0", "betas", "beta_tildes"]),
    ({"n": 2, "k": 1, "mu": 0.5, "betas": [50.0], "beta_tildes": [70.0]},
     ["betas", "beta_tildes"]),
    # `beta` was a field that no certificate or audit read
    ({"n": 2, "k": 1, "mu": 0.5, "beta1": 1.0, "beta2": 1.0, "beta": 1.0},
     ["beta"]),
], ids=["unknown-key", "q-and-q_exp", "two-and-three-part", "strata-without-beta0",
        "dead-beta"])
def test_malformed_hypothesis_file_refused_naming_keys(tmp_path, capsys, obj, keys):
    # each of these used to certify silently, with a key ignored
    with pytest.raises(ValueError) as exc:
        io.hypothesis_from_dict(obj)
    assert all(repr(key) in str(exc.value) for key in keys)
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps(obj))
    out = tmp_path / "cert.json"
    assert main(["certify", "--in", str(hyp), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert all(repr(key) in err for key in keys)


def test_domain_round_trip(tmp_path):
    cases = [
        ({"kind": "ball", "n": 2, "radius": 1.0, "resolution": 0.125},
         Domain.ball(2, 1.0), 0.125),
        ({"kind": "half_ball", "n": 3, "radius": 0.5},
         Domain.half_ball(3, 0.5), None),
        ({"kind": "annulus", "n": 2, "inner_radius": 0.25, "outer_radius": 1.0},
         Domain.annulus(2, 0.25, 1.0), None),
        ({"kind": "box", "n": 2, "half_width": 0.8, "center": [0.1, 0.2]},
         Domain.box(2, 0.8, center=[0.1, 0.2]), None),
    ]
    path = tmp_path / "domain.json"
    for obj, want, want_res in cases:
        path.write_text(json.dumps(obj))
        dom, res = io.read_domain_json(path)
        assert (dom.kind, dom.n, dom.radius, dom.inner_radius, dom.half_width) == (
            want.kind, want.n, want.radius, want.inner_radius, want.half_width)
        assert np.array_equal(dom.center, want.center)
        assert res == want_res
    with pytest.raises(ValueError, match="unknown domain kind"):
        io.domain_from_dict({"kind": "torus", "n": 2})


@pytest.mark.parametrize("obj, keys", [
    ({"kind": "ball", "n": 2, "radius": 0.5, "half_width": 0.8}, ["half_width"]),
    ({"kind": "annulus", "n": 2, "inner_radius": 0.25, "outer_radius": 1.0,
      "radius": 1.0}, ["radius"]),
    ({"kind": "box", "n": 2, "half_width": 0.8, "radius": 0.5, "size": 3},
     ["radius", "size"]),
    ({"kind": "half_ball", "n": 2, "radius": 0.5, "inner_radius": 0.1},
     ["inner_radius"]),
    ({"kind": "ball", "n": 2.7, "radius": 0.5}, ["n"]),
], ids=["unread", "annulus-radius", "unknown", "half-ball", "fractional-n"])
def test_domain_config_refuses_keys_it_does_not_read(tmp_path, capsys, obj, keys):
    # a ball used to drop half_width, and n = 2.7 built a 2-D ball
    with pytest.raises(ValueError) as err:
        io.domain_from_dict(obj)
    assert all(k in str(err.value) for k in keys)
    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps(obj))
    out = tmp_path / "g.csv"
    assert main(["lab", "generate", "--kind", "wall_pair", "--out", str(out),
                 "--domain", str(dom), "--resolution", "0.125"]) == 2
    assert not out.exists()
    stderr = capsys.readouterr().err
    assert all(k in stderr for k in keys)


def test_atomic_writes_leave_no_partials(tmp_path):
    io.write_report_json(tmp_path / "r.json", {"a": [1.0, math.nan]})
    io.write_profile_csv(tmp_path / "p.csv", [0.5, 0.25], [1.0, 2.0],
                         ("rho", "value"))
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["p.csv", "r.json"]
    assert json.loads((tmp_path / "r.json").read_text())["a"] == [1.0, None]
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


@pytest.mark.parametrize("kind, f", [
    ("wall_pair", lab.WallPair(0.3)),
    ("reflected_wall_pair", lab.odd_reflection(lab.WallPair(0.3))),
])
def test_cli_lab_generate_wall_kinds_sample_the_library_function(tmp_path, kind, f):
    out = tmp_path / "samples.json"
    assert main(["lab", "generate", "--kind", kind, "--d", "0.3",
                 "--resolution", "0.0625", "--out", str(out)]) == 0
    u = io.read_samples_json(out)
    assert np.array_equal(u.grid.points, Domain.ball(2, 1.0).sample(0.0625).points)
    assert np.array_equal(u.values, f.eval(u.grid.points))


def test_cli_lab_generate_linear_tuple_needs_zero_sum_coeffs(tmp_path):
    out = tmp_path / "lin.csv"
    base = ["lab", "generate", "--kind", "linear_tuple", "--resolution", "0.125",
            "--out", str(out)]
    assert main(base) == 2
    assert main(base + ["--coeffs", "1.0,-0.5"]) == 2
    assert not out.exists()
    assert main(base + ["--coeffs", "1.0,-1.0"]) == 0
    assert out.read_text().splitlines()[0] == "2,1,2"  # n, m, Q


def test_cli_lab_generate_branch_power_branch_count(tmp_path):
    out = tmp_path / "bp3.csv"
    assert main(["lab", "generate", "--kind", "branch_power", "--Q", "3",
                 "--p", "4", "--resolution", "0.125", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "2,1,3"
    with pytest.raises(SystemExit) as exc:
        main(["lab", "generate", "--kind", "spiral", "--out", str(out)])
    assert exc.value.code == 2


@pytest.mark.parametrize("kind, flags", [
    ("wall_pair", ["--Q", "5", "--p", "9", "--coeffs", "1,2"]),
    ("reflected_wall_pair", ["--m", "1"]),
    ("linear_tuple", ["--d", "0.3", "--coeffs", "1,-1"]),
    ("branch_power", ["--d", "0.5"]),
])
def test_cli_lab_generate_refuses_flags_its_kind_does_not_read(tmp_path, capsys,
                                                              kind, flags):
    out = tmp_path / "samples.csv"
    assert main(["lab", "generate", "--kind", kind, "--resolution", "0.125",
                 "--out", str(out)] + flags) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "does not read" in err and flags[0] in err


def test_import_and_two_branch_fit_leave_scipy_optimize_unloaded(tmp_path, bp_csv):
    """Only matching vector values above six branches needs scipy's
    assignment solver, so importing the package and its CLI, a Q = 2 `fit`
    and a Q = 2 `metric_g` never load scipy.optimize."""
    src, _ = bp_csv
    code = (
        "import sys, qvalued, qvalued.cli\n"
        "print('scipy.optimize' in sys.modules)\n"
        "assert qvalued.cli.main(%r) == 0\n"
        "assert qvalued.metric_g([[0.0, 1.0], [2.0, 3.0]], [[2.0, 3.0], [0.0, 1.0]]) == 0.0\n"
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
    report = json.loads(out.read_text())
    assert report["residual"] <= 1e-16
    assert report["k"] == 1 and report["Q"] == 2


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
        io.read_samples_csv(path, None)
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


def test_cli_refuses_a_resolution_above_the_coordinate_gap(tmp_path, bp_csv, capsys):
    # a coarser step overlapped the cells and merged lattice nodes: the run
    # returned a wrong excess, or blamed the ladder, with no input error
    src, u = bp_csv
    out = tmp_path / "o.json"
    for argv in (["fit"], ["excess"], ["exponent"], ["lab", "audit"]):
        for res in ("0.0625", "0.5"):
            capsys.readouterr()
            assert main(argv + ["--in", str(src), "--out", str(out),
                                "--resolution", res]) == 2
            assert not out.exists()
            assert "exceeds the smallest coordinate gap 0.03125" in capsys.readouterr().err
    # the inferred step itself, and a finer one, are accepted
    for res in ("0.03125", "0.015625"):
        assert main(["fit", "--in", str(src), "--out", str(out), "--resolution", res]) == 0
    # and a JSON sample file's own resolution is held to the same gap
    js = tmp_path / "coarse.json"
    io.write_samples_json(js, u)
    obj = json.loads(js.read_text())
    obj["resolution"] = 0.0625
    js.write_text(json.dumps(obj))
    assert main(["fit", "--in", str(js), "--out", str(tmp_path / "j.json")]) == 2


def test_off_lattice_samples_are_refused(tmp_path, capsys):
    # 2,361 uniform random points in a disk read back with the smallest
    # coordinate gap, about 1e-7, as their step and a lattice with no edge,
    # and every command ran on them: exponent exited 0 with excesses of
    # 1e-12 to 1e-18
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.7, 0.7, (4000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) < 0.7][:2361]
    assert pts.shape == (2361, 2)
    r = np.linalg.norm(pts, axis=1)
    grid = qvalued.QuadratureGrid(pts, np.full(pts.shape[0], 1e-3), 1e-7)
    path = tmp_path / "scattered.csv"
    io.write_samples_csv(path, SampledQFunction(grid, (r ** 1.5)[:, None, None]))
    with pytest.raises(ValueError, match=r"sample \d+ at \[.*\] is off the lattice "
                                         r"of step h = [0-9.e-]+"):
        io.read_samples_csv(path, None)
    out = tmp_path / "o.json"
    for extra in ([], ["--resolution", "1e-9"]):
        capsys.readouterr()
        assert main(["exponent", "--in", str(path), "--out", str(out)] + extra) == 2
        assert not out.exists()
        assert "is off the lattice of step h" in capsys.readouterr().err
    # a JSON sample file is read by the same rule
    js = tmp_path / "scattered.json"
    io.write_samples_json(js, SampledQFunction(grid, (r ** 1.5)[:, None, None]))
    with pytest.raises(ValueError, match="off the lattice of step h = 1e-07"):
        io.read_samples_json(js)


def test_cli_refuses_resolution_with_json_samples(tmp_path, capsys):
    # a JSON sample file carries its own resolution; the flag used to be
    # dropped silently, so the fit ran at the file's step
    grid = Domain.ball(2, 0.5).sample(1.0 / 16.0)
    u = SampledQFunction(grid, (np.linalg.norm(grid.points, axis=1) ** 1.5)[:, None, None])
    js = tmp_path / "samples.json"
    io.write_samples_json(js, u)
    out = tmp_path / "o.json"
    for argv in (["fit"], ["excess"], ["seminorm", "--lambda", "4"],
                 ["exponent"], ["lab", "audit"]):
        capsys.readouterr()
        assert main(argv + ["--in", str(js), "--out", str(out),
                            "--resolution", "0.03125"]) == 2
        assert not out.exists()
        assert "--resolution" in capsys.readouterr().err
    assert main(["fit", "--in", str(js), "--out", str(out)]) == 0


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


def test_cli_exit_numeric_on_starved_ladder(tmp_path):
    # on an h = 1/8 grid only three of six rungs exceed two grid steps
    src = tmp_path / "coarse.csv"
    grid = Domain.ball(2, 1.0).sample(1.0 / 8.0)
    io.write_samples_csv(src, SampledQFunction.from_function(
        grid, lab.BranchPower(2, 3, m=1).eval, 2, 1))
    rc = main(["exponent", "--in", str(src), "--out", str(tmp_path / "o.json")])
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
    cert = json.loads(out.read_text())
    assert cert["lambda_tilde"] == pytest.approx(25.0 / 6.0, abs=1e-12)
    assert cert["gamma"] == 2.0 ** -12
    assert cert["mu_prime"] == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert cert["C"] > 0 and len(cert["factors"]) >= 3


def test_cli_certify_three_part_hypothesis(tmp_path):
    # the two-part formula used to certify this file, ignoring its strata
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps({"n": 2, "k": 1, "q": 2.0, "mu": 0.5, "beta0": 1.0,
                               "betas": [50.0], "beta_tildes": [70.0]}))
    out = tmp_path / "cert.json"
    assert main(["certify", "--in", str(hyp), "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["gamma"] == 2.0 ** -17
    assert cert["lambda_tilde"] == pytest.approx(70.0 / 17.0, abs=1e-12)
    factors = dict(cert["factors"])
    assert [name for name, _ in cert["factors"]] == [
        "scale_comparison", "recentering", "geometric_sum", "base_transfer",
        "stratum_1_transfer", "offset_window"]
    assert factors["stratum_1_transfer"] == 3500.0


def test_cli_certify_refuses_three_part_hypothesis_without_strata(tmp_path, capsys):
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps({"n": 2, "k": 1, "q": 2.0, "mu": 0.5, "beta0": 1.0}))
    out = tmp_path / "cert.json"
    assert main(["certify", "--in", str(hyp), "--out", str(out)]) == 2
    assert not out.exists()
    assert "need at least one stratum" in capsys.readouterr().err


def test_cli_exponent_report(tmp_path, bp_csv):
    src, _ = bp_csv
    out = tmp_path / "exp.json"
    assert main(["exponent", "--in", str(src), "--out", str(out),
                 "--k", "1", "--ladder-depth", "6"]) == 0
    report = json.loads(out.read_text())
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
    report = json.loads(out.read_text())
    assert len(report["radii"]) >= 3
    assert (tmp_path / "ex.csv").exists()
    out2 = tmp_path / "sn.json"
    assert main(["seminorm", "--in", str(src), "--out", str(out2), "--k", "1",
                 "--ladder-depth", "4", "--lambda", "5.0"]) == 0
    assert json.loads(out2.read_text())["value"] > 0


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_cli_seminorm_refuses_non_finite_lambda(tmp_path, bp_csv, lam):
    src, _ = bp_csv
    out = tmp_path / "sn.json"
    assert main(["seminorm", "--in", str(src), "--out", str(out),
                 "--ladder-depth", "4", "--lambda", lam]) == 2
    assert not out.exists()


def test_cli_lab_audit(tmp_path, bp_csv):
    src, _ = bp_csv
    out = tmp_path / "audit.json"
    assert main(["lab", "audit", "--in", str(src), "--out", str(out),
                 "--tol", "0.5"]) == 0
    report = json.loads(out.read_text())
    assert report["branch_set"]["count"] >= 1
    values = [v for v in report["frequency"]["values"] if v is not None]
    assert values and all(0.0 <= v <= 3.0 for v in values)


# ---------------------------------------------------------------------------
# every accepted option is read


def _leaf_parsers(parser, prefix=()):
    """(argv prefix, parser) of every subcommand that runs a handler."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix, parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, prefix + (name,))


def _recording(args):
    """A copy of the parsed Namespace `args` and the set of attribute names
    read from the copy, filled in as they are read."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    return Recording(**vars(args)), reads


def test_every_accepted_option_is_read_by_its_handler(tmp_path, bp_csv):
    """Each subcommand's handler, run on a parse that sets every option the
    subcommand accepts, reads every parsed option: no flag is accepted and
    then ignored.  The handler runs itself, not `main`, whose own
    --ladder-depth check would count as a read; `lab generate` runs once
    per kind, with the kind flags that kind reads."""
    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps({"kind": "ball", "n": 2, "radius": 1.0}))
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps({"n": 2, "k": 1, "q": 2.0, "mu": 0.5,
                               "beta1": 1.0, "beta2": 1.0}))
    value = {"infile": str(bp_csv[0]), "domain": str(dom), "k": "1", "q": "2",
             "ladder_depth": "4", "resolution": "0.03125", "lam": "1.5",
             "tol": "0.05", "Q": "2", "p": "3", "m": "1", "d": "0.5",
             "coeffs": "1,-1"}
    kind_flags = {flag for reads in cli._LAB_FLAGS.values() for flag in reads}
    parser = cli.build_parser()
    for prefix, sub in _leaf_parsers(parser):
        flags = {a.dest: a.option_strings[0] for a in sub._actions
                 if a.option_strings and a.dest != "help"}
        out = tmp_path / ("%s.%s" % ("-".join(prefix),
                                     "csv" if "kind" in flags else "json"))
        given = dict(value, out=str(out))
        if prefix == ("certify",):
            given["infile"] = str(hyp)
        runs = [[]]
        if "kind" in flags:
            runs = [["--kind", kind] + [token for flag in cli._LAB_FLAGS[kind]
                                        for token in (flags[flag], given[flag])]
                    for kind in cli._LAB_FLAGS]
        covered = set()
        for run in runs:
            for dest, flag in flags.items():
                if dest not in kind_flags and dest != "kind":
                    run += [flag, given[dest]]
            args = parser.parse_args(list(prefix) + run)
            recorded, reads = _recording(args)
            assert recorded.func(recorded) == 0
            parsed = set(vars(args)) - {"command", "lab_command", "func"}
            assert parsed - reads == set(), (prefix, run)
            covered |= parsed
        assert covered == set(flags), prefix


def test_fit_refuses_the_ladder_depth_flag(tmp_path, bp_csv, capsys):
    # fit has no ladder; it used to accept --ladder-depth and ignore it
    out = tmp_path / "fit.json"
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--in", str(bp_csv[0]), "--out", str(out),
              "--ladder-depth", "3"])
    assert exc.value.code == 2
    assert "--ladder-depth" in capsys.readouterr().err
    assert not out.exists()


def test_io_refuses_malformed_input_and_cleans_up(tmp_path, monkeypatch):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"n": 2, "m": 1, "Q": 2, "points": [[0.0, 0.0]],
                                 "values": [[[1.0, 2.0]]]}))
    with pytest.raises(ValueError, match="values shape"):
        io.read_samples_json(shape)
    word = tmp_path / "word.csv"
    word.write_text("2,1,1\n0.0,0.0,abc\n")
    with pytest.raises(ValueError, match="abc"):
        io.read_samples_csv(word, None)

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        io._atomic_write(tmp_path / "out.json", "{}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shape.json", "word.csv"]
