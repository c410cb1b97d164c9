import argparse
import functools
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import savetxt_17g
from simplexmix import hull
from simplexmix.admixture import em_fit, synthetic_corpus
from simplexmix.cli import _write_matrix, build_parser, main


def read(path):
    with open(path) as fh:
        return fh.read()


def run(argv, expect=0):
    code = main(argv)
    assert code == expect, f"exit {code} != {expect} for {argv}"
    return code


def write_docword(x, path):
    lines = [str(x.n_docs), str(x.n_terms), str(x.nnz)]
    for d, t, c in zip(x.doc_ids, x.term_ids, x.counts):
        lines.append(f"{d + 1} {t + 1} {c}")
    path.write_text("\n".join(lines) + "\n")


class TestGrowthCommand:
    def test_segment_constant_curve(self, tmp_path):
        out = tmp_path / "g"
        run(["growth", "--J", "2", "--n-grid", "3,10,100", "--reps", "10",
             "--seed", "1", "--out", str(out), "--manifest", str(tmp_path / "m.json")])
        rows = read(f"{out}.csv").strip().splitlines()
        assert rows[0] == "n,mean_f0,var_f0,stderr,reps"
        for row in rows[1:]:
            _, mean, var, _, _ = row.split(",")
            assert float(mean) == 2.0 and float(var) == 0.0

    def test_coincident_cloud_counts_one(self, tmp_path):
        # at alpha 0.001 some clouds of 4 draw every point at one vertex: a
        # lone distinct point, extreme by itself
        out = tmp_path / "g"
        run(["growth", "--J", "2", "--n-grid", "4,10", "--reps", "20",
             "--sampler", "dirichlet:0.001,0.001", "--out", str(out), "--manifest", str(tmp_path / "m.json")])
        for row in read(f"{out}.csv").strip().splitlines()[1:]:
            assert 1.0 <= float(row.split(",")[1]) <= 2.0

    def test_deterministic_reruns(self, tmp_path):
        argv = ["growth", "--J", "3", "--n-grid", "10,100,1000", "--reps", "20",
                "--seed", "5", "--out", str(tmp_path / "g"), "--manifest", str(tmp_path / "m.json")]
        run(argv)
        first = {p: read(tmp_path / p) for p in ("g.csv", "g.fit.json", "m.json")}
        run(argv)
        for name, content in first.items():
            assert read(tmp_path / name) == content

    def test_thread_count_invariant(self, tmp_path):
        base = ["growth", "--J", "3", "--n-grid", "10,100", "--reps", "10", "--seed", "2"]
        run(base + ["--threads", "1", "--out", str(tmp_path / "a"), "--manifest", str(tmp_path / "ma.json")])
        run(base + ["--threads", "4", "--out", str(tmp_path / "b"), "--manifest", str(tmp_path / "mb.json")])
        assert read(tmp_path / "a.csv") == read(tmp_path / "b.csv")
        assert read(tmp_path / "a.fit.json") == read(tmp_path / "b.fit.json")

    def test_manifest_records_digests(self, tmp_path):
        out = tmp_path / "g"
        manifest = tmp_path / "m.json"
        run(["growth", "--J", "2", "--n-grid", "3,10", "--reps", "5",
             "--out", str(out), "--manifest", str(manifest)])
        data = json.loads(read(manifest))
        assert data["subcommand"] == "growth"
        assert set(data["outputs"]) == {"g.csv", "g.fit.json"}
        assert all(len(d) == 64 for d in data["outputs"].values())
        assert data["config"]["sampler"] == {"J": 2, "kind": "uniform", "seed": 0}

    def test_fit_reports_exponent_candidates(self, tmp_path):
        out = tmp_path / "g"
        run(["growth", "--J", "3", "--n-grid", "10,100,1000", "--reps", "20",
             "--seed", "3", "--out", str(out), "--manifest", str(tmp_path / "m.json")])
        fit = json.loads(read(f"{out}.fit.json"))
        assert fit["exponent_candidates"] == {"J_minus_1": 2, "J_minus_2": 1}

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["growth"])
        assert exc.value.code == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        code = main(["growth", "--J", "3", "--n-grid", "10,5",
                     "--out", str(tmp_path / "g"), "--manifest", str(tmp_path / "m.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_dirichlet_sampler_flag(self, tmp_path):
        run(["growth", "--J", "3", "--n-grid", "10,50", "--reps", "5",
             "--sampler", "dirichlet:2,2,2", "--out", str(tmp_path / "g"),
             "--manifest", str(tmp_path / "m.json")])
        assert os.path.exists(tmp_path / "g.csv")

    @pytest.mark.parametrize("alpha", ["nan,1,1", "1,inf,1"])
    def test_non_finite_dirichlet_alpha_exits_2(self, tmp_path, capsys, alpha):
        # rejected by SamplerSpec, before sampling can warn or fail on the points
        code = main(["growth", "--J", "3", "--n-grid", "10,20", "--reps", "2", "--sampler", f"dirichlet:{alpha}",
                     "--out", str(tmp_path / "g"), "--manifest", str(tmp_path / "m.json")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_sampler_json_dimension_checked(self, tmp_path, capsys):
        code = main(["growth", "--J", "3", "--sampler", '{"kind":"uniform","J":4,"seed":0}',
                     "--out", str(tmp_path / "g"), "--manifest", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("command, flag, spec, key", [
        ("growth", "--sampler", {"J": 3, "seed": 1}, "kind"),
        ("growth", "--sampler", {"kind": "uniform", "J": 3}, "seed"),
        ("gamma", "--sampler-g", {"kind": "point-mass", "J": 3, "seed": 1, "atoms": [[1, 0, 0], [0, 1, 0]]}, "weights"),
    ])
    def test_sampler_json_missing_key_exits_2(self, tmp_path, capsys, command, flag, spec, key):
        code = main([command, "--J", "3", "--n-grid", "10,20", "--reps", "2", flag, json.dumps(spec),
                     "--out", str(tmp_path / "g"), "--manifest", str(tmp_path / "m.json")])
        assert code == 2
        assert f"lacks the key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "uniform", "J": 3, "seed": 1, "weights": [0.5]}, "'weights'"),
        ({"kind": "dirichlet", "J": 3, "seed": 1, "alpha": [1, 1, 1], "alfa": [2, 2, 2]}, "'alfa'"),
    ])
    def test_sampler_json_stray_key_exits_2(self, tmp_path, capsys, spec, key):
        code = main(["growth", "--J", "3", "--n-grid", "10,20", "--reps", "2", "--sampler", json.dumps(spec),
                     "--out", str(tmp_path / "g"), "--manifest", str(tmp_path / "m.json")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m.json")

    @pytest.mark.parametrize("command, flag, spec, key", [
        ("growth", "--sampler", {"kind": "dirichlet", "J": 3, "seed": 1, "alpha": None}, "alpha"),
        ("gamma", "--sampler-g", {"kind": "point-mass", "J": 3, "seed": 1, "atoms": None, "weights": [1]}, "atoms"),
        ("gamma", "--sampler-g", {"kind": "point-mass", "J": 3, "seed": 1, "atoms": [[1, 0, 0]], "weights": None}, "weights"),
    ])
    def test_sampler_json_null_exits_2(self, tmp_path, capsys, command, flag, spec, key):
        code = main([command, "--J", "3", "--n-grid", "10,20", "--reps", "2", flag, json.dumps(spec),
                     "--out", str(tmp_path / "g"), "--manifest", str(tmp_path / "m.json")])
        assert code == 2
        assert f"sampler JSON has null for the key '{key}'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m.json")


class TestSeedFlag:
    @pytest.mark.parametrize("command, flag, sampler", [
        ("growth", "--sampler", "uniform"),
        ("gamma", "--sampler-g", "dirichlet:2,1,3"),
    ])
    def test_json_sampler_seed_is_replaced(self, tmp_path, command, flag, sampler):
        """--seed roots the seed tree: a JSON sampler's own seed is replaced
        by it, in the outputs and in the manifest."""
        spec = {"uniform": {"kind": "uniform"}, "dirichlet:2,1,3": {"kind": "dirichlet", "alpha": [2, 1, 3]}}[sampler]
        csvs, samplers = [], []
        for name, value in (("plain", sampler), ("json", json.dumps({**spec, "J": 3, "seed": 99}))):
            run([command, "--J", "3", "--n-grid", "10,100", "--reps", "5", "--seed", "4", flag, value,
                 "--out", str(tmp_path / name), "--manifest", str(tmp_path / f"{name}.manifest.json")])
            csvs.append(read(tmp_path / f"{name}.csv"))
            samplers.append(json.loads(read(tmp_path / f"{name}.manifest.json"))["config"][flag[2:].replace("-", "_")])
        assert csvs[0] == csvs[1]
        assert samplers[0] == samplers[1] and samplers[1]["seed"] == 4


class TestEmptyGrid:
    @pytest.mark.parametrize("argv, message", [
        (["hull-limit", "--J", "3", "--n-grid", ","], "n_grid must be nonempty"),
        (["polya", "--true-weights", "0.5,0.5", "--k-grid", ","], "k_grid must be nonempty"),
    ])
    def test_exits_2(self, tmp_path, capsys, argv, message):
        code = main(argv + ["--out", str(tmp_path / "o"), "--manifest", str(tmp_path / "m.json")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m.json")


class TestListFlags:
    """The parser converts --n-grid, --k-grid and --true-weights, as it does
    every numeric flag: a malformed list is one usage error that names the
    flag and the text, before any work starts.  The vectors of
    'dirichlet:...' and --p are read by the commands, and a malformed one is
    a configuration error."""

    @pytest.mark.parametrize("argv, flag, text", [
        (["growth", "--J", "3", "--n-grid", "10,x"], "--n-grid", "10,x"),
        (["hull-limit", "--J", "3", "--n-grid", "10.5,100"], "--n-grid", "10.5,100"),
        (["polya", "--true-weights", "0.5,0.5", "--k-grid", "100,1e3"], "--k-grid", "100,1e3"),
        (["polya", "--true-weights", "0.5,y"], "--true-weights", "0.5,y"),
    ], ids=["n-grid", "fractional-n", "k-grid", "true-weights"])
    def test_malformed_list_is_a_usage_error(self, tmp_path, capsys, argv, flag, text):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o"), "--manifest", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: simplexmix " + argv[0])
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert line.startswith(f"simplexmix {argv[0]}: error: argument {flag}: invalid ")
        assert line.endswith(f" value: {text!r}")
        assert "_parse" not in line  # the converter's name says what it expects
        assert not os.listdir(tmp_path)

    def test_no_traceback_under_warnings_as_errors(self, tmp_path):
        src = str(Path(hull.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "simplexmix", "growth", "--J", "3", "--n-grid", "10,x",
             "--manifest", str(tmp_path / "m.json")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 2
        assert "argument --n-grid" in done.stderr and "'10,x'" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv, text", [
        (["growth", "--J", "3", "--sampler", "dirichlet:1,x,1"], "1,x,1"),
        (["choquet", "--frame", "FRAME", "--p", "0.2,x,0.5"], "0.2,x,0.5"),
    ], ids=["dirichlet", "p"])
    def test_malformed_vector_is_a_configuration_error(self, tmp_path, capsys, argv, text):
        frame = tmp_path / "frame.csv"
        np.savetxt(frame, np.eye(3), delimiter=",")
        argv = [str(frame) if a == "FRAME" else a for a in argv]
        assert main(argv + ["--manifest", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: bad vector {text!r}; expected comma-separated numbers\n"

    def test_unknown_sampler_exits_2(self, tmp_path, capsys):
        code = main(["growth", "--J", "3", "--sampler", "beta", "--manifest", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown sampler 'beta'; use 'uniform', 'dirichlet:...', or JSON\n"


class TestCltCommand:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "c"
        run(["clt", "--J", "3", "--n", "100", "--reps", "120", "--seed", "1",
             "--out", str(out), "--manifest", str(tmp_path / "m.json")])
        report = json.loads(read(f"{out}.json"))
        assert report["reps"] == 120
        draws = read(f"{out}.csv").strip().splitlines()[1:]
        assert len(draws) == 120

    def test_degenerate_exits_2(self, tmp_path):
        code = main(["clt", "--J", "2", "--n", "50", "--reps", "100",
                     "--out", str(tmp_path / "c"), "--manifest", str(tmp_path / "m.json")])
        assert code == 2


class TestGammaCommand:
    def test_uniform_ratio_near_one(self, tmp_path):
        out = tmp_path / "ga"
        run(["gamma", "--J", "3", "--n-grid", "10,100", "--reps", "40", "--seed", "3",
             "--sampler-g", "uniform", "--out", str(out), "--manifest", str(tmp_path / "m.json")])
        rows = [r.split(",") for r in read(f"{out}.csv").strip().splitlines()[1:]]
        for row in rows:
            gamma, se = float(row[1]), float(row[2])
            assert abs(gamma - 1.0) <= 4 * se


class TestHullLimitCommand:
    def test_trace_monotone(self, tmp_path):
        out = tmp_path / "h"
        run(["hull-limit", "--J", "3", "--n-grid", "10,100,1000", "--seed", "3",
             "--out", str(out), "--manifest", str(tmp_path / "m.json")])
        d = [float(r.split(",")[1]) for r in read(f"{out}.csv").strip().splitlines()[1:]]
        assert d == sorted(d, reverse=True)
        assert max(d) <= 2.0

    def test_solver_iteration_cap_exits_3(self, tmp_path, monkeypatch):
        # the NNLS iteration cap raises instead of returning a partial answer;
        # growth would not show it, as the certificate settles every candidate
        # of a uniform cloud without calling the solver.  hull imports nnls at
        # its call, so the cap is set on scipy.optimize itself.
        monkeypatch.setattr(scipy.optimize, "nnls", functools.partial(scipy.optimize.nnls, maxiter=1))
        with pytest.raises(RuntimeError):
            hull.point_to_hull_distance([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        run(["hull-limit", "--J", "3", "--n-grid", "10,100", "--out", str(tmp_path / "h"),
             "--manifest", str(tmp_path / "m.json")], expect=3)


class TestDefinettiCommand:
    def test_prints_value(self, capsys, tmp_path):
        run(["definetti", "--m", "5", "--L", "2", "--manifest", str(tmp_path / "m.json")])
        assert capsys.readouterr().out.strip() == "0.2"

    def test_json_output(self, tmp_path):
        out = tmp_path / "b.json"
        run(["definetti", "--m", "3", "--L", "3", "--out", str(out),
             "--manifest", str(tmp_path / "m.json")])
        data = json.loads(read(out))
        assert data["beta"] == pytest.approx(7 / 9, abs=1e-15)

    def test_invalid_exits_2(self, tmp_path):
        assert main(["definetti", "--m", "2", "--L", "5",
                     "--manifest", str(tmp_path / "m.json")]) == 2


class TestChoquetCommand:
    def test_basis_frame(self, tmp_path, capsys):
        frame = tmp_path / "frame.csv"
        np.savetxt(frame, np.eye(3), delimiter=",")
        run(["choquet", "--frame", str(frame), "--p", "0.2,0.3,0.5",
             "--out", str(tmp_path / "w"), "--manifest", str(tmp_path / "m.json")])
        printed = capsys.readouterr().out.strip().split(",")
        np.testing.assert_allclose([float(v) for v in printed], [0.2, 0.3, 0.5], atol=1e-12)
        data = json.loads(read(tmp_path / "w.json"))
        assert data["reconstruction_error"] < 1e-10

    def test_point_from_csv(self, tmp_path, capsys):
        frame = tmp_path / "frame.csv"
        np.savetxt(frame, np.eye(2), delimiter=",")
        p = tmp_path / "p.csv"
        p.write_text("0.25,0.75\n")
        run(["choquet", "--frame", str(frame), "--p", str(p),
             "--manifest", str(tmp_path / "m.json")])
        printed = capsys.readouterr().out.strip().split(",")
        np.testing.assert_allclose([float(v) for v in printed], [0.25, 0.75], atol=1e-12)

    def test_outside_point_exits_2(self, tmp_path):
        frame = tmp_path / "frame.csv"
        np.savetxt(frame, np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]), delimiter=",")
        assert main(["choquet", "--frame", str(frame), "--p", "1,0,0",
                     "--manifest", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("flag", ["--frame", "--p"])
    def test_empty_file_exits_2(self, tmp_path, flag):
        files = {"--frame": tmp_path / "frame.csv", "--p": tmp_path / "p.csv"}
        np.savetxt(files["--frame"], np.eye(3), delimiter=",")
        files["--p"].write_text("0.2,0.3,0.5\n")
        files[flag].write_text("")
        # a child interpreter, so that -W error turns any warning into a crash
        src = str(Path(hull.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "simplexmix", "choquet", "--frame", str(files["--frame"]),
             "--p", str(files["--p"]), "--manifest", str(tmp_path / "m.json")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 2
        assert done.stderr == f"error: {flag} file {str(files[flag])!r} holds no numbers\n"
        assert not (tmp_path / "m.json").exists()

    def test_solver_flag_is_gone(self, tmp_path):
        frame = tmp_path / "frame.csv"
        np.savetxt(frame, np.eye(3), delimiter=",")
        with pytest.raises(SystemExit) as exc:
            main(["choquet", "--frame", str(frame), "--p", "0.2,0.3,0.5", "--solver", "nnls",
                  "--manifest", str(tmp_path / "m.json")])
        assert exc.value.code == 2


class TestPolyaCommand:
    def test_trace_csv(self, tmp_path):
        out = tmp_path / "p"
        run(["polya", "--alpha", "1.0", "--true-weights", "0.7,0.3",
             "--k-grid", "100,1000", "--seed", "4", "--out", str(out),
             "--manifest", str(tmp_path / "m.json")])
        rows = [r.split(",") for r in read(f"{out}.csv").strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [100, 1000]
        assert float(rows[1][1]) < 0.2


@pytest.mark.parametrize(
    "argv, header",
    [
        (["growth", "--J", "3", "--n-grid", "10,100", "--reps", "7"], "n,mean_f0,var_f0,stderr,reps"),
        (["clt", "--J", "3", "--n", "50", "--reps", "100"], "standardized_f0"),
        (["gamma", "--J", "3", "--n-grid", "10,100", "--reps", "5", "--sampler-g", "dirichlet:2,1,1"],
         "n,gamma_n,se,mean_t,se_t,mean_m,se_m"),
        (["hull-limit", "--J", "3", "--n-grid", "10,100"], "n,hausdorff_to_simplex"),
        (["polya", "--true-weights", "0.7,0.3", "--k-grid", "100,1000"], "k,sup_error,minimax_rate"),
    ],
    ids=["growth", "clt", "gamma", "hull-limit", "polya"],
)
def test_small_csv_is_header_then_17g_rows(tmp_path, argv, header):
    out = tmp_path / "new" / "dir" / argv[0]  # the writer creates the directory
    run(argv + ["--seed", "2", "--out", str(out), "--manifest", str(tmp_path / "m.json")])
    first, rest = Path(f"{out}.csv").read_bytes().split(b"\n", 1)
    assert first.decode() == header
    assert rest == savetxt_17g(np.loadtxt(f"{out}.csv", delimiter=",", ndmin=2, skiprows=1))


class TestFitAdmixtureCommand:
    def test_recovers_fixture_components(self, tmp_path):
        x, _, _ = synthetic_corpus(3, 9, 400, 80, 1.0, seed=21)
        doc = tmp_path / "docword.txt"
        write_docword(x, doc)
        json_out = tmp_path / "report.json"
        run(["fit-admixture", "--input", str(doc), "--L0", "6", "--pca-dim", "2",
             "--seed", "21", "--json-out", str(json_out), "--csv-dir", str(tmp_path),
             "--manifest", str(tmp_path / "m.json")])
        report = json.loads(read(json_out))
        assert report["final_m"] == 3
        assert [r["stop"] for r in report["rounds"]] == ["converged", "converged"]
        assert not any("iteration cap" in w for w in report["warnings"])
        phi = np.loadtxt(tmp_path / "phi.csv", delimiter=",")
        f = np.loadtxt(tmp_path / "f.csv", delimiter=",")
        assert phi.shape == (400, 3)
        assert f.shape[0] == 3
        np.testing.assert_allclose(f.sum(axis=1), 1.0, atol=1e-9)

    def test_report_keys(self, tmp_path):
        x, _, _ = synthetic_corpus(2, 5, 60, 30, 0.9, seed=23)
        doc = tmp_path / "docword.txt"
        write_docword(x, doc)
        run(["fit-admixture", "--input", str(doc), "--L0", "3", "--pca-dim", "2", "--seed", "23",
             "--json-out", str(tmp_path / "report.json"), "--csv-dir", str(tmp_path), "--manifest", str(tmp_path / "m.json")])
        report = json.loads(read(tmp_path / "report.json"))
        assert set(report) == {
            "rounds", "final_m", "identifiable", "choquet_note", "term_remap", "warnings", "l0", "pca_dim", "seed",
            "loglik", "smoothing", "restart",
        }
        assert report["rounds"]
        for r in report["rounds"]:
            assert set(r) == {
                "round", "components", "loglik", "iterations", "stop", "pca_dim_attained", "explained_variance",
                "extrema_count",
            }

    def test_iteration_cap_in_report(self, tmp_path):
        x, _, _ = synthetic_corpus(6, 200, 500, 150, 0.98, seed=2)
        doc = tmp_path / "docword.txt"
        write_docword(x, doc)
        json_out = tmp_path / "report.json"
        run(["fit-admixture", "--input", str(doc), "--L0", "16", "--restarts", "1", "--seed", "2",
             "--json-out", str(json_out), "--csv-dir", str(tmp_path), "--manifest", str(tmp_path / "m.json")])
        report = json.loads(read(json_out))
        assert (report["rounds"][0]["iterations"], report["rounds"][0]["stop"]) == (500, "max_iters")
        assert "round 0: EM stopped at the iteration cap (500) before converging" in report["warnings"]

    def test_byte_identical_across_threads(self, tmp_path):
        x, _, _ = synthetic_corpus(2, 6, 120, 40, 1.0, seed=22)
        doc = tmp_path / "docword.txt"
        write_docword(x, doc)
        outs = {}
        for tag, threads in (("a", "1"), ("b", "2"), ("c", "3")):
            d = tmp_path / tag
            d.mkdir()
            run(["fit-admixture", "--input", str(doc), "--L0", "3", "--pca-dim", "2",
                 "--seed", "22", "--threads", threads,
                 "--json-out", str(d / "report.json"), "--csv-dir", str(d),
                 "--manifest", str(d / "m.json")])
            outs[tag] = (read(d / "report.json"), read(d / "phi.csv"), read(d / "f.csv"))
        assert outs["a"] == outs["b"] == outs["c"]

    def test_line_order_changes_no_output(self, tmp_path):
        # a docword file with its body lines shuffled fits to the same bytes
        x, _, _ = synthetic_corpus(3, 9, 120, 40, 0.9, seed=26)
        doc = tmp_path / "docword.txt"
        write_docword(x, doc)
        lines = read(doc).splitlines()
        body = lines[3:]
        np.random.default_rng(26).shuffle(body)
        (tmp_path / "shuffled.txt").write_text("\n".join(lines[:3] + body) + "\n")
        digests = []
        for name in ("docword.txt", "shuffled.txt"):
            d = tmp_path / name.split(".")[0]
            d.mkdir()
            run(["fit-admixture", "--input", str(tmp_path / name), "--L0", "4", "--pca-dim", "2",
                 "--restarts", "2", "--seed", "26", "--json-out", str(d / "report.json"), "--csv-dir", str(d),
                 "--manifest", str(d / "m.json")])
            digests.append(json.loads(read(d / "m.json"))["outputs"])
        assert set(digests[0]) == {"report.json", "phi.csv", "f.csv"}
        assert digests[0] == digests[1]

    def test_zero_restarts_exits_2(self, tmp_path, capsys):
        x, _, _ = synthetic_corpus(2, 5, 30, 20, 0.9, seed=25)
        doc = tmp_path / "docword.txt"
        write_docword(x, doc)
        run(["fit-admixture", "--input", str(doc), "--L0", "2", "--restarts", "0",
             "--csv-dir", str(tmp_path), "--manifest", str(tmp_path / "m.json")], expect=2)
        assert "restarts must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_oversized_header_exits_2(self, tmp_path, capsys):
        # D * W >= 2^63 would overflow the int64 (doc, term) key
        doc = tmp_path / "docword.txt"
        doc.write_text(f"2\n{10**23}\n1\n1 1 3\n")
        run(["fit-admixture", "--input", str(doc), "--L0", "3",
             "--csv-dir", str(tmp_path), "--manifest", str(tmp_path / "m.json")], expect=2)
        assert "header too large" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_matrix_csv_bytes_match_savetxt(self, tmp_path):
        rng = np.random.default_rng(24)
        floor = 1e-10 / (1.0 + 40 * 1e-10)  # a smoothed zero after renormalization
        # odd multiples of 2**-e whose exact decimal has 18 digits, the last a 5;
        # at e = 24 and 25, 10**(e - 1) is not a double
        ties = [odd * 2.0**-e for e in range(17, 26) for odd in range(-(-10**17 // 5**e) | 1, 10**18 // 5**e + 1, 2)[:20]]
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)] + [2.0**k for k in range(-1000, 1001)])
        near_switch = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999e-5, 1.0000000000001e-4, 99999999999999984.0])
        x, _, _ = synthetic_corpus(3, 12, 300, 60, 0.9, seed=24)
        cases = {
            "smoothed": np.array([[1.0, 1e-300, floor], [floor * (1 + 2**-52), 1 / 3, 2 / 3]]),
            "dirichlet": rng.dirichlet(np.ones(4), size=50) + floor,
            "exact ties": np.array(ties + [-t for t in ties]).reshape(-1, 2),
            "powers and neighbours": np.stack([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)], axis=1),
            "round up to a power of ten": np.array([[0.99999999999999999, 9.9999999999999995e-08, 1e-70, 1e-73, 1e-78]]),
            "fixed/exponent switch": np.stack([np.nextafter(near_switch, 0), near_switch, np.nextafter(near_switch, np.inf)]),
            "signs and specials": np.array([[-1.5, -0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e-300]]),
            "1 x 1": np.array([[-0.00012345678901234567]]),
            "n x 1": rng.standard_normal((5000, 1)) * 10.0 ** rng.integers(-20, 20, (5000, 1)),
            "fitted phi": em_fit(x, 4, restarts=1, seed=24).phi,
        }
        for name, a in cases.items():
            _write_matrix(str(tmp_path / "fast.csv"), a)
            assert (tmp_path / "fast.csv").read_bytes() == savetxt_17g(a), name
        np.savetxt(tmp_path / "ref.csv", cases["fitted phi"], delimiter=",", fmt="%.17g")
        assert (tmp_path / "ref.csv").read_bytes() == savetxt_17g(cases["fitted phi"])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matrix_csv_bytes_match_oracle_on_any_bits(self, data):
        n, m = data.draw(st.integers(1, 8), label="rows"), data.draw(st.integers(1, 6), label="columns")
        bits = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n * m, max_size=n * m), label="bits")
        a = np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, m)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fast.csv")
            _write_matrix(path, a)
            assert Path(path).read_bytes() == savetxt_17g(a)

    def test_manifest_rerun_reproduces_digests(self, tmp_path):
        x, _, _ = synthetic_corpus(2, 5, 60, 30, 0.9, seed=23)
        doc = tmp_path / "docword.txt"
        write_docword(x, doc)
        manifest = tmp_path / "m.json"
        argv = ["fit-admixture", "--input", str(doc), "--L0", "2", "--pca-dim", "2",
                "--seed", "23", "--json-out", str(tmp_path / "r.json"),
                "--csv-dir", str(tmp_path), "--manifest", str(manifest)]
        run(argv)
        before = json.loads(read(manifest))["outputs"]
        run(argv)
        after = json.loads(read(manifest))["outputs"]
        assert before == after


def subparser_dests() -> dict[str, set[str]]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {a.dest for a in p._actions} - {"help"} for name, p in sub.choices.items()}


class TestThreadsFlag:
    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["growth", "--J", "2", "--n-grid", "3,10", "--reps", "2"],
            ["clt", "--J", "3", "--n", "50", "--reps", "100"],
            ["gamma", "--J", "3", "--n-grid", "10,20", "--reps", "5"],
            ["fit-admixture", "--L0", "2", "--pca-dim", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_positive_exits_2(self, tmp_path, capsys, monkeypatch, argv, threads):
        monkeypatch.setenv("SIMPLEXMIX_OUT_DIR", str(tmp_path))
        x, _, _ = synthetic_corpus(2, 5, 30, 20, 0.9, seed=26)
        write_docword(x, tmp_path / "docword.txt")
        if argv[0] == "fit-admixture":
            argv = argv + ["--input", str(tmp_path / "docword.txt")]
        run(argv + ["--threads", threads], expect=2)
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.manifest.json"))


class TestManifestConfig:
    """The manifest records every flag, as the command resolved it."""

    @pytest.fixture
    def runs(self, tmp_path, monkeypatch):
        """One run of each subcommand on default paths under
        $SIMPLEXMIX_OUT_DIR; returns each manifest's config."""
        monkeypatch.setenv("SIMPLEXMIX_OUT_DIR", str(tmp_path))
        np.savetxt(tmp_path / "frame.csv", np.eye(3), delimiter=",")
        x, _, _ = synthetic_corpus(2, 5, 60, 30, 0.9, seed=23)
        write_docword(x, tmp_path / "docword.txt")
        argvs = [
            ["growth", "--J", "2", "--n-grid", "3,10", "--reps", "2", "--sampler", "dirichlet:2,3"],
            ["clt", "--J", "3", "--n", "50", "--reps", "100"],
            ["gamma", "--J", "3", "--n-grid", "10,20", "--reps", "5"],
            ["hull-limit", "--J", "3", "--n-grid", "10,100"],
            ["definetti", "--m", "5", "--L", "2"],
            ["choquet", "--frame", str(tmp_path / "frame.csv"), "--p", "0.2,0.3,0.5"],
            ["polya", "--true-weights", "0.5,0.3,0.2", "--k-grid", "100"],
            ["fit-admixture", "--input", str(tmp_path / "docword.txt"), "--L0", "2", "--pca-dim", "2"],
        ]
        configs = {}
        for argv in argvs:
            run(argv)
            configs[argv[0]] = json.loads(read(tmp_path / f"{argv[0]}.manifest.json"))["config"]
        return configs

    def test_keys_are_the_flags(self, runs):
        dests = subparser_dests()
        assert set(runs) == set(dests)
        for name, config in runs.items():
            resolved = {"depth"} if name == "polya" else set()
            assert set(config) == dests[name] - {"manifest"} | {"seed"} | resolved, name

    def test_resolved_values(self, runs, tmp_path):
        growth = runs["growth"]
        assert growth["n_grid"] == [3, 10]
        assert growth["sampler"] == {"J": 2, "alpha": [2.0, 3.0], "kind": "dirichlet", "seed": 0}
        assert growth["out"] == str(tmp_path / "growth")
        assert runs["hull-limit"]["out"] == str(tmp_path / "hull-limit")
        assert runs["definetti"]["seed"] is None and runs["definetti"]["out"] is None
        polya = runs["polya"]
        assert polya["depth"] == 2
        assert polya["true_weights"] == [0.5, 0.3, 0.2] and polya["k_grid"] == [100]
        fit = runs["fit-admixture"]
        assert fit["json_out"] == str(tmp_path / "fit-admixture.json")
        assert fit["csv_dir"] == str(tmp_path)

    @pytest.mark.parametrize("argv", [
        ["growth", "--J", "3", "--n-grid", "10,100", "--reps", "3", "--seed", "5",
         "--sampler", '{"kind": "dirichlet", "J": 3, "seed": 0, "alpha": [0.5, 1, 2]}'],
        ["gamma", "--J", "3", "--n-grid", "10,100", "--reps", "3", "--seed", "6",
         "--sampler-g", '{"kind": "point-mass", "J": 3, "seed": 0, "atoms": [[1, 0, 0], [0, 1, 0], [0.2, 0.3, 0.5]], '
                        '"weights": [0.2, 0.3, 0.5]}'],
        ["fit-admixture", "--L0", "3", "--pca-dim", "2", "--seed", "23"],
    ], ids=lambda argv: argv[0])
    def test_config_replays_to_the_same_outputs(self, tmp_path, monkeypatch, argv):
        """A run rebuilt from its manifest's config alone writes the same bytes."""
        monkeypatch.setenv("SIMPLEXMIX_OUT_DIR", str(tmp_path))
        if argv[0] == "fit-admixture":
            x, _, _ = synthetic_corpus(2, 5, 60, 30, 0.9, seed=23)
            write_docword(x, tmp_path / "docword.txt")
            argv = argv + ["--input", str(tmp_path / "docword.txt")]
        run(argv)
        manifest = json.loads(read(tmp_path / f"{argv[0]}.manifest.json"))
        replay = [argv[0], "--manifest", str(tmp_path / "replay.json")]
        for key, value in manifest["config"].items():
            if isinstance(value, list):
                value = ",".join(map(str, value))
            elif isinstance(value, dict):
                value = json.dumps(value)
            replay += ["--" + key.replace("_", "-"), str(value)]
        run(replay)
        assert json.loads(read(tmp_path / "replay.json"))["outputs"] == manifest["outputs"]

    def test_polya_has_no_depth_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["polya", "--true-weights", "0.5,0.5", "--depth", "3",
                  "--manifest", str(tmp_path / "m.json")])
        assert exc.value.code == 2


class TestEnvDefaultDir:
    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIMPLEXMIX_OUT_DIR", str(tmp_path))
        run(["definetti", "--m", "4", "--L", "2"])
        assert os.path.exists(tmp_path / "definetti.manifest.json")

    def test_runs_in_one_process_share_no_state(self, tmp_path, monkeypatch):
        # main parses with one parser per process: each run still resolves
        # its default paths from the environment it runs in
        first, second = tmp_path / "first", tmp_path / "second"
        monkeypatch.setenv("SIMPLEXMIX_OUT_DIR", str(first))
        run(["hull-limit", "--J", "3", "--n-grid", "10,100"])
        with pytest.raises(SystemExit) as exc:
            main(["clt", "--J", "3", "--n", "50", "--no-such-flag"])
        assert exc.value.code == 2
        monkeypatch.setenv("SIMPLEXMIX_OUT_DIR", str(second))
        run(["clt", "--J", "3", "--n", "50", "--reps", "100"])
        assert sorted(os.listdir(first)) == ["hull-limit.csv", "hull-limit.manifest.json"]
        assert sorted(os.listdir(second)) == ["clt.csv", "clt.json", "clt.manifest.json"]
        config = json.loads(read(second / "clt.manifest.json"))["config"]
        assert config["out"] == str(second / "clt") and "n_grid" not in config


class TestOptionalJsonOut:
    """definetti and choquet print their result and write a JSON report
    only when --out is given."""

    def test_help_says_the_report_is_optional(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for name in ("definetti", "choquet"):
            (out,) = [a for a in sub.choices[name]._actions if a.dest == "out"]
            assert "optional" in out.help and "SIMPLEXMIX_OUT_DIR" not in out.help, name
        (out,) = [a for a in sub.choices["growth"]._actions if a.dest == "out"]
        assert "$SIMPLEXMIX_OUT_DIR/<subcommand>" in out.help

    @pytest.mark.parametrize("name", ["definetti", "choquet"])
    def test_no_file_without_out(self, name, tmp_path, monkeypatch):
        frame = tmp_path / "frame" / "frame.csv"
        frame.parent.mkdir()
        np.savetxt(frame, np.eye(3), delimiter=",")
        out_dir = tmp_path / "out"
        monkeypatch.setenv("SIMPLEXMIX_OUT_DIR", str(out_dir))
        argv = {
            "definetti": ["definetti", "--m", "5", "--L", "2"],
            "choquet": ["choquet", "--frame", str(frame), "--p", "0.2,0.3,0.5"],
        }[name]
        run(argv)
        assert os.listdir(out_dir) == [f"{name}.manifest.json"]
        manifest = json.loads(read(out_dir / f"{name}.manifest.json"))
        assert manifest["config"]["out"] is None and manifest["outputs"] == {}


class TestScipyImportDeferred:
    """Importing scipy.spatial, scipy.sparse, scipy.special or
    scipy.optimize costs a process a few tenths of a second, so each is
    imported only by the function that calls it, at its first call.  A fresh
    interpreter is used because other test modules import scipy into this
    one."""

    # At seed 0 no cloud of the growth and clt runs leaves a candidate
    # unsettled, so neither needs an NNLS solve (growth seed 22 on the same
    # grid does, and would load scipy.optimize).  growth --threads 2 makes
    # the process's first qhull run from two pool threads at once.
    SCRIPT = """
import sys
import simplexmix, simplexmix.cli

def loaded(name):
    return any(m == name or m.startswith(name + ".") for m in sys.modules)

out, main = sys.argv[1], simplexmix.cli.main

def run(argv):
    assert main(argv + ["--out", out + "/o", "--manifest", out + "/m.json"]) == 0, argv[0]

assert not loaded("scipy"), "scipy loaded by import"
run(["polya", "--true-weights", "0.5,0.3,0.2", "--k-grid", "10,100"])
assert not loaded("scipy"), "scipy loaded by polya"
run(["definetti", "--m", "100", "--L", "5"])
assert loaded("scipy.special"), "definetti ran without scipy.special"
assert not loaded("scipy.spatial") and not loaded("scipy.sparse"), "definetti loaded the hull or EM modules"
for argv in (["growth", "--J", "5", "--n-grid", "1000,3162,10000", "--reps", "1", "--threads", "2"],
             ["clt", "--J", "3", "--n", "1000", "--reps", "100"]):
    run(argv + ["--seed", "0"])
    assert not loaded("scipy.optimize"), "scipy.optimize loaded by " + argv[0]
assert loaded("scipy.spatial"), "growth ran without qhull"
run(["hull-limit", "--J", "3", "--n-grid", "10,100"])
assert loaded("scipy.optimize"), "hull-limit ran without a solve"
"""

    def test_loaded_only_at_first_call(self, tmp_path):
        src = str(Path(hull.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestBenchmarkTracerSites:
    """The benchmark's tracer wraps package attributes by name, outside any
    try; a renamed attribute or parameter would crash every benchmark run."""

    def test_sites_resolve_and_bound_parameters_exist(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        bound = {"simplex.sample": {"spec", "n"}, "hull.PointSet": {"points"}, "admixture.em_fit": {"restarts"}}
        for module_name, attr, name in tracing.SITES:
            target = getattr(importlib.import_module(module_name), attr, None)
            assert target is not None, f"{module_name}.{attr} is gone"
            missing = bound.get(name, set()) - set(inspect.signature(target).parameters)
            assert not missing, f"{module_name}.{attr} lacks parameters {missing}"
        tracer = tracing.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
