import argparse
import functools
import importlib
import importlib.util
import inspect
import json
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

from simplexmix import hull
from simplexmix.admixture import synthetic_corpus
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

    def test_sampler_json_dimension_checked(self, tmp_path, capsys):
        code = main(["growth", "--J", "3", "--sampler", '{"kind":"uniform","J":4,"seed":0}',
                     "--out", str(tmp_path / "g"), "--manifest", str(tmp_path / "m.json")])
        assert code == 2


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
        # of a uniform cloud without calling the solver
        monkeypatch.setattr(hull, "nnls", functools.partial(nnls, maxiter=1))
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


class TestPolyaCommand:
    def test_trace_csv(self, tmp_path):
        out = tmp_path / "p"
        run(["polya", "--alpha", "1.0", "--true-weights", "0.7,0.3",
             "--k-grid", "100,1000", "--seed", "4", "--out", str(out),
             "--manifest", str(tmp_path / "m.json")])
        rows = [r.split(",") for r in read(f"{out}.csv").strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [100, 1000]
        assert float(rows[1][1]) < 0.2


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
        phi = np.loadtxt(tmp_path / "phi.csv", delimiter=",")
        f = np.loadtxt(tmp_path / "f.csv", delimiter=",")
        assert phi.shape == (400, 3)
        assert f.shape[0] == 3
        np.testing.assert_allclose(f.sum(axis=1), 1.0, atol=1e-9)

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

    def test_matrix_csv_bytes_match_savetxt(self, tmp_path):
        rng = np.random.default_rng(24)
        floor = 1e-10 / (1.0 + 40 * 1e-10)  # a smoothed zero after renormalization
        for a in (
            np.array([[1.0, 1e-300, floor], [floor * (1 + 2**-52), 1 / 3, 2 / 3]]),
            rng.dirichlet(np.ones(4), size=50) + floor,
            np.array([[0.5]]),
        ):
            _write_matrix(str(tmp_path / "fast.csv"), a)
            np.savetxt(tmp_path / "ref.csv", a, delimiter=",", fmt="%.17g")
            assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

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
