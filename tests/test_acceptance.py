"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines and timings.  Monte Carlo thresholds marked "pilot" were calibrated
once over several seeds and are recorded here as constants.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from oracles import barycentric_by_lstsq, towers_by_dfs
from simplexmix.admixture import em_fit, synthetic_corpus, two_stage
from simplexmix.asymptotics import (
    clt_experiment,
    definetti_bound,
    fit_growth,
    gamma_experiment,
    growth_experiment,
    hull_limit_experiment,
    ks_distance,
)
from simplexmix.choquet import choquet_measure, make_frame, reconstruct
from simplexmix.cli import main
from simplexmix.hull import c_constant, count_towers
from simplexmix.polya import (
    convergence_trace,
    minimax_rate,
    posterior_update,
    prior_posterior,
    weight_estimate,
)
from simplexmix.simplex import SamplerSpec, child_seed

from simplexmix.choquet import ChoquetMeasure, FrameConditionError

# Pilot-calibrated constants (see the repo notes for the measured values).
CLT_KS_THRESHOLD = 0.095  # pilot target <= 0.1; measured 0.073-0.082 over seeds 0..4
GROWTH_GRID = (100, 316, 1000, 3162, 10000)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS - {description}")


def test_criterion_01_segment_degeneracy(tmp_path):
    with criterion(1, "growth --J 2 gives mean F0 = 2 exactly, variance 0, < 1 s"):
        out = tmp_path / "g2"
        start = time.monotonic()
        code = main([
            "growth", "--J", "2", "--n-grid", "3,10,100,1000", "--reps", "50",
            "--seed", "1", "--out", str(out), "--manifest", str(tmp_path / "m.json"),
        ])
        elapsed = time.monotonic() - start
        assert code == 0
        rows = (out.with_suffix(".csv")).read_text().strip().splitlines()[1:]
        for row in rows:
            _, mean, var, _, _ = row.split(",")
            assert float(mean) == 2.0
            assert float(var) == 0.0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_triangle_growth():
    with criterion(2, "J=3 growth: increasing means, exponent stable across seeds"):
        start = time.monotonic()
        fits = {}
        for seed in (101, 202):
            curve = growth_experiment(GROWTH_GRID, 500, SamplerSpec("uniform", 3, seed))
            assert np.all(np.diff(curve.mean_f0) > 0), "means not strictly increasing"
            fits[seed] = fit_growth(curve)
            # Renyi-Sulanke (1963): in a triangle E f0 = 2 ln n + O(1).  The
            # weighted least-squares slope of mean_f0 on ln n, weights
            # 1 / stderr^2, must be within 3 standard errors of 2.
            x, w = np.log(curve.n), curve.stderr**-2.0
            xc = x - (w @ x) / w.sum()
            slope, se = (w * xc) @ curve.mean_f0 / (w @ xc**2), (w @ xc**2) ** -0.5
            print(f"    seed{seed}: slope of mean f0 on ln n = {slope:.3f} +- {se:.3f}")
            assert abs(slope - 2.0) <= 3.0 * se
        p1, p2 = fits[101].p_hat, fits[202].p_hat
        print(
            f"    fitted exponents: seed101={p1:.4f}, seed202={p2:.4f}; "
            f"theoretical candidates: J-1=2 (stated), J-2=1 (intrinsic dimension)"
        )
        assert abs(p1 - p2) <= 0.15
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_03_tower_constants():
    with criterion(3, "tower counts 2 and 6 vs brute-force oracle; c(3) = 0.1875"):
        assert count_towers(2) == 2 == towers_by_dfs(2)
        assert count_towers(3) == 6 == towers_by_dfs(3)
        assert abs(c_constant(3) - 0.1875) <= 1e-12


def test_criterion_04_clt_diagnostics():
    with criterion(4, f"KS of standardized F0 below {CLT_KS_THRESHOLD} and below skewed control"):
        start = time.monotonic()
        report = clt_experiment(3, 10_000, 2000, seed=0)
        rng = np.random.default_rng(child_seed(0, 12345))
        control = rng.standard_exponential(2000)
        control_ks = ks_distance((control - control.mean()) / control.std(ddof=1))
        print(f"    ks={report.ks_stat:.4f} control_ks={control_ks:.4f}")
        assert report.ks_stat <= CLT_KS_THRESHOLD
        assert report.ks_stat < control_ks
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_05_gamma_sequences():
    with criterion(5, "gamma_n: uniform ratio within 3 SE of 1; Dirichlet ratios > 0.05"):
        uu = gamma_experiment(GROWTH_GRID, 200, SamplerSpec("uniform", 3, 5))
        assert np.all(np.abs(uu.gamma_n - 1.0) <= 3.0 * uu.se), (
            f"uniform-vs-uniform z = {np.abs(uu.gamma_n - 1.0) / uu.se}"
        )
        dd = gamma_experiment(GROWTH_GRID, 200, SamplerSpec("dirichlet", 3, 5, alpha=(2.0, 2.0, 2.0)))
        assert np.all(dd.gamma_n > 0.05), f"gamma_n = {dd.gamma_n}"


def test_criterion_06_hausdorff_convergence():
    with criterion(6, "nested-hull distances non-increasing, <= 2, halved by n=1e4"):
        trace = hull_limit_experiment(3, GROWTH_GRID, seed=3)
        d = np.array([x[1] for x in trace])
        assert np.all(np.diff(d) <= 1e-12)
        assert np.all(d <= 2.0) and np.all(d >= 0.0)
        assert d[-1] <= 0.5 * d[0], f"d(1e4)={d[-1]:.4f} vs d(1e2)={d[0]:.4f}"


def test_criterion_07_choquet_round_trip():
    with criterion(7, "1000 frames: reconstruct o measure = id and agreement with lstsq, 1e-8"):
        rng = np.random.default_rng(77)
        done = 0
        while done < 1000:
            j = int(rng.integers(2, 6))
            vertices = rng.dirichlet(np.ones(j), size=j)
            try:
                frame = make_frame(vertices)
            except (ValueError, FrameConditionError):
                continue
            if frame.cond > 1e4:
                continue
            truth = rng.dirichlet(np.ones(j))
            p = frame.vertices.T @ truth
            measure = choquet_measure(p, frame)
            assert np.max(np.abs(reconstruct(measure, frame) - p)) <= 1e-8
            assert np.max(np.abs(measure.weights - barycentric_by_lstsq(p, frame.vertices))) <= 1e-8
            done += 1


def test_criterion_08_polya_tree():
    with criterion(8, "prior uniform; depth-1 posterior 0.55; 95/100 seeds < 0.02; rate value"):
        for m in (2, 4):
            w = weight_estimate(prior_posterior(1.0, m)).weights
            np.testing.assert_allclose(w, np.full(m, 1 / m), atol=1e-15)
        post = posterior_update(prior_posterior(1.0, 2), [0, 0, 0, 1])
        assert weight_estimate(post).weights[0] == 0.55
        truth = ChoquetMeasure(weights=np.array([0.7, 0.3]))
        hits = 0
        for seed in range(100):
            trace = convergence_trace(truth, (10_000,), 1.0, seed=seed)
            if trace[0][1] < 0.02:
                hits += 1
        print(f"    sup-norm error < 0.02 at k=1e4 for {hits}/100 seeds")
        assert hits >= 95
        assert abs(minimax_rate(1000, 1.0) - 0.1904) <= 1e-3


def test_criterion_09_exchangeability_sweep():
    with criterion(9, "beta(m,L) <= L(L-1)/(2m) for all L <= m <= 60; beta(5,2) = 0.2"):
        for m in range(1, 61):
            for L in range(1, m + 1):
                b = definetti_bound(m, L)
                assert b.beta <= b.pair_bound + 1e-12
        b52 = definetti_bound(5, 2).beta
        assert abs(b52 - 0.2) <= 1e-15  # exact up to one float ulp
        assert format(b52, ".12g") == "0.2"


@pytest.fixture(scope="module")
def pruning_run():
    x, phi_star, f_star = synthetic_corpus(4, 10, 2000, 200, separation=1.0, seed=7)
    start = time.monotonic()
    report = two_stage(x, l0=12, pca_dim=5, seed=7)
    elapsed = time.monotonic() - start
    return report, f_star, elapsed


def test_criterion_10_two_stage_recovery(pruning_run):
    with criterion(10, "synthetic M*=4, L0=12: final M = 4, components within 0.05 TV"):
        report, f_star, elapsed = pruning_run
        assert report.final_m == 4, f"final M = {report.final_m}"
        f_full = np.zeros((report.model.n_components, f_star.shape[1]))
        f_full[:, report.term_remap] = report.model.f
        tv = 0.5 * np.abs(f_full[:, None, :] - f_star[None, :, :]).sum(axis=2)
        rows, cols = linear_sum_assignment(tv)
        assert len(set(cols.tolist())) == 4  # distinct true components
        matched = tv[rows, cols]
        print(f"    matched TV distances: {np.round(matched, 5)} (elapsed {elapsed:.1f}s)")
        assert matched.max() <= 0.05
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_11_em_monotone_and_deterministic(pruning_run, tmp_path):
    with criterion(11, "EM log-likelihood non-decreasing; identical runs byte-identical"):
        report, _, _ = pruning_run
        assert np.all(np.diff(report.model.loglik_trace) >= 0)
        x, _, _ = synthetic_corpus(3, 8, 150, 60, 1.0, seed=31)
        runs = [
            em_fit(x, 4, max_iters=80, restarts=3, seed=31, threads=threads)
            for threads in (1, 1, 4)
        ]
        for model in runs:
            assert np.all(np.diff(model.loglik_trace) >= 0)
        for other in runs[1:]:
            assert runs[0].phi.tobytes() == other.phi.tobytes()
            assert runs[0].f.tobytes() == other.f.tobytes()
            assert runs[0].loglik == other.loglik
        # byte-identical CLI outputs for one manifest regardless of thread count
        doc = tmp_path / "docword.txt"
        lines = [str(x.n_docs), str(x.n_terms), str(x.nnz)]
        lines += [f"{d + 1} {t + 1} {c}" for d, t, c in zip(x.doc_ids, x.term_ids, x.counts)]
        doc.write_text("\n".join(lines) + "\n")
        blobs = []
        for tag, threads in (("a", "1"), ("b", "2")):
            d = tmp_path / tag
            d.mkdir()
            code = main([
                "fit-admixture", "--input", str(doc), "--L0", "4", "--pca-dim", "2",
                "--seed", "31", "--threads", threads, "--restarts", "3",
                "--json-out", str(d / "r.json"), "--csv-dir", str(d),
                "--manifest", str(d / "m.json"),
            ])
            assert code == 0
            blobs.append(((d / "r.json").read_bytes(), (d / "phi.csv").read_bytes(), (d / "f.csv").read_bytes()))
        assert blobs[0] == blobs[1]
