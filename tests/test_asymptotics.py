import dataclasses

import numpy as np
import pytest
import scipy.stats

from oracles import hausdorff
from simplexmix import asymptotics
from simplexmix.asymptotics import (
    clt_experiment,
    definetti_bound,
    fit_growth,
    gamma_experiment,
    growth_experiment,
    hull_limit_experiment,
    ks_distance,
    normal_cdf,
    GrowthCurve,
)
from simplexmix.hull import PointSet, extremal_set
from simplexmix.simplex import SamplerSpec, _map_indexed, child_seed, sample


def _growth(J, n_grid, reps, seed, threads=1):
    return growth_experiment(n_grid, reps, SamplerSpec("uniform", J, seed), threads=threads)


class TestGrowthArguments:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            _growth(3, (100, 100), 5, 0)

    def test_grid_minimum(self):
        with pytest.raises(ValueError, match="J\\+1"):
            _growth(3, (3, 10), 5, 0)

    def test_reps_positive(self):
        with pytest.raises(ValueError, match="reps"):
            _growth(3, (10, 100), 0, 0)

    def test_grid_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            _growth(3, (), 5, 0)


class TestGridEntries:
    """An integral float or numpy int is taken as its int; any other entry
    of a growth or hull-limit grid raises, rather than being truncated (10.5
    to 10) or converted (True to 1, "10" to 10)."""

    NOT_INTEGERS = (10.5, True, "10", float("nan"))

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
    def test_growth_rejects(self, bad):
        with pytest.raises(ValueError, match="n_grid entries must be integers"):
            _growth(2, (bad, 100), 2, 0)

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
    def test_hull_limit_rejects(self, bad):
        with pytest.raises(ValueError, match="n_grid entries must be integers"):
            hull_limit_experiment(3, (bad, 100), 0)

    def test_integral_values_accepted(self):
        grid = (10.0, np.int64(20), np.float64(40.0))
        curve, exact = _growth(3, grid, 3, 1), _growth(3, (10, 20, 40), 3, 1)
        assert curve.n.tolist() == [10, 20, 40]
        np.testing.assert_array_equal(curve.mean_f0, exact.mean_f0)
        trace = hull_limit_experiment(3, grid, 2)
        assert trace == hull_limit_experiment(3, (10, 20, 40), 2)
        assert [type(n) for n, _ in trace] == [int] * 3


class TestGrowthExperiment:
    def test_segment_exactly_two(self):
        curve = _growth(2, (3, 10, 50), 20, 4)
        np.testing.assert_array_equal(curve.mean_f0, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(curve.var_f0, [0.0, 0.0, 0.0])

    def test_triangle_means_increase(self):
        curve = _growth(3, (10, 100, 1000), 60, 5)
        assert np.all(np.diff(curve.mean_f0) > 0)

    def test_deterministic_and_thread_invariant(self):
        a = _growth(3, (10, 100), 20, 6)
        b = _growth(3, (10, 100), 20, 6)
        c = _growth(3, (10, 100), 20, 6, threads=3)
        np.testing.assert_array_equal(a.mean_f0, b.mean_f0)
        np.testing.assert_array_equal(a.mean_f0, c.mean_f0)
        np.testing.assert_array_equal(a.var_f0, c.var_f0)

    def test_largest_clouds_start_first(self, monkeypatch):
        # 8 threads outnumber the 6 clouds
        grid, submitted = (20, 200, 2000), []

        def recording(fn, tasks, threads):
            submitted.append(list(tasks))
            return _map_indexed(fn, tasks, threads)

        monkeypatch.setattr(asymptotics, "_map_indexed", recording)
        curves = [_growth(3, grid, 2, 12, threads=t) for t in (1, 2, 8)]
        expected = [(n, child_seed(12, g, r)) for g, n in reversed(list(enumerate(grid))) for r in range(2)]
        assert submitted == [expected] * 3
        for curve in curves[1:]:
            np.testing.assert_array_equal(curve.mean_f0, curves[0].mean_f0)
            np.testing.assert_array_equal(curve.var_f0, curves[0].var_f0)


class TestFitGrowth:
    def test_exact_power_model(self):
        n = np.array([100, 1000, 10000, 100000])
        curve = GrowthCurve(n=n, mean_f0=5.0 * np.log(n) ** 2, var_f0=np.zeros(4), stderr=np.zeros(4), reps=1)
        fit = fit_growth(curve)
        assert fit.c_hat == pytest.approx(5.0, abs=1e-6)
        assert fit.p_hat == pytest.approx(2.0, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_affine_log_model_exponent_band(self):
        n = np.logspace(3, 6, 7).astype(int)
        curve = GrowthCurve(n=n, mean_f0=2.0 * np.log(n) + 3.0, var_f0=np.zeros(7), stderr=np.zeros(7), reps=1)
        assert 0.8 <= fit_growth(curve).p_hat <= 1.2

    def test_constant_curve(self):
        n = np.array([10, 100, 1000])
        curve = GrowthCurve(n=n, mean_f0=np.full(3, 2.0), var_f0=np.zeros(3), stderr=np.zeros(3), reps=1)
        fit = fit_growth(curve)
        assert fit.p_hat == pytest.approx(0.0, abs=1e-6)
        assert fit.r_squared == 1.0

    def test_grid_too_small(self):
        n = np.array([4, 8, 1000])  # only one point with n >= 10
        curve = GrowthCurve(n=n, mean_f0=np.full(3, 2.0), var_f0=np.zeros(3), stderr=np.zeros(3), reps=1)
        with pytest.raises(ValueError, match=">= 3 grid points"):
            fit_growth(curve)


class TestNormalCdfAndKS:
    def test_normal_cdf_matches_scipy(self):
        x = np.linspace(-8, 8, 2001)
        np.testing.assert_allclose(normal_cdf(x), scipy.stats.norm.cdf(x), atol=1e-12)

    def test_ks_matches_scipy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.normal(size=int(rng.integers(50, 400)))
            mine = ks_distance(z)
            ref = scipy.stats.kstest(z, "norm").statistic
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_ks_calibration_on_normal_sample(self):
        z = np.random.default_rng(7).normal(size=10_000)
        assert ks_distance(z) <= 0.02

    def test_ks_handles_ties(self):
        z = np.array([0.0, 0.0, 0.0, 1.0])
        ref = scipy.stats.kstest(z, "norm").statistic
        assert ks_distance(z) == pytest.approx(ref, abs=1e-12)


class TestCLTExperiment:
    def test_standardization_exact(self):
        rep = clt_experiment(3, 50, 150, 3)
        assert rep.standardized.mean() == pytest.approx(0.0, abs=1e-9)
        assert rep.standardized.std(ddof=1) == pytest.approx(1.0, abs=1e-9)

    def test_segment_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            clt_experiment(2, 50, 150, 0)

    def test_reps_floor(self):
        with pytest.raises(ValueError, match="reps"):
            clt_experiment(3, 50, 99, 0)


class TestGammaExperiment:
    def test_uniform_vs_uniform_near_one(self):
        seq = gamma_experiment((10, 100, 1000), 120, SamplerSpec("uniform", 3, 5))
        assert np.all(np.abs(seq.gamma_n - 1.0) <= 3.0 * seq.se)

    def test_dirichlet_bounded_away_from_zero(self):
        seq = gamma_experiment((10, 100, 1000), 120, SamplerSpec("dirichlet", 3, 5, alpha=(2.0, 2.0, 2.0)))
        assert np.all(seq.gamma_n > 0.05)

    def test_seed_replication_consistency(self):
        g = SamplerSpec("dirichlet", 3, 0, alpha=(2.0, 2.0, 2.0))
        s1 = gamma_experiment((10, 100, 1000), 120, dataclasses.replace(g, seed=11))
        s2 = gamma_experiment((10, 100, 1000), 120, dataclasses.replace(g, seed=22))
        pooled = np.sqrt(s1.se**2 + s2.se**2)
        assert np.all(np.abs(s1.gamma_n - s2.gamma_n) <= 3.0 * pooled)

    def test_positive(self):
        seq = gamma_experiment((10, 100), 50, SamplerSpec("dirichlet", 4, 1, alpha=(1.5,) * 4))
        assert np.all(seq.gamma_n > 0)


class TestHullLimit:
    def test_non_increasing_and_bounded(self):
        trace = hull_limit_experiment(3, (10, 100, 1000), 3)
        d = np.array([x[1] for x in trace])
        assert np.all(np.diff(d) <= 1e-12)
        assert np.all(d <= 2.0)
        assert np.all(d >= 0.0)

    @pytest.mark.parametrize("J", [3, 4, 5])
    def test_vertex_shortcut_is_hausdorff(self, J):
        # the distance from the simplex to a hull inside it is attained at a
        # simplex vertex: J distances equal the full two-sided Hausdorff
        # distance over every cloud point and every vertex
        grid = (10, 100, 1000)
        cloud = sample(SamplerSpec("uniform", J, 3), grid[-1])
        for n, d in hull_limit_experiment(J, grid, 3):
            assert d == pytest.approx(hausdorff(cloud[:n], np.eye(J)), abs=1e-12)

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            hull_limit_experiment(3, (100, 100), 0)
        with pytest.raises(ValueError, match="nonempty"):
            hull_limit_experiment(3, (), 0)


def _f0(spec, n, seed):
    return extremal_set(PointSet(sample(dataclasses.replace(spec, seed=seed), n))).f0


def _moments(f0):
    f0 = np.asarray(f0, dtype=np.float64)
    return f0.mean(axis=-1), f0.var(axis=-1, ddof=1)


class TestSeedTree:
    """Each experiment's statistics equal those of clouds drawn directly at
    the documented seeds: growth cloud (g, r) at child_seed(seed, g, r), clt
    cloud r at child_seed(seed, r), gamma arm a at
    child_seed(child_seed(seed, a), g, r)."""

    def test_growth(self):
        spec, grid, reps = SamplerSpec("dirichlet", 4, 17, alpha=(2.0, 1.0, 1.0, 3.0)), (6, 30, 200), 4
        curve = growth_experiment(grid, reps, spec, threads=2)
        mean, var = _moments([[_f0(spec, n, child_seed(17, g, r)) for r in range(reps)] for g, n in enumerate(grid)])
        np.testing.assert_array_equal(curve.mean_f0, mean)
        np.testing.assert_array_equal(curve.var_f0, var)

    def test_clt(self):
        rep = clt_experiment(3, 40, 100, 23, threads=2)
        mean, var = _moments([_f0(SamplerSpec("uniform", 3, 0), 40, child_seed(23, r)) for r in range(100)])
        assert rep.mean_f0 == mean and rep.sd_f0 == np.sqrt(var)

    @pytest.mark.parametrize("threads", (1, 2))
    def test_gamma(self, threads):
        g, grid, reps = SamplerSpec("dirichlet", 3, 31, alpha=(2.0, 2.0, 1.0)), (5, 50), 3
        seq = gamma_experiment(grid, reps, g, threads=threads)
        arms = ((0, SamplerSpec("uniform", 3, 0), seq.mean_m, seq.se_m), (1, g, seq.mean_t, seq.se_t))
        for arm, spec, mean_out, se_out in arms:
            f0 = [[_f0(spec, n, child_seed(child_seed(31, arm), gi, r)) for r in range(reps)] for gi, n in enumerate(grid)]
            mean, var = _moments(f0)
            np.testing.assert_array_equal(mean_out, mean)
            np.testing.assert_array_equal(se_out, np.sqrt(var / reps))


class TestDefinettiBound:
    def test_single_element_zero(self):
        for m in (1, 5, 60):
            assert definetti_bound(m, 1).beta == 0.0

    def test_hand_values(self):
        assert definetti_bound(5, 2).beta == pytest.approx(0.2, abs=1e-15)
        assert definetti_bound(3, 3).beta == pytest.approx(7 / 9, abs=1e-15)

    def test_pair_bound_sweep(self):
        # exhaustive: beta(m, L) <= L(L-1)/(2m) for all 1 <= L <= m <= 60
        for m in range(1, 61):
            for L in range(1, m + 1):
                b = definetti_bound(m, L)
                assert 0.0 <= b.beta < 1.0
                assert b.beta <= b.pair_bound + 1e-12

    def test_l_exceeding_m_rejected(self):
        with pytest.raises(ValueError):
            definetti_bound(3, 4)
        with pytest.raises(ValueError):
            definetti_bound(3, 0)
