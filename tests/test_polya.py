import numpy as np
import pytest

from simplexmix.choquet import ChoquetMeasure
from simplexmix.polya import (
    AtomEmbedding,
    PolyaTreePosterior,
    build_params,
    cell_masses,
    convergence_trace,
    minimax_rate,
    posterior_update,
    prior_posterior,
    weight_estimate,
)


class TestBuildParams:
    def test_level_values(self):
        p = build_params(1.0, 2)
        assert p.level(1) == 8.0  # a_1 = 4, floored at 8
        assert p.level(2) == 32.0  # a_2 = 2 * 2^4

    def test_half_exponent(self):
        p = build_params(0.5, 3)
        assert p.level(3) == 24.0  # a_3 = 3 * 2^3

    def test_floor_applies(self):
        assert np.all(build_params(0.1, 10).level_alphas >= 8.0)

    def test_alpha_range(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                build_params(bad, 3)

    def test_depth_range(self):
        for bad in (0, 31):
            with pytest.raises(ValueError):
                build_params(1.0, bad)


class TestEmbedding:
    def test_depth_is_log2_ceiling(self):
        assert AtomEmbedding.for_atoms(2).depth == 1
        assert AtomEmbedding.for_atoms(3).depth == 2
        assert AtomEmbedding.for_atoms(4).depth == 2
        assert AtomEmbedding.for_atoms(5).depth == 3

    def test_cells_injective(self):
        emb = AtomEmbedding.for_atoms(5)
        cells = emb.cells(np.arange(5))
        assert len(set(cells.tolist())) == 5

    def test_unknown_atom_rejected(self):
        emb = AtomEmbedding.for_atoms(3)
        with pytest.raises(ValueError, match="unknown atom"):
            emb.cells([0, 3])

    def test_too_few_atoms(self):
        with pytest.raises(ValueError):
            AtomEmbedding.for_atoms(1)


class TestPosteriorUpdate:
    def test_no_observations_is_prior(self):
        post = prior_posterior(1.0, 4)
        updated = posterior_update(post, [])
        assert updated.k == 0
        for a, b in zip(updated.counts, post.counts):
            np.testing.assert_array_equal(a, b)

    def test_depth1_hand_example(self):
        # Beta(8, 8) prior at the root; 3 left + 1 right => Beta(11, 9)
        post = prior_posterior(1.0, 2)
        post = posterior_update(post, [0, 0, 0, 1])
        np.testing.assert_array_equal(post.counts[0], [[3, 1]])
        w = weight_estimate(post)
        assert w.weights[0] == 0.55  # (8+3)/(16+4), exact in floats
        assert w.weights[1] == pytest.approx(0.45, abs=1e-15)

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(0)
        atoms = rng.integers(0, 4, size=100)
        post = prior_posterior(0.7, 4)
        batched = posterior_update(post, atoms)
        seq = posterior_update(posterior_update(post, atoms[:60]), atoms[60:])
        assert batched.k == seq.k == 100
        for a, b in zip(batched.counts, seq.counts):
            np.testing.assert_array_equal(a, b)

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        atoms = rng.integers(0, 8, size=200)
        post = prior_posterior(1.0, 8)
        a = posterior_update(post, atoms)
        b = posterior_update(post, rng.permutation(atoms))
        for ca, cb in zip(a.counts, b.counts):
            np.testing.assert_array_equal(ca, cb)

    def test_counts_consistent_with_parents(self):
        rng = np.random.default_rng(2)
        post = posterior_update(prior_posterior(1.0, 8), rng.integers(0, 8, size=500))
        assert post.counts[0].sum() == post.k
        for l in range(1, len(post.counts)):
            np.testing.assert_array_equal(
                post.counts[l].sum(axis=1), post.counts[l - 1].reshape(-1)
            )

    def test_mass_conservation(self):
        rng = np.random.default_rng(3)
        post = posterior_update(prior_posterior(0.5, 8), rng.integers(0, 8, size=300))
        assert cell_masses(post).sum() == pytest.approx(1.0, abs=1e-12)


class TestWeightEstimate:
    def test_prior_uniform_power_of_two(self):
        for m in (2, 4, 8):
            w = weight_estimate(prior_posterior(1.0, m))
            np.testing.assert_allclose(w.weights, np.full(m, 1 / m), atol=1e-15)

    def test_non_power_of_two_renormalized(self):
        w = weight_estimate(prior_posterior(1.0, 3))
        np.testing.assert_allclose(w.weights, np.full(3, 1 / 3), atol=1e-15)

    def test_recovers_known_weights(self):
        truth = np.array([0.7, 0.3])
        rng = np.random.default_rng(5)
        atoms = rng.choice(2, size=10_000, p=truth)
        post = posterior_update(prior_posterior(1.0, 2), atoms)
        est = weight_estimate(post).weights
        assert np.max(np.abs(est - truth)) < 0.02

    def test_recovers_weights_non_power_of_two(self):
        # atoms occupy 5 of 8 depth-3 cells; unassigned cells keep prior mass
        truth = np.array([0.4, 0.3, 0.2, 0.05, 0.05])
        rng = np.random.default_rng(6)
        atoms = rng.choice(5, size=20_000, p=truth)
        post = posterior_update(prior_posterior(1.0, 5), atoms)
        est = weight_estimate(post).weights
        assert np.max(np.abs(est - truth)) < 0.02


class TestMinimaxRate:
    def test_reference_values(self):
        # (log 1000 / 1000)^(1/3) and (log 10^4 / 10^4)^(1/4), evaluated by hand
        assert minimax_rate(1000, 1.0) == pytest.approx(0.1904491248, abs=1e-9)
        assert minimax_rate(1000, 1.0) == pytest.approx(0.1904, abs=1e-3)
        assert minimax_rate(10_000, 0.5) == pytest.approx(0.1742083310, abs=1e-9)
        assert minimax_rate(10_000, 0.5) == pytest.approx(0.1742, abs=1e-3)

    def test_decreasing_in_k(self):
        rates = [minimax_rate(k, 1.0) for k in (3, 10, 100, 10_000, 1_000_000)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            minimax_rate(1, 1.0)


class TestConvergenceTrace:
    def test_point_mass_recovery(self):
        truth = ChoquetMeasure(weights=np.array([1.0, 0.0]))
        trace = convergence_trace(truth, (100, 1000, 10_000), 1.0, seed=0)
        errors = [e for _, e, _ in trace]
        assert errors[-1] < 0.01
        assert errors == sorted(errors, reverse=True)

    def test_errors_shrink_over_seeds(self):
        # per-seed wins: overwhelming for a well-separated truth (a nearly
        # uniform truth loses a few seeds to small-k luck, ~94/100)
        truth = ChoquetMeasure(weights=np.array([0.9, 0.1]))
        wins = 0
        for seed in range(100):
            trace = convergence_trace(truth, (100, 10_000), 1.0, seed=seed)
            if trace[-1][1] < trace[0][1]:
                wins += 1
        assert wins >= 95

    def test_mean_error_decreases_along_grid(self):
        # consistency in expectation over seeds on the grid {1e2, 1e3, 1e4}
        truth = ChoquetMeasure(weights=np.array([0.6, 0.4]))
        errs = np.zeros(3)
        for seed in range(60):
            trace = convergence_trace(truth, (100, 1000, 10_000), 1.0, seed=seed)
            errs += [e for _, e, _ in trace]
        assert errs[0] > errs[1] > errs[2]

    def test_rate_column_matches_function(self):
        truth = ChoquetMeasure(weights=np.array([0.5, 0.5]))
        trace = convergence_trace(truth, (100, 1000), 0.5, seed=1)
        for k, _, rate in trace:
            assert rate == minimax_rate(k, 0.5)

    def test_grid_nonempty(self):
        with pytest.raises(ValueError, match="k_grid must be nonempty"):
            convergence_trace(ChoquetMeasure(weights=np.array([0.5, 0.5])), (), 1.0, 0)


class TestSerialization:
    def test_posterior_json_round_trip(self):
        rng = np.random.default_rng(4)
        post = posterior_update(prior_posterior(0.5, 5), rng.integers(0, 5, size=64))
        back = PolyaTreePosterior.from_json(post.to_json())
        assert back.k == post.k
        assert back.params.alpha == post.params.alpha
        for a, b in zip(back.counts, post.counts):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            weight_estimate(back).weights, weight_estimate(post).weights
        )

    def test_bad_counts_rejected(self):
        post = prior_posterior(1.0, 4)
        import json as _json

        obj = _json.loads(post.to_json())
        obj["counts"] = obj["counts"][:1]
        with pytest.raises(ValueError, match="depth"):
            PolyaTreePosterior.from_json(_json.dumps(obj))
