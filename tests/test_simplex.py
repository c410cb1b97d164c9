import dataclasses
import json

import numpy as np
import pytest

from oracles import sample_uniform_by_sum
from simplexmix.asymptotics import ks_distance
from simplexmix.simplex import SamplerSpec, child_seed, sample, validate


class TestValidate:
    def test_already_normalized_unchanged(self):
        v = validate([0.2, 0.8])
        np.testing.assert_array_equal(v, [0.2, 0.8])

    def test_renormalizes(self):
        np.testing.assert_allclose(validate([1.0, 1.0]), [0.5, 0.5])

    def test_negative_coordinate_rejected(self):
        # the value prints as a Python float, not as np.float64(-0.5)
        with pytest.raises(ValueError, match=r"^negative coordinate -0\.5 below tolerance -1e-12$"):
            validate([-0.5, 1.5])

    def test_tiny_negative_clipped(self):
        v = validate([-1e-13, 0.5, 0.5])
        assert v[0] == 0.0
        assert v.sum() == pytest.approx(1.0, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            validate([0.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            validate([np.nan, 1.0])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            validate([[0.5, 0.5]])


class TestSamplerSpec:
    def test_degenerate_dimension_rejected(self):
        for j in (1, 2.5, "3", float("inf")):
            with pytest.raises(ValueError, match="^J must be an integer >= 2, got "):
                SamplerSpec("uniform", j, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SamplerSpec("gaussian", 3, 0)

    def test_kind_aliases(self):
        # only the three canonical kinds, as manifests record them
        with pytest.raises(ValueError, match="unknown sampler kind 'uniform-simplex'"):
            SamplerSpec("uniform-simplex", 3, 0)
        with pytest.raises(ValueError, match="unknown sampler kind 'point-mass-mixture'"):
            SamplerSpec("point-mass-mixture", 2, 0, atoms=((1.0, 0.0), (0.0, 1.0)), weights=(0.5, 0.5))

    @pytest.mark.parametrize("seed", [1.5, "7", True, -1, 2**64, float("inf"), float("nan")])
    def test_seed_must_be_an_integer(self, seed):
        message = r"^seed must be an integer in \[0, 2\*\*64\), got "
        with pytest.raises(ValueError, match=message):
            SamplerSpec("uniform", 3, seed)
        with pytest.raises(ValueError, match=message):
            SamplerSpec.from_json(json.dumps({"kind": "uniform", "J": 3, "seed": seed}))

    def test_integral_seed_accepted(self):
        assert SamplerSpec("uniform", 3, 7.0).seed == 7 and SamplerSpec("uniform", 3, np.uint64(2**64 - 1)).seed == 2**64 - 1
        assert SamplerSpec.from_json('{"kind":"uniform","J":3,"seed":7.0}').seed == 7

    def test_dirichlet_alpha_positive(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha coordinates must be finite and strictly positive"):
                SamplerSpec("dirichlet", 3, 0, alpha=(1.0, bad, 1.0))
        for literal in ("NaN", "Infinity"):
            with pytest.raises(ValueError, match="alpha"):
                SamplerSpec.from_json(f'{{"kind": "dirichlet", "J": 3, "seed": 0, "alpha": [{literal}, 1, 1]}}')

    def test_dirichlet_alpha_length(self):
        with pytest.raises(ValueError, match="length"):
            SamplerSpec("dirichlet", 3, 0, alpha=(1.0, 1.0))

    def test_point_mass_weights_validated(self):
        with pytest.raises(ValueError):
            SamplerSpec("point-mass", 2, 0, atoms=((1.0, 0.0),), weights=(-1.0,))

    def test_json_round_trip(self):
        spec = SamplerSpec.from_json('{"kind":"uniform","J":3,"seed":42}')
        assert (spec.kind, spec.J, spec.seed) == ("uniform", 3, 42)
        assert SamplerSpec.from_json(spec.to_json()) == spec
        d = SamplerSpec("dirichlet", 2, 7, alpha=(2.0, 3.0))
        assert SamplerSpec.from_json(d.to_json()) == d
        p = SamplerSpec("point-mass", 2, 5, atoms=((1.0, 0.0), (0.5, 0.5)), weights=(0.25, 0.75))
        assert SamplerSpec.from_json(p.to_json()) == p

    @pytest.mark.parametrize("text, key", [
        ('{"kind":"uniform","J":3,"seed":1,"weights":[0.5]}', "'weights'"),
        ('{"kind":"dirichlet","J":3,"seed":1,"alpha":[1,1,1],"alfa":[2,2,2]}', "'alfa'"),
    ])
    def test_json_stray_key_rejected(self, text, key):
        with pytest.raises(ValueError, match=key):
            SamplerSpec.from_json(text)

    @pytest.mark.parametrize("key", ["alpha", "atoms", "weights", "seed"])
    def test_json_null_rejected(self, key):
        spec = {"kind": "point-mass", "J": 2, "seed": 1, "atoms": [[1, 0], [0, 1]], "weights": [0.5, 0.5]}
        for obj in ({**spec, key: None}, {"kind": "uniform", "J": 2, "seed": 1, key: None}):
            with pytest.raises(ValueError, match=f"^sampler JSON has null for the key '{key}'$"):
                SamplerSpec.from_json(json.dumps(obj))


class TestSample:
    def test_n_positive(self):
        with pytest.raises(ValueError):
            sample(SamplerSpec("uniform", 2, 0), 0)

    def test_j2_structure(self):
        pts = sample(SamplerSpec("uniform", 2, 3), 100)
        assert pts.shape == (100, 2)
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pts >= 0) and np.all(pts <= 1)

    def test_uniform_mean_symmetric(self):
        pts = sample(SamplerSpec("uniform", 3, 123), 100_000)
        np.testing.assert_allclose(pts.mean(axis=0), [1 / 3] * 3, atol=0.01)

    def test_reproducible_bytes(self):
        spec = SamplerSpec("uniform", 3, 42)
        assert sample(spec, 5).tobytes() == sample(spec, 5).tobytes()

    def test_distinct_seeds_differ(self):
        a = sample(SamplerSpec("uniform", 3, 1), 10)
        b = sample(SamplerSpec("uniform", 3, 2), 10)
        assert not np.array_equal(a, b)

    def test_invariants_across_kinds(self):
        rng = np.random.default_rng(0)
        specs = []
        for seed in range(25):
            j = int(rng.integers(2, 7))
            specs.append(SamplerSpec("uniform", j, seed))
            specs.append(SamplerSpec("dirichlet", j, seed, alpha=tuple(rng.uniform(0.2, 5.0, j))))
            atoms = tuple(tuple(rng.dirichlet(np.ones(j))) for _ in range(3))
            specs.append(SamplerSpec("point-mass", j, seed, atoms=atoms, weights=(0.2, 0.3, 0.5)))
        # Gamma(0.001) draws underflow to 0.0 about half the time, so a row of them can be all zeros
        specs.append(SamplerSpec("dirichlet", 3, 0, alpha=(0.001,) * 3))
        for spec in specs:
            pts = sample(spec, 50)
            assert pts.shape == (50, spec.J)
            assert pts.min() >= 0.0
            np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-9)

    def test_point_mass_draws_are_atoms(self):
        atoms = ((1.0, 0.0), (0.0, 1.0))
        pts = sample(SamplerSpec("point-mass", 2, 5, atoms=atoms, weights=(0.75, 0.25)), 4000)
        matches = [np.all(pts == np.asarray(a), axis=1) for a in atoms]
        assert np.all(matches[0] | matches[1])
        assert matches[0].mean() == pytest.approx(0.75, abs=0.03)

    def test_uniform_marginal_is_uniform01(self):
        # J=2 first coordinate ~ Uniform[0, 1]
        pts = sample(SamplerSpec("uniform", 2, 99), 100_000)
        ks = ks_distance(pts[:, 0], cdf=lambda x: np.clip(x, 0.0, 1.0))
        assert ks <= 0.01


class TestUniformRowSums:
    """``sample`` normalizes uniform draws by column-add row sums; the oracle
    divides by numpy's ``sum(axis=1)``, which adds up to 7 values left to
    right and sums 8 or more pairwise."""

    @pytest.mark.parametrize("J", range(2, 8))
    def test_bit_identical_up_to_J_7(self, J):
        for seed in range(20):
            for n in (1, 7, 1000):
                spec = SamplerSpec("uniform", J, seed)
                assert sample(spec, n).tobytes() == sample_uniform_by_sum(spec, n).tobytes()

    @pytest.mark.parametrize("J", range(8, 13))
    def test_pairwise_sum_moves_last_bits_from_J_8(self, J):
        # Up to 4 ulps on these draws; over 200 seeds of 1000 rows, 3 reached 5 ulps.
        moved = 0
        for seed in range(20):
            for n in (1, 7, 1000):
                spec = SamplerSpec("uniform", J, seed)
                got, ref = sample(spec, n), sample_uniform_by_sum(spec, n)
                assert (np.abs(got - ref) <= 4 * np.spacing(ref)).all()
                moved += int((got != ref).sum())
        assert moved > 0


class TestSeedTree:
    def test_child_seed_deterministic(self):
        assert child_seed(7, 1, 2) == child_seed(7, 1, 2)
        assert child_seed(7, 1, 2) != child_seed(7, 2, 1)
        assert child_seed(7) != child_seed(8)

    def test_replicate_streams(self):
        spec = SamplerSpec("uniform", 3, 11)

        def replicate(k):
            return dataclasses.replace(spec, seed=child_seed(spec.seed, k))

        r0, r1 = replicate(0), replicate(1)
        assert r0 == replicate(0) and r0.seed != r1.seed
        assert np.array_equal(sample(r0, 10), sample(replicate(0), 10))
        assert not np.array_equal(sample(r0, 10), sample(r1, 10))
