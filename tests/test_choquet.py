import numpy as np
import pytest
import scipy.optimize

from oracles import barycentric_by_lstsq
from simplexmix.choquet import (
    FrameConditionError,
    OutsideHullError,
    ChoquetMeasure,
    choquet_measure,
    make_frame,
    reconstruct,
)
from simplexmix.hull import point_to_hull_distance


def random_frame(rng, j, cond_cap=1e4):
    """Well-conditioned random frame: resample until the condition is tame."""
    while True:
        vertices = rng.dirichlet(np.ones(j), size=j)
        try:
            frame = make_frame(vertices)
        except (ValueError, FrameConditionError):
            continue
        if frame.cond <= cond_cap:
            return frame


def count_solves(monkeypatch) -> list:
    """A list that grows by one per scipy.optimize.nnls call; hull imports
    nnls at its call, so the wrapper is set on scipy.optimize itself."""
    calls = []

    def counted(*args, _nnls=scipy.optimize.nnls, **kwargs):
        calls.append(1)
        return _nnls(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", counted)
    return calls


class TestMakeFrame:
    def test_standard_basis_valid(self):
        frame = make_frame(np.eye(3))
        assert frame.m == frame.J == 3
        assert frame.cond < 10

    def test_interior_vertex_rejected(self):
        bad = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        with pytest.raises(ValueError):
            make_frame(bad)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="M = J"):
            make_frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_random_dirichlet_frame_valid(self):
        rng = np.random.default_rng(12)
        frame = random_frame(rng, 3)
        assert frame.m == 3

    def test_vertices_immutable(self):
        frame = make_frame(np.eye(3))
        with pytest.raises(ValueError):
            frame.vertices[0, 0] = 0.5


class TestChoquetMeasure:
    def test_basis_frame_reads_off_coordinates(self):
        frame = make_frame(np.eye(3))
        w = choquet_measure([0.2, 0.3, 0.5], frame)
        np.testing.assert_allclose(w.weights, [0.2, 0.3, 0.5], atol=1e-12)

    def test_vertex_gets_unit_mass(self):
        rng = np.random.default_rng(3)
        frame = random_frame(rng, 3)
        w = choquet_measure(frame.vertices[1], frame)
        np.testing.assert_allclose(w.weights, [0.0, 1.0, 0.0], atol=1e-9)

    def test_known_combination_recovered(self):
        rng = np.random.default_rng(4)
        frame = random_frame(rng, 3)
        truth = np.array([0.1, 0.6, 0.3])
        p = frame.vertices.T @ truth
        w = choquet_measure(p, frame)
        np.testing.assert_allclose(w.weights, truth, atol=1e-9)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            j = int(rng.integers(2, 6))
            frame = random_frame(rng, j)
            truth = rng.dirichlet(np.ones(j))
            p = frame.vertices.T @ truth
            w = choquet_measure(p, frame)
            np.testing.assert_allclose(reconstruct(w, frame), p, atol=1e-8)

    def test_solvers_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            j = int(rng.integers(2, 6))
            frame = random_frame(rng, j)
            p = frame.vertices.T @ rng.dirichlet(np.ones(j))
            direct = barycentric_by_lstsq(p, frame.vertices)
            np.testing.assert_allclose(choquet_measure(p, frame).weights, direct, atol=1e-8)

    def test_one_solve(self, monkeypatch):
        frame = random_frame(np.random.default_rng(9), 4)
        calls = count_solves(monkeypatch)
        choquet_measure(frame.vertices.T @ np.array([0.1, 0.2, 0.3, 0.4]), frame)
        assert len(calls) == 1

    def test_vertex_needs_no_solve(self, monkeypatch):
        frame = make_frame(np.eye(3))
        calls = count_solves(monkeypatch)
        w = choquet_measure([0.0, 1.0, 0.0], frame)
        assert w.weights.tolist() == [0.0, 1.0, 0.0]
        assert not calls

    def test_outside_point_rejected_with_distance(self):
        frame = make_frame(np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
        with pytest.raises(OutsideHullError) as err:
            choquet_measure([1.0, 0.0, 0.0], frame)
        assert err.value.distance > 0.01
        assert err.value.distance == point_to_hull_distance([1.0, 0.0, 0.0], frame.vertices)


class TestReconstruct:
    def test_unit_mass_returns_vertex(self):
        rng = np.random.default_rng(7)
        frame = random_frame(rng, 4)
        w = ChoquetMeasure(weights=np.array([0.0, 0.0, 1.0, 0.0]))
        np.testing.assert_allclose(reconstruct(w, frame), frame.vertices[2], atol=1e-15)

    def test_uniform_weights_hit_barycenter(self):
        frame = make_frame(np.eye(3))
        w = ChoquetMeasure(weights=np.full(3, 1 / 3))
        np.testing.assert_allclose(reconstruct(w, frame), [1 / 3] * 3, atol=1e-15)

    def test_length_mismatch(self):
        frame = make_frame(np.eye(3))
        with pytest.raises(ValueError, match="length"):
            reconstruct(ChoquetMeasure(weights=np.array([0.5, 0.5])), frame)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            frame = random_frame(rng, 3)
            out = reconstruct(ChoquetMeasure(weights=rng.dirichlet(np.ones(3))), frame)
            assert out.min() >= 0
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
