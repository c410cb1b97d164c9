import math
import time

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import ConvexHull, cKDTree
from scipy.spatial.distance import pdist

from oracles import (
    dedup_by_pairs,
    extremal_set_by_svd,
    facet_normal_sums,
    fix_signs_by_rows,
    hausdorff,
    hull_distance_by_faces,
    monotone_chain_hull_vertices,
    orientation_hull_vertices,
    towers_by_dfs,
)
from simplexmix import hull
from simplexmix.hull import (
    EXTREME_TOL,
    PointSet,
    _affine_coordinates,
    _certified,
    _chart,
    _fix_signs,
    _normal_sums,
    c_constant,
    count_towers,
    extremal_set,
    is_extreme,
    pca_project,
    point_to_hull_distance,
)
from simplexmix.simplex import SamplerSpec, child_seed, sample


class TestPointSet:
    def test_dedup_keeps_first(self):
        ps = PointSet(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 5e-10], [2.0, 2.0]]))
        assert ps.n == 3
        np.testing.assert_array_equal(ps.points[0], [0.0, 0.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            PointSet(np.array([[np.inf, 0.0]]))

    def test_immutable(self):
        ps = PointSet(np.eye(3))
        with pytest.raises(ValueError):
            ps.points[0, 0] = 2.0

    @pytest.mark.parametrize("gap", [0.0, 0.5, 0.999, 1.0, 1.001, 1.5, 3.0])
    def test_dedup_matches_pair_rule(self, gap):
        # twins at gap * EXTREME_TOL from their source, some sources twinned
        # twice, ten of them also copied exactly, shuffled so a twin or a
        # copy can come before its source
        rng = np.random.default_rng(int(gap * 10))
        for d in (2, 3, 5):
            base = rng.random((400, d))
            src = rng.choice(400, size=30)
            step = rng.standard_normal((30, d))
            step *= gap * EXTREME_TOL / np.linalg.norm(step, axis=1, keepdims=True)
            cloud = np.vstack([base, base[src] + step, base[src[:10]]])[rng.permutation(440)]
            kept = PointSet(cloud).points
            np.testing.assert_array_equal(kept, dedup_by_pairs(cloud, EXTREME_TOL))
            if gap < 1.0:
                assert kept.shape[0] < 430

    @staticmethod
    def sorted_gaps(cloud):
        """Adjacent gaps of the rows' sorted projections, and the window
        within which ``_dedup`` pairs them (its direction and width)."""
        n, d = cloud.shape
        w = np.cos(np.arange(1.0, d + 1.0))
        w /= np.linalg.norm(w)
        width = 2.0 * EXTREME_TOL + 4.0 * d * d * np.finfo(np.float64).eps * np.abs(cloud).max()
        return np.diff(np.sort(cloud @ w)), width, w

    @staticmethod
    def assert_pair_rule(cloud):
        kept = PointSet(cloud).points
        np.testing.assert_array_equal(kept, dedup_by_pairs(cloud, EXTREME_TOL))
        return kept

    def test_one_and_two_rows(self):
        for cloud in ([[0.3, 0.7]], [[0.3, 0.7], [0.3, 0.7]], [[0.3, 0.7], [0.3, 0.7 + 5e-8]],
                      [[0.3, 0.7], [0.3, 0.7 + 5e-7]], [[0.3, 0.7], [0.9, 0.1]]):
            self.assert_pair_rule(np.asarray(cloud))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_smallest_gap_at_the_window(self, d):
        # a row moved off another by just over or just under the window along
        # the projection direction, plus a step normal to it: no pair lies
        # within the tolerance either way, so every row is kept
        rng = np.random.default_rng(d)
        base = rng.random((50, d))
        _, width, w = self.sorted_gaps(base)
        side = rng.standard_normal(d)
        side -= (side @ w) * w
        side *= 0.5 * EXTREME_TOL / np.linalg.norm(side)
        for factor, near in ((1.001, False), (0.999, True)):
            cloud = np.vstack([base, base[7] + factor * width * w + side])
            gaps, width_now, _ = self.sorted_gaps(cloud)
            assert (gaps.min() <= width_now) == near
            assert self.assert_pair_rule(cloud).shape[0] == 51

    @pytest.mark.parametrize("twins", [False, True])
    def test_exact_copies(self, twins):
        # copies alone, and copies among twins at 0.5 * tol, some of them
        # twins of copied rows
        rng = np.random.default_rng(11 + twins)
        base = rng.random((200, 3))
        parts = [base, base[[3, 3, 17, 50]]]
        if twins:
            step = rng.standard_normal((6, 3))
            step *= 0.5 * EXTREME_TOL / np.linalg.norm(step, axis=1, keepdims=True)
            parts.append(base[[3, 17, 90, 91, 92, 93]] + step)
        cloud = np.vstack(parts)[rng.permutation(sum(len(p) for p in parts))]
        assert self.assert_pair_rule(cloud).shape[0] == 200

    def test_near_gaps_in_a_large_cloud(self):
        # at J=5, n=1e4 a uniform cloud has near gaps but, a.s., no pair
        # within the tolerance; one twin added at 0.5 * tol goes
        cloud = sample(SamplerSpec("uniform", 5, 9), 10_000)
        gaps, width, _ = self.sorted_gaps(cloud)
        assert (gaps <= width).sum() >= 1
        step = np.array([1.0, -1.0, 0.0, 0.0, 0.0]) * 0.5 * EXTREME_TOL / np.sqrt(2.0)
        assert self.assert_pair_rule(np.vstack([cloud, cloud[123] + step])).shape[0] == 10_000

    @pytest.mark.parametrize("case, sweeps, kept", [
        ("apart", False, 53), ("adjacent", True, 52), ("straddle", True, 51), ("twin", True, 50), ("at tol", True, 50),
        ("copy", True, 50)])
    def test_isolated_near_gaps(self, monkeypatch, case, sweeps, kept):
        # rows added to a cloud with no near gap.  apart: three rows, each at
        # an isolated near gap but 2 * tol off its neighbour.  adjacent: two
        # rows making adjacent near gaps, no pair within tol.  straddle: a
        # row 0.9 * tol off row 7, and a far row projecting between them.
        # twin: a row 0.5 * tol off row 7.  at tol: a row exactly tol off row
        # 7, whose first coordinate is 0.  copy: row 7 again.  Only isolated
        # near gaps with no pair within tol skip the pair sweep (np.union1d
        # is its first call).
        sweep_calls = []
        union1d = np.union1d
        monkeypatch.setattr(hull.np, "union1d", lambda *a: sweep_calls.append(1) or union1d(*a))
        for d in (2, 3, 5):
            rng = np.random.default_rng(40 + d)
            base = rng.random((50, d))
            base[7, 0] = 0.0
            gaps, width, w = self.sorted_gaps(base)
            assert gaps.min() > width
            side = rng.standard_normal(d)
            side -= (side @ w) * w
            side *= 2.0 * EXTREME_TOL / np.linalg.norm(side)
            step = rng.standard_normal(d)
            step *= 0.5 * EXTREME_TOL / np.linalg.norm(step)
            added = {
                "apart": [base[r] + 0.5 * width * w + side for r in (7, 20, 33)],
                "adjacent": [base[7] + 0.3 * width * w + side, base[7] + 0.6 * width * w - side],
                "straddle": [base[7] + 0.72 * EXTREME_TOL * w + 0.27 * side, base[7] + 0.36 * EXTREME_TOL * w - side],
                "twin": [base[7] + step],
                "at tol": [base[7] + EXTREME_TOL * np.eye(d)[0]],
                "copy": [base[7]],
            }[case]
            cloud = np.vstack([base, *added])
            gaps, width, _ = self.sorted_gaps(cloud)
            near = np.flatnonzero(gaps <= width)
            assert near.size == len(added)
            assert (np.diff(near).min(initial=2) == 1) == (case in ("adjacent", "straddle"))
            sweep_calls.clear()
            points = self.assert_pair_rule(cloud)
            assert points.shape[0] == kept and bool(sweep_calls) == sweeps
            assert cloud.flags.writeable and not np.shares_memory(points, cloud)
            if kept == 50:
                np.testing.assert_array_equal(points, base)

    @pytest.mark.parametrize("J, n, clouds", [(3, 1000, 100), (5, 10_000, 4)])
    def test_uniform_clouds(self, J, n, clouds):
        # the clt-j3 shape and the top of the growth-j5 grid; at J=3 about a
        # fifth of the clouds have near gaps, all isolated
        with_near = 0
        for r in range(clouds):
            cloud = sample(SamplerSpec("uniform", J, child_seed(31, J, r)), n)
            gaps, width, _ = self.sorted_gaps(cloud)
            with_near += bool((gaps <= width).any())
            self.assert_pair_rule(cloud)
        assert with_near >= 1

    def test_clustered_cloud(self):
        # Dirichlet(0.001) rows pile up at the vertices, exact copies and
        # rows within the tolerance of many others: each kept row drops a
        # whole cluster of later rows at once.  Six more rows make a chain
        # 0.6 * tol apart: the first drops the second, which leaves the third
        # to drop the fourth, and so on.  Last, the greedy pass's worst case:
        # 2000 rows 1.5 * tol apart along the projection direction, shuffled;
        # every gap is near and every row is kept.
        step = np.array([1.0, -1.0, 0.0]) * 0.6 * EXTREME_TOL / np.sqrt(2.0)
        chain = np.full(3, 1.0 / 3.0) + np.arange(6.0)[:, None] * step
        for seed in (1, 2):
            cloud = sample(SamplerSpec("dirichlet", 3, seed, alpha=(0.001,) * 3), 1000)
            kept = self.assert_pair_rule(cloud).shape[0]
            assert kept < np.unique(cloud, axis=0).shape[0] // 10
            assert self.assert_pair_rule(np.vstack([cloud, chain])).shape[0] == kept + 3
        _, _, w = self.sorted_gaps(chain)
        spaced = np.full(3, 1.0 / 3.0) + np.arange(2000.0)[:, None] * 1.5 * EXTREME_TOL * w
        spaced = spaced[np.random.default_rng(5).permutation(2000)]
        gaps, width, _ = self.sorted_gaps(spaced)
        assert (gaps <= width).all()
        assert self.assert_pair_rule(spaced).shape[0] == 2000

    @pytest.mark.parametrize("J", [3, 4])
    def test_clustered_cloud_at_scale(self, J):
        # 1e5 Dirichlet(0.001) rows, too many for the oracle's pair list.  The
        # rule holds iff no two kept rows lie within tol and every dropped row
        # lies within tol of an earlier kept row; together these fix the kept
        # set.  A kept row is the first row of its value, so its index is
        # that value's first occurrence.
        cloud = sample(SamplerSpec("dirichlet", J, 17, alpha=(0.001,) * J), 100_000)
        start = time.perf_counter()
        kept = PointSet(cloud).points
        assert time.perf_counter() - start < 5.0
        first = {}
        for j, row in enumerate(cloud.tolist()):
            first.setdefault(tuple(row), j)
        idx = np.array([first[tuple(row)] for row in kept.tolist()])
        assert (np.diff(idx) > 0).all()
        np.testing.assert_array_equal(cloud[idx], kept)
        tree = cKDTree(kept)
        assert not tree.query_pairs(EXTREME_TOL)
        dropped = np.setdiff1d(np.arange(cloud.shape[0]), idx)
        near = tree.query_ball_point(cloud[dropped], EXTREME_TOL)
        assert all(rows and idx[min(rows)] < j for rows, j in zip(near, dropped.tolist()))
        assert kept.shape[0] < cloud.shape[0] // 10

    def test_input_not_aliased(self):
        x = np.random.default_rng(2).random((20, 3))
        ps = PointSet(x)
        assert x.flags.writeable and not np.shares_memory(x, ps.points)
        x[0, 0] = 5.0
        assert ps.points[0, 0] != 5.0

    def test_fortran_order_input(self):
        x = np.asfortranarray(np.random.default_rng(3).random((30, 4)))
        for cloud in (x, np.asfortranarray(np.vstack([x, x[:2]]))):
            points = PointSet(cloud).points
            assert points.flags.c_contiguous
            assert points.tobytes() == dedup_by_pairs(cloud, EXTREME_TOL).tobytes()

    def test_point_mass_cloud(self):
        # 1e4 draws from three atoms: the exact copies go without a pair visit
        spec = SamplerSpec("point-mass", 3, 4, atoms=np.eye(3), weights=[0.5, 0.3, 0.2])
        assert PointSet(sample(spec, 10_000)).n == 3


class TestHullDistance:
    def test_member_distance_zero(self):
        pts = np.random.default_rng(0).random((50, 4))
        assert point_to_hull_distance(pts[7], pts) == 0.0

    def test_segment_closed_form(self):
        d = point_to_hull_distance([0.0, 0.0], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert d == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_convex_combinations_inside(self):
        # spec invariant: 1000 random convex combinations, zero within 1e-9
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            m, d = int(rng.integers(3, 9)), int(rng.integers(2, 7))
            vertices = rng.random((m, d))
            p = rng.dirichlet(np.ones(m)) @ vertices
            worst = max(worst, point_to_hull_distance(p, vertices))
        assert worst <= 1e-9

    def test_matches_face_oracle(self):
        # 300 random sets (n <= 7, d <= 4), every other one squeezed to 1e-6
        # along one axis; queries are a random point and the first point
        # against the hull of the rest
        rng = np.random.default_rng(21)
        for case in range(300):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 5))
            scale = np.ones(d)
            if case % 2:
                scale[rng.integers(d)] = 1e-6
            pts = rng.random((n, d)) * scale
            p = (1.5 * rng.random(d) - 0.25) * scale
            for q, others in ((p, pts), (pts[0], pts[1:])):
                got = point_to_hull_distance(q, others)
                assert abs(got - hull_distance_by_faces(q, others)) <= 1e-12, (case, got)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            point_to_hull_distance([0.0], np.zeros((0, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite values in point"):
            point_to_hull_distance([np.nan, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="non-finite values in points"):
            point_to_hull_distance([0.0, 0.0], np.array([[1.0, 0.0], [np.inf, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            point_to_hull_distance([0.0, 0.0, 0.0], np.eye(2))


class TestIsExtreme:
    def test_midpoint_not_extreme(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert not is_extreme(2, pts)
        assert is_extreme(0, pts) and is_extreme(1, pts)

    def test_basis_vertices_extreme(self):
        for i in range(3):
            assert is_extreme(i, np.eye(3))

    def test_segment_cloud_min_max(self):
        pts = sample(SamplerSpec("uniform", 2, 8), 50)
        flags = [is_extreme(i, pts) for i in range(50)]
        expected = {int(np.argmin(pts[:, 0])), int(np.argmax(pts[:, 0]))}
        assert {i for i, f in enumerate(flags) if f} == expected

    def test_index_range(self):
        with pytest.raises(IndexError):
            is_extreme(5, np.eye(3))


class TestExtremalSet:
    def test_triangle_plus_barycenter(self):
        pts = np.vstack([np.eye(3), [[1 / 3, 1 / 3, 1 / 3]]])
        es = extremal_set(PointSet(pts))
        assert es.f0 == 3
        np.testing.assert_array_equal(es.indices, [0, 1, 2])

    def test_segment_always_two(self):
        for seed in range(10):
            for n in (3, 7, 40):
                ps = PointSet(sample(SamplerSpec("uniform", 2, seed), n))
                assert extremal_set(ps).f0 == 2

    def test_matches_orientation_oracle_fixed(self):
        cloud = sample(SamplerSpec("uniform", 3, 7), 200)
        ps = PointSet(cloud)
        # drop the redundant coordinate: an affine bijection on the simplex plane
        oracle = orientation_hull_vertices(ps.points[:, :2])
        es = extremal_set(ps)
        np.testing.assert_array_equal(es.indices, oracle)

    def test_matches_orientation_oracle_random(self):
        # spec invariant: 100 random instances, n <= 500
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(4, 501))
            ps = PointSet(rng.random((n, 2)))
            np.testing.assert_array_equal(
                extremal_set(ps).indices, monotone_chain_hull_vertices(ps.points)
            )

    def test_planar_oracles_agree(self):
        rng = np.random.default_rng(5)
        for n in (4, 5, 30, 120, 200):
            pts = rng.random((n, 2))
            np.testing.assert_array_equal(
                monotone_chain_hull_vertices(pts), orientation_hull_vertices(pts)
            )

    def test_auto_agrees_with_perpoint(self):
        for seed in range(20):
            ps = PointSet(sample(SamplerSpec("uniform", 3, 100 + seed), 60))
            np.testing.assert_array_equal(
                extremal_set(ps, method="auto").indices,
                extremal_set(ps, method="perpoint").indices,
            )

    def test_qhull_failure_falls_back_to_distance_scan(self, monkeypatch):
        # both attempts on the chart fail (Q0, then merged), and the
        # rank-reduced coordinates have the chart's rank, so no third call
        calls = []

        def failing(z, *args, qhull_options=None, **kwargs):
            calls.append((z.shape, qhull_options))
            raise scipy.spatial.QhullError("forced failure")

        ps = PointSet(sample(SamplerSpec("uniform", 3, 41), 60))
        monkeypatch.setattr(scipy.spatial, "ConvexHull", failing)
        es = extremal_set(ps)
        assert calls == [((ps.n, 2), "Q0"), ((ps.n, 2), None)]
        np.testing.assert_array_equal(es.indices, extremal_set(ps, method="perpoint").indices)

    def test_auto_agrees_with_perpoint_higher_rank(self):
        # rank 4: the qhull shortlist runs in 4-D coordinates
        for seed in range(6):
            ps = PointSet(sample(SamplerSpec("uniform", 5, 300 + seed), 40))
            np.testing.assert_array_equal(
                extremal_set(ps, method="auto").indices,
                extremal_set(ps, method="perpoint").indices,
            )

    def test_rank_above_qhull_limit_uses_distance_scan(self):
        # rank 9 exceeds the qhull ceiling; auto falls back to per-point tests
        ps = PointSet(sample(SamplerSpec("uniform", 10, 17), 30))
        es = extremal_set(ps, method="auto")
        np.testing.assert_array_equal(es.indices, extremal_set(ps, method="perpoint").indices)
        assert es.f0 >= 10

    def test_hull_invariance_under_added_combinations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, d = int(rng.integers(4, 12)), int(rng.integers(2, 5))
            base = rng.random((n, d))
            combos = rng.dirichlet(np.ones(n), size=5) @ base
            before = extremal_set(PointSet(base)).indices
            after = extremal_set(PointSet(np.vstack([base, combos]))).indices
            np.testing.assert_array_equal(after, before)

    def test_full_dimensional_hull_has_at_least_j_vertices(self):
        # a hull affinely spanning the simplex needs at least J vertices
        rng = np.random.default_rng(5)
        for _ in range(20):
            j = int(rng.integers(2, 6))
            cloud = sample(SamplerSpec("uniform", j, int(rng.integers(1_000_000))), j + 5)
            assert extremal_set(PointSet(cloud)).f0 >= j

    def test_vertex_count_lower_bound(self):
        # f0 >= min(affine rank + 1, distinct points) on generic clouds
        rng = np.random.default_rng(13)
        for _ in range(40):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 6))
            ps = PointSet(rng.random((n, d)))
            rank = np.linalg.matrix_rank(ps.points - ps.points.mean(axis=0))
            assert extremal_set(ps).f0 >= min(rank + 1, ps.n)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
    @pytest.mark.parametrize("j", [3, 4])
    def test_vertex_count_lower_bound_small_alpha(self, j):
        # rows cluster along the edges a few tol apart near each vertex, and the
        # whole cluster rules itself non-extreme: f0 = 2 at seed 0 for J = 3 and 4
        ps = PointSet(sample(SamplerSpec("dirichlet", j, 0, alpha=(0.001,) * j), 10_000))
        rank = np.linalg.matrix_rank(ps.points - ps.points.mean(axis=0))
        assert extremal_set(ps).f0 >= min(rank + 1, ps.n)

    def test_degenerate_inputs_rejected(self):
        # a lone point is extreme: no other point is within the tolerance
        np.testing.assert_array_equal(extremal_set(PointSet(np.zeros((3, 2)))).indices, [0])
        assert is_extreme(0, np.zeros((1, 2)))
        # two points PointSet keeps apart, but closer than the rank's rounding
        # at their scale: rejected, not counted as none or one
        far = PointSet(np.array([[1e10, 1e10], [1e10 + 4e-6, 1e10]]))
        assert far.n == 2
        with pytest.raises(ValueError, match="degenerate"):
            extremal_set(far)

    def test_lattice_cloud_corners_only(self):
        # many exactly-collinear boundary points; only the 4 corners are extreme
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(4.0))
        grid = np.column_stack([xs.ravel(), ys.ravel()])
        es = extremal_set(PointSet(grid))
        corners = {(0.0, 0.0), (4.0, 0.0), (0.0, 3.0), (4.0, 3.0)}
        found = {tuple(grid[i]) for i in es.indices}
        assert found == corners
        np.testing.assert_array_equal(
            es.indices, extremal_set(PointSet(grid), method="perpoint").indices
        )

    def test_collinear_endpoint_twin(self):
        # the twin 6.7e-8 from the end merges into it, so both routes keep
        # the two ends, as is_extreme does
        t = np.r_[0.0, 3e-8, np.linspace(0.1, 1.0, 20)]
        ps = PointSet(np.column_stack([t, 2 * t]))
        es = extremal_set(ps)
        np.testing.assert_array_equal(es.indices, [0, ps.n - 1])
        np.testing.assert_array_equal(es.indices, [i for i in range(ps.n) if is_extreme(i, ps)])
        np.testing.assert_array_equal(es.indices, extremal_set(ps, method="perpoint").indices)

    def test_affinely_independent_thin_simplex(self):
        # three affinely independent points, one 1e-9 from the segment of the
        # other two: not extreme, as is_extreme says
        ps = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-9]]))
        np.testing.assert_array_equal(extremal_set(ps).indices, [0, 1])
        assert not is_extreme(2, ps)


class TestCertificate:
    """Certificate-first extremal_set against the pure per-point distance
    route and ``is_extreme``, and each certified candidate against its NNLS
    distance to the hull of all other rows."""

    def check(self, ps, every_row=True):
        """``is_extreme`` runs on every row, or with ``every_row=False`` on
        the qhull candidates only: it is the per-point route's test on one
        row, which the comparison with ``method="perpoint"`` already makes
        on every row."""
        z, _ = _affine_coordinates(ps.points)
        hull = ConvexHull(z)
        cand = np.sort(hull.vertices)
        ok = _certified(z, hull, cand)
        # the margin is a lower bound on the distance, which the NNLS
        # distance bounds from above
        dist = [point_to_hull_distance(z[a], np.delete(z, a, axis=0)) for a in cand[ok]]
        assert all(d > EXTREME_TOL for d in dist)
        es = extremal_set(ps)
        np.testing.assert_array_equal(es.indices, extremal_set(ps, method="perpoint").indices)
        rows = np.arange(ps.n) if every_row else cand
        flags = [is_extreme(i, ps) for i in rows]
        np.testing.assert_array_equal(es.indices, rows[flags])
        return ok

    @pytest.mark.parametrize("J,n", [(3, 2000), (4, 2000), (5, 1000), (6, 600)])
    def test_uniform_clouds(self, J, n):
        for seed in range(2):
            ps = PointSet(sample(SamplerSpec("uniform", J, 500 + seed), n))
            assert self.check(ps, every_row=n < 1000).any()

    @pytest.mark.parametrize("gap", [2e-9, 1e-8, 5e-8, 1.5e-7, 3e-7])
    def test_near_duplicate_vertex(self, gap):
        # A twin closer than EXTREME_TOL is merged into the vertex; a farther
        # one survives, and no direction separates the two by more than the
        # gap, so where both are candidates the distance test decides.
        rng = np.random.default_rng(int(gap * 1e10))
        for J in (3, 4, 5):
            cloud = sample(SamplerSpec("uniform", J, 600 + J), 500)
            vertex = int(extremal_set(PointSet(cloud)).indices[0])
            step = rng.standard_normal(J)
            step -= step.mean()  # stay in the simplex plane
            step *= gap / np.linalg.norm(step)
            ps = PointSet(np.vstack([cloud, cloud[vertex] + step]))
            assert ps.n == (500 if gap < EXTREME_TOL else 501)
            self.check(ps)

    def test_point_inside_near_obtuse_vertex(self):
        # b = (2e-7, 1e-9) lies just inside the edge from the vertex a = (0, 0)
        # and survives dedup.  The angle at a is obtuse, so a is 4e-8 from
        # the segment from b to (-1, 0.2): not extreme, although its margin
        # over the other candidates is about 0.1.
        quad = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [-1.0, 0.2]])
        inner = np.random.default_rng(0).dirichlet(np.ones(4), size=30) @ quad
        ok = self.check(PointSet(np.vstack([quad, inner, [[2e-7, 1e-9]]])))
        assert not ok[0]

    def test_near_flat_clouds(self):
        # anisotropy 1e-6: many candidates are left to the distance test
        rng = np.random.default_rng(8)
        for d in (3, 4):
            for _ in range(3):
                flat = rng.random((300, d)) * np.r_[np.ones(d - 1), 1e-6]
                self.check(PointSet(flat))

    def test_lattice(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(4.0))
        assert self.check(PointSet(np.column_stack([xs.ravel(), ys.ravel()]))).all()

    def test_normal_sums_match_scatter_add(self):
        rng = np.random.default_rng(8)
        clouds = [sample(SamplerSpec("uniform", J, 40 + J), 500) for J in (3, 4, 5, 6)]
        clouds += [rng.random((300, d)) * np.r_[np.ones(d - 1), 1e-6] for d in (3, 4) for _ in range(3)]
        for cloud in clouds:
            z, _ = _affine_coordinates(PointSet(cloud).points)
            hull = ConvexHull(z)
            cand = np.sort(hull.vertices)
            sums = _normal_sums(hull, cand)
            assert sums.tobytes() == facet_normal_sums(hull, z.shape[0])[cand].tobytes()


class TestSimplexChart:
    """extremal_set's fixed chart of the plane sum(x) = 1 against the raw
    rows, the centred-SVD route (``extremal_set_by_svd``) and the per-point
    route."""

    @staticmethod
    def spec(kind, J, seed):
        if kind == "uniform":
            return SamplerSpec("uniform", J, seed)
        if kind == "skewed":
            return SamplerSpec("dirichlet", J, seed, alpha=(0.05,) + (1,) * (J - 1))
        return SamplerSpec("dirichlet", J, seed, alpha=(kind,) * J)

    @staticmethod
    def spy_qhull(monkeypatch):
        """The inputs and ``qhull_options`` of every ConvexHull call, and
        whether qhull took them."""
        calls, convex_hull = [], scipy.spatial.ConvexHull

        def spy(z, *args, qhull_options=None, **kwargs):
            calls.append([z.copy(), qhull_options, False])
            hull = convex_hull(z, *args, qhull_options=qhull_options, **kwargs)
            calls[-1][2] = True
            return hull

        monkeypatch.setattr(scipy.spatial, "ConvexHull", spy)
        return calls

    def test_distances_match_raw_rows(self):
        # the last column moved by up to J ulps of 1, so rows sit off the
        # plane by as much as the gate allows
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(23)
        for J in range(3, 10):
            for kind in ("uniform", 0.3, 0.001):
                x = sample(self.spec(kind, J, J), 300)
                x[:, -1] += rng.uniform(-J, J, 300) * eps
                z, err = _chart(x)
                assert z.shape == (300, J - 1) and 0 < err <= 8 * J * eps
                assert np.abs(pdist(z) - pdist(x)).max() <= err + 8 * J * eps

    def test_gate(self):
        x = sample(SamplerSpec("uniform", 4, 5), 100)
        assert _chart(x) is not None
        nudged = x.copy()
        nudged[:, 1] += 1e-9
        for off in (2 * x, nudged, x[:, :2] / x[:, :2].sum(axis=1, keepdims=True)):
            assert _chart(off) is None
        assert _chart(sample(SamplerSpec("uniform", 10, 5), 100)) is None

    def test_plane_rows_skip_the_svd(self, monkeypatch):
        ps = PointSet(sample(SamplerSpec("uniform", 4, 6), 500))
        expected = extremal_set_by_svd(ps.points)
        calls = self.spy_qhull(monkeypatch)
        monkeypatch.setattr(hull.np.linalg, "svd", lambda *a, **k: pytest.fail("SVD of a cloud on the plane"))
        np.testing.assert_array_equal(extremal_set(ps).indices, expected)
        assert [(opt, ok) for _, opt, ok in calls] == [("Q0", True)]
        assert calls[0][0].tobytes() == _chart(ps.points)[0].tobytes()

    @pytest.mark.parametrize("shift", ["double", "one column"])
    def test_off_plane_rows_take_the_svd_route(self, monkeypatch, shift):
        x = sample(SamplerSpec("uniform", 4, 7), 500)
        if shift == "double":
            x = 2.0 * x
        else:
            x[:, 2] += 1e-9
        ps = PointSet(x)
        calls = self.spy_qhull(monkeypatch)
        np.testing.assert_array_equal(extremal_set(ps).indices, extremal_set_by_svd(ps.points))
        assert [(opt, ok) for _, opt, ok in calls] == [("Q0", True)]
        assert calls[0][0].tobytes() == _affine_coordinates(ps.points)[0].tobytes()

    @pytest.mark.parametrize("where", ["face", "edge"])
    def test_face_and_edge_clouds(self, monkeypatch, where):
        # J = 4 rows with x4 = 0, or with x2 = x3 = 0: flat in the chart,
        # so qhull rejects it with and without pre-merging, and the
        # rank-reduced route takes over (an edge is rank 1 and needs no qhull)
        calls = self.spy_qhull(monkeypatch)
        cols = [0, 1, 2] if where == "face" else [0, 3]
        for seed in range(3):
            for n in (40, 1000):
                x = np.zeros((n, 4))
                x[:, cols] = sample(SamplerSpec("uniform", len(cols), 80 + seed), n)
                ps = PointSet(x)
                calls.clear()
                es = extremal_set(ps)
                shapes = [(z.shape, opt, ok) for z, opt, ok in calls]
                flat = [((ps.n, 3), "Q0", False), ((ps.n, 3), None, False)]
                assert shapes == (flat + [((ps.n, 2), "Q0", True)] if where == "face" else flat)
                np.testing.assert_array_equal(es.indices, extremal_set_by_svd(ps.points))
                if n == 40:
                    np.testing.assert_array_equal(es.indices, extremal_set(ps, method="perpoint").indices)

    def test_precision_error_retries_with_merging(self, monkeypatch):
        # a skewed J = 5 Dirichlet cloud: qhull without pre-merging stops
        # with a precision error, and the merged retry, not the distance test
        # on every row, gives the shortlist
        for seed in range(6):
            ps = PointSet(sample(SamplerSpec("dirichlet", 5, 700 + seed, alpha=(0.05, 1, 1, 1, 1)), 300))
            tested, perpoint_keep = [], hull._perpoint_keep

            def spy(z, rows=None):
                tested.append(z.shape[0] if rows is None else len(rows))
                return perpoint_keep(z, rows)

            with monkeypatch.context() as m:
                calls = self.spy_qhull(m)
                m.setattr(hull, "_perpoint_keep", spy)
                es = extremal_set(ps)
            assert [(opt, ok) for _, opt, ok in calls] == [("Q0", False), (None, True)]
            assert all(k < ps.n for k in tested)
            np.testing.assert_array_equal(es.indices, extremal_set_by_svd(ps.points))
            np.testing.assert_array_equal(es.indices, extremal_set(ps, method="perpoint").indices)

    @pytest.mark.parametrize("J", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["uniform", 0.3, 0.001, "skewed"])
    def test_seed_sweep(self, J, kind):
        # small clouds against the per-point route, n = 1000 against the
        # centred-SVD route
        for seed in range(5):
            ps = PointSet(sample(self.spec(kind, J, 900 + seed), 40))
            np.testing.assert_array_equal(extremal_set(ps).indices, extremal_set(ps, method="perpoint").indices)
            ps = PointSet(sample(self.spec(kind, J, 950 + seed), 1000))
            np.testing.assert_array_equal(extremal_set(ps).indices, extremal_set_by_svd(ps.points))


class TestHausdorff:
    def test_equal_hulls_zero(self):
        a = np.vstack([np.eye(3), [[1 / 3, 1 / 3, 1 / 3]]])
        assert hausdorff(a, np.eye(3)) <= 1e-9

    def test_vertex_removed_closed_form(self):
        d = hausdorff(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert d == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_universal_bound_on_simplex(self):
        # any two hulls inside the simplex are at Hausdorff distance <= 2
        rng = np.random.default_rng(2)
        for _ in range(20):
            j = int(rng.integers(2, 6))
            a = sample(SamplerSpec("uniform", j, int(rng.integers(1 << 30))), 8)
            b = sample(SamplerSpec("uniform", j, int(rng.integers(1 << 30))), 8)
            assert hausdorff(a, b) <= 2.0

    def test_metric_properties(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            a = rng.random((int(rng.integers(2, 8)), d))
            b = rng.random((int(rng.integers(2, 8)), d))
            c = rng.random((int(rng.integers(2, 8)), d))
            dab, dba = hausdorff(a, b), hausdorff(b, a)
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab >= 0.0
            assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-9


class TestTowers:
    def test_hand_counts(self):
        assert count_towers(2) == 2  # two vertices below one edge
        assert count_towers(3) == 6  # 3 vertices x 2 incident edges

    def test_against_dfs_oracle(self):
        for j in range(2, 7):
            assert count_towers(j) == towers_by_dfs(j)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            count_towers(1)
        assert count_towers(7) == 5040  # no upper limit: c_constant holds at the J of growth runs

    def test_c_constants(self):
        assert c_constant(2) == pytest.approx(2 / 3, abs=1e-15)
        assert c_constant(3) == pytest.approx(0.1875, abs=1e-12)
        assert c_constant(4) == pytest.approx(towers_by_dfs(4) / (5**3 * 6), abs=1e-15)


class TestPCAProject:
    def test_full_rank_projection_is_isometry(self):
        rng = np.random.default_rng(0)
        data = rng.random((12, 3))
        res = pca_project(data, 3)
        x = data - data.mean(axis=0)
        orig = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        z = res.pointset.points
        proj = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
        np.testing.assert_allclose(proj, orig, atol=1e-9)

    def test_duplicated_rows_same_subspace(self):
        rng = np.random.default_rng(1)
        data = rng.random((8, 4))
        res1 = pca_project(data, 2)
        res2 = pca_project(np.vstack([data, data, data]), 2)
        np.testing.assert_allclose(res2.pointset.points, res1.pointset.points, atol=1e-9)

    def test_rank3_reconstruction(self):
        rng = np.random.default_rng(2)
        data = rng.random((30, 3)) @ rng.random((3, 8))
        res = pca_project(data, 3)
        assert res.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rank_deficient_error_names_attainable(self):
        rank2 = np.outer(np.arange(6.0), [1.0, 2.0, 3.0])
        rank2[:, 0] += np.arange(6.0) ** 2
        with pytest.raises(ValueError, match="attainable d = 2"):
            pca_project(rank2, 3)
        # Rows on the J=4 simplex hyperplane: rounding noise normal to it is
        # not a fourth direction, whatever the spread within it.
        rng = np.random.default_rng(5)
        for spread in (1e-2, 1e-4, 1e-6):
            plane = np.array([0.4, 0.3, 0.2, 0.1]) + spread * (rng.dirichlet(np.ones(4), size=12) - 0.25)
            plane /= plane.sum(axis=1, keepdims=True)
            assert _affine_coordinates(plane)[1] == 3
            with pytest.raises(ValueError, match="attainable d = 3"):
                pca_project(plane, 4)

    def test_dimension_bounds(self):
        data = np.random.default_rng(3).random((5, 4))
        with pytest.raises(ValueError):
            pca_project(data, 1)
        with pytest.raises(ValueError):
            pca_project(data, 5)

    def test_deterministic_sign(self):
        data = np.random.default_rng(4).random((10, 5))
        res = pca_project(data, 3)
        x = data - data.mean(axis=0)
        basis = fix_signs_by_rows(np.linalg.svd(x, full_matrices=False)[2][:3])
        for row in basis:
            assert row[int(np.argmax(np.abs(row)))] > 0
        np.testing.assert_allclose(res.pointset.points, x @ basis.T, atol=1e-12)

    def test_fix_signs_matches_row_loop(self):
        rng = np.random.default_rng(5)
        vt = np.vstack([
            rng.standard_normal((6, 4)),
            [[0.5, -0.5, 0.1, 0.0]],  # tie in |max|, the first positive
            [[-0.5, 0.5, 0.1, 0.0]],  # tie in |max|, the first negative
            [[0.2, -0.9, -0.0, 0.3]],  # negative maximum, a -0.0 entry
            [[0.0, -0.0, 0.0, 0.0]],  # zero row
            [[-0.0, -0.0, -0.0, -0.0]],
        ])
        for rows in (vt, vt[:0], vt[:, :1]):
            assert _fix_signs(rows).tobytes() == fix_signs_by_rows(rows).tobytes()
        assert not np.shares_memory(_fix_signs(vt), vt)
