"""Property tests of the extremality rule on generic clouds (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import vertices_exact
from simplexmix.hull import EXTREME_TOL, PointSet, extremal_set


@st.composite
def clouds(draw):
    """A generic cloud: n uniform points in the unit cube of R^d."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d + 2, 60))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, d))


def orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@settings(max_examples=60, deadline=None)
@given(clouds(), st.integers(0, 2**32 - 1))
def test_extreme_points_invariant_under_permutation_rotation_translation(cloud, seed):
    rng = np.random.default_rng(seed)
    n, d = cloud.shape
    perm = rng.permutation(n)
    moved = cloud[perm] @ orthogonal(rng, d).T + rng.uniform(-10.0, 10.0, d)
    before = extremal_set(PointSet(cloud)).indices
    after = extremal_set(PointSet(moved)).indices
    np.testing.assert_array_equal(np.sort(perm[after]), before)


@settings(max_examples=60, deadline=None)
@given(clouds(), st.data())
def test_f0_unchanged_by_inserting_a_near_copy(cloud, data):
    # a copy within EXTREME_TOL / 2 of any row, inserted at any position
    n, d = cloud.shape
    source = data.draw(st.integers(0, n - 1), label="source")
    position = data.draw(st.integers(0, n), label="position")
    radius = data.draw(st.floats(0.0, 0.5), label="radius") * EXTREME_TOL
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    step = rng.standard_normal(d)
    twin = cloud[source] + radius * step / np.linalg.norm(step)
    grown = np.insert(cloud, position, twin, axis=0)
    assert extremal_set(PointSet(grown)).f0 == extremal_set(PointSet(cloud)).f0


@st.composite
def integer_clouds(draw):
    """d + 2 to 16 points of {0..3}^d, d = 3..5, repeats allowed."""
    d = draw(st.integers(3, 5))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=d + 2, max_size=16))
    return np.array(rows, dtype=np.float64)


@settings(max_examples=25, deadline=None)
@given(integer_clouds())
def test_extreme_points_match_exact_arithmetic(cloud):
    # on such clouds a vertex lies far more than EXTREME_TOL from the hull of
    # the others, so the tolerance rule's answer is the exact one
    ps = PointSet(cloud)
    np.testing.assert_array_equal(extremal_set(ps).indices, vertices_exact(ps.points))
