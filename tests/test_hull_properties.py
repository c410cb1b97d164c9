"""Property tests of the extremality rule on generic clouds (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
