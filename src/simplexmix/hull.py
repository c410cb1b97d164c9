"""Convex-hull extremal sets, tower counts, PCA projection.

The workhorse is the distance from a point to the convex hull of a finite
point set, computed exactly by one non-negative least-squares solve (scipy's
``nnls``, Lawson-Hanson active set) over the hull's weight simplex.
``EXTREME_TOL`` is the module's one tolerance, and a point is extreme iff its
distance to the hull of all other points exceeds it.  This works in any
moderate dimension without facet enumeration.  ``PointSet`` merges points
within the same tolerance.

Extremal-set counting is certificate-first.  A qhull pass on isometric
coordinates of the points' affine hull (rank-reduced, from a centred SVD)
shortlists candidates; each candidate then gets a separating direction (the
normalized sum of its incident facet normals) whose margin over all other
points is a lower bound on its distance to their hull.  A margin above the
tolerance proves the candidate extreme in one vectorized pass; only the
candidates it cannot settle run the distance test, against all other points
(``_perpoint_keep``).  That test is the one confirmation step of each route:
the per-point route makes every point a candidate and certifies none, and
``is_extreme`` runs it on one point.  qhull runs without pre-merging, and
once more with it when that raises a precision error (``_shortlist``);
either run only proposes candidates.

Clouds on the simplex hyperplane sum(x) = 1 need no factorization to find
those coordinates: the plane is known before any point is drawn.  For rows x
on it with first J - 1 coordinates y, |x - x'|^2 = (y - y')(I + 11^T)(y -
y')^T, so z = y L, with L the fixed lower Cholesky factor of I + 11^T, is an
isometric chart of the plane (``_chart``).  A row whose sum is 1 + e lies
|e| from the point of the plane that its chart coordinates stand for, so
chart distances differ from raw-row distances by at most twice the largest
|e|, and the certificate's slack carries that term.  A cloud on a face or an
edge of the simplex is flat in the chart; qhull rejects it, and the
rank-reduced coordinates take over.

scipy's ``spatial`` (qhull) and ``optimize`` (``nnls``) take tenths of a
second to import, so each is imported inside the function that calls it and
loaded at that function's first call; importing this module loads numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EXTREME_TOL",
    "PointSet",
    "ExtremalSet",
    "PCAResult",
    "point_to_hull_distance",
    "is_extreme",
    "extremal_set",
    "count_towers",
    "c_constant",
    "pca_project",
]

# The one extremality tolerance: a point is extreme iff its distance to the
# hull of all other points exceeds it.  PointSet merges points this close, so
# near-duplicates of a vertex count once instead of ruling each other out.
EXTREME_TOL = 1e-7

_EPS = float(np.finfo(np.float64).eps)

# extremal_set falls back to per-point distance tests above this rank.
_QHULL_MAX_DIM = 8

# Lower Cholesky factor of I + 11^T at the largest chart dimension; the
# factor at a smaller dimension is its leading block.
_CHART = np.linalg.cholesky(np.eye(_QHULL_MAX_DIM) + 1.0)

# Entries per block of the certificate's candidates-by-points margin
# product, so its memory stays small whatever the cloud size.
_MARGIN_BLOCK = 1 << 16


@dataclass(frozen=True)
class PointSet:
    """Immutable set of points in R^d, deduplicated at ``EXTREME_TOL``: a
    point that close to an earlier kept point is dropped (``_dedup``)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a nonempty (n, d) array, got shape {pts.shape}")
        scale = float(np.abs(pts).max())
        if not math.isfinite(scale):
            raise ValueError("points contain non-finite values")
        pts = _dedup(pts, EXTREME_TOL, scale)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@functools.cache
def _direction(d: int) -> np.ndarray:
    """The fixed unit direction ``_dedup`` projects rows of width ``d`` on,
    built once per width and read-only."""
    w = np.cos(np.arange(1.0, d + 1.0))
    w /= np.linalg.norm(w)
    w.setflags(write=False)
    return w


def _dedup(pts: np.ndarray, tol: float, scale: float) -> np.ndarray:
    """Drop near-duplicate rows, keeping the first occurrence, order preserved.
    ``scale`` is max|x| over the rows, which sets the window's rounding term.

    Kept-row rule: a row is dropped exactly when an earlier kept row lies
    within ``tol`` of it (an exact copy of a kept row is one such row).  Rows
    are sorted by their projection onto a fixed unit direction
    (``_direction``, not parallel to all-ones, on which simplex clouds are
    flat); a pair within ``tol`` projects within the window ``width``.  In
    sorted order a pair's projected difference is at least each adjacent gap
    between them, so every one of those gaps is a near gap (within the
    window).  There are three exits:

    - gap screen: no near gap, so no pair is within ``tol`` and there is no
      exact copy.  The rows come back unchanged, as a C-ordered copy, after
      one sort of the projected values and one gap scan; only past the
      screen does an argsort find which rows sit at the near gaps.
    - isolated pairs: no two near gaps are adjacent.  A pair at sorted
      positions a < b makes gaps a, ..., b - 1 all near; if b > a + 1, gaps
      a and a + 1 are near and adjacent.  So b = a + 1, and only the two
      rows at a near gap can pair.  When none of these pairs is within
      ``tol`` by the pass's own distance test, the rows come back unchanged
      as above.
    - greedy pass: otherwise only the rows at a near gap (the sweep region)
      can pair.  The pass visits them in row order and skips a row already
      dropped.  Each row it visits is kept, and drops every later row within
      ``tol`` of it among those projecting within its window, found by two
      binary searches in the sorted projections.

    Of uniform clouds, the three exits took 81.2 / 18.8 / 0.0% at J=3,
    n=1000 (4000 clouds); 4.2 / 95.8 / 0.0% at J=5, n=3162 (600); and
    0.0 / 88.7 / 11.3% at J=5, n=10**4 (300).

    The pass costs one Python step per kept row of the sweep region, and a
    dropped row costs only its skip, so a cluster of m copies costs one step
    for its first row and one distance test per copy.  Its worst case is a
    chain of rows 1.5 * tol apart along the projection direction: every
    gap is near and every row is kept, so every row takes a step.  Such a
    chain of 10**4 rows at J=3 took 62 ms on a 2-vCPU Xeon VM, against
    6 ms for a J=3 Dirichlet(0.001) cloud of 10**4 rows; the cost stays
    linear in n while each window holds a few rows.  No CLI sampler draws
    such a chain.
    """
    n, d = pts.shape
    proj = pts @ _direction(d)
    s = np.sort(proj)
    # For the unit direction w, |w.(x - y)| <= |x - y|, so a pair within tol
    # projects within tol plus the projections' rounding, at most
    # 2 * d**1.5 * eps * max|x|: the window's second tol covers it on
    # unit-scale clouds, the last term on larger ones.
    width = 2.0 * tol + 4.0 * d * d * _EPS * scale
    near = np.flatnonzero(np.diff(s) <= width)
    if not near.size:
        return pts.copy()
    order = np.argsort(proj)
    if not (np.diff(near) == 1).any():
        i, j = order[near], order[near + 1]
        if not (((pts[i] - pts[j]) ** 2).sum(axis=1) <= tol * tol).any():
            return pts.copy()
    pos = np.union1d(near, near + 1)
    order, s = order[pos], s[pos]
    lo = np.searchsorted(s, s - width)
    hi = np.searchsorted(s, s + width, side="right")
    drop = np.zeros(n, dtype=bool)
    # Rows in row order: rows before i set drop[i] before its step, so a row
    # visited and not dropped is kept, and drops the later rows near it.
    for a in np.argsort(order).tolist():
        i = order[a]
        if drop[i]:
            continue
        later = order[lo[a]:hi[a]]
        later = later[later > i]
        drop[later[((pts[later] - pts[i]) ** 2).sum(axis=1) <= tol * tol]] = True
    return pts[~drop]


@dataclass(frozen=True)
class ExtremalSet:
    """Sorted indices of the extreme points of a PointSet."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        idx = np.sort(idx)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def f0(self) -> int:
        return int(self.indices.size)


def _as_points(ps) -> np.ndarray:
    if isinstance(ps, PointSet):
        return ps.points
    pts = np.asarray(ps, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected a (n, d) array or PointSet, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite values in points")
    return pts


def _hull_distance(p: np.ndarray, pts: np.ndarray) -> tuple[float, np.ndarray]:
    """Distance from ``p`` to Conv(rows of ``pts``) by one NNLS solve, and
    the weights ``lam`` over the rows of the nearest hull point.

    With Y = pts - p, u = argmin_{u >= 0} |Y^T u|^2 + (sum(u) - 1)^2.  For
    s = sum(u) and D = |Y^T u / s| the objective is s^2 D^2 + (s - 1)^2, whose
    minimum over s, D^2 / (1 + D^2), increases with D; so lam = u / s is the
    min-norm weight vector on the simplex.  The distance is read off lam, not
    off the residual, so it is the norm of a point of the hull: an upper bound
    that is exact up to rounding.  When ``p`` is one of the rows, lam is that
    row's unit vector and no solve runs.  ``pts`` must have at least one row.
    """
    from scipy.optimize import nnls  # loaded at the first solve, see the module docstring

    y = pts - p
    hit = ~y.any(axis=1)
    if hit.any():
        lam = np.zeros(y.shape[0])
        lam[hit.argmax()] = 1.0
        return 0.0, lam
    a = np.vstack([y.T, np.ones(y.shape[0])])
    b = np.zeros(a.shape[0])
    b[-1] = 1.0
    u, _ = nnls(a, b)
    lam = u / u.sum()
    return float(np.linalg.norm(y.T @ lam)), lam


def point_to_hull_distance(p, ps) -> float:
    """Euclidean distance from ``p`` to the convex hull of ``ps``.

    ``ps`` may be a PointSet or an (n, d) array.  Returns 0 (to within solver
    precision, well below 1e-9) for any convex combination of the points.
    Raises ``ValueError`` on an empty set or a non-finite coordinate, and
    ``RuntimeError`` if the NNLS solver reaches its iteration cap.
    """
    pts = _as_points(ps)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.size != pts.shape[1]:
        raise ValueError(f"dimension mismatch: point has {p.size}, set has {pts.shape[1]}")
    if not np.isfinite(p).all():
        raise ValueError("non-finite values in point")
    return _hull_distance(p, pts)[0]


def is_extreme(i: int, ps) -> bool:
    """True iff point ``i`` is farther than ``EXTREME_TOL`` from the hull of
    the rest.

    The rule applies to the rows as given: a raw array is not merged, so a
    row with a copy elsewhere is not extreme (``is_extreme(0, np.zeros((2,
    2)))`` is False).  ``extremal_set`` applies it to the merged
    ``PointSet``, which keeps one of the copies (there, ``[0]``); pass a
    ``PointSet`` to get the same answer here.

    The test runs in affine coordinates, as ``method="perpoint"`` does: raw
    rows on a flat (the simplex hyperplane) make the NNLS matrix
    rank-deficient and the solve several times slower.
    """
    pts = _as_points(ps)
    n = pts.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"point index {i} out of range for {n} points")
    if n == 1:
        return True  # no other point can be within EXTREME_TOL of it
    return _perpoint_keep(_affine_coordinates(pts)[0], [i]).size == 1


def _centered_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Centered rows ``y``, their singular values and right vectors, and the
    affine rank at tolerance max(n, m) * eps * max(s_0, max|x|).

    Points on a flat (the simplex hyperplane) carry rounding noise relative
    to their coordinates, not to their possibly tiny spread, so s_0 alone
    would count that noise as a direction.
    """
    y = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(y, full_matrices=False)
    scale = max(float(s[0]), float(np.abs(x).max()))
    rank = int(np.sum(s > max(x.shape) * _EPS * scale))
    return y, s, vt, rank


def _affine_coordinates(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """Isometric coordinates of ``pts`` inside their affine hull.

    Returns (Z, r) where r is the affine rank (``_centered_svd``) and Z is
    (n, r) with all pairwise distances preserved (points in a flat, e.g. the
    simplex hyperplane, become full-dimensional).  Deterministic sign
    convention.
    """
    y, _, vt, r = _centered_svd(pts)
    return y @ _fix_signs(vt[:r]).T, r


def _fix_signs(vt: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each row positive (the first such
    entry on ties); a row whose picked entry is not negative is unchanged."""
    picked = vt[np.arange(vt.shape[0]), np.abs(vt).argmax(axis=1)]
    return np.negative(vt, out=vt.copy(), where=(picked < 0)[:, None])


def _chart(pts: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Isometric coordinates of rows on the simplex hyperplane, without a
    factorization: ``(pts[:, :-1] @ L, 2 * max|sum(x) - 1|)``, with L the
    lower Cholesky factor of I + 11^T.  None unless every row sums to 1
    within 4 * J * eps and 3 <= J <= 9, the dimensions qhull shortlists in.
    The second value bounds how far a chart distance is from the raw-row
    distance, up to rounding.
    """
    d = pts.shape[1]
    if not 3 <= d <= _QHULL_MAX_DIM + 1:
        return None
    off = float(np.abs(pts @ np.ones(d) - 1.0).max())
    if off > 4 * d * _EPS:
        return None
    return pts[:, :-1] @ _CHART[: d - 1, : d - 1], 2.0 * off


def _perpoint_keep(z: np.ndarray, rows) -> np.ndarray:
    """The listed rows of ``z`` farther than ``EXTREME_TOL`` from the hull of
    its other rows by the NNLS distance: the one confirmation step."""
    keep = [int(i) for i in rows if _hull_distance(z[i], np.delete(z, i, axis=0))[0] > EXTREME_TOL]
    return np.asarray(keep, dtype=np.int64)


def _normal_sums(hull, rows: np.ndarray) -> np.ndarray:
    """(len(rows), r) sums of the unit outward normals of the facets at each
    vertex listed in ``rows`` of ``hull``, whose ``simplices`` and
    ``equations`` are qhull's triangulated facets (``_qhull``, or a
    ``scipy.spatial.ConvexHull``).

    One ``np.bincount`` per coordinate over the facets' vertex lists.  It adds
    each facet's normal in facet order from 0.0, as an unbuffered
    ``np.add.at`` over ``hull.simplices`` does, so the sums are bit-identical
    to that form, at a fraction of its cost once there are many facets.
    """
    vertex = hull.simplices.ravel()
    normals = np.repeat(hull.equations[:, :-1].T, hull.simplices.shape[1], axis=1)
    return np.stack([np.bincount(vertex, weights=normal)[rows] for normal in normals], axis=1)


def _certified(z: np.ndarray, hull, cand: np.ndarray, err: float = 0.0) -> np.ndarray:
    """Mask over ``cand``: True where a separating direction proves the
    candidate farther than ``EXTREME_TOL`` from the hull of all other rows of
    ``z``, whose triangulated facets ``hull`` holds (``_normal_sums``), and
    from the hull of the rows ``z`` stands for when its distances are off by
    up to ``err``.

    Candidate a gets u_a, the normalized sum of the unit normals of its
    incident facets.  Every y in the hull of the other rows has u_a.y <=
    max_b u_a.z_b, so |z_a - y| >= u_a.(z_a - y) >= margin_a = u_a.z_a -
    max_b u_a.z_b: the margin is a lower bound on the distance, while
    ``_hull_distance`` returns the norm of a point of that hull, an upper
    bound.  A margin above ``EXTREME_TOL`` therefore implies the distance
    test's verdict "extreme".  A zero u_a gives NaN margins, which are never
    certified.
    """
    n, r = z.shape
    u = _normal_sums(hull, cand)
    with np.errstate(invalid="ignore", divide="ignore"):
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    zt = np.ascontiguousarray(z.T)
    margin = np.empty(len(cand))
    step = max(1, _MARGIN_BLOCK // n)
    for lo in range(0, len(cand), step):
        g = u[lo : lo + step] @ zt
        rows, own = np.arange(g.shape[0]), cand[lo : lo + step]
        margin[lo : lo + step] = g[rows, own]
        g[rows, own] = -np.inf
        margin[lo : lo + step] -= g.max(axis=1)
    # Rounding moves a margin by about 2*r*eps*max|z|, ~1e-15 on the
    # unit-scale clouds of the simplex and eight orders below EXTREME_TOL =
    # 1e-7, and the NNLS distance's returned norm by about as much.  The
    # slack covers both, so a certified candidate is one the distance test
    # would also keep; ``err`` adds the coordinates' own distance error.
    slack = 8 * (r + 1) * _EPS * float(np.abs(z).max()) + err
    return margin > EXTREME_TOL + slack


class _Hull(NamedTuple):
    """qhull's triangulated hull: its vertices, sorted, and its facets'
    vertex lists and normalized outward equations."""

    vertices: np.ndarray
    simplices: np.ndarray
    equations: np.ndarray


def _qhull(z: np.ndarray, options: str | None) -> _Hull:
    """The hull of the rows of ``z`` as ``scipy.spatial.ConvexHull(z,
    qhull_options=options)`` builds it, with the same ``simplices`` and
    ``equations``, and ``vertices`` sorted; raises ``QhullError`` where it
    does.  ``None`` means scipy's default options, ``Qx`` at d >= 5.

    It runs scipy's private ``_Qhull`` directly because ``ConvexHull`` also
    computes what no caller reads: the bounding box (two numpy reductions
    over the points), the volume and area, and the 2-D vertex walk.
    ``tests/test_hull.py`` pins this call against ``ConvexHull``.
    """
    from scipy.spatial._qhull import _Qhull

    if options is None:
        options = "Qx" if z.shape[1] >= 5 else ""
    qhull = _Qhull(b"i", z, options.encode("latin1"), required_options=b"Qt")
    try:
        qhull.triangulate()
        simplices, _, equations, _, _ = qhull.get_simplex_facet_array()
    finally:
        qhull.close()
    return _Hull(np.unique(simplices).astype(np.int64), simplices, equations)


def _shortlist(z: np.ndarray, err: float) -> tuple[np.ndarray, np.ndarray] | None:
    """qhull's vertices of ``z`` and the mask over them that ``_certified``
    proves extreme, or None when qhull fails.  ``err`` bounds how far the
    distances in ``z`` are from those between the rows it stands for.

    qhull first runs without pre-merging (option ``Q0``): on clouds in
    general position pre-merging only costs time.  Without it qhull stops
    with a precision error on some clouds, skewed or small-alpha Dirichlet
    ones among them; it then runs once more with its default merging, and
    "qhull fails" means that both runs raised.
    """
    from scipy.spatial import QhullError

    for options in ("Q0", None):
        try:
            hull = _qhull(z, options)
            break
        except QhullError:
            pass
    else:
        return None
    return hull.vertices, _certified(z, hull, hull.vertices, err)


def extremal_set(ps, method: str = "auto") -> ExtremalSet:
    """Indices of the points of ``ps`` farther than ``EXTREME_TOL`` from the
    hull of all its other points: ``is_extreme`` on every point of the
    merged ``PointSet``.  A raw array is merged first, so its copies of a
    row count once, where ``is_extreme`` on the raw rows finds none of them
    extreme; the indices are those of the merged points.

    Every route but rank 1 ends in one confirmation step: of its candidates,
    those not certified run the NNLS distance test against all other points.
    method="auto" takes qhull's vertices on isometric coordinates (the other
    points lie inside the hull up to qhull's rounding) and certifies each
    whose separating-direction margin over all other points exceeds the
    tolerance (``_certified``).  When every row sums to 1 within 4 * J * eps,
    3 <= J <= 9 and n > J, the coordinates are the fixed chart of the simplex
    hyperplane (``_chart``), and the certificate's slack grows by twice the
    rows' largest distance from the plane.  Otherwise, or when qhull rejects
    the chart (a cloud on a face or an edge of the simplex), they are the
    rank-reduced coordinates of a centred SVD.  On the per-point route every
    point is a candidate and none is certified: "perpoint" takes it (any
    dimension, slower), and "auto" does for affinely independent points,
    above rank 8, and when qhull fails on coordinates of full rank, the
    chart's included.  On collinear points the two ends are extreme:
    ``PointSet`` keeps no two points within the tolerance, and a lone point
    is extreme, as no other point is within it.  Points that ``PointSet``
    keeps apart but whose spread is below the rank's rounding
    (``_centered_svd``: ~4e-6 at coordinates near 1e10) raise.  qhull
    rejects or fails on coordinates when both its run without pre-merging
    and its merged retry raise (``_shortlist``).
    """
    if method not in ("auto", "perpoint"):
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(ps, PointSet):
        ps = PointSet(ps)
    pts = ps.points
    n, d = pts.shape
    if n == 1:
        return ExtremalSet(np.zeros(1, dtype=np.int64))
    chart = _chart(pts) if method == "auto" and n > d else None
    found = None if chart is None else _shortlist(*chart)
    if found is not None:
        z = chart[0]
    else:
        z, r = _affine_coordinates(pts)
        if r == 0:
            raise ValueError("degenerate input: all points identical up to rounding")
        if r == 1:
            coord = z[:, 0]
            return ExtremalSet(np.unique([int(np.argmin(coord)), int(np.argmax(coord))]))
        # qhull does not run again at the rank where it failed on the chart
        if method == "auto" and n > r + 1 and r <= _QHULL_MAX_DIM and (chart is None or r != d - 1):
            found = _shortlist(z, 0.0)
    cand, ok = (np.arange(n), np.zeros(n, dtype=bool)) if found is None else found
    return ExtremalSet(np.concatenate([cand[ok], _perpoint_keep(z, cand[~ok])]))


def count_towers(J: int) -> int:
    """Count towers of the (J-1)-simplex.

    A face is a nonempty vertex subset; a tower is a maximal chain of faces,
    one per dimension 0..J-1.  Each tower adds the vertices one at a time, so
    towers are the J! vertex orderings.
    """
    if J < 2:
        raise ValueError(f"J must be >= 2, got {J}")
    return math.factorial(J)


def c_constant(J: int) -> float:
    """Growth constant T(simplex) / ((J+1)^(J-1) (J-1)!)."""
    return count_towers(J) / ((J + 1) ** (J - 1) * math.factorial(J - 1))


@dataclass(frozen=True)
class PCAResult:
    """Centered SVD projection with explained-variance bookkeeping.

    ``pointset`` holds the projected rows, deduplicated: the geometric object
    fed to hull routines.
    """

    pointset: PointSet
    explained_variance_ratio: np.ndarray


def pca_project(data, d: int) -> PCAResult:
    """Project rows of ``data`` onto their top-``d`` principal directions.

    Rows are centered by the column mean and projected onto the top-d right
    singular directions (deterministic sign: the largest-magnitude entry of
    each direction is positive).  Raises if the data rank is below ``d``,
    naming the attainable dimension.  The rank is the affine rank that
    ``extremal_set`` uses, at tolerance max(n, m) * eps * max(s_0, max|x|):
    the max|x| term keeps rounding noise normal to a flat, such as the
    simplex hyperplane, from counting as a direction when the rows' spread
    is small next to their coordinates.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("data contain non-finite values")
    n, m = x.shape
    if d < 2:
        raise ValueError(f"target dimension must be >= 2, got {d}")
    if d > min(n - 1, m):
        raise ValueError(f"target dimension {d} exceeds min(rows-1, columns) = {min(n - 1, m)}")
    y, s, vt, rank = _centered_svd(x)
    if rank < d:
        raise ValueError(f"data rank {rank} is below target dimension {d}; attainable d = {rank}")
    total = float((s**2).sum())
    ratio = (s[:d] ** 2) / total if total > 0 else np.zeros(d)
    return PCAResult(pointset=PointSet(y @ _fix_signs(vt[:d]).T), explained_variance_ratio=ratio)
