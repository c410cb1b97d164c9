"""Independent brute-force oracles the library code never touches."""

import numpy as np
from scipy.spatial import cKDTree


def orientation_hull_vertices(points: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Vertices of a planar point cloud by the O(n^3) pair-edge orientation test.

    An unordered pair {i, j} is a hull edge iff every other point lies
    strictly on one side of the line through them; hull vertices are the
    endpoints of hull edges.  Assumes points in general position (no
    duplicates, no collinear triples), which holds a.s. for the continuous
    clouds the tests feed it.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if pts.shape[1] != 2:
        raise ValueError("planar oracle needs 2-D points")
    if n < 3:
        return np.arange(n)
    vertices = set()
    for i in range(n):
        di = pts - pts[i]
        # cross[j, k] = (p_j - p_i) x (p_k - p_i); rows with all k on one side
        # (k = i and k = j contribute zeros) mark hull edges (i, j).
        cross = np.outer(di[:, 0], di[:, 1]) - np.outer(di[:, 1], di[:, 0])
        pos = (cross > eps).sum(axis=1)
        neg = (cross < -eps).sum(axis=1)
        edges = np.flatnonzero((pos == n - 2) | (neg == n - 2))
        if edges.size:
            vertices.add(i)
            vertices.update(int(j) for j in edges)
    return np.asarray(sorted(vertices), dtype=np.int64)


def towers_by_dfs(j_vertices: int) -> int:
    """Count maximal face chains of a simplex by explicit depth-first search.

    Faces are nonempty vertex subsets; a chain grows one dimension at a time
    from a single vertex to the full set.  Pure recursion, no memoization,
    structurally independent of the library's lattice DP.
    """

    def extend(face: frozenset) -> int:
        if len(face) == j_vertices:
            return 1
        return sum(extend(face | {v}) for v in range(j_vertices) if v not in face)

    return sum(extend(frozenset([v])) for v in range(j_vertices))


def dense_log_likelihood(dense_counts: np.ndarray, phi: np.ndarray, f: np.ndarray) -> float:
    """Admixture log-likelihood recomputed densely (no sparse bookkeeping)."""
    pi = phi @ f
    mask = dense_counts > 0
    return float(np.sum(dense_counts[mask] * np.log(pi[mask])))


def dedup_by_pairs(points: np.ndarray, tol: float) -> np.ndarray:
    """Rows kept by the pair-greedy near-duplicate rule, without any screen.

    Every pair within ``tol`` (``cKDTree.query_pairs``) is visited in
    lexicographic order, and the later point of a pair is dropped unless one
    of the two is already gone.  Keeps first occurrences, order preserved.
    """
    pts = np.asarray(points, dtype=np.float64)
    drop = np.zeros(pts.shape[0], dtype=bool)
    for i, j in sorted(cKDTree(pts).query_pairs(r=tol)):
        if not drop[i] and not drop[j]:
            drop[j] = True
    return pts[~drop]
