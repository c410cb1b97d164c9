"""Independent brute-force oracles the library code never touches."""

import dataclasses
import itertools

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from simplexmix.hull import _certified, _perpoint_keep, point_to_hull_distance


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


def monotone_chain_hull_vertices(points: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Vertices of a planar point cloud by Andrew's O(n log n) monotone chain.

    The points are swept in (x, y) order to build the lower chain and in
    reverse order to build the upper one; a chain drops its last point while
    that point fails to make a left turn by more than ``eps`` (orientation
    test only, no qhull).  Same general-position assumption as
    ``orientation_hull_vertices``.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if pts.shape[1] != 2:
        raise ValueError("planar oracle needs 2-D points")
    if n < 3:
        return np.arange(n)
    xy = pts.tolist()

    def cross(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = xy[o], xy[a], xy[b]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    def chain(order):
        out = []
        for k in order:
            while len(out) >= 2 and cross(out[-2], out[-1], k) <= eps:
                out.pop()
            out.append(k)
        return out

    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    vertices = set(chain(order)) | set(chain(order[::-1]))
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


def hull_distance_by_faces(p: np.ndarray, points: np.ndarray) -> float:
    """Distance from ``p`` to the convex hull of ``points`` by face enumeration.

    Every nonempty subset of the points is projected onto its affine hull by
    least squares on vertex differences (``lstsq`` on [v_1 - v_0, ...], never
    the Gram matrix).  A projection whose affine weights are all
    non-negative lies in the hull; the nearest such projection is the
    distance, since the min-norm point lies in the relative interior of the
    hull of some subset and is that subset's affine projection.
    Exponential in n: for n of about 10 or fewer.
    """
    p = np.asarray(p, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    best = np.inf
    for k in range(1, pts.shape[0] + 1):
        for subset in itertools.combinations(range(pts.shape[0]), k):
            v0 = pts[subset[0]]
            diffs = pts[list(subset[1:])] - v0
            c = np.linalg.lstsq(diffs.T, p - v0, rcond=None)[0]
            if c.min(initial=0.0) >= 0.0 and c.sum() <= 1.0:
                best = min(best, float(np.linalg.norm(p - v0 - diffs.T @ c)))
    return best


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between the convex hulls of two point sets.

    The distance from a point to a convex hull is convex in the point, so
    each directed distance is attained at a point of the set: the result is
    the largest NNLS distance from a point of either set to the other hull.
    """
    d_ab = max(point_to_hull_distance(p, b) for p in a)
    d_ba = max(point_to_hull_distance(q, a) for q in b)
    return max(d_ab, d_ba)


def barycentric_by_lstsq(p: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Weights of ``p`` over the rows of ``vertices`` by a direct solve.

    ``lstsq`` on the augmented system [vertices^T; 1^T] w = [p; 1], no
    nonnegativity constraint; rounding negatives are clipped to 0 and the
    result renormalized.  Unique on a frame (affinely independent rows).
    """
    a = np.vstack([vertices.T, np.ones(vertices.shape[0])])
    w = np.clip(np.linalg.lstsq(a, np.append(p, 1.0), rcond=None)[0], 0.0, None)
    return w / w.sum()


def dense_counts(x) -> np.ndarray:
    """The (n_docs, n_terms) float array of a DocTermMatrix's counts."""
    out = np.zeros((x.n_docs, x.n_terms))
    out[x.doc_ids, x.term_ids] = x.counts
    return out


def permute_terms(x, perm: np.ndarray):
    """``x`` with term ids relabelled by ``perm`` (new id = perm[old id]),
    triplet order kept."""
    return dataclasses.replace(x, term_ids=perm[x.term_ids])


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


def facet_normal_sums(hull, n: int) -> np.ndarray:
    """(n, r) sums of each point's incident facet normals by ``np.add.at``.

    The unbuffered scatter-add visits ``hull.simplices`` in row-major order
    and adds each facet's normal (``hull.equations`` without its offset) to
    every vertex of the facet, starting from zeros.
    """
    normal_sum = np.zeros((n, hull.equations.shape[1] - 1))
    np.add.at(normal_sum, hull.simplices, hull.equations[:, None, :-1])
    return normal_sum


def fix_signs_by_rows(vt: np.ndarray) -> np.ndarray:
    """Each row of ``vt`` negated when its first largest-magnitude entry is
    negative, one row at a time."""
    out = vt.copy()
    for row in out:
        k = int(np.argmax(np.abs(row)))
        if row[k] < 0:
            row *= -1.0
    return out


def extremal_set_by_svd(points: np.ndarray) -> np.ndarray:
    """Indices of ``extremal_set(method="auto")`` on the rows of a PointSet
    by the centred-SVD route alone, with no chart of the simplex plane.

    The rows are centred and projected onto the right singular vectors above
    the rank tolerance max(n, m) * eps * max(s_0, max|x|), signs fixed one
    row at a time.  Rank 1 keeps the two ends; up to r + 1 points, above
    rank 8 or when qhull fails, every point runs the NNLS distance test;
    otherwise qhull's vertices are certified (with no extra slack) or tested.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    y = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(y, full_matrices=False)
    r = int(np.sum(s > max(x.shape) * np.finfo(np.float64).eps * max(s[0], np.abs(x).max())))
    z = y @ fix_signs_by_rows(vt[:r]).T
    if r == 1:
        return np.unique([np.argmin(z[:, 0]), np.argmax(z[:, 0])])
    if n <= r + 1 or r > 8:
        return _perpoint_keep(z)
    try:
        hull = ConvexHull(z)
    except QhullError:
        return _perpoint_keep(z)
    cand = np.sort(hull.vertices.astype(np.int64))
    ok = _certified(z, hull, cand)
    return np.sort(np.concatenate([cand[ok], _perpoint_keep(z, cand[~ok])]))


def em_reference(x, l_comp: int, max_iters: int, seed: int, restart: int, rel_tol: float, smoothing: float):
    """One restart of admixture EM by explicit responsibilities, iterate by iterate.

    E-step: an (nnz, L) responsibility array proportional to
    phi[doc_e, l] * f[l, term_e].  M-step: phi and F rows are per-document and
    per-term ``np.bincount`` sums of the count-weighted responsibilities, plus
    ``smoothing``, renormalized.  The log-likelihood of every iterate is a
    separate gather.  Starts from the same Dirichlet(1) responsibilities as
    ``em_fit`` (child seed ``(seed, restart)``), stops on a relative gain of at
    most ``rel_tol`` or after ``max_iters`` steps, and on a float decrease
    keeps the previous iterate.  Returns (phi, f, trace).
    """
    from simplexmix.simplex import child_seed

    def m_step(resp):
        weighted = resp * x.counts[:, None]
        phi = np.zeros((x.n_docs, l_comp))
        f = np.zeros((l_comp, x.n_terms))
        for l in range(l_comp):
            phi[:, l] = np.bincount(x.doc_ids, weights=weighted[:, l], minlength=x.n_docs)
            f[l] = np.bincount(x.term_ids, weights=weighted[:, l], minlength=x.n_terms)
        phi += smoothing
        f += smoothing
        return phi / phi.sum(axis=1, keepdims=True), f / f.sum(axis=1, keepdims=True)

    def loglik(phi, f):
        pi = np.einsum("el,el->e", phi[x.doc_ids], f[:, x.term_ids].T)
        return float(x.counts @ np.log(pi))

    rng = np.random.default_rng(child_seed(seed, restart))
    resp = rng.standard_exponential(size=(x.nnz, l_comp))
    phi, f = m_step(resp / resp.sum(axis=1, keepdims=True))
    trace = [loglik(phi, f)]
    for _ in range(max_iters):
        numer = phi[x.doc_ids] * f[:, x.term_ids].T
        new_phi, new_f = m_step(numer / numer.sum(axis=1, keepdims=True))
        ll = loglik(new_phi, new_f)
        if ll < trace[-1]:
            break
        phi, f = new_phi, new_f
        trace.append(ll)
        if abs(trace[-1] - trace[-2]) <= rel_tol * abs(trace[-2]):
            break
    return phi, f, np.asarray(trace)


def em_row_major(x, l_comp: int, max_iters: int, restarts: int, seed: int, rel_tol: float, smoothing: float):
    """Admixture EM with Phi held as (docs, L) rows: the layout ``em_fit`` had
    before it switched to one component at a time.

    Each pi_e gathers the rows phi[doc_e] and f.T[term_e] into (nnz, L)
    arrays, multiplies them, and adds the L columns left to right.  R @ F.T
    and R.T @ Phi are products of a document-major CSR matrix with dense
    (·, L) arrays.  Same start, stopping rules, tie-break and log-likelihood
    sum (``np.einsum``) as ``em_fit``.
    Returns the best restart as (phi, f, loglik_trace, stop, restart).
    """
    from scipy.sparse import csr_matrix

    from simplexmix.simplex import child_seed

    def row_sums(a):
        total = a[:, 0].copy()
        for l in range(1, a.shape[1]):
            total += a[:, l]
        return total

    def smoothed(phi, f):
        phi += smoothing
        f += smoothing
        phi /= row_sums(phi)[:, None]
        f /= f.sum(axis=1, keepdims=True)
        return phi, f

    order = np.argsort(x.doc_ids, kind="stable")
    doc, term = x.doc_ids[order], x.term_ids[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(doc, minlength=x.n_docs))))
    counts = csr_matrix((x.counts[order].astype(np.float64), term, indptr), shape=(x.n_docs, x.n_terms))
    best = None
    for restart in range(restarts):
        rng = np.random.default_rng(child_seed(seed, restart))
        resp = rng.standard_exponential(size=(x.nnz, l_comp))
        resp /= row_sums(resp)[:, None]
        weighted = resp * x.counts[:, None]
        phi = np.zeros((x.n_docs, l_comp))
        f = np.zeros((l_comp, x.n_terms))
        for l in range(l_comp):
            phi[:, l] = np.bincount(x.doc_ids, weights=weighted[:, l], minlength=x.n_docs)
            f[l] = np.bincount(x.term_ids, weights=weighted[:, l], minlength=x.n_terms)
        phi, f = smoothed(phi, f)
        ratio = csr_matrix((np.empty(x.nnz), counts.indices, counts.indptr), shape=counts.shape)
        trace, previous = [], None
        while True:
            pi = row_sums(np.take(phi, doc, axis=0) * np.take(f.T, term, axis=0))
            ll = float(np.einsum("i,i->", counts.data, np.log(pi))) if pi.min() > 0.0 else -np.inf
            if trace and ll < trace[-1]:
                phi, f = previous
                stop = "plateau"
                break
            trace.append(ll)
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= rel_tol * abs(trace[-2]):
                stop = "converged"
                break
            if len(trace) > max_iters:
                stop = "max_iters"
                break
            np.divide(counts.data, pi, out=ratio.data)
            previous = phi, f
            phi, f = smoothed(phi * (ratio @ f.T), f * (ratio.T @ phi).T)
        if best is None or trace[-1] > best[2][-1]:
            best = (phi, f, np.asarray(trace), stop, restart)
    return best


def docword_by_lines(raw: bytes):
    """The UCI docword layout parsed one line at a time with ``int``.

    Blank lines are skipped; three header lines D, W, NNZ precede NNZ
    "doc term count" lines with 1-indexed ids.  Each line is checked in file
    order (token count, integers, doc range, term range, positive count), and
    a repeated (doc, term) pair adds its count to the pair's total.  Returns
    (D, W, doc_ids, term_ids, counts), 0-indexed, in (doc, term) order.
    """
    lines = [ln for ln in raw.decode("utf-8").splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError("malformed header: expected three lines D, W, NNZ")
    try:
        n_docs, n_terms, nnz = (int(lines[i].strip()) for i in range(3))
    except ValueError as exc:
        raise ValueError(f"malformed header: {exc}") from None
    body = lines[3:]
    if len(body) != nnz:
        raise ValueError(f"header declares NNZ={nnz} but body has {len(body)} entries")
    totals: dict[tuple[int, int], int] = {}
    for ln in body:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed triplet line: {ln!r}")
        d, w, c = (int(x) for x in parts)
        if not 1 <= d <= n_docs:
            raise ValueError(f"document id {d} out of range 1..{n_docs}")
        if not 1 <= w <= n_terms:
            raise ValueError(f"term id {w} out of range 1..{n_terms}")
        if c < 1:
            raise ValueError(f"count must be positive, got {c} on line {ln!r}")
        totals[d - 1, w - 1] = totals.get((d - 1, w - 1), 0) + c
    pairs = sorted(totals)
    doc_ids, term_ids = [d for d, _ in pairs], [w for _, w in pairs]
    return n_docs, n_terms, np.asarray(doc_ids), np.asarray(term_ids), np.asarray([totals[p] for p in pairs])


def savetxt_17g(a: np.ndarray) -> bytes:
    """The bytes of ``np.savetxt(path, a, delimiter=",", fmt="%.17g")`` for a
    2-D array, formatted by CPython's ``%`` in one pass."""
    n, m = a.shape
    return (((",".join(["%.17g"] * m) + "\n") * n) % tuple(a.ravel().tolist())).encode()
