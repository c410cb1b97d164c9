"""Admixture (multinomial mixture) EM and the two-stage component pruning.

Documents are multinomial draws from per-document mixtures pi_i = phi_i @ F
of shared component rows F.  `em_fit` maximizes the multinomial likelihood by
EM over a sparse document-term matrix; `two_stage` fits with a generous
component budget, counts the extreme points of the fitted components in PCA
coordinates, and refits at that count, reporting everything along the way.

Log-likelihoods here omit the multinomial coefficient (a data constant,
irrelevant to the maximization and to likelihood differences).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .choquet import make_frame
from .hull import PointSet, _centered_svd, extremal_set, is_extreme, pca_project
from .hull import point_to_hull_distance  # noqa: F401  (a call site that perfbench/tracing.py wraps)
from .simplex import _integer, _map_indexed, _row_sums, child_seed

__all__ = [
    "DocTermMatrix",
    "AdmixtureModel",
    "RoundRecord",
    "PipelineReport",
    "load_docword",
    "drop_zero_terms",
    "log_likelihood",
    "em_fit",
    "identifiability_check",
    "two_stage",
    "synthetic_corpus",
]

_EM_SMOOTHING = 1e-10
# EM stops once one iteration raises the log-likelihood by at most this
# fraction of its magnitude.
_EM_REL_TOL = 1e-8


def _check_pair_key(n_docs, n_terms, what: str) -> None:
    """(doc, term) pairs are keyed as doc * n_terms + term in int64, so the
    key space D * W must stay below 2^63 or distinct pairs would collide."""
    if int(n_docs) * int(n_terms) >= 2**63:
        raise ValueError(f"{what}: D * W = {n_docs} * {n_terms} must be below 2^63")


@dataclass(frozen=True)
class DocTermMatrix:
    """Sparse counts as parallel triplet arrays, stable-sorted by document at
    construction: within a document the triplets keep the order given."""

    n_docs: int
    n_terms: int
    doc_ids: np.ndarray
    term_ids: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        doc = np.asarray(self.doc_ids, dtype=np.int64)
        term = np.asarray(self.term_ids, dtype=np.int64)
        cnt = np.asarray(self.counts, dtype=np.int64)
        if not (doc.shape == term.shape == cnt.shape) or doc.ndim != 1:
            raise ValueError("doc_ids, term_ids and counts must be 1-D arrays of equal length")
        for name in ("n_docs", "n_terms"):
            value = getattr(self, name)
            object.__setattr__(self, name, _integer(value, 0, math.inf, f"{name} must be an integer >= 0, got {value!r}"))
        _check_pair_key(self.n_docs, self.n_terms, "dimensions")
        if doc.size:
            if doc.min() < 0 or doc.max() >= self.n_docs:
                raise ValueError("document id out of range")
            if term.min() < 0 or term.max() >= self.n_terms:
                raise ValueError("term id out of range")
            if cnt.min() < 1:
                raise ValueError("counts must be positive integers")
            key = doc * self.n_terms + term
            if not _increasing(key) and not _increasing(np.sort(key)):
                raise ValueError("duplicate (doc, term) pairs; merge them before construction")
            if np.any(doc[1:] < doc[:-1]):
                order = np.argsort(doc, kind="stable")
                doc, term, cnt = doc[order], term[order], cnt[order]
        for arr in (doc, term, cnt):
            arr.setflags(write=False)
        object.__setattr__(self, "doc_ids", doc)
        object.__setattr__(self, "term_ids", term)
        object.__setattr__(self, "counts", cnt)

    @property
    def nnz(self) -> int:
        return int(self.counts.size)

    @property
    def total_tokens(self) -> int:
        return int(self.counts.sum())

    def doc_totals(self) -> np.ndarray:
        return np.bincount(self.doc_ids, weights=self.counts, minlength=self.n_docs).astype(np.int64)

    def term_totals(self) -> np.ndarray:
        return np.bincount(self.term_ids, weights=self.counts, minlength=self.n_terms).astype(np.int64)


def load_docword(source) -> DocTermMatrix:
    """Parse the UCI bag-of-words layout into a DocTermMatrix.

    ``source`` is a path (``str`` or path-like), the file's ``bytes``, or a
    file object whose ``read()`` returns ``bytes`` or ``str``.  The content
    is three header lines (D, W, NNZ) followed by NNZ lines "docID wordID
    count" with 1-indexed ids; blank lines (empty or whitespace only, as
    ``str.strip`` sees it) are skipped.  The lines may come in any order:
    unless the (doc, term) pairs strictly increase, as in UCI files, they
    come back sorted, each repeated pair's counts summed, so the line order
    changes nothing.  Ids come back 0-indexed.  Declared
    dimensions are kept even if some terms never occur.  The first
    malformed line is named when the body does not parse; out-of-range ids
    and non-positive counts are reported for the first line that has one.

    The body is parsed by one ``np.loadtxt`` over its lines, which skips
    the same blank lines; only when that fails, or finds other than NNZ
    rows of three, are the blank lines filtered out to name the error.
    """
    if hasattr(source, "read"):
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode()
    elif isinstance(source, bytes):
        raw = source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        raise TypeError(f"cannot read docword data from {type(source)!r}")
    lines = raw.decode("utf-8").splitlines()
    header, start = [], 0
    while len(header) < 3 and start < len(lines):
        if lines[start].strip():
            header.append(lines[start])
        start += 1
    if len(header) < 3:
        raise ValueError("malformed header: expected three lines D, W, NNZ")
    try:
        n_docs, n_terms, nnz = (int(line.strip()) for line in header)
    except ValueError as exc:
        raise ValueError(f"malformed header: {exc}") from None
    if n_docs < 0 or n_terms < 0 or nnz < 0:
        raise ValueError("malformed header: negative dimension")
    _check_pair_key(n_docs, n_terms, "header too large")
    body = lines[start:]
    table = None
    if nnz and any(map(str.strip, body)):  # loadtxt warns on a body with no data
        try:
            table = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
    if table is None or table.shape != (nnz, 3):
        # Parse the non-blank lines alone, to name what is wrong.
        body = list(filter(str.strip, body))
        if len(body) != nnz:
            raise ValueError(f"header declares NNZ={nnz} but body has {len(body)} entries")
        table = np.zeros((0, 3), dtype=np.int64)
        if body:
            try:
                table = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
            except ValueError as exc:
                raise _malformed_line(body, exc) from None
            if table.shape[1] != 3:  # every line has the same wrong token count
                raise ValueError(f"malformed triplet line: {body[0]!r}")
    doc, term, cnt = np.ascontiguousarray(table.T)
    bad = (doc < 1) | (doc > n_docs) | (term < 1) | (term > n_terms) | (cnt < 1)
    if bad.any():
        i = int(np.argmax(bad))
        d, w, c = (int(v) for v in table[i])
        if not 1 <= d <= n_docs:
            raise ValueError(f"document id {d} out of range 1..{n_docs}")
        if not 1 <= w <= n_terms:
            raise ValueError(f"term id {w} out of range 1..{n_terms}")
        line = list(filter(str.strip, body))[i]
        raise ValueError(f"count must be positive, got {c} on line {line!r}")
    doc, term = doc - 1, term - 1
    key = doc * n_terms + term
    if not _increasing(key):
        # Sort the pairs and sum each repeated pair's counts.
        key, inverse = np.unique(key, return_inverse=True)
        merged = np.zeros(key.size, dtype=np.int64)
        np.add.at(merged, inverse, cnt)
        (doc, term), cnt = np.divmod(key, n_terms), merged
    return DocTermMatrix(n_docs=n_docs, n_terms=n_terms, doc_ids=doc, term_ids=term, counts=cnt)


def _increasing(key: np.ndarray) -> bool:
    """Whether the keys strictly increase, so that none repeats."""
    return bool(np.all(key[1:] > key[:-1]))


def _malformed_line(body: list, exc: ValueError) -> ValueError:
    """The error for a docword body that ``np.loadtxt`` rejected: the first
    line without three tokens, else the first token ``int`` rejects."""
    for ln in body:
        parts = ln.split()
        if len(parts) != 3:
            return ValueError(f"malformed triplet line: {ln!r}")
        for token in parts:
            try:
                int(token)
            except ValueError as err:
                return err
    return ValueError(f"malformed triplet line: {exc}")


def drop_zero_terms(x: DocTermMatrix) -> tuple[DocTermMatrix, np.ndarray]:
    """Remove terms with zero total count; returns (matrix, kept original ids)."""
    totals = x.term_totals()
    kept = np.flatnonzero(totals > 0)
    if kept.size == x.n_terms:
        return x, kept
    remap = -np.ones(x.n_terms, dtype=np.int64)
    remap[kept] = np.arange(kept.size)
    return (
        DocTermMatrix(
            n_docs=x.n_docs,
            n_terms=int(kept.size),
            doc_ids=x.doc_ids,
            term_ids=remap[x.term_ids],
            counts=x.counts,
        ),
        kept,
    )


@dataclass(frozen=True)
class AdmixtureModel:
    """Fitted mixing weights Phi (docs x L), components F (L x terms), and fit info."""

    phi: np.ndarray
    f: np.ndarray
    loglik: float
    n_iters: int
    loglik_trace: np.ndarray
    restart: int
    smoothing: float
    stop: str  # why EM stopped: "converged", "plateau" or "max_iters"

    @property
    def n_components(self) -> int:
        return self.f.shape[0]


def _pi(phi_t: np.ndarray, f: np.ndarray, doc: np.ndarray, term: np.ndarray) -> np.ndarray:
    """pi_e = (phi @ F)[doc_e, term_e] from the (L, docs) rows of Phi.T, one
    component at a time: pi = phi_t[0][doc] * f[0][term], then
    pi += phi_t[l][doc] * f[l][term].  These are the products and adds of
    summing the (nnz, L) array phi[doc] * F.T[term] by ``_row_sums``, in the
    same order, so pi is the same to the bit; each step is a 1-D gather from
    one contiguous row.
    """
    pi = phi_t[0][doc] * f[0][term]
    for l in range(1, f.shape[0]):
        pi += phi_t[l][doc] * f[l][term]
    return pi


def log_likelihood(x: DocTermMatrix, phi: np.ndarray, f: np.ndarray) -> float:
    """sum_ij x_ij log((phi @ f)_ij), the parameter-dependent likelihood part,
    by ``_pi`` and ``_loglik`` as in ``em_fit``: it equals ``m.loglik`` for
    ``m = em_fit(x, ...)`` exactly."""
    return _loglik(x.counts, _pi(phi.T, f, x.doc_ids, x.term_ids))


def _loglik(counts: np.ndarray, pi: np.ndarray) -> float:
    """counts @ log(pi) by ``np.einsum``'s own loop, not BLAS ``ddot``, whose last
    bits change with the BLAS thread count; -inf unless every pi is positive."""
    return float(np.einsum("i,i->", counts, np.log(pi))) if np.min(pi, initial=math.inf) > 0.0 else -math.inf


def _smoothed(phi_t: np.ndarray, f: np.ndarray):
    """Add ``_EM_SMOOTHING`` against exact zeros and renormalize, in place,
    each document's column of the (L, docs) Phi.T and each row of F."""
    phi_t += _EM_SMOOTHING
    f += _EM_SMOOTHING
    phi_t /= _row_sums(phi_t.T)
    f /= f.sum(axis=1, keepdims=True)
    return phi_t, f


def _m_step(x: DocTermMatrix, resp_t: np.ndarray):
    """Normalized Phi.T (L, docs) and F from the (L, nnz) transpose of the
    responsibilities; starts each EM restart."""
    weighted = resp_t * x.counts
    phi_t = np.zeros((resp_t.shape[0], x.n_docs))
    f = np.zeros((resp_t.shape[0], x.n_terms))
    for l, w in enumerate(weighted):
        phi_t[l] = np.bincount(x.doc_ids, weights=w, minlength=x.n_docs)
        f[l] = np.bincount(x.term_ids, weights=w, minlength=x.n_terms)
    return _smoothed(phi_t, f)


def em_fit(
    x: DocTermMatrix,
    l_comp: int,
    max_iters: int = 500,
    restarts: int = 5,
    seed: int = 0,
    threads: int = 1,
) -> AdmixtureModel:
    """EM for the multinomial admixture likelihood; best of ``restarts`` runs.

    Each restart starts from an M-step on responsibilities drawn iid
    Dirichlet(1) per stored entry from a child seed.  An iteration is the
    fused multiplicative update of PLSA / KL-NMF, evaluated only at the
    non-zeros: with pi_e = (phi @ F)[doc_e, term_e] and the sparse ratio
    R = counts / pi, it sets phi <- phi * (R @ F.T) and F <- F * (R.T @ phi).T,
    then adds ``_EM_SMOOTHING`` against exact zeros and renormalizes the
    rows.  This equals the E-step (responsibilities proportional to
    phi[doc_e, l] * f[l, term_e]) followed by the count-weighted M-step, and
    counts @ log(pi) is the log-likelihood of the iterate being updated.
    That sum is ``_loglik``'s, which ``log_likelihood`` shares.

    Phi is held as its (L, docs) transpose until the restart ends, so pi is
    built one component at a time from contiguous rows (``_pi``).  R is one
    document-major CSR matrix; R.T @ phi is taken on its transpose, a CSC
    view that shares R's data, which starts from zeros and adds each term's
    entries in document order.  Every sum over components (pi_e, the phi
    row totals, the starting responsibilities' totals) adds the L terms
    left to right, the same order for every L.  All of this gives the bits
    of the (docs, L) layout this form replaced.
    The recorded trace is exactly non-decreasing: a float decrease (possible
    only at the numerical plateau) reverts to the previous iterate and stops.
    ``AdmixtureModel.stop`` says which rule ended the restart.  Ties between
    restarts keep the lowest index.
    """
    from scipy.sparse import csr_matrix

    if l_comp < 1:
        raise ValueError(f"need at least one component, got {l_comp}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if x.nnz == 0:
        raise ValueError("empty matrix: nothing to fit")
    entries = np.bincount(x.doc_ids, minlength=x.n_docs)
    if np.any(entries == 0):
        raise ValueError(f"empty document (id {int(np.flatnonzero(entries == 0)[0])}); every document needs >= 1 token")
    if l_comp > x.total_tokens:
        raise ValueError(f"more components ({l_comp}) than tokens ({x.total_tokens})")
    # The counts as a CSR matrix over x's triplets, already in document order;
    # the restarts share its structure and each fills a data array of its own
    # with R.  Its CSC view R.T adds each term's products in document order.
    indptr = np.concatenate(([0], np.cumsum(entries)))
    counts = csr_matrix((x.counts.astype(np.float64), x.term_ids, indptr), shape=(x.n_docs, x.n_terms))

    def run_restart(restart: int) -> AdmixtureModel:
        rng = np.random.default_rng(child_seed(seed, restart))
        resp_t = rng.standard_exponential(size=(x.nnz, l_comp)).T.copy()
        resp_t /= _row_sums(resp_t.T)
        phi_t, f = _m_step(x, resp_t)
        ratio = csr_matrix((np.empty(x.nnz), counts.indices, counts.indptr), shape=counts.shape)
        ratio_csc = ratio.T  # shares ratio.data, so it sees each np.divide below
        trace, previous = [], None
        while True:
            pi = _pi(phi_t, f, x.doc_ids, x.term_ids)
            ll = _loglik(counts.data, pi)
            if trace and ll < trace[-1]:
                phi_t, f = previous  # numerical plateau; keep the previous iterate
                stop = "plateau"
                break
            trace.append(ll)
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= _EM_REL_TOL * abs(trace[-2]):
                stop = "converged"
                break
            if len(trace) > max_iters:
                stop = "max_iters"
                break
            np.divide(counts.data, pi, out=ratio.data)
            previous = phi_t, f
            phi_t, f = _smoothed(phi_t * (ratio @ f.T).T, f * (ratio_csc @ phi_t.T).T)
        return AdmixtureModel(
            phi=np.ascontiguousarray(phi_t.T),
            f=f,
            loglik=trace[-1],
            n_iters=len(trace) - 1,
            loglik_trace=np.asarray(trace),
            restart=restart,
            smoothing=_EM_SMOOTHING,
            stop=stop,
        )

    models = _map_indexed(run_restart, range(restarts), threads)
    best = models[0]
    for model in models[1:]:
        if model.loglik > best.loglik:  # strict: ties keep the lowest restart
            best = model
    return best


def identifiability_check(f: np.ndarray) -> np.ndarray:
    """Per-component flag: True if the row is farther than ``EXTREME_TOL``
    from the hull of the other rows (``is_extreme`` on the rows as given)."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise ValueError("need a matrix of at least two component rows")
    if not np.isfinite(f).all():
        raise ValueError("non-finite values in component rows")
    return np.array([is_extreme(i, f) for i in range(f.shape[0])])


@dataclass(frozen=True)
class RoundRecord:
    """One fit-project-count round of the two-stage pipeline; its fields are
    the keys of a round in ``fit-admixture``'s report JSON."""

    round: int
    components: int
    loglik: float
    iterations: int
    stop: str  # why the best restart's EM stopped (``AdmixtureModel.stop``)
    pca_dim_attained: int
    explained_variance: np.ndarray
    extrema_count: int


@dataclass(frozen=True)
class PipelineReport:
    """Everything the two-stage pruning run produced; its fields but
    ``model`` are the keys of ``fit-admixture``'s report JSON."""

    rounds: tuple
    model: AdmixtureModel
    final_m: int
    identifiable: np.ndarray
    choquet_note: str
    term_remap: np.ndarray
    warnings: tuple
    l0: int
    pca_dim: int  # as requested; each round records the dimension it attained
    seed: int


def _count_extrema(f: np.ndarray, pca_dim: int, warnings: list) -> tuple[int, int, np.ndarray]:
    """Extrema count of component rows in PCA coordinates (with rank fallback)."""
    ps = PointSet(f)
    distinct = ps.points
    if distinct.shape[0] == 1:
        return 1, 0, np.asarray([])
    *_, rank = _centered_svd(distinct)
    attained = min(pca_dim, rank)
    if attained < pca_dim:
        warnings.append(
            f"pca dimension reduced from {pca_dim} to attainable rank {attained}"
        )
    if attained >= 2:  # centred rows have rank < rows, so there are more rows than dimensions
        res = pca_project(distinct, attained)
        count = extremal_set(res.pointset).f0
        return count, attained, res.explained_variance_ratio
    # Rank too small to project; count in the original coordinates.
    count = extremal_set(ps).f0
    return count, 0, np.asarray([])


def two_stage(
    x: DocTermMatrix,
    l0: int,
    pca_dim: int = 5,
    max_rounds: int = 2,
    restarts: int = 5,
    seed: int = 0,
    threads: int = 1,
) -> PipelineReport:
    """Fit with ``l0`` components, count extrema in PCA space, refit at that count.

    Rounds continue while the extrema count M drops below the current
    component count and the round budget lasts (default 2: one refit).  When
    the budget ends with M still falling, ``final_m`` is that last count,
    which the returned model does not have, and a warning names both.  Each
    round fits with ``em_fit``'s defaults and counts extrema at
    ``EXTREME_TOL``.  The final model's rows are also flagged by the
    full-space identifiability check, and when M = J and the rows form a
    valid frame, each document's mixing row doubles as its barycentric
    weight vector over the components.
    """
    if l0 < 2:
        raise ValueError(f"l0 must be >= 2, got {l0}")
    if pca_dim < 2:
        raise ValueError(f"pca_dim must be >= 2, got {pca_dim}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    warnings: list[str] = []
    x, kept = drop_zero_terms(x)
    rounds: list[RoundRecord] = []
    l_current = l0
    model = None
    m = None
    for round_index in range(max_rounds):
        model = em_fit(
            x,
            l_current,
            restarts=restarts,
            seed=child_seed(seed, round_index),
            threads=threads,
        )
        if model.stop == "max_iters":
            warnings.append(
                f"round {round_index}: EM stopped at the iteration cap ({model.n_iters}) before converging"
            )
        m, attained_dim, evr = _count_extrema(model.f, pca_dim, warnings)
        rounds.append(
            RoundRecord(
                round=round_index,
                components=l_current,
                loglik=model.loglik,
                iterations=model.n_iters,
                stop=model.stop,
                pca_dim_attained=attained_dim,
                explained_variance=evr,
                extrema_count=m,
            )
        )
        if m >= l_current:
            break
        l_current = m
    else:  # the round budget ran out while the count was still falling
        warnings.append(
            f"max_rounds={max_rounds} ran out while the extrema count was still falling: "
            f"final_m is {m}, but the returned model has {model.n_components} components"
        )
    if model.n_components >= 2:
        identifiable = identifiability_check(model.f)
    else:
        identifiable = np.asarray([True])
    return PipelineReport(
        rounds=tuple(rounds),
        model=model,
        final_m=m,
        identifiable=identifiable,
        choquet_note=_choquet_note(model),
        term_remap=kept,
        warnings=tuple(warnings),
        l0=l0,
        pca_dim=pca_dim,
        seed=seed,
    )


def _choquet_note(model: AdmixtureModel) -> str:
    """Whether each document's mixing row is also its barycentric weight
    vector over the fitted components, and why not when it is not."""
    if model.f.shape[0] != model.f.shape[1]:
        return f"non-simplex regime: {model.f.shape[0]} components in dimension {model.f.shape[1]}"
    try:
        make_frame(model.f)
    except (ValueError, RuntimeError) as exc:
        return f"components do not form a valid frame: {exc}"
    return "weights read off the mixing matrix (pi_i = phi_i @ F)"


def synthetic_corpus(
    m_star: int,
    j_terms: int,
    n_docs: int,
    doc_len: int,
    separation: float,
    seed: int,
    mixing_alpha: float = 0.1,
):
    """Corpus with known truth: (DocTermMatrix, Phi*, F*).

    Component l interpolates between a full-support Dirichlet row and a
    point mass on its own anchor term: f*_l = (1-s)*base_l + s*e_l.  At
    ``separation`` = 1 the supports are disjoint singletons, so every
    document's empirical distribution stays inside Conv(F*) and surplus
    fitted components have nowhere extreme to go.  Document weights are
    symmetric Dirichlet rows and documents are multinomial draws of
    ``doc_len`` tokens from pi = Phi* F*.
    """
    if not 2 <= m_star <= j_terms:
        raise ValueError(f"need 2 <= m_star <= j_terms, got {m_star}, {j_terms}")
    if not 0.0 <= separation <= 1.0:
        raise ValueError(f"separation must lie in [0, 1], got {separation}")
    if n_docs < 1 or doc_len < 1:
        raise ValueError("n_docs and doc_len must be positive")
    rng = np.random.default_rng(child_seed(seed))
    f_star = np.zeros((m_star, j_terms))
    for l in range(m_star):
        base = rng.dirichlet(np.ones(j_terms))
        f_star[l] = (1.0 - separation) * base
        f_star[l, l] += separation
    phi_star = rng.dirichlet(np.full(m_star, mixing_alpha), size=n_docs)
    pi = phi_star @ f_star
    dense = rng.multinomial(doc_len, pi)
    doc_ids, term_ids = np.nonzero(dense)
    return (
        DocTermMatrix(
            n_docs=n_docs,
            n_terms=j_terms,
            doc_ids=doc_ids,
            term_ids=term_ids,
            counts=dense[doc_ids, term_ids],
        ),
        phi_star,
        f_star,
    )
