import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from oracles import dense_counts, dense_log_likelihood, docword_by_lines, em_reference, em_row_major, permute_terms
from simplexmix import admixture
from simplexmix.admixture import (
    DocTermMatrix,
    drop_zero_terms,
    em_fit,
    identifiability_check,
    load_docword,
    log_likelihood,
    synthetic_corpus,
    two_stage,
)
from simplexmix.hull import PointSet, extremal_set


def tiny_matrix():
    return load_docword(b"2\n3\n2\n1 1 4\n2 3 1\n")


class TestLoadDocword:
    def test_basic_layout(self):
        x = tiny_matrix()
        assert (x.n_docs, x.n_terms, x.nnz) == (2, 3, 2)
        np.testing.assert_array_equal(x.doc_ids, [0, 1])
        np.testing.assert_array_equal(x.term_ids, [0, 2])
        np.testing.assert_array_equal(x.counts, [4, 1])

    def test_empty_body(self):
        x = load_docword(b"3\n5\n0\n")
        assert (x.n_docs, x.n_terms, x.nnz) == (3, 5, 0)

    def test_nnz_mismatch_named(self):
        with pytest.raises(ValueError, match="NNZ=5 but body has 4"):
            load_docword(b"2\n3\n5\n1 1 1\n1 2 1\n2 1 1\n2 2 1\n")

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="header"):
            load_docword(b"two\n3\n0\n")

    def test_out_of_range_ids(self):
        with pytest.raises(ValueError, match="out of range"):
            load_docword(b"2\n3\n1\n3 1 1\n")
        with pytest.raises(ValueError, match="out of range"):
            load_docword(b"2\n3\n1\n1 4 1\n")

    def test_duplicates_summed_in_place(self):
        x = load_docword(b"1\n2\n3\n1 1 2\n1 2 5\n1 1 3\n")
        assert x.nnz == 2
        np.testing.assert_array_equal(x.counts, [5, 5])
        np.testing.assert_array_equal(x.term_ids, [0, 1])

    def test_pair_key_overflow_rejected(self):
        # doc * W + term wraps in int64 once D * W reaches 2^63: here doc ids 1
        # and 2^31 + 1 with W = 2^33 would share one key and merge into count 5
        with pytest.raises(ValueError, match="header too large"):
            load_docword(b"2147483649\n8589934592\n2\n1 1 3\n2147483649 1 2\n")
        with pytest.raises(ValueError, match="header too large"):
            load_docword(b"2\n" + b"1" + b"0" * 23 + b"\n1\n1 1 3\n")
        assert load_docword(b"1\n9223372036854775807\n0\n").nnz == 0  # D * W = 2^63 - 1

    def test_line_order_changes_nothing(self):
        # a shuffled body with repeated pairs reads as the sorted, merged body
        rng = np.random.default_rng(7)
        x = load_docword(_sorted_docword(rng, 30, 12, 200, repeat=0.2))
        rows = []
        for d, w, c in zip(x.doc_ids + 1, x.term_ids + 1, x.counts):  # each count split over 1-3 lines
            parts = np.diff(np.unique([0, *rng.integers(0, c, 2), c]))
            rows += [f"{d} {w} {k}" for k in parts]
        rng.shuffle(rows)
        shuffled = load_docword((f"{x.n_docs}\n{x.n_terms}\n{len(rows)}\n" + "\n".join(rows) + "\n").encode())
        assert len(rows) > x.nnz
        assert (shuffled.n_docs, shuffled.n_terms) == (x.n_docs, x.n_terms)
        for got, expected in ((shuffled.doc_ids, x.doc_ids), (shuffled.term_ids, x.term_ids), (shuffled.counts, x.counts)):
            assert got.dtype == expected.dtype and got.tolist() == expected.tolist()

    def test_reads_bytes_and_files(self, tmp_path):
        text = "1\n2\n1\n1 2 7\n"
        path = tmp_path / "docword.txt"
        path.write_text(text)
        for source in (io.StringIO(text), text.encode(), str(path), io.BytesIO(text.encode())):
            x = load_docword(source)
            assert x.counts.tolist() == [7]


def _docword_text(rng, n_docs, n_terms, nnz):
    """A docword file with repeated pairs in shuffled order, mixed separators
    and line endings, and blank or whitespace-only lines anywhere."""
    triplets = zip(rng.integers(1, n_docs + 1, nnz), rng.integers(1, n_terms + 1, nnz), rng.integers(1, 9, nnz))
    rows = [f"{d}{rng.choice([' ', chr(9), '  ', ' ' + chr(9)])}{w} {c}" for d, w, c in triplets]
    out = []
    for ln in [str(n_docs), f" {n_terms} ", str(nnz), *rows]:
        if rng.random() < 0.15:
            out.append(str(rng.choice(["", "   ", "\t"])) + "\n")
        out.append(ln + str(rng.choice(["\n", "\r\n", "\r"])))
    return "".join(out).encode()


class TestDocwordParity:
    """load_docword against the line-by-line oracle parser."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_line_parser(self, seed):
        rng = np.random.default_rng(seed)
        nnz = int(rng.integers(50, 400))
        raw = _docword_text(rng, int(rng.integers(1, 20)), int(rng.integers(1, 10)), nnz)
        x = load_docword(raw)
        n_docs, n_terms, doc, term, counts = docword_by_lines(raw)
        assert (x.n_docs, x.n_terms) == (n_docs, n_terms)
        np.testing.assert_array_equal(x.doc_ids, doc)
        np.testing.assert_array_equal(x.term_ids, term)
        np.testing.assert_array_equal(x.counts, counts)
        assert x.nnz < nnz  # some pairs were repeated and merged

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            (b"2\n3\n2\n1 1 1\n1 2\n", "malformed triplet line"),
            (b"2\n3\n2\n1 2\n1 1 1\n", "malformed triplet line"),
            (b"2\n3\n2\n1 1 1\n1 2 1 4\n", "malformed triplet line"),
            (b"2\n3\n1\n1 2 1 4\n", "malformed triplet line"),
            (b"2\n3\n2\n1 1 1\n1 x 1\n", "invalid literal"),
            (b"2\n3\n2\n1 1 1\n1 2 1.5\n", "invalid literal"),
            (b"2\n3\n2\n1 1 1\n2\t3  0\n", "positive"),
            (b"2\n3\n2\n1 1 1\n1 2 -4\n", "positive"),
            (b"2\n3\n2\n1 1 1\n3 1 1\n", "out of range"),
            (b"2\n3\n2\n0 1 1\n1 1 1\n", "out of range"),
            (b"2\n3\n2\n1 1 1\n1 4 1\n", "out of range"),
            (b"2\n3\n2\n1 1 1\n1 0 1\n", "out of range"),
            (b"2\n3\n3\n1 1 1\n\n  \n1 2 1\n", "NNZ=3 but body has 2"),
            (b"2\n3\n1\n1 1 1\n1 2 x\n", "NNZ=1 but body has 2"),
            (b"3\n5\n0\n1 1 1\n", "NNZ=0 but body has 1"),
            ("2\n3\n2\n1 1 1\n\u3000\n".encode(), "NNZ=2 but body has 1"),
            ("2\n3\n1\n1 1 1\n\u3000\n1 2 1\n".encode(), "NNZ=1 but body has 2"),
            ("2\n3\n2\n\x1f\n1 1 1\n\n1 2 -4\n".encode(), "positive"),
            (b"2\n3\n2\n1 1 1 1\n1 2 1 1\n", "malformed triplet line"),
        ],
    )
    def test_errors_match_line_parser(self, raw, fragment):
        with pytest.raises(ValueError, match=fragment) as expected:
            docword_by_lines(raw)
        with pytest.raises(ValueError) as got:
            load_docword(raw)
        assert str(got.value) == str(expected.value)


def _sorted_docword(rng, n_docs, n_terms, nnz, repeat=0.0, blanks=()):
    """A docword file whose (doc, term) pairs increase line by line, as UCI
    files do; a ``repeat`` share of lines is followed by a copy of its pair,
    and lines holding only one of ``blanks`` are put anywhere."""
    keys = np.sort(rng.choice(n_docs * n_terms, size=nnz, replace=False))
    rows = []
    for key in keys.tolist():
        d, w = divmod(key, n_terms)
        rows.append(f"{d + 1} {w + 1} {rng.integers(1, 9)}")
        if rng.random() < repeat:
            rows.append(f"{d + 1} {w + 1} {rng.integers(1, 9)}")
    out = []
    for ln in [str(n_docs), str(n_terms), str(len(rows)), *rows]:
        if blanks and rng.random() < 0.2:
            out.append(str(rng.choice(list(blanks))))
        out.append(ln)
    return ("\n".join(out) + "\n").encode()


class TestDocwordLayouts:
    """load_docword against the line-by-line oracle on the layouts its one
    np.loadtxt pass and its skipped merge are for."""

    def _check(self, raw):
        x = load_docword(raw)
        n_docs, n_terms, doc, term, counts = docword_by_lines(raw)
        assert (x.n_docs, x.n_terms) == (n_docs, n_terms)
        for got, expected in ((x.doc_ids, doc), (x.term_ids, term), (x.counts, counts)):
            assert got.tolist() == expected.tolist()
        return x

    @pytest.mark.parametrize("seed", range(3))
    def test_sorted_without_duplicates(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = self._check(_sorted_docword(rng, 30, 12, 200))
        key = x.doc_ids * x.n_terms + x.term_ids
        assert x.nnz == 200 and np.all(np.diff(key) > 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_adjacent_duplicates_in_sorted_input(self, seed):
        rng = np.random.default_rng(110 + seed)
        raw = _sorted_docword(rng, 30, 12, 200, repeat=0.2)
        assert self._check(raw).nnz == 200  # every repeated pair was merged

    @pytest.mark.parametrize("blank", ["\u3000", "\x1f", " \u2028\t", "\xa0", "\x0b\x0c"])
    def test_unicode_whitespace_lines_skipped(self, blank):
        rng = np.random.default_rng(120)
        raw = _sorted_docword(rng, 20, 9, 60, repeat=0.1, blanks=(blank,))
        assert blank.encode() in raw
        self._check(raw)

    @pytest.mark.parametrize(
        "raw",
        [b"3\n5\n0\n", b"3\n5\n0", "3\n5\n0\n\u3000\n \n\x1f\n".encode(), b"\n3\n\n5\n0\n\n"],
    )
    def test_no_entries(self, raw):
        assert self._check(raw).nnz == 0


class TestDocTermMatrix:
    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DocTermMatrix(1, 2, np.array([0, 0]), np.array([1, 1]), np.array([1, 1]))

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DocTermMatrix(1, 2, np.array([0]), np.array([1]), np.array([0]))

    @pytest.mark.parametrize(
        "args, field",
        [
            ((-1, -4, [], [], []), "n_docs"),
            ((2.5, 3, [0], [1], [2]), "n_docs"),
            ((True, 3, [], [], []), "n_docs"),
            ((2, -4, [], [], []), "n_terms"),
            ((2, "3", [], [], []), "n_terms"),
        ],
    )
    def test_impossible_dimensions_rejected(self, args, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 0"):
            DocTermMatrix(*args)

    def test_dimensions_become_ints(self):
        x = DocTermMatrix(np.int64(2), 3.0, [1, 0], [2, 1], [4, 5])
        assert type(x.n_docs) is int and type(x.n_terms) is int
        assert x.doc_totals().tolist() == [5, 4]

    def test_triplets_kept_in_document_order(self):
        # doc_ids come out non-decreasing; within a document the given order stays
        doc, term, cnt = [2, 0, 1, 0, 2, 1, 0], [0, 3, 2, 1, 3, 0, 2], [1, 2, 3, 4, 5, 6, 7]
        x = DocTermMatrix(3, 4, doc, term, cnt)
        assert x.doc_ids.tolist() == [0, 0, 0, 1, 1, 2, 2]
        assert x.term_ids.tolist() == [3, 1, 2, 2, 0, 0, 3]
        assert x.counts.tolist() == [2, 4, 7, 3, 6, 1, 5]
        y = _shuffled(synthetic_corpus(3, 8, 60, 40, 0.7, seed=1)[0], 0)
        assert np.all(np.diff(y.doc_ids) >= 0)

    def test_pair_key_overflow_rejected(self):
        # two distinct pairs whose int64 keys doc * W + term would coincide
        with pytest.raises(ValueError, match="2\\^63"):
            DocTermMatrix(2**31 + 1, 2**33, np.array([0, 2**31]), np.array([0, 0]), np.array([3, 2]))

    def test_drop_zero_terms_remap(self):
        x = tiny_matrix()  # term 1 (0-indexed) unused
        dropped, kept = drop_zero_terms(x)
        assert dropped.n_terms == 2
        np.testing.assert_array_equal(kept, [0, 2])
        np.testing.assert_array_equal(dropped.term_ids, [0, 1])

    def test_permute_terms_round_trip(self):
        x = tiny_matrix()
        perm = np.array([2, 0, 1])
        y = permute_terms(x, perm)
        np.testing.assert_array_equal(y.term_ids, perm[x.term_ids])
        np.testing.assert_array_equal(permute_terms(y, np.argsort(perm)).term_ids, x.term_ids)


class TestEmFit:
    def test_single_component_closed_form(self):
        x = load_docword(b"2\n3\n4\n1 1 4\n1 2 1\n2 2 3\n2 3 2\n")
        model = em_fit(x, 1, restarts=2, seed=0)
        totals = x.term_totals().astype(float)
        np.testing.assert_allclose(model.f[0], totals / totals.sum(), atol=1e-9)
        np.testing.assert_allclose(model.phi, np.ones((2, 1)), atol=1e-12)
        expected_ll = float(np.sum(totals * np.log(totals / totals.sum())))
        assert model.loglik == pytest.approx(expected_ll, rel=1e-8)

    def test_loglik_matches_dense_oracle(self):
        x, _, _ = synthetic_corpus(3, 8, 60, 40, 0.7, seed=1)
        model = em_fit(x, 3, max_iters=50, restarts=2, seed=1)
        dense = dense_counts(x)
        assert model.loglik == pytest.approx(
            dense_log_likelihood(dense, model.phi, model.f), rel=1e-8
        )
        # the triplets are in document order, so both sum in the same order
        assert model.loglik == log_likelihood(x, model.phi, model.f)

    def test_loglik_shuffled_matches_exactly(self):
        # shuffled triplets are put in document order, so both sums still agree
        x = _shuffled(synthetic_corpus(3, 8, 60, 40, 0.7, seed=1)[0], 0)
        model = em_fit(x, 3, max_iters=50, restarts=2, seed=1)
        assert model.loglik == log_likelihood(x, model.phi, model.f)

    def test_trace_non_decreasing(self):
        x, _, _ = synthetic_corpus(3, 8, 80, 30, 0.9, seed=2)
        model = em_fit(x, 5, max_iters=200, restarts=3, seed=2)
        assert np.all(np.diff(model.loglik_trace) >= 0)

    def test_rows_stochastic(self):
        x, _, _ = synthetic_corpus(2, 6, 50, 25, 0.8, seed=3)
        model = em_fit(x, 3, max_iters=40, restarts=1, seed=3)
        np.testing.assert_allclose(model.phi.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(model.f.sum(axis=1), 1.0, atol=1e-10)
        assert model.phi.min() >= 0 and model.f.min() >= 0

    def test_two_disjoint_components_recovered(self):
        x, _, f_star = synthetic_corpus(2, 8, 400, 120, 1.0, seed=4)
        model = em_fit(x, 2, seed=4)
        f_full = np.zeros((2, 8))
        f_full[:, : x.n_terms] = 0.0
        tv = 0.5 * np.abs(model.f[:, None, :] - f_star[None, :, : x.n_terms]).sum(axis=2)
        ri, ci = linear_sum_assignment(tv)
        assert tv[ri, ci].max() < 0.01

    def test_empty_document_rejected(self):
        x = DocTermMatrix(2, 2, np.array([0]), np.array([0]), np.array([3]))
        with pytest.raises(ValueError, match="empty document"):
            em_fit(x, 1)

    def test_component_budget_capped_by_tokens(self):
        x = load_docword(b"1\n2\n1\n1 1 2\n")
        with pytest.raises(ValueError, match="tokens"):
            em_fit(x, 3)

    def test_zero_restarts_rejected(self):
        x = load_docword(b"1\n2\n1\n1 1 2\n")
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            em_fit(x, 1, restarts=0)

    def test_deterministic_and_thread_invariant(self):
        x, _, _ = synthetic_corpus(2, 6, 60, 30, 0.9, seed=5)
        a = em_fit(x, 3, max_iters=60, restarts=3, seed=5)
        b = em_fit(x, 3, max_iters=60, restarts=3, seed=5)
        for threads in (2, 3):
            c = em_fit(x, 3, max_iters=60, restarts=3, seed=5, threads=threads)
            assert a.phi.tobytes() == b.phi.tobytes() == c.phi.tobytes()
            assert a.f.tobytes() == b.f.tobytes() == c.f.tobytes()
            assert a.loglik == b.loglik == c.loglik

    BLAS_SCRIPT = """
from simplexmix.admixture import em_fit, log_likelihood, synthetic_corpus
x, _, _ = synthetic_corpus(3, 40, 12000, 100, 0.98, seed=1)
model = em_fit(x, 3, restarts=2, seed=0)
print(model.loglik.hex(), log_likelihood(x, model.phi, model.f).hex())
"""

    def test_loglik_independent_of_blas_threads(self):
        # the admix-ingest corpus shape, 43577 non-zeros: a BLAS dot product
        # of that length ends in different bits at one and two threads
        src = str(Path(admixture.__file__).parents[1])
        outs = []
        for blas in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", self.BLAS_SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_permutation_equivariance(self):
        x, _, _ = synthetic_corpus(3, 7, 70, 40, 0.8, seed=6)
        perm = np.array([3, 0, 6, 1, 5, 2, 4])
        model = em_fit(x, 3, max_iters=80, restarts=2, seed=6)
        permuted = em_fit(permute_terms(x, perm), 3, max_iters=80, restarts=2, seed=6)
        np.testing.assert_allclose(permuted.f[:, perm], model.f, atol=1e-10)
        np.testing.assert_allclose(permuted.phi, model.phi, atol=1e-10)
        assert permuted.loglik == pytest.approx(model.loglik, rel=1e-10)


def _shuffled(x, seed):
    """The same matrix with its triplets in a random order."""
    p = np.random.default_rng(seed).permutation(x.nnz)
    return DocTermMatrix(x.n_docs, x.n_terms, x.doc_ids[p], x.term_ids[p], x.counts[p])


class TestRowSums:
    @pytest.mark.parametrize("l_comp", range(1, 13))
    def test_left_to_right_bit_for_bit(self, l_comp):
        # Entries spread over 16 decades, so another order rounds many rows differently.
        rng = np.random.default_rng(l_comp)
        a = rng.standard_exponential((2000, l_comp)) * 10.0 ** rng.integers(-8, 9, size=(2000, l_comp))
        expected = np.zeros(2000)
        for i, row in enumerate(a.tolist()):
            total = row[0]
            for v in row[1:]:
                total += v
            expected[i] = total
        assert admixture._row_sums(a).tobytes() == expected.tobytes()
        assert admixture._row_sums(np.asfortranarray(a)).tobytes() == expected.tobytes()


class TestFusedStep:
    """em_fit's fused sparse update against the explicit-responsibility oracle."""

    def _reference(self, x, l_comp, max_iters, seed):
        return em_reference(x, l_comp, max_iters, seed, 0, admixture._EM_REL_TOL, admixture._EM_SMOOTHING)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_one_step_matches_reference(self, shuffle):
        x, _, _ = synthetic_corpus(3, 9, 120, 40, 0.8, seed=20)
        if shuffle:
            x = _shuffled(x, 20)
        model = em_fit(x, 4, max_iters=1, restarts=1, seed=20)
        phi, f, trace = self._reference(x, 4, 1, 20)
        assert model.n_iters == 1 and model.stop == "max_iters"
        np.testing.assert_allclose(model.phi, phi, rtol=0, atol=1e-13)
        np.testing.assert_allclose(model.f, f, rtol=0, atol=1e-13)
        np.testing.assert_allclose(model.loglik_trace, trace, rtol=1e-13)

    @pytest.mark.parametrize(
        "corpus, l_comp, max_iters, shuffle",
        [
            ((3, 8, 200, 50, 0.8, 21), 3, 500, False),
            ((3, 12, 300, 40, 0.9, 22), 4, 500, True),
            ((2, 6, 150, 30, 0.7, 23), 3, 120, False),
            ((4, 14, 300, 60, 0.8, 24), 9, 200, True),
        ],
    )
    def test_fit_matches_reference(self, corpus, l_comp, max_iters, shuffle):
        *args, seed = corpus
        x, _, _ = synthetic_corpus(*args, seed=seed)
        if shuffle:
            x = _shuffled(x, seed)
        model = em_fit(x, l_comp, max_iters=max_iters, restarts=1, seed=seed)
        phi, f, trace = self._reference(x, l_comp, max_iters, seed)
        assert model.n_iters == trace.size - 1
        assert model.loglik == pytest.approx(trace[-1], rel=1e-12)
        np.testing.assert_allclose(model.loglik_trace, trace, rtol=1e-12)
        np.testing.assert_allclose(model.phi, phi, rtol=0, atol=1e-9)
        np.testing.assert_allclose(model.f, f, rtol=0, atol=1e-9)

    def test_stop_reasons(self, monkeypatch):
        x, _, _ = synthetic_corpus(2, 6, 30, 20, 0.9, seed=1)
        assert em_fit(x, 2, max_iters=1, restarts=1, seed=1).stop == "max_iters"
        converged = em_fit(x, 2, restarts=1, seed=1)
        assert converged.stop == "converged" and converged.n_iters < 500
        # With no relative-gain stop, EM runs until a float decrease at the
        # fixed point reverts one step.
        monkeypatch.setattr(admixture, "_EM_REL_TOL", -1.0)
        plateau = em_fit(x, 2, max_iters=5000, restarts=1, seed=1)
        assert plateau.stop == "plateau" and plateau.n_iters < 5000
        assert np.all(np.diff(plateau.loglik_trace) >= 0)
        # The reverted iterate is the one a run stopped one step earlier returns.
        truncated = em_fit(x, 2, max_iters=plateau.n_iters, restarts=1, seed=1)
        assert truncated.stop == "max_iters"
        assert truncated.phi.tobytes() == plateau.phi.tobytes()
        assert truncated.f.tobytes() == plateau.f.tobytes()
        assert truncated.loglik == plateau.loglik == plateau.loglik_trace[-1]


def _with_zero_terms(x):
    """``x`` in a vocabulary of twice the size, where every odd term has count 0."""
    return DocTermMatrix(x.n_docs, 2 * x.n_terms, x.doc_ids, 2 * x.term_ids, x.counts)


class TestComponentMajorEm:
    """em_fit, which holds Phi as (L, docs) rows, against the (docs, L)
    iteration it replaced: every output identical to the byte."""

    def _assert_same(self, x, l_comp, max_iters, restarts, seed):
        expected = em_row_major(x, l_comp, max_iters, restarts, seed, admixture._EM_REL_TOL, admixture._EM_SMOOTHING)
        for threads in (1, 2):
            model = em_fit(x, l_comp, max_iters=max_iters, restarts=restarts, seed=seed, threads=threads)
            got = (model.phi, model.f, model.loglik_trace, model.stop, model.restart)
            assert model.phi.flags.c_contiguous
            for a, b in zip(got[:3], expected[:3]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert got[3:] == expected[3:]
            assert model.loglik == expected[2][-1] and model.n_iters == expected[2].size - 1
        return expected

    @pytest.mark.parametrize("l_comp", [1, 2, 3, 6, 16])
    @pytest.mark.parametrize("layout", ["doc-sorted", "shuffled", "zero-count terms", "one document"])
    def test_bitwise(self, l_comp, layout):
        x, _, _ = synthetic_corpus(4, 30, 150, 40, 0.8, seed=40 + l_comp)
        corpora = [x]
        if layout == "shuffled":
            corpora = [_shuffled(x, l_comp)]
        elif layout == "zero-count terms":
            corpora = [_with_zero_terms(_shuffled(x, l_comp))]
        elif layout == "one document":  # where numpy's own reductions would sum pairwise
            corpora = [synthetic_corpus(4, w, 1, 150, 0.8, seed=40 + l_comp)[0] for w in (5, 40)]
        for x in corpora:
            self._assert_same(x, l_comp, max_iters=150, restarts=3, seed=l_comp)

    def test_bitwise_at_plateau(self, monkeypatch):
        x, _, _ = synthetic_corpus(2, 6, 30, 20, 0.9, seed=1)
        monkeypatch.setattr(admixture, "_EM_REL_TOL", -1.0)
        assert self._assert_same(x, 2, max_iters=5000, restarts=2, seed=1)[3] == "plateau"

    def test_log_likelihood_pi_matches_em(self):
        x, _, _ = synthetic_corpus(3, 10, 80, 30, 0.8, seed=2)
        model = em_fit(x, 4, max_iters=20, restarts=1, seed=2)
        pi = admixture._pi(np.ascontiguousarray(model.phi.T), model.f, x.doc_ids, x.term_ids)
        rows = np.take(model.phi, x.doc_ids, axis=0) * np.take(model.f.T, x.term_ids, axis=0)
        assert pi.tobytes() == admixture._row_sums(rows).tobytes()
        assert log_likelihood(x, model.phi, model.f) == float(np.einsum("i,i->", x.counts, np.log(pi)))


class TestIdentifiabilityCheck:
    def test_basis_rows_identifiable(self):
        assert identifiability_check(np.eye(4)).all()

    def test_average_row_flagged(self):
        f = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        np.testing.assert_array_equal(identifiability_check(f), [True, True, False])

    def test_agreement_with_extremal_set(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            l, j = int(rng.integers(4, 12)), int(rng.integers(3, 5))
            f = rng.dirichlet(np.ones(j), size=l)
            flags = identifiability_check(f)
            extreme = set(extremal_set(PointSet(f)).indices.tolist())
            assert {i for i, fl in enumerate(flags) if fl} == extreme

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            identifiability_check(np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("f", [np.eye(3)[0], np.eye(3)[None], [[1.0, 0.0], [0.0, np.nan]], [[np.inf, 0.0], [0.0, 1.0]]])
    def test_bad_input_rejected(self, f):
        with pytest.raises(ValueError):
            identifiability_check(np.asarray(f))


class TestCountExtrema:
    """_count_extrema's paths: projected at the attained rank, or counted in
    full coordinates when the rank is below 2 or one row is left."""

    @pytest.mark.parametrize(
        "f, expected, warning",
        [
            (np.full((3, 3), 1 / 6) + np.eye(3) / 2, (3, 2, [0.5, 0.5]), "pca dimension reduced from 5 to attainable rank 2"),
            (np.array([[0.2, 0.8, 0.0], [0.5, 0.5, 0.0], [0.9, 0.1, 0.0]]), (2, 0, []), "pca dimension reduced from 5 to attainable rank 1"),
            (np.array([[0.3, 0.7, 0.0], [0.3, 0.7, 0.0]]), (1, 0, []), None),
            (np.eye(6), (6, 5, [0.2] * 5), None),
        ],
        ids=["rank-2", "collinear", "one-distinct-row", "full-rank"],
    )
    def test_paths(self, f, expected, warning):
        warnings = []
        count, attained, evr = admixture._count_extrema(f, 5, warnings)
        assert (count, attained) == expected[:2]
        np.testing.assert_allclose(evr, expected[2], rtol=0, atol=1e-12)
        assert warnings == ([warning] if warning else [])


class TestTwoStage:
    def test_fixpoint_single_round(self):
        x, _, _ = synthetic_corpus(3, 9, 300, 80, 1.0, seed=10)
        report = two_stage(x, l0=3, pca_dim=2, seed=10)
        assert len(report.rounds) == 1
        assert report.final_m == 3
        assert report.rounds[0].extrema_count == 3
        assert report.identifiable.all()

    def test_prunes_surplus_components(self):
        x, _, f_star = synthetic_corpus(3, 9, 500, 100, 1.0, seed=11)
        report = two_stage(x, l0=8, pca_dim=4, seed=11)
        counts = [r.extrema_count for r in report.rounds]
        assert counts == sorted(counts, reverse=True)  # non-increasing
        assert report.final_m == 3
        assert report.model.n_components == 3
        assert report.identifiable.all()

    @pytest.mark.parametrize("seed", [203, 209, 213])
    def test_overfit_prunes_to_truth(self, seed):
        # Fitted rows on one true vertex can land 1e-9..1e-8 apart; merged at
        # EXTREME_TOL they count once instead of ruling each other out.
        x, _, _ = synthetic_corpus(6, 200, 2000, 150, 1.0, seed=seed)
        assert two_stage(x, l0=16, restarts=5, seed=seed).final_m == 6

    def test_iteration_cap_reported(self):
        # 16 components for 6 true ones: round 0 runs into em_fit's 500-iteration cap
        x, _, _ = synthetic_corpus(6, 200, 500, 150, 0.98, seed=2)
        report = two_stage(x, l0=16, restarts=1, seed=2)
        assert [(r.iterations, r.stop) for r in report.rounds[:1]] == [(500, "max_iters")]
        assert "round 0: EM stopped at the iteration cap (500) before converging" in report.warnings
        assert all(r.stop != "max_iters" for r in report.rounds[1:])
        assert sum("iteration cap" in w for w in report.warnings) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_round_budget_ending_mid_prune_reported(self, seed):
        x, _, _ = synthetic_corpus(3, 12, 300, 60, 1.0, seed=seed)
        report = two_stage(x, 6, pca_dim=2, max_rounds=1, restarts=2, seed=seed)
        assert (report.final_m, report.model.n_components) == (3, 6)
        assert (
            "max_rounds=1 ran out while the extrema count was still falling: "
            "final_m is 3, but the returned model has 6 components"
        ) in report.warnings
        refit = two_stage(x, 6, pca_dim=2, max_rounds=2, restarts=2, seed=seed)
        assert (refit.final_m, refit.model.n_components) == (3, 3)
        assert not any("max_rounds" in w for w in refit.warnings)

    def test_converged_rounds_not_warned(self):
        x, _, _ = synthetic_corpus(3, 9, 400, 80, 1.0, seed=21)
        report = two_stage(x, l0=6, pca_dim=2, seed=21)
        assert len(report.rounds) == 2
        assert {r.stop for r in report.rounds} == {"converged"}
        assert not any("iteration cap" in w for w in report.warnings)

    def test_term_remap_recorded(self):
        x, _, _ = synthetic_corpus(3, 9, 200, 60, 1.0, seed=12)
        report = two_stage(x, l0=3, seed=12)
        assert report.term_remap.tolist() == [0, 1, 2]  # anchors only at separation 1
        assert any("pca" in w for w in report.warnings)

    def test_choquet_readoff_when_square(self):
        x, _, _ = synthetic_corpus(3, 3, 300, 90, 0.95, seed=13)
        report = two_stage(x, l0=3, pca_dim=2, seed=13)
        assert report.final_m == 3
        assert report.choquet_note == "weights read off the mixing matrix (pi_i = phi_i @ F)"

    def test_choquet_note_outside_simplex_regime(self):
        x, _, _ = synthetic_corpus(3, 8, 100, 50, 0.8, seed=15)
        report = two_stage(x, l0=3, pca_dim=2, seed=15)
        assert report.choquet_note.startswith("non-simplex regime")

    def test_config_validation(self):
        x = tiny_matrix()
        with pytest.raises(ValueError):
            two_stage(x, l0=1)
        with pytest.raises(ValueError):
            two_stage(x, l0=2, pca_dim=1)
        with pytest.raises(ValueError):
            two_stage(x, l0=2, max_rounds=0)


class TestSyntheticCorpus:
    def test_full_separation_disjoint_supports(self):
        _, _, f_star = synthetic_corpus(4, 10, 50, 30, 1.0, seed=16)
        supports = [set(np.flatnonzero(row)) for row in f_star]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (supports[i] & supports[j])

    def test_rows_are_distributions(self):
        _, phi, f = synthetic_corpus(3, 7, 40, 20, 0.6, seed=17)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(f.sum(axis=1), 1.0, atol=1e-12)

    def test_long_document_lln(self):
        x, phi, f = synthetic_corpus(2, 6, 1, 100_000, 0.5, seed=18)
        pi = (phi @ f)[0]
        dense = dense_counts(x)[0]
        emp = dense / dense.sum()
        assert 0.5 * np.abs(emp - pi).sum() < 0.01

    def test_reproducible(self):
        a, pa, fa = synthetic_corpus(3, 8, 30, 25, 0.8, seed=19)
        b, pb, fb = synthetic_corpus(3, 8, 30, 25, 0.8, seed=19)
        assert a.counts.tobytes() == b.counts.tobytes()
        assert pa.tobytes() == pb.tobytes()
        assert fa.tobytes() == fb.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_corpus(1, 5, 10, 10, 0.5, seed=0)
        with pytest.raises(ValueError):
            synthetic_corpus(3, 2, 10, 10, 0.5, seed=0)
        with pytest.raises(ValueError):
            synthetic_corpus(2, 5, 10, 10, 1.5, seed=0)
