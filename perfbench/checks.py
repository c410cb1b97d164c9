"""Output checks, run after the timed region on the files each CLI run wrote.

Each check returns a list of problems; an empty list means the run passed.
Statistics are recomputed here from first principles and compared with a
relative tolerance, not byte digests, so a change that moves results by a few
ulps still passes while a wrong count, a reordered replicate or a wrong
likelihood does not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

RTOL = 1e-9


def _close(a, b, rtol=RTOL, atol=1e-12) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))


def documented_seed(base: int, *key: int) -> int:
    """The sampler seed of replicate ``key``: the seed tree the README documents."""
    ss = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.asarray(rows[1:], dtype=np.float64).reshape(len(rows) - 1, len(rows[0]))


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def manifest_problems(out: str) -> list[str]:
    """The manifest's digests must describe the files on disk."""
    manifest = _read_json(os.path.join(out, "manifest.json"))
    problems = []
    for name, digest in manifest["outputs"].items():
        with open(os.path.join(out, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                problems.append(f"manifest digest of {name} does not match the file")
    return problems


def _fit(n, mean) -> tuple[float, float, float]:
    """Least squares log(mean) = log(c) + p log(log n); returns c, p, r^2."""
    x = np.log(np.log(np.asarray(n, dtype=np.float64)))
    y = np.log(mean)
    p, logc = np.polyfit(x, y, 1)
    resid = y - (logc + p * x)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return math.exp(logc), p, min(max(r2, 0.0), 1.0)


def check_growth(out: str, params: dict, seed: int, f0: dict | None) -> list[str]:
    """growth.csv and growth.fit.json; with ``f0`` (cloud -> count) also the stats."""
    grid, reps, J = params["n_grid"], params["reps"], params["J"]
    header, rows = _read_csv(os.path.join(out, "growth.csv"))
    if header != ["n", "mean_f0", "var_f0", "stderr", "reps"]:
        return [f"growth.csv header {header}"]
    if rows.shape[0] != len(grid) or list(rows[:, 0]) != list(grid) or np.any(rows[:, 4] != reps):
        return ["growth.csv n or reps column does not match the flags"]
    n, mean, var, se = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    problems = []
    if np.any(mean < J) or np.any(mean > n) or np.any(var < 0):
        problems.append("growth.csv mean or variance out of range")
    if not _close(se, np.sqrt(var / reps)):
        problems.append("growth.csv stderr != sqrt(var/reps)")
    fit = _read_json(os.path.join(out, "growth.fit.json"))
    if not _close([fit["c_hat"], fit["p_hat"], fit["r_squared"]], _fit(n, mean), rtol=1e-7):
        problems.append("growth.fit.json does not match a fit of the csv means")
    if f0 is not None:
        try:
            counts = np.asarray(
                [[f0[(documented_seed(seed, g, r), n_g)] for r in range(reps)] for g, n_g in enumerate(grid)],
                dtype=np.float64,
            )
        except KeyError as exc:
            return problems + [f"traced replay has no cloud {exc}"]
        want_var = counts.var(axis=1, ddof=1) if reps > 1 else np.zeros(len(grid))
        if not (_close(mean, counts.mean(axis=1)) and _close(var, want_var)):
            problems.append("growth.csv differs from the statistics of the replayed clouds")
    return problems


def _ks_normal(z: np.ndarray) -> float:
    xs = np.sort(z)
    m = xs.size
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in xs])
    return float(max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max()))


def check_clt(out: str, params: dict, seed: int, f0: dict | None) -> list[str]:
    """clt.csv and clt.json; with ``f0`` also the replicate order and counts."""
    n, reps, J = params["n"], params["reps"], params["J"]
    header, rows = _read_csv(os.path.join(out, "clt.csv"))
    summary = _read_json(os.path.join(out, "clt.json"))
    if header != ["standardized_f0"] or rows.shape[0] != reps:
        return [f"clt.csv has header {header} and {rows.shape[0]} rows, expected {reps}"]
    if summary["n"] != n or summary["reps"] != reps:
        return ["clt.json n or reps does not match the flags"]
    z = rows[:, 0]
    counts = z * summary["sd_f0"] + summary["mean_f0"]
    problems = []
    if np.any(np.abs(counts - np.round(counts)) > 1e-6) or np.any(np.round(counts) < J) or np.any(counts > n):
        problems.append("clt.csv does not standardize integer counts in [J, n]")
    if not (_close(z.mean(), 0.0, atol=1e-9) and _close(z.std(ddof=1), 1.0)):
        problems.append("clt.csv is not standardized")
    if not _close(summary["ks_stat"], _ks_normal(z)):
        problems.append("clt.json ks_stat does not match the csv")
    if f0 is not None:
        try:
            replay = np.asarray([f0[(documented_seed(seed, r), n)] for r in range(reps)], dtype=np.float64)
        except KeyError as exc:
            return problems + [f"traced replay has no cloud {exc}"]
        mean, sd = replay.mean(), replay.std(ddof=1)
        if not (_close(summary["mean_f0"], mean) and _close(summary["sd_f0"], sd) and _close(z, (replay - mean) / sd)):
            problems.append("clt outputs differ from the replayed clouds")
    return problems


def check_admix(out: str, corpus, m_star: int) -> list[str]:
    """report.json, phi.csv and f.csv against the generator's truth and data."""
    report = _read_json(os.path.join(out, "report.json"))
    m = report["final_m"]
    if m != m_star:
        return [f"final_m = {m}, the generator used m_star = {m_star}"]
    phi = np.loadtxt(os.path.join(out, "phi.csv"), delimiter=",", ndmin=2)
    f = np.loadtxt(os.path.join(out, "f.csv"), delimiter=",", ndmin=2)
    remap = np.asarray(report["term_remap"], dtype=np.int64)
    if phi.shape != (corpus.n_docs, m) or f.shape != (m, remap.size):
        return [f"phi {phi.shape} or f {f.shape} has the wrong shape"]
    problems = []
    for name, rows in (("phi", phi), ("f", f)):
        if rows.min() < 0 or not _close(rows.sum(axis=1), 1.0):
            problems.append(f"{name}.csv rows are not probability vectors")
    col = np.searchsorted(remap, corpus.term_ids)
    if np.any(col >= remap.size) or np.any(remap[np.minimum(col, remap.size - 1)] != corpus.term_ids):
        return problems + ["term_remap drops a term that occurs"]
    pi = phi @ f
    loglik = float(np.dot(corpus.counts, np.log(pi[corpus.doc_ids, col])))
    if not _close(report["loglik"], loglik):
        problems.append(f"loglik {report['loglik']!r} != {loglik!r} recomputed from phi.csv and f.csv")
    if report["rounds"][-1]["loglik"] != report["loglik"]:
        problems.append("loglik differs from the last round's")
    return problems
