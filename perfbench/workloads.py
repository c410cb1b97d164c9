"""The benchmark's workloads: CLI flags, generated inputs and per-run seeds.

Every CLI run of a benchmark run gets its own seed, derived from the
benchmark seed, so a run's median covers many inputs instead of one.  The
admixture workloads read docword files; a pool of them is generated before
timing starts and the runs cycle through it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "growth", "clt" or "admix"
    params: dict
    corpus: dict = field(default_factory=dict)  # synthetic_corpus arguments
    pool: int = 0  # distinct docword inputs per benchmark run

    def items(self, nnz: int = 0) -> int:
        """Work in one CLI run: clouds counted, or docword non-zeros fitted."""
        if self.kind == "growth":
            return len(self.params["n_grid"]) * self.params["reps"]
        if self.kind == "clt":
            return self.params["reps"]
        return nnz

    def argv(self, seed: int, out: str, docword: str | None = None) -> list[str]:
        p = self.params
        manifest = ["--manifest", os.path.join(out, "manifest.json")]
        if self.kind == "growth":
            return ["growth", "--J", str(p["J"]), "--n-grid", ",".join(map(str, p["n_grid"])),
                    "--reps", str(p["reps"]), "--threads", str(p["threads"]), "--seed", str(seed),
                    "--out", os.path.join(out, "growth"), *manifest]
        if self.kind == "clt":
            return ["clt", "--J", str(p["J"]), "--n", str(p["n"]), "--reps", str(p["reps"]),
                    "--threads", str(p["threads"]), "--seed", str(seed),
                    "--out", os.path.join(out, "clt"), *manifest]
        return ["fit-admixture", "--input", docword, "--L0", str(p["L0"]),
                "--max-rounds", str(p["max_rounds"]), "--restarts", str(p["restarts"]),
                "--threads", str(p["threads"]), "--seed", str(seed),
                "--json-out", os.path.join(out, "report.json"), "--csv-dir", out, *manifest]


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("growth-j5", "growth", {"J": 5, "n_grid": (1000, 3162, 10000), "reps": 1, "threads": 2}),
        Workload("clt-j3", "clt", {"J": 3, "n": 1000, "reps": 100, "threads": 1}),
        Workload(
            "admix-ingest", "admix",
            {"L0": 3, "max_rounds": 1, "restarts": 1, "threads": 1},
            corpus={"m_star": 3, "j_terms": 40, "n_docs": 12000, "doc_len": 100,
                    "separation": 0.98, "mixing_alpha": 0.1},
            pool=12,
        ),
    )
}


def run_seed(seed: int, k: int) -> int:
    """Seed of CLI run ``k`` (and of docword input ``k``) of benchmark run ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def write_docword(x, path: str) -> None:
    """UCI bag-of-words layout: D, W, NNZ, then 1-indexed 'doc word count' lines."""
    with open(path, "w") as fh:
        fh.write(f"{x.n_docs}\n{x.n_terms}\n{x.nnz}\n")
        np.savetxt(fh, np.column_stack([x.doc_ids + 1, x.term_ids + 1, x.counts]), fmt="%d")
