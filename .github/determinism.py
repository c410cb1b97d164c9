"""Outputs do not depend on the BLAS thread count: PYTHONPATH=src python3 .github/determinism.py

RUNS maps a name to (argv, digest group).  Each runs as ``python -W error -m simplexmix <argv>`` in
<variant>/<name>/ of a temporary directory (inputs two levels up) at OPENBLAS_NUM_THREADS 1 and 2, and
those in ONE_THREAD once more at --threads 1.  Fails, naming the run or file, unless the manifests' output
digests agree within each group and every CSV written holds CPython's '%.17g' of its values.  Prints a
digest of each group's outputs, so that two commits' runs can be compared line by line.
"""

import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from simplexmix.admixture import synthetic_corpus

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import write_docword  # noqa: E402

RUNS = {
    "growth": ("growth --J 5 --n-grid 1000,10000 --reps 2 --threads 2", "growth"),
    "fit-admixture": ("fit-admixture --input ../../corpus.txt --L0 16 --restarts 5 --threads 2", "fit-admixture"),
    # the corpus with its body lines shuffled: line order must change no output
    "shuffled": ("fit-admixture --input ../../shuffled.txt --L0 16 --restarts 5 --threads 2", "fit-admixture"),
    # the admix-ingest shape, 43577 non-zeros: a BLAS dot product that long ends in different bits at 1 and 2 threads
    "ingest": ("fit-admixture --input ../../ingest.txt --L0 3 --restarts 5 --threads 2", "ingest"),
    # hull-limit and choquet import scipy.optimize at their first solve
    "hull-limit": ("hull-limit --J 4 --n-grid 10,100,1000,10000", "hull-limit"),
    "choquet": ("choquet --frame ../../frame.csv --p 0.3,0.3,0.4 --out choquet", "choquet"),
    # many small clouds: the shape where PointSet's dedup settles isolated near gaps
    "clt": ("clt --J 3 --n 1000 --reps 100 --threads 2", "clt"),
    # both arms of the ratio run on the --threads pool
    "gamma": ("gamma --J 4 --n-grid 100,1000 --reps 10 --threads 2 --sampler-g dirichlet:0.5,1,2,3", "gamma"),
    # small alpha: Gamma draws underflow, so rows must not come out 0/0
    "dirichlet": ("growth --J 3 --reps 20 --sampler dirichlet:0.001,0.001,0.001", "dirichlet"),
    # exact zeros on faces and edges of the simplex: the chart's gate and its fallback to rank-reduced coordinates
    "faces": ("growth --J 4 --n-grid 100,1000 --reps 10 --sampler dirichlet:0.001,0.001,0.001,0.001", "faces"),
    # a SamplerSpec JSON sampler: parsed by from_json, recorded by to_json
    "sampler-json": ("""growth --J 4 --n-grid 100,1000 --reps 10
                     --sampler '{"kind":"dirichlet","J":4,"seed":0,"alpha":[0.5,1,2,3]}'""", "sampler-json"),
    # skewed clouds: qhull without pre-merging raises a precision error, and the merged retry gives the shortlist
    "skewed": ("growth --J 5 --n-grid 300,3000 --reps 5 --sampler dirichlet:0.05,1,1,1,1", "skewed"),
    # the default --k-grid, and weights the command normalizes before the trace and the manifest
    "polya": ("polya --true-weights 5,3,2 --seed 4", "polya"),
}
# one after another, the largest-first cloud schedule and threaded restarts must leave the outputs as they were
ONE_THREAD = ("growth", "fit-admixture", "gamma")


def run(d: Path, variant: str, name: str, argv: str, blas: int) -> dict:
    """The output digests in the manifest of one run."""
    cwd, args = d / variant / name, shlex.split(argv)
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(blas), SIMPLEXMIX_OUT_DIR=".")
    if subprocess.run([sys.executable, "-W", "error", "-m", "simplexmix", *args], cwd=cwd, env=env).returncode:
        sys.exit(f"{variant}/{name} failed: {argv}")
    return json.loads((cwd / f"{args[0]}.manifest.json").read_text())["outputs"]


def g17_rows(path: Path) -> bool:
    """Whether the CSV's rows, below its header line if any, are the '%.17g' rows of their values."""
    lines = path.read_text().splitlines(keepends=True)
    skip = int(lines[0][:1].isalpha() and not lines[0].startswith(("nan", "inf")))  # a header names columns
    return all(line == ",".join("%.17g" % float(v) for v in line.split(",")) + "\n" for line in lines[skip:])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        corpora = (synthetic_corpus(6, 200, 2000, 150, 1.0, seed=209), synthetic_corpus(3, 40, 12000, 100, 0.98, seed=1))
        for name, (x, _, _) in zip(("corpus.txt", "ingest.txt"), corpora):
            write_docword(x, str(d / name))
        lines = (d / "corpus.txt").read_text().splitlines(keepends=True)
        body = lines[3:]
        random.Random(0).shuffle(body)
        (d / "shuffled.txt").write_text("".join(lines[:3] + body))
        (d / "frame.csv").write_text("0.8,0.1,0.1\n0.1,0.8,0.1\n0.1,0.1,0.8\n")
        groups = {}
        for variant, blas, threads, names in (("blas1", 1, 2, RUNS), ("blas2", 2, 2, RUNS), ("threads1", 1, 1, ONE_THREAD)):
            for name in names:
                argv, group = RUNS[name]
                argv = argv.replace("--threads 2", f"--threads {threads}")
                groups.setdefault(group, {})[f"{variant}/{name}"] = run(d, variant, name, argv, blas)
        failures = []
        for group, by_run in groups.items():
            first = next(iter(by_run.values()))
            if all(outputs == first for outputs in by_run.values()):
                digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()[:16]
                print(group, digest, "identical over", ", ".join(by_run))
            else:
                failures.append(f"{group} differ: {by_run}")
        csvs = sorted(d.glob("*/*/*.csv"))
        failures += [f"{p.relative_to(d)} differs from the '%.17g' rows of its values" for p in csvs if not g17_rows(p)]
        print(len(csvs), "CSVs checked against the '%.17g' rows of their values")
        print("final_m", json.loads((d / "blas1/fit-admixture/fit-admixture.json").read_text())["final_m"])
    sys.exit("\n".join(failures) or None)


if __name__ == "__main__":
    main()
