"""simplexmix benchmark: runs one workload through the CLI and checks its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a simplexmix source tree; it needs no install, only
``src/simplexmix``, numpy and scipy.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics from traced runs and the tracing
overhead.  README.md beside this file says what each metric means.

Work is batch and closed-loop: one CLI run at a time, each starting when the
previous one has ended, all in one worker process with the BLAS pool pinned
to one thread.  End-to-end times are normalized by a reference kernel timed
next to each of them (``reference.py``); raw times go to the run record.
Generated inputs and CLI outputs live in ``.perfbench/`` at
the root and are deleted at the end; the run record (versions, seed, samples,
failures) and, with tracing, the spans stay in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Pinned before numpy loads, so the reference kernel runs alike here and in
# the worker.
os.environ.update({var: "1" for var in BLAS_VARS})

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from reference import normalized, reference_seconds  # noqa: E402
from tracing import cloud_f0, extremal_ms, layer_metrics  # noqa: E402
from workloads import WORKLOADS, run_seed, write_docword  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BUDGET_S = 170  # the whole benchmark run, which must end within 180 s
CHECK_RESERVE_S = 30  # kept back from the worker for checks and clean-up
MIN_SAMPLES = 40  # so that the 75th percentile has at least ten runs above it
MAX_SAMPLES = 4000
SETUP_PROBES = 7  # fresh-process imports
REPLAYS = 2  # traced replays ahead of the timed runs
TRACE_INPUTS = 4  # inputs per pass of a traced run
MIN_PASSES = 2
PERPOINT_CLOUDS = 3
PERPOINT_N = {3: 300, 5: 120}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "simplexmix").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _import_seconds(env: dict) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--import-only"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _setup_probes(env: dict) -> tuple[list[float], list[float]]:
    """Fresh-process import times, raw and normalized by the reference kernel."""
    raw, scaled = [], []
    before = reference_seconds()
    for _ in range(SETUP_PROBES):
        raw.append(_import_seconds(env))
        after = reference_seconds()
        scaled.append(normalized(raw[-1], before, after))
        before = after
    return raw, scaled


def _make_inputs(workload, seed: int, run_dir: Path) -> list:
    """Docword files of the admixture workloads: (path, corpus) per input."""
    from simplexmix import synthetic_corpus

    inputs = []
    for j in range(workload.pool):
        corpus, _, _ = synthetic_corpus(seed=run_seed(seed, j), **workload.corpus)
        path = run_dir / "inputs" / f"{j}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_docword(corpus, str(path))
        inputs.append((str(path), corpus))
    return inputs


def _job(workload, seed: int, trace: bool, seconds: int, inputs, run_dir: Path, budget_s: float) -> dict:
    def spec(k: int, traced: bool = False) -> dict:
        out = str(run_dir / "out" / (f"{k}t" if traced else str(k)))
        docword = inputs[k % len(inputs)][0] if inputs else None
        return {"k": k, "out": out, "argv": workload.argv(run_seed(seed, k), out, docword)}

    job = {"mode": "trace" if trace else "e2e", "seconds": seconds, "budget_s": budget_s}
    if trace:
        job["pairs"] = [{"untraced": spec(k), "traced": spec(k, True)} for k in range(TRACE_INPUTS)]
        job["min_passes"] = MIN_PASSES
    else:
        job["replays"] = [spec(k, True) for k in range(REPLAYS)]
        job["samples"] = [spec(k) for k in range(MAX_SAMPLES)]
        job["min_samples"] = MIN_SAMPLES
    return job


def _check_runs(workload, seed: int, runs: list, inputs) -> None:
    """Set each run's ``problems``; an empty list means the run passed."""
    f0 = {}
    for run in runs:
        if run["traced"] and "spans" in run:
            f0.update(cloud_f0(run["spans"]))
    by_k: dict = {}
    for run in runs:
        run["problems"] = []
        if run["error"] or run["rc"] != 0:
            run["problems"].append(run["error"] or f"exit code {run['rc']}")
        else:
            by_k.setdefault(run["k"], []).append(run)
    for k, group in by_k.items():
        # The last run of an input is the one whose files are on disk; every
        # run of the same input must have written the same bytes.
        last = group[-1]
        traced = any(r["traced"] for r in group)
        out, s = last["out"], run_seed(seed, k)
        try:
            if workload.kind == "growth":
                problems = checks.check_growth(out, workload.params, s, f0 if traced else None)
            elif workload.kind == "clt":
                problems = checks.check_clt(out, workload.params, s, f0 if traced else None)
            else:
                problems = checks.check_admix(out, inputs[k % len(inputs)][1], workload.corpus["m_star"])
            problems += checks.manifest_problems(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable outputs: {exc!r}"]
        for run in group:
            if run["digests"] != last["digests"]:
                run["problems"].append(f"outputs differ from another run of input {k}")
            else:
                run["problems"] += problems


def _route_checks(workload, seed: int) -> tuple[int, list[str]]:
    """The default extremal_set route against the per-point route on small clouds.

    Returns the number of clouds checked and the problems found.
    """
    if workload.kind not in ("growth", "clt"):
        return 0, []
    from simplexmix.hull import PointSet, extremal_set
    from simplexmix.simplex import SamplerSpec, sample

    J = workload.params["J"]
    problems = []
    for i in range(PERPOINT_CLOUDS):
        s = run_seed(seed, MAX_SAMPLES + i)
        ps = PointSet(sample(SamplerSpec("uniform", J, s), PERPOINT_N[J]))
        auto, perpoint = extremal_set(ps), extremal_set(ps, method="perpoint")
        if auto.indices.tolist() != perpoint.indices.tolist():
            problems.append(f"extremal_set routes disagree on cloud seed {s}: f0 {auto.f0} vs {perpoint.f0}")
    return PERPOINT_CLOUDS, problems


def _e2e_metrics(workload, timed: list, inputs, setup: list[float], maxrss_kb: int) -> dict:
    """Times are normalized by the reference kernel run next to them."""
    walls = [normalized(r["wall"], *r["ref"]) for r in timed]
    items = [workload.items(inputs[r["k"] % len(inputs)][1].nnz if inputs else 0) / w for r, w in zip(timed, walls)]
    return {
        "wall_s": statistics.median(walls),
        "wall_s_p75": statistics.quantiles(walls, n=4)[2],
        "items_per_s": statistics.median(items),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def _layer_metrics(runs) -> dict:
    """Per pass, the mean over its inputs; then the median over passes."""
    ok = [r for r in runs if "pass" in r and not r["problems"]]
    per_pass: dict = {}
    for r in ok:
        if r["traced"]:
            per_pass.setdefault(r["pass"], []).append(layer_metrics(r["spans"], r["bytes"]))
    values = {}
    for name in per_pass[min(per_pass)][0]:
        values[name] = statistics.median(statistics.fmean(m[name] for m in ms) for ms in per_pass.values())
    ms = [t for r in ok if r["traced"] for t in extremal_ms(r["spans"])]
    values["hull.extremal_set.ms_p50"] = float(np.percentile(ms, 50)) if ms else 0.0
    values["hull.extremal_set.ms_p99"] = float(np.percentile(ms, 99)) if ms else 0.0
    walls: dict = {}
    for r in ok:
        walls.setdefault((r["pass"], r["k"]), {})[r["traced"]] = r["wall"]
    overhead = [w[True] - w[False] for w in walls.values() if len(w) == 2]
    values["trace.overhead_s"] = statistics.median(overhead)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.time()
    if not (SRC / "simplexmix" / "cli.py").is_file():
        print(f"error: no simplexmix source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = _child_env()
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = OUT / run_id
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(parents=True)
    try:
        inputs = _make_inputs(workload, args.seed, run_dir)
        setup_raw, setup = ([], []) if args.trace else _setup_probes(env)
        budget = BUDGET_S - CHECK_RESERVE_S - (time.time() - t_start)
        job = _job(workload, args.seed, bool(args.trace), args.seconds, inputs, run_dir, budget)
        job_path, result_path = run_dir / "job.json", run_dir / "result.json"
        job_path.write_text(json.dumps(job))
        with open(run_dir / "worker.log", "w") as log:
            try:
                subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                    env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=BUDGET_S - (time.time() - t_start), check=True,
                )
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
                log.flush()
                print(f"error: worker failed: {exc}", file=sys.stderr)
                print((run_dir / "worker.log").read_text()[-4000:], file=sys.stderr)
                return 1
        result = json.loads(result_path.read_text())
        runs = result["runs"]
        _check_runs(workload, args.seed, runs, inputs)
        route_checked, route_problems = _route_checks(workload, args.seed)
        failed = [r for r in runs if r["problems"]]
        passed = [r for r in runs if not r["problems"] and ("pass" in r if args.trace else not r["traced"])]
        if len(passed) < 2:
            print(f"error: only {len(passed)} measured CLI runs passed their checks", file=sys.stderr)
            for r in failed[:5]:
                print(r["problems"][0], file=sys.stderr)
            return 1
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            metrics = _layer_metrics(runs)
        else:
            metrics = _e2e_metrics(workload, passed, inputs, setup, result["maxrss_kb"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed = [] if args.trace else [r["wall"] for r in passed]
    refs = [] if args.trace else [r["ref"] for r in passed]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv_example": job["pairs"][0]["untraced"]["argv"] if args.trace else job["samples"][0]["argv"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "attempted": len(runs) + route_checked,
        "failed": len(failed) + len(route_problems),
        "fail_frac": (len(failed) + len(route_problems)) / (len(runs) + route_checked),
        "problems": [p for r in failed for p in r["problems"]][:20] + route_problems,
        "wall_samples": timed,
        "reference_samples": refs,
        "setup_samples": setup_raw,
        # Raw, unnormalized figures: recorded, not gated, since the machine's
        # drift moves them by more than any usable bound.
        "raw_wall_s": statistics.median(timed) if timed else None,
        "raw_setup_s": statistics.median(setup_raw) if setup_raw else None,
        "wall_s_p75": metrics.get("wall_s_p75"),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(results / f"{run_id}.spans.jsonl", "w") as fh:
            for r in runs:
                for s in r.get("spans", ()):
                    fh.write(json.dumps({"run_k": r["k"], "pass": r.get("pass"), **s}) + "\n")
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {len(runs)} CLI runs and "
          f"{route_checked} route checks, {record['failed']} failed (fail_frac {record['fail_frac']:.3g}); "
          f"record in {(results / run_id).relative_to(ROOT)}.json")
    if timed:
        print(f"# {len(timed)} timed untraced runs; wall_s_p75 = {record['wall_s_p75']!r} s; "
              f"raw wall_s = {record['raw_wall_s']!r} s, raw setup_s = {record['raw_setup_s']!r} s")
    for p in record["problems"]:
        print(f"# problem: {p.strip().splitlines()[-1]}")
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
