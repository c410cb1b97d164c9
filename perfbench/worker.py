"""Child process that imports simplexmix once and runs its CLI in-process.

    python3 worker.py --import-only        print the import time and exit
    python3 worker.py JOB.json RESULT.json run the CLI runs the job lists

Each CLI run is timed around ``simplexmix.cli.main(argv)``, so the time is one
run after import.  Each timed untraced run is bracketed by passes of the
reference kernel (``reference.py``), whose times go into its record.  Traced
runs install the tracer before the clock starts and remove it after it stops.
Run records, spans and the process's peak resident memory go to RESULT.json
when the job ends.
"""

import gc
import json
import os
import resource
import sys
import time
import traceback


def _import_cli():
    t0 = time.perf_counter()
    import simplexmix  # noqa: F401
    import simplexmix.cli as cli

    return cli, time.perf_counter() - t0


def _bytes_written(out: str) -> int:
    return sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))


def _run(cli, tracer, spec: dict, traced: bool) -> dict:
    """One CLI run; the record holds its time, exit code and output digests."""
    from tracing import ROOT

    os.makedirs(spec["out"], exist_ok=True)
    gc.collect()
    if traced:
        tracer.install()
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        rc = tracer.call(ROOT, cli.main, spec["argv"]) if traced else cli.main(spec["argv"])
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code
    except Exception:  # a crash is a failed run, and the next run still starts
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    if traced:
        tracer.uninstall()
    record = {"k": spec["k"], "out": spec["out"], "traced": traced, "wall": wall, "rc": rc, "error": error}
    if rc == 0:
        with open(os.path.join(spec["out"], "manifest.json")) as fh:
            record["digests"] = json.load(fh)["outputs"]
        record["bytes"] = _bytes_written(spec["out"])
    if traced:
        record["spans"] = tracer.take()
    return record


def main() -> int:
    cli, import_s = _import_cli()
    if sys.argv[1] == "--import-only":
        print(repr(import_s))
        return 0
    from tracing import Tracer

    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    from reference import reference_seconds

    tracer = Tracer()
    runs = []
    deadline = time.time() + job["budget_s"]
    if job["mode"] == "e2e":
        # Traced replays first: they warm the process up and give the output
        # checks the per-cloud counts.
        runs += [_run(cli, tracer, spec, traced=True) for spec in job["replays"]]
        start = time.perf_counter()
        before = reference_seconds()
        for spec in job["samples"]:
            elapsed = time.perf_counter() - start
            if time.time() > deadline or (elapsed >= job["seconds"] and len(runs) - len(job["replays"]) >= job["min_samples"]):
                break
            run = _run(cli, tracer, spec, traced=False)
            after = reference_seconds()
            runs.append(run | {"ref": [before, after]})
            before = after
    else:
        # Passes over a fixed set of inputs; each input runs untraced and
        # traced back to back, alternating which goes first.
        pairs = job["pairs"]
        runs.append(_run(cli, tracer, pairs[0]["untraced"], traced=False))
        start = time.perf_counter()
        passes = 0
        while time.time() < deadline and (time.perf_counter() - start < job["seconds"] or passes < job["min_passes"]):
            for j, pair in enumerate(pairs):
                order = (False, True) if (passes + j) % 2 == 0 else (True, False)
                for traced in order:
                    spec = pair["traced" if traced else "untraced"]
                    runs.append(_run(cli, tracer, spec, traced) | {"pass": passes})
            passes += 1
    result = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "runs": runs,
    }
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
