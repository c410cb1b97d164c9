"""Batch command-line front end: every experiment wired to files.

Each subcommand validates flags, delegates to the library and writes CSV/JSON
outputs.  ``main`` then writes a run manifest: every flag as the command
resolved it (parsed grids, sampler JSON, default paths), the seed, the package
version and the sha256 of every output, so any run can be reproduced
byte-for-byte from its manifest.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.

CSV cells carry 17 significant digits; JSON floats use Python's shortest
round-trip representation.  The only environment variable honored is
SIMPLEXMIX_OUT_DIR (default output directory).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .admixture import load_docword, two_stage
from .asymptotics import (
    DEFAULT_N_GRID,
    ExperimentConfig,
    clt_experiment,
    definetti_bound,
    fit_growth,
    gamma_experiment,
    growth_experiment,
    hull_limit_experiment,
)
from .choquet import ChoquetMeasure, choquet_measure, make_frame, reconstruct
from .polya import AtomEmbedding, convergence_trace
from .simplex import SamplerSpec

__all__ = ["main"]

_ENV_OUT_DIR = "SIMPLEXMIX_OUT_DIR"

_OUT_HELP = "output base path (default $SIMPLEXMIX_OUT_DIR/<subcommand>)"
# --out of the commands that print their result and write a file only on request.
_OPTIONAL_JSON_HELP = "optional JSON report path ('.json' appended if missing); without it only the manifest is written"


def _out_dir() -> str:
    return os.environ.get(_ENV_OUT_DIR, ".")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_matrix(path: str, a: np.ndarray) -> None:
    """The bytes of ``np.savetxt(path, a, delimiter=",", fmt="%.17g")`` for a
    2-D array, formatted in one pass."""
    n, m = a.shape
    with open(path, "w") as fh:
        fh.write(((",".join(["%.17g"] * m) + "\n") * n) % tuple(a.ravel().tolist()))


def _write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=lambda v: v.tolist())  # numpy arrays and scalars
        fh.write("\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _default_path(subcommand: str, suffix: str = "") -> str:
    """$SIMPLEXMIX_OUT_DIR/<subcommand><suffix>, the default of every output path."""
    return os.path.join(_out_dir(), subcommand + suffix)


def _write_manifest(subcommand: str, path: str | None, config: dict, outputs: list[str]) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": config["seed"],
        "version": __version__,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    _write_json(path or _default_path(subcommand, ".manifest.json"), manifest)


def _parse_list(text: str, kind, what: str, expected: str) -> tuple:
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"bad {what} {text!r}; expected comma-separated {expected}") from None


def _parse_grid(text: str) -> tuple[int, ...]:
    return _parse_list(text, int, "grid", "integers")


def _parse_floats(text: str) -> tuple[float, ...]:
    return _parse_list(text, float, "vector", "numbers")


def _parse_sampler(text: str, j_dim: int, seed: int) -> SamplerSpec:
    """Accept 'uniform', 'dirichlet:a1,a2,...', or a full SamplerSpec JSON
    object; the spec always carries ``seed``, in place of a JSON seed."""
    text = text.strip()
    if text.startswith("{"):
        spec = SamplerSpec.from_json(text)
        if spec.J != j_dim:
            raise ValueError(f"sampler JSON has J={spec.J}, expected {j_dim}")
        return dataclasses.replace(spec, seed=seed)
    if text == "uniform":
        return SamplerSpec("uniform", j_dim, seed)
    if text.startswith("dirichlet:"):
        alpha = _parse_floats(text.removeprefix("dirichlet:"))
        return SamplerSpec("dirichlet", j_dim, seed, alpha=alpha)
    raise ValueError(f"unknown sampler {text!r}; use 'uniform', 'dirichlet:...', or JSON")


def _out_base(args: argparse.Namespace) -> str:
    """Resolve ``--out`` to the output base path, recorded in the manifest."""
    args.out = args.out or _default_path(args.subcommand)
    return args.out


def _write_optional_json(out: str | None, obj) -> list[str]:
    """Write ``obj`` to ``out`` (``.json`` appended if missing) when ``out`` is set."""
    if not out:
        return []
    path = out if out.endswith(".json") else out + ".json"
    _write_json(path, obj)
    return [path]


def _cmd_growth(args) -> list[str]:
    grid = _parse_grid(args.n_grid)
    sampler = _parse_sampler(args.sampler, args.J, args.seed)
    cfg = ExperimentConfig(n_grid=grid, reps=args.reps, sampler=sampler)
    curve = growth_experiment(cfg, threads=args.threads)
    args.n_grid, args.sampler = list(grid), json.loads(sampler.to_json())
    base = _out_base(args)
    csv_path = base + ".csv"
    _write_csv(
        csv_path,
        ["n", "mean_f0", "var_f0", "stderr", "reps"],
        [
            (int(n), m, v, s, curve.reps)
            for n, m, v, s in zip(curve.n, curve.mean_f0, curve.var_f0, curve.stderr)
        ],
    )
    fit_path = base + ".fit.json"
    try:
        fit = fit_growth(curve)
        fit_obj = {
            "c_hat": fit.c_hat,
            "p_hat": fit.p_hat,
            "r_squared": fit.r_squared,
            "residuals": fit.residuals,
            "exponent_candidates": {"J_minus_1": args.J - 1, "J_minus_2": args.J - 2},
        }
    except ValueError as exc:
        fit_obj = {"fit": None, "reason": str(exc)}
    _write_json(fit_path, fit_obj)
    return [csv_path, fit_path]


def _cmd_clt(args) -> list[str]:
    report = clt_experiment(args.J, args.n, args.reps, args.seed, threads=args.threads)
    base = _out_base(args)
    csv_path = base + ".csv"
    _write_csv(csv_path, ["standardized_f0"], [(z,) for z in report.standardized])
    json_path = base + ".json"
    _write_json(
        json_path,
        {
            "ks_stat": report.ks_stat,
            "n": report.n,
            "reps": report.reps,
            "mean_f0": report.mean_f0,
            "sd_f0": report.sd_f0,
        },
    )
    return [csv_path, json_path]


def _cmd_gamma(args) -> list[str]:
    grid = _parse_grid(args.n_grid)
    sampler_g = _parse_sampler(args.sampler_g, args.J, args.seed)
    seq = gamma_experiment(grid, args.reps, sampler_g, threads=args.threads)
    args.n_grid, args.sampler_g = list(grid), json.loads(sampler_g.to_json())
    csv_path = _out_base(args) + ".csv"
    _write_csv(
        csv_path,
        ["n", "gamma_n", "se", "mean_t", "se_t", "mean_m", "se_m"],
        [
            (int(n), g, s, mt, st, mm, sm)
            for n, g, s, mt, st, mm, sm in zip(
                seq.n, seq.gamma_n, seq.se, seq.mean_t, seq.se_t, seq.mean_m, seq.se_m
            )
        ],
    )
    return [csv_path]


def _cmd_hull_limit(args) -> list[str]:
    grid = _parse_grid(args.n_grid)
    trace = hull_limit_experiment(args.J, grid, args.seed)
    args.n_grid = list(grid)
    csv_path = _out_base(args) + ".csv"
    _write_csv(csv_path, ["n", "hausdorff_to_simplex"], [(int(n), d) for n, d in trace])
    return [csv_path]


def _cmd_definetti(args) -> list[str]:
    bound = definetti_bound(args.m, args.L)
    print(format(bound.beta, ".12g"))
    return _write_optional_json(
        args.out, {"m": bound.m, "L": bound.L, "beta": bound.beta, "pair_bound": bound.pair_bound}
    )


def _read_vector(text: str) -> np.ndarray:
    if os.path.exists(text):
        return np.atleast_1d(np.loadtxt(text, delimiter=",", dtype=np.float64)).ravel()
    return np.asarray(_parse_floats(text))


def _cmd_choquet(args) -> list[str]:
    vertices = np.atleast_2d(np.loadtxt(args.frame, delimiter=",", dtype=np.float64))
    frame = make_frame(vertices)
    p = _read_vector(args.p)
    measure = choquet_measure(p, frame)
    recon = reconstruct(measure, frame)
    print(",".join(format(w, ".12g") for w in measure.weights))
    if not args.out:  # the error term divides by p.sum(): compute it only for output
        return []
    return _write_optional_json(
        args.out,
        {
            "weights": measure.weights,
            "reconstruction": recon,
            "reconstruction_error": float(np.linalg.norm(recon - p / p.sum())),
            "frame_cond": frame.cond,
        },
    )


def _cmd_polya(args) -> list[str]:
    weights = ChoquetMeasure(weights=np.asarray(_parse_floats(args.true_weights)))
    k_grid = _parse_grid(args.k_grid)
    trace = convergence_trace(weights, k_grid, args.alpha, args.seed)
    args.true_weights, args.k_grid = list(weights.weights), list(k_grid)
    args.depth = AtomEmbedding(weights.m).depth
    csv_path = _out_base(args) + ".csv"
    _write_csv(csv_path, ["k", "sup_error", "minimax_rate"], trace)
    return [csv_path]


def _cmd_fit_admixture(args) -> list[str]:
    x = load_docword(args.input)
    report = two_stage(
        x,
        l0=args.L0,
        pca_dim=args.pca_dim,
        max_rounds=args.max_rounds,
        restarts=args.restarts,
        seed=args.seed,
        threads=args.threads,
    )
    args.json_out = args.json_out or _default_path(args.subcommand, ".json")
    _write_json(
        args.json_out,
        {
            "l0": report.l0,
            "pca_dim": report.pca_dim,
            "seed": report.seed,
            "final_m": report.final_m,
            "rounds": [
                {
                    "round": r.round_index,
                    "components": r.l_components,
                    "loglik": r.loglik,
                    "iterations": r.n_iters,
                    "stop": r.stop,
                    "pca_dim_attained": r.pca_dim,
                    "explained_variance": r.explained_variance,
                    "extrema_count": r.extrema_count,
                }
                for r in report.rounds
            ],
            "loglik": report.model.loglik,
            "smoothing": report.model.smoothing,
            "restart": report.model.restart,
            "identifiable": report.identifiable,
            "choquet_note": report.choquet_note,
            "term_remap": report.term_remap,
            "warnings": list(report.warnings),
        },
    )
    args.csv_dir = args.csv_dir or _out_dir()
    phi_path = os.path.join(args.csv_dir, "phi.csv")
    f_path = os.path.join(args.csv_dir, "f.csv")
    os.makedirs(args.csv_dir, exist_ok=True)
    _write_matrix(phi_path, report.model.phi)
    _write_matrix(f_path, report.model.f)
    return [args.json_out, phi_path, f_path]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexmix",
        description="Hull-extrema growth, weight recovery and admixture pruning on the unit simplex.",
    )
    parser.add_argument("--version", action="version", version=f"simplexmix {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=True, threads=False, out=_OUT_HELP):
        """Add the shared flags; ``out`` is the help of ``--out``, or None for no ``--out``."""
        if seed:
            p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        if threads:
            p.add_argument("--threads", type=int, default=1, help="worker threads; results identical for any count")
        if out:
            p.add_argument("--out", default=None, help=out)
        p.add_argument("--manifest", default=None, help="run manifest path (default <out-dir>/<subcommand>.manifest.json)")

    p = sub.add_parser("growth", help="hull extrema growth curve and (log n)^p fit")
    p.add_argument("--J", type=int, required=True, help="simplex dimension (>= 2)")
    p.add_argument("--n-grid", default=",".join(map(str, DEFAULT_N_GRID)), help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=100, help="replicates per grid point")
    p.add_argument("--sampler", default="uniform", help="'uniform', 'dirichlet:a1,...', or SamplerSpec JSON; --seed replaces its seed")
    common(p, threads=True)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("clt", help="normality diagnostics for standardized extrema counts")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="points per cloud")
    p.add_argument("--reps", type=int, default=500, help="replicates (>= 100)")
    common(p, threads=True)
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("gamma", help="extrema-count ratios: generic sampler vs uniform")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--n-grid", default=",".join(map(str, DEFAULT_N_GRID)))
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--sampler-g", default="uniform", help="generic-arm sampler, in the forms of growth --sampler")
    common(p, threads=True)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("hull-limit", help="Hausdorff distance of nested hulls to the simplex")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--n-grid", default=",".join(map(str, DEFAULT_N_GRID)))
    common(p)
    p.set_defaults(func=_cmd_hull_limit)

    p = sub.add_parser("definetti", help="exchangeable-to-iid total-variation bound beta(m, L)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    common(p, seed=False, out=_OPTIONAL_JSON_HELP)
    p.set_defaults(func=_cmd_definetti)

    p = sub.add_parser("choquet", help="barycentric weights of a point over a frame")
    p.add_argument("--frame", required=True, help="CSV of frame vertices, one per row")
    p.add_argument("--p", required=True, help="point: comma-separated values or a CSV path")
    common(p, seed=False, out=_OPTIONAL_JSON_HELP)
    p.set_defaults(func=_cmd_choquet)

    p = sub.add_parser("polya", help="posterior weight-recovery trace for a finite atom set")
    p.add_argument("--alpha", type=float, default=1.0, help="smoothness exponent in (0, 1]")
    p.add_argument("--true-weights", required=True, help="comma-separated true atom weights")
    p.add_argument("--k-grid", default="100,1000,10000", help="sample sizes")
    common(p)
    p.set_defaults(func=_cmd_polya)

    p = sub.add_parser("fit-admixture", help="two-stage admixture fit on a UCI bag-of-words file")
    p.add_argument("--input", required=True, help="docword file: D, W, NNZ header then 'doc word count' lines")
    p.add_argument("--L0", type=int, required=True, help="initial component budget")
    p.add_argument("--pca-dim", type=int, default=5)
    p.add_argument("--max-rounds", type=int, default=2)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--json-out", default=None, help="pipeline report path")
    p.add_argument("--csv-dir", default=None, help="directory for phi.csv and f.csv")
    common(p, threads=True, out=None)
    p.set_defaults(func=_cmd_fit_admixture)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it
    unchanged, and defaults that depend on the environment are resolved by
    the commands at run time."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        outputs = args.func(args)
    except (ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    config = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand", "manifest")}
    config.setdefault("seed", None)
    _write_manifest(args.subcommand, args.manifest, config, outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
