"""Batch command-line front end: every experiment wired to files.

Each subcommand validates flags, delegates to the library and writes CSV/JSON
outputs.  ``main`` then writes a run manifest: every flag as the command
resolved it (parsed grids, sampler JSON, default paths), the seed, the package
version and the sha256 of every output, so any run can be reproduced
byte-for-byte from its manifest.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.

Every CSV is one float matrix under an optional header line, written by
``_write_matrix``: each cell is CPython's ``'%.17g'`` bytes of its value, made
by vectorized formatting (an integer-valued count below 1e17 prints as its
digits).  JSON floats use Python's shortest round-trip representation.  The
only environment variable honored is SIMPLEXMIX_OUT_DIR (default output
directory).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .admixture import load_docword, two_stage
from .asymptotics import (
    DEFAULT_N_GRID,
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


# _write_matrix formats this many cells at a time, in buffers of about 400
# bytes a cell.
_G17_BLOCK = 2048
# Cells with magnitude in [_G17_MIN, _G17_MAX) take the vectorized path; the
# splits of its exact products neither overflow nor underflow there.
_G17_MIN, _G17_MAX = 1e-280, 1e280
_G17_K0 = -282  # the tables cover decimal exponents in [_G17_K0, -_G17_K0)
_G17_WIDTH = 25  # the widest cell, '-1.2345678901234567e-308', and its separator
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# Byte layout of a cell's source row: 0..16 its 17 digits, the digit of
# 10**j at byte j; 20..22 its exponent's three digits; then the separator,
# the constants below and 0 bytes, which the writer drops.
_G17_SEP, _G17_DOT, _G17_MINUS, _G17_E, _G17_PLUS, _G17_ZERO, _G17_NUL = 24, 25, 26, 27, 28, 29, 31


@functools.cache
def _g17_tables() -> tuple:
    """Per decimal exponent k: 10**(16 - k) as hi + lo doubles and the split
    of hi, the bytes of |k| and the first row of its layout in the template
    table; the template table; and the byte strings of 0..9999, least
    significant digit first.

    A template lists, per output byte, the source byte of a cell with that
    ``%g`` layout, count of digits kept and sign.  The layouts are fixed
    point for k in [-4, 16] and exponent form by exponent sign and 2 or 3
    exponent digits.  Built at the first write, not at import.
    """
    ks = np.arange(_G17_K0, -_G17_K0)
    hi, lo = np.empty(ks.size), np.empty(ks.size)
    for i, q in enumerate((16 - ks).tolist()):  # exact integer arithmetic, each conversion correctly rounded
        if q >= 0:
            hi[i] = float(10**q)
            lo[i] = float(10**q - int(hi[i]))
        else:
            num, den = (1 / 10**-q).as_integer_ratio()
            hi[i] = num / den
            lo[i] = (den - num * 10**-q) / (den * 10**-q)
    c = _VELTKAMP * hi
    hi_hi = c - (c - hi)
    ak = np.abs(ks)
    exp_digits = np.zeros((ks.size, 4), dtype=np.uint8)
    exp_digits[:, :3] = np.stack([ak // 100, ak // 10 % 10, ak % 10], axis=1) + 48
    layout = np.where((ks >= -4) & (ks <= 16), ks + 4, 21 + 2 * (ks < 0) + (ak >= 100))
    rows = []
    for lay in range(25):
        k = lay - 4  # of the fixed-point layouts
        for kept in range(1, 18):
            digits = [16 - i for i in range(kept)]  # most significant first
            if k < 0:  # 0.000ddd
                body = [_G17_ZERO, _G17_DOT] + [_G17_ZERO] * (-k - 1) + digits
            elif lay < 21:  # k + 1 integer digits, then the fraction if a digit is left
                body = [16 - i for i in range(max(kept, k + 1))]
                if kept > k + 1:
                    body.insert(k + 1, _G17_DOT)
            else:  # d.ddde+XX
                neg, three = divmod(lay - 21, 2)
                body = digits[:1] + [_G17_DOT] * (kept > 1) + digits[1:]
                body += [_G17_E, _G17_MINUS if neg else _G17_PLUS] + [20, 21, 22][1 - three :]
            for sign in (0, 1):
                row = [_G17_MINUS] * sign + body + [_G17_SEP]
                rows.append(row + [_G17_NUL] * (_G17_WIDTH - len(row)))
    base = np.arange(0, 32 * _G17_BLOCK, 32)[:, None]
    chunk = np.arange(10000)
    chunks = np.stack([chunk % 10, chunk // 10 % 10, chunk // 100 % 10, chunk // 1000], axis=1).astype(np.uint8) + 48
    return (  # 34 template rows a layout: kept digits 1..17, by sign
        hi, lo, hi_hi, hi - hi_hi, exp_digits.view(np.uint32).ravel(), layout * 34,
        np.array(rows, dtype=np.intp), base, chunks.view(np.uint32).ravel(),
    )


def _g17_block(x: np.ndarray, sep: np.ndarray, src: np.ndarray, idx: np.ndarray, out: np.ndarray) -> bytes:
    """``'%.17g' % v`` followed by its separator byte, for each v of ``x``.

    With k = floor(log10|v|), the digits are D = round-half-even(|v| *
    10**(16 - k)).  Dekker's two-product of |v| and the hi part of 10**(16 -
    k) is exact, p + e; with r = e + |v| * lo, |v| * 10**(16 - k) - (p + r)
    is below 4e-15, and 0 where 10**(16 - k) is a double (lo == 0).  p is an
    integer (at least 2**53), so D = p + rint(r), ties to even.  A cell the
    fast path cannot certify takes ``'%.17g' % v``: a non-finite, zero,
    subnormal or out-of-domain value; a rounding fraction within 1e-9 of 1/2
    where lo != 0; or a k that log10 left one off next to a power of ten, or
    a D that rounds up to 1e17 (D outside (1e16, 1e17)).
    """
    hi, lo, hi_hi, hi_lo, exp_digits, layout, templates, base, chunks = _g17_tables()
    n = x.size
    a = np.abs(x)
    fast = (a >= _G17_MIN) & (a < _G17_MAX)  # false on nan
    a = np.where(fast, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _G17_K0
    ph, pl, phh, phl = hi[i], lo[i], hi_hi[i], hi_lo[i]
    c = _VELTKAMP * a
    ah = c - (c - a)
    al = a - ah
    p = a * ph
    e = ((ah * phh - p) + ah * phl + al * phh) + al * phl
    r = e + a * pl
    near = np.rint(r)
    frac = r - near  # exact
    exact = pl == 0.0
    d_near = p.astype(np.int64) + near.astype(np.int64)
    tie_odd = exact & (np.abs(frac) == 0.5) & (d_near % 2 == 1)
    digits = d_near + tie_odd * (2 * frac).astype(np.int64)  # ties to even
    # D == 1e16 is certified only where exact arithmetic shows |v| * 10**(16 - k) >= 1e16.
    at_least = (d_near > 10**16) | ((d_near == 10**16) & (frac >= 0))
    ok = fast & (exact | (np.abs(np.abs(frac) - 0.5) >= 1e-9)) & (digits < 10**17)
    ok &= (digits > 10**16) | ((digits == 10**16) & exact & at_least)
    src32 = src[:n].view(np.uint32)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    upper = rest // 10**8
    for col, v in ((2, upper), (0, rest - upper * 10**8)):
        v = v.astype(np.int32)
        v_hi = v // 10000
        src32[:, col] = chunks[v - v_hi * 10000]
        src32[:, col + 1] = chunks[v_hi]
    src[:n, 16] = lead + 48
    src32[:, 5] = exp_digits[i]
    src[:n, _G17_SEP] = sep
    kept = 17 - np.argmax(src[:n, :17] != 48, axis=1)  # drop trailing zeros
    idx, out = idx[:n], out[:n]
    np.take(templates, layout[i] + (kept - 1) * 2 + (x < 0), axis=0, out=idx, mode="clip")
    np.add(idx, base[:n], out=idx)
    np.take(src.ravel(), idx, out=out, mode="clip")
    for j in np.flatnonzero(~ok):
        cell = b"%.17g%c" % (x[j], sep[j])
        out[j] = 0
        out[j, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return out[out != 0].tobytes()


def _write_matrix(path: str, a: np.ndarray, header: tuple[str, ...] = ()) -> None:
    """Write the bytes of ``np.savetxt(path, a, delimiter=",", fmt="%.17g")``
    for a 2-D array, after the comma-joined ``header`` line if one is given:
    CPython's ``'%.17g'`` of each cell, made by vectorized formatting
    (``_g17_block``) a block of cells at a time.  Creates the parent
    directory."""
    a = np.asarray(a, dtype=np.float64)
    n, m = a.shape
    flat = a.ravel()
    src = np.zeros((min(_G17_BLOCK, flat.size), 32), dtype=np.uint8)
    src[:, _G17_DOT : _G17_ZERO + 1] = np.frombuffer(b".-e+0", dtype=np.uint8)
    idx = np.empty((src.shape[0], _G17_WIDTH), dtype=np.intp)
    out = np.empty((src.shape[0], _G17_WIDTH), dtype=np.uint8)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        if header:
            fh.write(",".join(header).encode() + b"\n")
        if not m:
            fh.write(b"\n" * n)
        for lo in range(0, flat.size, _G17_BLOCK):
            x = flat[lo : lo + _G17_BLOCK]
            sep = np.where(np.arange(lo + 1, lo + 1 + x.size) % m, 44, 10).astype(np.uint8)  # ',' or '\n'
            fh.write(_g17_block(x, sep, src, idx, out))


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


# argparse's usage error names the type= function: "invalid integer_list value: '10,x'".
def integer_list(text: str) -> tuple[int, ...]:
    return _parse_list(text, int, "grid", "integers")


def number_list(text: str) -> tuple[float, ...]:
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
        alpha = number_list(text.removeprefix("dirichlet:"))
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
    sampler = _parse_sampler(args.sampler, args.J, args.seed)
    curve = growth_experiment(args.n_grid, args.reps, sampler, threads=args.threads)
    args.sampler = json.loads(sampler.to_json())
    base = _out_base(args)
    csv_path = base + ".csv"
    table = np.column_stack([curve.n, curve.mean_f0, curve.var_f0, curve.stderr, np.full(len(curve.n), curve.reps)])
    _write_matrix(csv_path, table, ("n", "mean_f0", "var_f0", "stderr", "reps"))
    fit_path = base + ".fit.json"
    try:
        fit_obj = dataclasses.asdict(fit_growth(curve))
        fit_obj["exponent_candidates"] = {"J_minus_1": args.J - 1, "J_minus_2": args.J - 2}
    except ValueError as exc:
        fit_obj = {"fit": None, "reason": str(exc)}
    _write_json(fit_path, fit_obj)
    return [csv_path, fit_path]


def _cmd_clt(args) -> list[str]:
    report = clt_experiment(args.J, args.n, args.reps, args.seed, threads=args.threads)
    base = _out_base(args)
    csv_path = base + ".csv"
    _write_matrix(csv_path, report.standardized[:, None], ("standardized_f0",))
    summary = dataclasses.asdict(report)
    del summary["standardized"]
    json_path = base + ".json"
    _write_json(json_path, summary)
    return [csv_path, json_path]


def _cmd_gamma(args) -> list[str]:
    sampler_g = _parse_sampler(args.sampler_g, args.J, args.seed)
    seq = gamma_experiment(args.n_grid, args.reps, sampler_g, threads=args.threads)
    args.sampler_g = json.loads(sampler_g.to_json())
    csv_path = _out_base(args) + ".csv"
    _write_matrix(
        csv_path,
        np.column_stack([seq.n, seq.gamma_n, seq.se, seq.mean_t, seq.se_t, seq.mean_m, seq.se_m]),
        ("n", "gamma_n", "se", "mean_t", "se_t", "mean_m", "se_m"),
    )
    return [csv_path]


def _cmd_hull_limit(args) -> list[str]:
    trace = hull_limit_experiment(args.J, args.n_grid, args.seed)
    csv_path = _out_base(args) + ".csv"
    _write_matrix(csv_path, np.asarray(trace), ("n", "hausdorff_to_simplex"))
    return [csv_path]


def _cmd_definetti(args) -> list[str]:
    bound = definetti_bound(args.m, args.L)
    print(format(bound.beta, ".12g"))
    return _write_optional_json(args.out, dataclasses.asdict(bound))


def _read_csv(path: str, flag: str) -> np.ndarray:
    """``np.loadtxt`` of a comma-separated file; one that holds no numbers
    is a configuration error naming the file, without numpy's warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        a = np.loadtxt(path, delimiter=",", dtype=np.float64)
    if not a.size:
        raise ValueError(f"{flag} file {path!r} holds no numbers")
    return a


def _read_vector(text: str) -> np.ndarray:
    if os.path.exists(text):
        return np.atleast_1d(_read_csv(text, "--p")).ravel()
    return np.asarray(number_list(text))


def _cmd_choquet(args) -> list[str]:
    vertices = np.atleast_2d(_read_csv(args.frame, "--frame"))
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
    weights = ChoquetMeasure(weights=np.asarray(args.true_weights))
    trace = convergence_trace(weights, args.k_grid, args.alpha, args.seed)
    args.true_weights = list(weights.weights)
    args.depth = AtomEmbedding(weights.m).depth
    csv_path = _out_base(args) + ".csv"
    _write_matrix(csv_path, np.asarray(trace), ("k", "sup_error", "minimax_rate"))
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
    summary = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "model"}
    summary["rounds"] = [dataclasses.asdict(r) for r in report.rounds]
    summary.update(loglik=report.model.loglik, smoothing=report.model.smoothing, restart=report.model.restart)
    _write_json(args.json_out, summary)
    args.csv_dir = args.csv_dir or _out_dir()
    phi_path = os.path.join(args.csv_dir, "phi.csv")
    f_path = os.path.join(args.csv_dir, "f.csv")
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
    p.add_argument("--n-grid", type=integer_list, default=DEFAULT_N_GRID, help="comma-separated sample sizes")
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
    p.add_argument("--n-grid", type=integer_list, default=DEFAULT_N_GRID)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--sampler-g", default="uniform", help="generic-arm sampler, in the forms of growth --sampler")
    common(p, threads=True)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("hull-limit", help="Hausdorff distance of nested hulls to the simplex")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--n-grid", type=integer_list, default=DEFAULT_N_GRID)
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
    p.add_argument("--true-weights", type=number_list, required=True, help="comma-separated true atom weights")
    p.add_argument("--k-grid", type=integer_list, default=(100, 1000, 10000), help="sample sizes")
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
