"""Monte Carlo experiments on hull-extrema growth over the unit simplex.

Growth curves for the expected number of extreme points of the hull of n iid
simplex draws, a log-log-log exponent fit, normality (KS) diagnostics for the
standardized extrema counts, ratio sequences comparing a generic sampler to
the uniform one, nested-hull Hausdorff convergence to the full simplex, and
the exchangeable-to-iid total-variation bound.

Every experiment derives one stream per cloud from a root seed through a
splittable seed tree (each experiment's docstring gives its keys), so results
are independent of worker scheduling.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .hull import PointSet, extremal_set, point_to_hull_distance
from .simplex import SamplerSpec, _map_indexed, child_seed, sample

__all__ = [
    "DEFAULT_N_GRID",
    "ExperimentConfig",
    "GrowthCurve",
    "GrowthFit",
    "CLTReport",
    "GammaSequence",
    "ExchangeabilityBound",
    "normal_cdf",
    "ks_distance",
    "growth_experiment",
    "fit_growth",
    "clt_experiment",
    "gamma_experiment",
    "hull_limit_experiment",
    "definetti_bound",
]

# Log-spaced so the log(log n) regressor has spread.
DEFAULT_N_GRID = (100, 316, 1000, 3162, 10000)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of sample sizes, replicate count and sampler.

    The sampler's J is the simplex dimension and its seed the root of the
    seed tree.
    """

    n_grid: tuple[int, ...]
    reps: int
    sampler: SamplerSpec

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 1:
            raise ValueError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n_grid must be strictly increasing, got {grid}")
        if grid[0] < self.sampler.J + 1:
            raise ValueError(f"min(n_grid) must be >= J+1 = {self.sampler.J + 1}, got {grid[0]}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        object.__setattr__(self, "n_grid", grid)


@dataclass(frozen=True)
class GrowthCurve:
    """Per-n mean/variance/standard error of the extrema count."""

    n: np.ndarray
    mean_f0: np.ndarray
    var_f0: np.ndarray
    stderr: np.ndarray
    reps: int


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of log(mean_f0) = log(c) + p*log(log n)."""

    c_hat: float
    p_hat: float
    r_squared: float
    residuals: np.ndarray


@dataclass(frozen=True)
class CLTReport:
    """Standardized extrema counts and their KS distance to the normal."""

    standardized: np.ndarray
    ks_stat: float
    n: int
    reps: int
    mean_f0: float
    sd_f0: float


@dataclass(frozen=True)
class GammaSequence:
    """Per-n ratio of mean extrema counts: generic sampler over uniform."""

    n: np.ndarray
    gamma_n: np.ndarray
    se: np.ndarray
    mean_t: np.ndarray
    se_t: np.ndarray
    mean_m: np.ndarray
    se_m: np.ndarray


@dataclass(frozen=True)
class ExchangeabilityBound:
    """Total-variation bound beta(m, L) = 1 - m^-L * m!/(m-L)!."""

    m: int
    L: int
    beta: float
    pair_bound: float = dataclasses.field(init=False)  # the elementary upper bound L(L-1)/(2m)

    def __post_init__(self):
        object.__setattr__(self, "pair_bound", self.L * (self.L - 1) / (2.0 * self.m))


def _f0_counts(spec: SamplerSpec, clouds, threads: int) -> np.ndarray:
    """Extrema count of each ``(n, key)`` cloud: n points drawn from ``spec``
    at seed ``child_seed(spec.seed, *key)``, in the order of ``clouds``.

    Clouds start largest first, clouds of equal n in the order given: the
    pool's workers take tasks in submission order, so a large cloud started
    last would run on alone after the other workers have finished.  The
    counts are scattered back into the order of ``clouds``.
    """

    def f0(cloud):
        n, seed = cloud
        return extremal_set(PointSet(sample(dataclasses.replace(spec, seed=seed), n))).f0

    seeded = [(n, child_seed(spec.seed, *key)) for n, key in clouds]
    order = sorted(range(len(seeded)), key=lambda i: seeded[i][0], reverse=True)
    counts = np.empty(len(seeded), dtype=np.float64)
    counts[order] = _map_indexed(f0, [seeded[i] for i in order], threads)
    return counts


def growth_experiment(cfg: ExperimentConfig, threads: int = 1) -> GrowthCurve:
    """Estimate mean and variance of the hull extrema count over cfg.n_grid.

    Cloud (g, r), grid index g and replicate r, draws at
    ``child_seed(cfg.sampler.seed, g, r)``, so the output is identical for
    any thread count.
    """
    clouds = [(n, (g, r)) for g, n in enumerate(cfg.n_grid) for r in range(cfg.reps)]
    f0 = _f0_counts(cfg.sampler, clouds, threads).reshape(len(cfg.n_grid), cfg.reps)
    mean = f0.mean(axis=1)
    var = f0.var(axis=1, ddof=1) if cfg.reps > 1 else np.zeros(len(cfg.n_grid))
    return GrowthCurve(
        n=np.asarray(cfg.n_grid, dtype=np.int64),
        mean_f0=mean,
        var_f0=var,
        stderr=np.sqrt(var / cfg.reps),
        reps=cfg.reps,
    )


def fit_growth(curve: GrowthCurve) -> GrowthFit:
    """Fit mean_f0 ~ c * (log n)^p by regressing log(mean) on log(log n).

    Needs at least 3 grid points with n >= 10.  r_squared is 1.0 for an
    exactly flat curve (zero residuals, zero total variation).
    """
    keep = curve.n >= 10
    n = curve.n[keep]
    y = curve.mean_f0[keep]
    if n.size < 3:
        raise ValueError(f"need >= 3 grid points with n >= 10, have {n.size}")
    if np.any(y <= 0):
        raise ValueError("mean_f0 must be positive to fit the log model")
    x = np.log(np.log(n))
    ylog = np.log(y)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, ylog, rcond=None)
    fitted = design @ coef
    resid = ylog - fitted
    ss_res = float(resid @ resid)
    ss_tot = float(((ylog - ylog.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return GrowthFit(
        c_hat=float(np.exp(coef[0])),
        p_hat=float(coef[1]),
        r_squared=float(min(max(r2, 0.0), 1.0)),
        residuals=resid,
    )


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF via erf (absolute error below 1e-12)."""
    from scipy.special import erf

    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def ks_distance(sample_values, cdf=normal_cdf) -> float:
    """One-sample Kolmogorov distance sup_x |F_emp(x) - cdf(x)|.

    Exact for tied samples: at each order statistic both the upper step
    (i/n) and the lower step ((i-1)/n) are compared to the model CDF.
    """
    xs = np.sort(np.asarray(sample_values, dtype=np.float64))
    m = xs.size
    if m == 0:
        raise ValueError("empty sample")
    c = cdf(xs)
    upper = np.arange(1, m + 1) / m - c
    lower = c - np.arange(0, m) / m
    return float(max(upper.max(), lower.max()))


def clt_experiment(J: int, n: int, reps: int, seed: int, threads: int = 1) -> CLTReport:
    """Standardize reps extrema counts at sample size n; KS against normal.

    Uniform simplex sampling, cloud r at ``child_seed(seed, r)``; raises on
    zero sample variance (the J=2 segment is degenerate: the count is
    always 2).
    """
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    f0 = _f0_counts(SamplerSpec("uniform", J, seed), [(n, (r,)) for r in range(reps)], threads)
    mean = float(f0.mean())
    sd = float(f0.std(ddof=1))
    if sd == 0.0:
        raise ValueError(f"degenerate (zero) variance of the extrema count at J={J}; CLT diagnostics unsupported")
    z = (f0 - mean) / sd
    return CLTReport(
        standardized=z,
        ks_stat=ks_distance(z),
        n=n,
        reps=reps,
        mean_f0=mean,
        sd_f0=sd,
    )


def gamma_experiment(n_grid, reps: int, sampler_g: SamplerSpec, threads: int = 1) -> GammaSequence:
    """Ratio of mean extrema counts under sampler_g versus the uniform law.

    Both arms take J from sampler_g, and arm a (0 uniform, 1 sampler_g) runs
    the growth experiment rooted at ``child_seed(sampler_g.seed, a)``: a
    shared stream would make the uniform-vs-uniform ratio trivially 1.
    Standard errors for the ratio come from the delta method on the two arm
    means.
    """
    seed = sampler_g.seed
    m_curve, t_curve = (
        growth_experiment(
            ExperimentConfig(tuple(n_grid), reps, dataclasses.replace(spec, seed=child_seed(seed, arm))),
            threads=threads,
        )
        for arm, spec in enumerate((SamplerSpec("uniform", sampler_g.J, seed), sampler_g))
    )
    gamma = t_curve.mean_f0 / m_curve.mean_f0
    rel = np.sqrt(
        (t_curve.stderr / t_curve.mean_f0) ** 2 + (m_curve.stderr / m_curve.mean_f0) ** 2
    )
    return GammaSequence(
        n=m_curve.n,
        gamma_n=gamma,
        se=np.abs(gamma) * rel,
        mean_t=t_curve.mean_f0,
        se_t=t_curve.stderr,
        mean_m=m_curve.mean_f0,
        se_m=m_curve.stderr,
    )


def hull_limit_experiment(J: int, n_grid, seed: int) -> list[tuple[int, float]]:
    """Hausdorff distance from nested hulls K_n to the full simplex.

    One stream of max(n_grid) uniform points; each grid n takes the prefix,
    so the hulls are nested and the distances non-increasing.  The distance
    to the simplex is attained at a simplex vertex, so only J distance
    evaluations are needed per grid point.
    """
    grid = [int(n) for n in n_grid]
    if not grid:
        raise ValueError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise ValueError(f"n_grid must be strictly increasing and positive, got {grid}")
    cloud = sample(SamplerSpec("uniform", J, seed), grid[-1])
    eye = np.eye(J)
    out = []
    for n in grid:
        prefix = cloud[:n]
        d = max(point_to_hull_distance(eye[j], prefix) for j in range(J))
        out.append((n, d))
    return out


def definetti_bound(m: int, L: int) -> ExchangeabilityBound:
    """beta(m, L) = 1 - m^-L * m!/(m-L)!, via log-factorials for stability.

    Requires 1 <= L <= m.  Always satisfies beta <= L(L-1)/(2m).
    """
    from scipy.special import gammaln

    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if L > m:
        raise ValueError(f"L must be <= m, got L={L}, m={m}")
    if L == 1:
        return ExchangeabilityBound(m=int(m), L=1, beta=0.0)
    log_term = gammaln(m + 1) - gammaln(m - L + 1) - L * math.log(m)
    beta = -math.expm1(log_term)
    # The exact value is always in [0, 1); keep rounding inside that range.
    beta = min(max(beta, 0.0), math.nextafter(1.0, 0.0))
    return ExchangeabilityBound(m=int(m), L=int(L), beta=beta)
