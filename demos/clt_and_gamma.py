"""Distributional diagnostics for the extrema count.

First: standardize the extrema counts of many replicate clouds and measure
their Kolmogorov distance to the standard normal; an intentionally skewed
control (standardized exponentials) shows the statistic has teeth.  Second:
compare extrema counts under a non-uniform sampler to the uniform baseline
through the per-n ratio sequence.
"""

import numpy as np

from simplexmix import SamplerSpec, clt_experiment, gamma_experiment, ks_distance

report = clt_experiment(J=3, n=2000, reps=600, seed=0, threads=2)
print(f"standardized extrema counts: ks = {report.ks_stat:.4f} "
      f"(mean {report.mean_f0:.2f}, sd {report.sd_f0:.2f})")

rng = np.random.default_rng(0)
control = rng.standard_exponential(600)
control = (control - control.mean()) / control.std(ddof=1)
print(f"skewed control:              ks = {ks_distance(control):.4f}")

# Ratio of mean extrema counts: Dirichlet(2,2,2) clouds vs uniform clouds.
seq = gamma_experiment(
    n_grid=(100, 1000, 10000), reps=100, sampler_g=SamplerSpec("dirichlet", 3, 0, alpha=(2.0, 2.0, 2.0))
)
print("\n  n      gamma_n   se")
for n, g, s in zip(seq.n, seq.gamma_n, seq.se):
    print(f"  {n:>6d}  {g:6.4f}  {s:.4f}")
print("ratios stay bounded away from zero.")
