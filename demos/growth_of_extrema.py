"""How fast does the hull of uniform simplex samples gain vertices?

Draws clouds of increasing size on the 2-simplex (J=3), counts the extreme
points of their convex hulls, and fits mean counts to c * (log n)^p.  The
segment case (J=2) is shown first as the degenerate baseline: its hull always
has exactly two vertices.
"""

from simplexmix import (
    ExperimentConfig,
    SamplerSpec,
    c_constant,
    fit_growth,
    growth_experiment,
)

# J=2: every cloud on the segment has exactly two extreme points.
cfg2 = ExperimentConfig(n_grid=(10, 100, 1000), reps=50, sampler=SamplerSpec("uniform", 2, 0))
curve2 = growth_experiment(cfg2)
print("J=2 mean extrema (always 2):", curve2.mean_f0, "variance:", curve2.var_f0)

# J=3: counts grow; the interesting question is the exponent.
cfg3 = ExperimentConfig(n_grid=(100, 316, 1000, 3162, 10000), reps=200, sampler=SamplerSpec("uniform", 3, 42))
curve3 = growth_experiment(cfg3, threads=2)

print("\n  n      mean F0   stderr")
for n, m, s in zip(curve3.n, curve3.mean_f0, curve3.stderr):
    print(f"  {n:>6d}  {m:7.3f}  {s:.3f}")

fit = fit_growth(curve3)
print(f"\nfit: mean F0 ~ {fit.c_hat:.3f} * (log n)^{fit.p_hat:.3f}   (r^2 = {fit.r_squared:.5f})")
print("exponent candidates to compare against: J-1 =", 2, " and J-2 =", 1)
print("tower-count constant c(3) =", c_constant(3))
