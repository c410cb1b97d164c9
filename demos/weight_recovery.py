"""Recovering mixture weights two ways.

A point inside a simplex frame (J affinely independent probability vectors)
has a unique barycentric weight vector; `choquet_measure` solves for it
directly.  When instead of the point we only see iid draws of frame vertices,
a Polya tree posterior over the atom cells estimates the same weights, at the
benchmark rate (log k / k)^(alpha / (2 alpha + 1)).
"""

import numpy as np

from simplexmix import choquet_measure, convergence_trace, make_frame, reconstruct
from simplexmix.choquet import ChoquetMeasure

# Direct route: solve the affine system over a random frame.
rng = np.random.default_rng(5)
frame = make_frame(rng.dirichlet((4.0, 4.0, 4.0), size=3))
truth = np.array([0.1, 0.6, 0.3])
point = frame.vertices.T @ truth

measure = choquet_measure(point, frame)
print("true weights:     ", truth)
print("recovered weights:", np.round(measure.weights, 10))
print("reconstruction gap:", np.linalg.norm(reconstruct(measure, frame) - point))

# Sampling route: observe atoms drawn with the true weights, update the tree.
print("\n  k        sup-norm error   benchmark rate")
for k, err, rate in convergence_trace(ChoquetMeasure(weights=truth), (100, 1000, 10000, 100000), alpha=1.0, seed=1):
    print(f"  {k:>7d}  {err:14.5f}   {rate:.5f}")
