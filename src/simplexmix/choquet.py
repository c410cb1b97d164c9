"""Unique barycentric weight recovery over a simplex frame.

A frame is a set of M = J affinely independent probability vectors in the
J-dimensional simplex; every point of their hull has a unique representing
weight vector over the frame vertices.  `choquet_measure` reads it off the
one nonnegative-least-squares solve that also gives the point's distance to
the frame hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hull import _hull_distance, is_extreme
from .simplex import validate

__all__ = [
    "MEMBERSHIP_TOL",
    "COND_LIMIT",
    "OutsideHullError",
    "FrameConditionError",
    "SimplexFrame",
    "ChoquetMeasure",
    "make_frame",
    "choquet_measure",
    "reconstruct",
]

# Points within this distance of the frame hull get the weights of their
# nearest hull point.
MEMBERSHIP_TOL = 1e-8
# Frames with a worse condition number of the affine system are rejected.
COND_LIMIT = 1e10
_AFFINE_RANK_TOL = 1e-9


class OutsideHullError(ValueError):
    """Raised for points beyond the membership tolerance; carries the distance."""

    def __init__(self, distance: float):
        super().__init__(f"point lies outside the frame hull (distance {distance:.6g} > {MEMBERSHIP_TOL:g})")
        self.distance = distance


class FrameConditionError(RuntimeError):
    """Raised when the frame's affine system is numerically unusable."""


@dataclass(frozen=True)
class SimplexFrame:
    """M = J affinely independent simplex points plus the system condition."""

    vertices: np.ndarray
    cond: float

    @property
    def m(self) -> int:
        return self.vertices.shape[0]

    @property
    def J(self) -> int:
        return self.vertices.shape[1]


def make_frame(vertices) -> SimplexFrame:
    """Validate vertices into a frame, or raise naming the violated invariant.

    Checks M = J, affine independence (smallest singular value of the
    difference matrix above 1e-9), every vertex extreme among the set at
    the hull module's ``EXTREME_TOL``, and the condition number of the
    augmented affine system.
    """
    rows = [validate(v) for v in np.atleast_2d(np.asarray(vertices, dtype=np.float64))]
    v = np.asarray(rows)
    m, j = v.shape
    if m != j:
        raise ValueError(f"frame must have M = J vertices; got M={m} in dimension J={j}")
    if m < 2:
        raise ValueError("frame needs at least 2 vertices")
    diffs = v[:-1] - v[-1]
    smin = np.linalg.svd(diffs, compute_uv=False)[-1]
    if smin <= _AFFINE_RANK_TOL:
        raise ValueError(f"vertices are affinely dependent (smallest singular value {smin:.3g} <= {_AFFINE_RANK_TOL:g})")
    inner = [i for i in range(m) if not is_extreme(i, v)]
    if inner:
        raise ValueError(f"vertex {inner[0]} lies inside the hull of the others")
    cond = float(np.linalg.cond(np.vstack([v.T, np.ones(m)])))  # vertex columns over a row of ones
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise FrameConditionError(f"frame condition number {cond:.3g} exceeds {COND_LIMIT:g}")
    v.setflags(write=False)
    return SimplexFrame(vertices=v, cond=cond)


@dataclass(frozen=True)
class ChoquetMeasure:
    """Probability weights over the vertices of a frame."""

    weights: np.ndarray

    def __post_init__(self):
        w = validate(self.weights)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.size


def choquet_measure(p, frame: SimplexFrame) -> ChoquetMeasure:
    """Weights w with p = sum_l w_l f_l, sum w = 1, over the frame vertices.

    One NNLS solve gives the point's distance to the frame hull and the
    weights of its nearest hull point; on a frame those weights are unique.
    The point must be within MEMBERSHIP_TOL of the hull (the error carries
    the offending distance otherwise).
    """
    p = validate(p)
    if p.size != frame.J:
        raise ValueError(f"point has dimension {p.size}, frame expects {frame.J}")
    dist, lam = _hull_distance(p, frame.vertices)
    if dist > MEMBERSHIP_TOL:
        raise OutsideHullError(dist)
    return ChoquetMeasure(weights=lam)


def reconstruct(w: ChoquetMeasure, frame: SimplexFrame) -> np.ndarray:
    """The convex combination sum_l w_l f_l; always a valid simplex point."""
    if w.m != frame.m:
        raise ValueError(f"weight length {w.m} != frame size {frame.m}")
    return validate(frame.vertices.T @ w.weights)
