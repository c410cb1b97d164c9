"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the speed a process gets drifts by half or more, in phases
that last from a second to over a minute, and the process's own CPU time
drifts with it (it is contention, not steal).  A median over one 30 s run
cannot average that out: five runs of clt-j3 had medians from 0.30 to 0.44 s.
So the benchmark times this kernel right before and right after each timed
operation, and scales the operation's time by the kernel's, which cancels the
drift.  The kernel does not use simplexmix, so a change to the program cannot
move it; it leans on the same things the program does: qhull, LAPACK and
numpy sorts, and many numpy operations on tiny arrays driven from the
interpreter, as in the min-norm-point loop.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import ConvexHull

# The scale of a normalized time: about the kernel's own shortest time on a
# 2-vCPU Intel Xeon VM, so that a normalized time is of the order of a raw one.
REF_S = 0.05
_REPS = 40
_SMALL_REPS = 3000

_rng = np.random.default_rng(20020_8409)
_POINTS = _rng.standard_normal((3000, 3))
_MATRIX = _rng.standard_normal((60, 60))
_VERTS = _rng.standard_normal((8, 6))
_X = _rng.standard_normal(6)


def reference_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        ConvexHull(_POINTS)
        np.linalg.solve(_MATRIX, _MATRIX)
        np.sort(_POINTS, axis=0)
    for _ in range(_SMALL_REPS):
        y = _X + 1e-3 * _VERTS[int(np.argmin(_VERTS @ _X))]
        np.dot(y, y)
    return time.perf_counter() - t0


def normalized(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to a machine on which the kernel takes ``REF_S``."""
    return seconds * REF_S / ((before + after) / 2.0)
