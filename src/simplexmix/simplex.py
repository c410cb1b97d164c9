"""Probability vectors on the unit simplex and reproducible simplex samplers.

A probability vector is represented as a plain 1-D ``numpy`` array that has
been passed through :func:`validate` (nonnegative, normalized to sum 1).
Sampling is driven by a :class:`SamplerSpec`, a frozen value object that
carries the distribution kind, the dimension and the seed, so identical specs
always reproduce identical streams.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "NEGATIVE_TOL",
    "SamplerSpec",
    "validate",
    "sample",
    "child_seed",
]

# Coordinates below -NEGATIVE_TOL are rejected; tiny negatives are clipped.
NEGATIVE_TOL = 1e-12

_KINDS = ("uniform", "dirichlet", "point-mass")


def _integer(value, low: int, high: float, message: str) -> int:
    """``value`` as an int in ``[low, high)``; a bool, a string, a fraction,
    nan, inf or a value out of range raises ``ValueError(message)``."""
    try:
        if not isinstance(value, bool) and int(value) == value and low <= value < high:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(message)


def validate(v) -> np.ndarray:
    """Validate a raw vector and return it normalized onto the simplex.

    Raises ``ValueError`` for non-finite entries, coordinates more negative
    than ``-NEGATIVE_TOL``, or an (effectively) all-zero vector.  Negative
    coordinates within the tolerance are clipped to 0 before normalization.
    """
    arr = np.array(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite coordinates")
    low = arr.min()
    if low < -NEGATIVE_TOL:
        raise ValueError(f"negative coordinate {float(low)!r} below tolerance -{NEGATIVE_TOL}")
    if low < 0.0:
        arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if total <= 0.0:
        raise ValueError("vector sums to zero; cannot normalize")
    return arr / total


@dataclass(frozen=True)
class SamplerSpec:
    """Specification of a distribution on the unit simplex.

    kind
        ``"uniform"`` (flat on the simplex), ``"dirichlet"`` (requires
        ``alpha``), or ``"point-mass"`` (mixture of atoms; requires ``atoms``
        and ``weights``).
    J
        Dimension of the ambient simplex, at least 2.
    seed
        64-bit unsigned seed; the stream is a pure function of the spec.
    """

    kind: str
    J: int
    seed: int
    alpha: tuple[float, ...] | None = None
    atoms: tuple[tuple[float, ...], ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        kind = self.kind
        if kind not in _KINDS:
            raise ValueError(f"unknown sampler kind {kind!r}")
        object.__setattr__(self, "J", _integer(self.J, 2, math.inf, f"J must be an integer >= 2, got {self.J!r}"))
        object.__setattr__(self, "seed", _integer(self.seed, 0, 2**64, f"seed must be an integer in [0, 2**64), got {self.seed!r}"))
        if kind == "dirichlet":
            if self.alpha is None:
                raise ValueError("dirichlet sampler requires alpha")
            alpha = tuple(float(a) for a in self.alpha)
            if len(alpha) != self.J:
                raise ValueError(f"alpha has length {len(alpha)}, expected J={self.J}")
            if not all(0.0 < a < math.inf for a in alpha):
                raise ValueError(f"dirichlet alpha coordinates must be finite and strictly positive, got {alpha}")
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise ValueError(f"alpha is only valid for the dirichlet kind, not {kind!r}")
        if kind == "point-mass":
            if self.atoms is None or self.weights is None:
                raise ValueError("point-mass sampler requires atoms and weights")
            atoms = tuple(tuple(map(float, validate(a))) for a in self.atoms)
            if any(len(a) != self.J for a in atoms):
                raise ValueError("every atom must have length J")
            weights = tuple(map(float, validate(self.weights)))
            if len(weights) != len(atoms):
                raise ValueError("weights must have one entry per atom")
            object.__setattr__(self, "atoms", atoms)
            object.__setattr__(self, "weights", weights)
        elif self.atoms is not None or self.weights is not None:
            raise ValueError("atoms/weights are only valid for the point-mass kind")

    def to_json(self) -> str:
        """Serialize to a JSON object like ``{"kind":"uniform","J":3,"seed":42}``:
        the keys are the fields that are not None."""
        obj = {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SamplerSpec":
        """Parse a ``to_json`` object.  A key that is not a field, a null,
        ``weights`` without ``atoms`` or a missing key raises ``ValueError``:
        none is dropped or defaulted."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("sampler JSON must be an object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"sampler JSON has the unknown key(s) {', '.join(map(repr, unknown))}")
        for key, value in obj.items():
            if value is None:
                raise ValueError(f"sampler JSON has null for the key {key!r}")
        if "weights" in obj and "atoms" not in obj:
            raise ValueError("sampler JSON has the key 'weights' without the key 'atoms'")
        for key in ("weights", "kind", "J", "seed") if "atoms" in obj else ("kind", "J", "seed"):
            if key not in obj:
                raise ValueError(f"sampler JSON lacks the key {key!r}")
        return cls(**obj)


def sample(spec: SamplerSpec, n: int) -> np.ndarray:
    """Draw ``n`` iid points from ``spec`` as an ``(n, J)`` array of rows.

    The stream is a pure function of ``(spec, n)``: repeated calls are
    bit-identical.  Uniform draws normalize J standard exponentials (exact on
    the simplex, no rejection); Dirichlet draws are numpy's ``dirichlet``,
    whose small-alpha route never leaves a row of all-zero Gamma draws.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        g = rng.standard_exponential(size=(n, spec.J))
    elif spec.kind == "dirichlet":
        return rng.dirichlet(spec.alpha, size=n)
    else:  # point-mass
        atoms = np.asarray(spec.atoms, dtype=np.float64)
        idx = rng.choice(len(atoms), size=n, p=np.asarray(spec.weights))
        return atoms[idx]
    return g / g.sum(axis=1, keepdims=True)


def child_seed(base_seed: int, *key: int) -> int:
    """Derive a deterministic child seed from ``base_seed`` and an index path.

    Uses numpy's splittable ``SeedSequence`` spawn keys, so parallel and
    sequential replication schedules yield identical streams.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _map_indexed(fn, tasks, threads: int) -> list:
    """``[fn(t) for t in tasks]``, on ``threads`` workers when above 1.

    Workers take tasks in the order given, so a caller sets the schedule by
    ordering ``tasks``.  Results keep the order of ``tasks``; with each
    task's randomness drawn from its own ``child_seed``, the output is the
    same for any thread count.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))
