"""Probability vectors on the unit simplex and reproducible simplex samplers.

A probability vector is represented as a plain 1-D ``numpy`` array that has
been passed through :func:`validate` (nonnegative, normalized to sum 1).
Sampling is driven by a :class:`SamplerSpec`, a frozen value object that
carries the distribution kind, the dimension and the seed, so identical specs
always reproduce identical streams.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NEGATIVE_TOL",
    "SamplerSpec",
    "validate",
    "sample",
    "child_seed",
    "replicate",
]

# Coordinates below -NEGATIVE_TOL are rejected; tiny negatives are clipped.
NEGATIVE_TOL = 1e-12

_KIND_ALIASES = {
    "uniform": "uniform",
    "uniform-simplex": "uniform",
    "dirichlet": "dirichlet",
    "point-mass": "point-mass",
    "point-mass-mixture": "point-mass",
}


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
        raise ValueError(f"negative coordinate {low!r} below tolerance -{NEGATIVE_TOL}")
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
        kind = _KIND_ALIASES.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if int(self.J) != self.J or self.J < 2:
            raise ValueError(f"J must be an integer >= 2, got {self.J!r}")
        object.__setattr__(self, "J", int(self.J))
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))
        if kind == "dirichlet":
            if self.alpha is None:
                raise ValueError("dirichlet sampler requires alpha")
            alpha = tuple(float(a) for a in self.alpha)
            if len(alpha) != self.J:
                raise ValueError(f"alpha has length {len(alpha)}, expected J={self.J}")
            if min(alpha) <= 0.0:
                raise ValueError("dirichlet alpha coordinates must be strictly positive")
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
        """Serialize to a JSON object like ``{"kind":"uniform","J":3,"seed":42}``."""
        obj = {"kind": self.kind, "J": self.J, "seed": self.seed}
        if self.alpha is not None:
            obj["alpha"] = list(self.alpha)
        if self.atoms is not None:
            obj["atoms"] = [list(a) for a in self.atoms]
            obj["weights"] = list(self.weights)
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SamplerSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("sampler JSON must be an object")
        kwargs = {}
        if "alpha" in obj:
            kwargs["alpha"] = tuple(obj["alpha"])
        if "atoms" in obj:
            kwargs["atoms"] = tuple(tuple(a) for a in obj["atoms"])
            kwargs["weights"] = tuple(obj["weights"])
        return cls(kind=obj["kind"], J=obj["J"], seed=obj["seed"], **kwargs)


def sample(spec: SamplerSpec, n: int) -> np.ndarray:
    """Draw ``n`` iid points from ``spec`` as an ``(n, J)`` array of rows.

    The stream is a pure function of ``(spec, n)``: repeated calls are
    bit-identical.  Uniform draws normalize J standard exponentials (exact on
    the simplex, no rejection); Dirichlet draws normalize Gamma variates.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        g = rng.standard_exponential(size=(n, spec.J))
    elif spec.kind == "dirichlet":
        g = rng.standard_gamma(np.asarray(spec.alpha), size=(n, spec.J))
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

    Results keep the order of ``tasks``; with each task's randomness drawn
    from its own ``child_seed``, the output is the same for any thread count.
    """
    if threads <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


def replicate(spec: SamplerSpec, *key: int) -> SamplerSpec:
    """Spec for replicate ``key`` of ``spec``: same law, child stream."""
    return dataclasses.replace(spec, seed=child_seed(spec.seed, *key))
