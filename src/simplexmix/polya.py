"""Polya tree posterior over a finite atom set embedded in dyadic cells.

The tree lives on the canonical dyadic partition of [0, 1] with per-level
Beta parameters a_l = l * 2^(2*l*alpha), floored at 8.  M atoms occupy the
leftmost M cells at depth ceil(log2 M); conjugate updates route each observed
atom down its cell path, and posterior-mean cell masses (renormalized over
the atom cells) estimate the atom weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .choquet import ChoquetMeasure
from .simplex import child_seed

__all__ = [
    "PolyaTreeParams",
    "AtomEmbedding",
    "PolyaTreePosterior",
    "build_params",
    "prior_posterior",
    "posterior_update",
    "weight_estimate",
    "cell_masses",
    "minimax_rate",
    "convergence_trace",
]

_ALPHA_FLOOR = 8.0


@dataclass(frozen=True)
class PolyaTreeParams:
    """Per-level symmetric Beta parameters of the tree prior.

    level_alphas[l-1] is the parameter at tree level l (children of nodes at
    depth l-1); both children of a node share it.
    """

    alpha: float
    depth: int
    level_alphas: np.ndarray

    def level(self, l: int) -> float:
        return float(self.level_alphas[l - 1])


def build_params(alpha: float, depth: int) -> PolyaTreeParams:
    """Parameters max(a_l, 8) with a_l = l * 2^(2*l*alpha), levels 1..depth."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 1 <= depth <= 30:
        raise ValueError(f"depth must lie in [1, 30], got {depth}")
    levels = np.arange(1, depth + 1, dtype=np.float64)
    a = levels * np.exp2(2.0 * levels * alpha)
    la = np.maximum(a, _ALPHA_FLOOR)
    la.setflags(write=False)
    return PolyaTreeParams(alpha=float(alpha), depth=int(depth), level_alphas=la)


@dataclass(frozen=True)
class AtomEmbedding:
    """Injective map of M atoms onto the leftmost M depth-D dyadic cells."""

    n_atoms: int
    depth: int

    def __post_init__(self):
        if self.n_atoms < 2:
            raise ValueError(f"need at least 2 atoms, got {self.n_atoms}")
        min_depth = max(1, math.ceil(math.log2(self.n_atoms)))
        if self.depth != min_depth:
            raise ValueError(f"embedding depth must be ceil(log2 M) = {min_depth}, got {self.depth}")

    @classmethod
    def for_atoms(cls, n_atoms: int) -> "AtomEmbedding":
        return cls(n_atoms=n_atoms, depth=max(1, math.ceil(math.log2(n_atoms))))

    def cells(self, atom_ids) -> np.ndarray:
        """Cell index (left-to-right at depth D) for each atom id."""
        ids = np.asarray(atom_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_atoms):
            bad = ids[(ids < 0) | (ids >= self.n_atoms)][0]
            raise ValueError(f"unknown atom id {bad}; embedding holds {self.n_atoms} atoms")
        return ids


@dataclass(frozen=True)
class PolyaTreePosterior:
    """Tree parameters plus per-node (left, right) routed observation counts.

    counts[l] has shape (2^l, 2): the children counts of the 2^l nodes at
    depth l.  Value-semantic: updates return new posteriors, and posteriors
    from disjoint data shards merge by count addition.
    """

    params: PolyaTreeParams
    emb: AtomEmbedding
    counts: tuple
    k: int

    @classmethod
    def prior(cls, params: PolyaTreeParams, emb: AtomEmbedding) -> "PolyaTreePosterior":
        if params.depth < emb.depth:
            raise ValueError(f"params depth {params.depth} is below the embedding depth {emb.depth}")
        counts = tuple(np.zeros((2**l, 2), dtype=np.int64) for l in range(emb.depth))
        return cls(params=params, emb=emb, counts=counts, k=0)

    def to_json(self) -> str:
        """Level-ordered (left, right) count pairs plus the configuration."""
        return json.dumps(
            {
                "alpha": self.params.alpha,
                "depth": self.params.depth,
                "n_atoms": self.emb.n_atoms,
                "k": self.k,
                "counts": [level.tolist() for level in self.counts],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PolyaTreePosterior":
        obj = json.loads(text)
        emb = AtomEmbedding.for_atoms(obj["n_atoms"])
        params = build_params(obj["alpha"], obj["depth"])
        counts = tuple(np.asarray(level, dtype=np.int64) for level in obj["counts"])
        if len(counts) != emb.depth or any(c.shape != (2**l, 2) for l, c in enumerate(counts)):
            raise ValueError("count levels do not match the embedding depth")
        return cls(params=params, emb=emb, counts=counts, k=int(obj["k"]))


def prior_posterior(alpha: float, n_atoms: int) -> PolyaTreePosterior:
    """Prior state for M atoms at Holder exponent alpha, with parameters for
    the levels of the embedding."""
    emb = AtomEmbedding.for_atoms(n_atoms)
    return PolyaTreePosterior.prior(build_params(alpha, emb.depth), emb)


def posterior_update(post: PolyaTreePosterior, atoms) -> PolyaTreePosterior:
    """Conjugate update: route each observed atom down its cell path.

    Order-invariant (counts are sums) and batch-additive: updating with A
    then B equals one update with A+B.
    """
    emb = post.emb
    cells = emb.cells(atoms)
    depth = emb.depth
    new_counts = []
    for l in range(depth):
        node = cells >> (depth - l)
        bit = (cells >> (depth - l - 1)) & 1
        flat = np.bincount(node * 2 + bit, minlength=2 ** (l + 1)).reshape(-1, 2)
        new_counts.append(post.counts[l] + flat)
    return PolyaTreePosterior(
        params=post.params,
        emb=emb,
        counts=tuple(new_counts),
        k=post.k + int(cells.size),
    )


def cell_masses(post: PolyaTreePosterior) -> np.ndarray:
    """Posterior-mean masses of all 2^depth cells (they sum to 1)."""
    depth = post.emb.depth
    mass = np.ones(1)
    for l in range(depth):
        a = post.params.level(l + 1)
        c = post.counts[l].astype(np.float64)
        frac = (a + c) / (2.0 * a + c.sum(axis=1, keepdims=True))
        mass = (mass[:, None] * frac).reshape(-1)
    return mass


def weight_estimate(post: PolyaTreePosterior) -> ChoquetMeasure:
    """Posterior-mean atom weights: atom cell masses renormalized.

    When M is a power of 2 the atoms cover every cell and the
    renormalization is a no-op.
    """
    mass = cell_masses(post)
    return ChoquetMeasure(weights=mass[: post.emb.n_atoms])


def minimax_rate(k: int, alpha: float) -> float:
    """The sup-norm contraction benchmark (log k / k)^(alpha / (2*alpha + 1))."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return (math.log(k) / k) ** (alpha / (2.0 * alpha + 1.0))


def convergence_trace(true_weights: ChoquetMeasure, k_grid, alpha: float, seed: int) -> list[tuple[int, float, float]]:
    """(k, sup-norm weight error, minimax benchmark) along a sample-size grid.

    The prior is ``prior_posterior(alpha, M)`` for the M true atoms.  One
    atom stream of max(k_grid) iid draws from the true weights, at seed
    ``child_seed(seed)``; each k updates the prior with the stream prefix, so
    traces are nested in data.
    """
    grid = [int(k) for k in k_grid]
    if not grid:
        raise ValueError("k_grid must be nonempty")
    if any(k < 2 for k in grid):
        raise ValueError("every k in k_grid must be >= 2")
    w = true_weights.weights
    prior = prior_posterior(alpha, w.size)
    rng = np.random.default_rng(child_seed(seed))
    stream = rng.choice(w.size, size=max(grid), p=w)
    out = []
    for k in grid:
        post = posterior_update(prior, stream[:k])
        est = weight_estimate(post).weights
        err = float(np.max(np.abs(est - w)))
        out.append((k, err, minimax_rate(k, prior.params.alpha)))
    return out
