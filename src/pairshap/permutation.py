"""Sampling and paired-sampling permutation Shapley estimators.

Each sampled player order is walked front to back, evaluating the value
function on every prefix, so one order costs q evaluations.  Pairing also
looks up the reversed order's prefixes, the complements of the forward
ones, and averages the two marginal-contribution vectors, which cancels the
odd part of the game.
"""
from __future__ import annotations

import numpy as np

from . import exact
from .errors import DimensionError, DomainError, PartitionError
from .streams import derive_rng


def sample_permutations(q: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform player orders, one per row."""
    base = np.tile(np.arange(q), (n, 1))
    return rng.permuted(base, axis=1, out=base)


def marginal_vectors(ev, perms, paired: bool = False) -> np.ndarray:
    """Marginal-contribution vector of each permutation, walked by prefixes.

    Row i, column j holds the payoff gain when player j joins the players
    preceding it in permutation i.  The walk looks up the q nonempty
    prefixes of each order through `ev.values_at` (the empty prefix is worth
    zero by normalization), so the logical cost is exactly q evaluations per
    row.  Paired, row i is the sum of the vectors of order i and of its
    reverse, whose prefixes are looked up as the complements of the forward
    ones: 2q evaluations per row, and no second walk.
    """
    perms = np.asarray(perms)
    if perms.ndim != 2 or perms.shape[1] != ev.q:
        raise DimensionError(f"expected an (n, {ev.q}) array of player orders, got shape {perms.shape}")
    return exact.marginal_matrix(ev.values_at, perms, paired)


def estimate_permutation(ev, n: int, paired: bool = False, seed=None):
    """Average marginal contributions over n sampled orders (n pairs if paired).

    Returns (ShapleyVector, B), B the drawn orders' `marginal_vectors`.
    """
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    rng = derive_rng(seed, 0)
    perms = sample_permutations(ev.q, n, rng)
    B = marginal_vectors(ev, perms, paired)
    if paired:
        phi = 0.5 * B.mean(axis=0)
        tag = "permutation-paired"
    else:
        phi = B.mean(axis=0)
        tag = "permutation"
    return exact.ShapleyVector(phi=phi, method_tag=tag), B


def group_sums(phi, partition) -> np.ndarray:
    """Sum of attribution over each group of a partition of the players.

    `partition` lists 0-based index groups that must cover every player
    exactly once; PartitionError otherwise.
    """
    values = phi.phi if isinstance(phi, exact.ShapleyVector) else np.asarray(phi, dtype=float)
    q = values.shape[0]
    groups = [np.asarray(g, dtype=np.int64) for g in partition]
    if any(g.size == 0 for g in groups):
        raise PartitionError("partition groups must be non-empty")
    flat = np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
    if not np.array_equal(np.sort(flat), np.arange(q)):
        raise PartitionError(f"groups must cover each of the {q} players exactly once")
    return np.array([float(values[g].sum()) for g in groups])

