"""Sampling and paired-sampling permutation Shapley estimators.

Each sampled player order is walked front to back, evaluating the value
function on every prefix, so one order costs q evaluations.  Pairing also
looks up the reversed order's prefixes, the complements of the forward
ones, and averages the two marginal-contribution vectors, which cancels the
odd part of the game.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import exact
from .errors import DimensionError, DomainError, PartitionError
from .games import guard_draws
from .streams import derive_rng


def sample_permutations(q: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform player orders, one per row."""
    guard_draws(n, q)
    base = np.tile(np.arange(q), (n, 1))
    return rng.permuted(base, axis=1, out=base)


def marginal_vectors(ev, perms, paired: bool = False) -> np.ndarray:
    """Marginal-contribution vector of each permutation, walked by prefixes.

    Row i, column j holds the payoff gain when player j joins the players
    preceding it in permutation i; paired, row i is the sum of the vectors
    of order i and of its reverse, whose prefixes are the complements of
    the forward ones, so no second walk is made.  The logical cost is q
    evaluations per row, 2q paired: the walk counts them once it has walked
    every order, and a walk that raises counts nothing.

    The walk is `exact.prefix_walk`.  Its gains come from one of two
    sources, to the same bits, non-finite ones too.  Whether the evaluator
    reads its value table is decided once, from all n q lookups, as one
    `ev.values_at` call of them would decide it.  From n = 2^q orders on,
    with the table read, every gain is one of the q 2^q entries of
    `exact.gain_table`, which then holds no more floats than one n x q
    array, and the walk gathers them from it (`exact.table_gains`).
    Otherwise it looks up each block's q nonempty prefixes, and paired the
    reverse ones, through `ev.values_at` (`exact.lookup_gains`).
    DomainError unless every row orders the q players.
    """
    q = ev.q
    perms = np.asarray(perms)
    if perms.ndim != 2 or perms.shape[1] != q:
        raise DimensionError(f"expected an (n, {q}) array of player orders, got shape {perms.shape}")
    if perms.size and (perms.min() < 0 or perms.max() >= q):
        raise DomainError(f"player orders must hold players 0..{q - 1}")
    table = ev.lookup_table(perms.size)
    if table is not None and perms.shape[0] >= 1 << q:
        source = partial(exact.table_gains, exact.gain_table(table, paired))
    else:
        source = partial(exact.lookup_gains, ev.values_at, paired)
    count = ev.eval_count
    try:
        B = exact.prefix_walk(perms, source)
    finally:
        # lookups count block by block; the walk counts once, when it is whole
        ev.eval_count = count
    ev.eval_count += 2 * perms.size if paired else perms.size
    return B


def estimate_permutation_stack(ev, n: int, seeds, paired: bool = False) -> list:
    """Average marginal contributions over n sampled orders (n pairs if paired), one estimate per seed.

    The replicates' orders are walked as one stack.  Replicate i still
    draws from derive_rng(seeds[i], 0), so its result is bit for bit that of
    `estimate_permutation` with seeds[i].  Returns one (ShapleyVector, B)
    per seed, B that replicate's (n, q) block of the stack's
    `marginal_vectors`.
    """
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    perms = np.concatenate([sample_permutations(ev.q, n, derive_rng(seed, 0)) for seed in seeds])
    B = marginal_vectors(ev, perms, paired).reshape(len(seeds), n, ev.q)
    # sums of finite gains can overflow, to a phi that ShapleyVector refuses
    with np.errstate(over="ignore", invalid="ignore"):
        phi = B.mean(axis=1) * (0.5 if paired else 1.0)
    tag = "permutation-paired" if paired else "permutation"
    return [(exact.ShapleyVector(phi=phi[i], method_tag=tag), B[i]) for i in range(len(seeds))]


def estimate_permutation(ev, n: int, paired: bool = False, seed=None):
    """Average marginal contributions over n sampled orders (n pairs if paired).

    The one-seed case of `estimate_permutation_stack`.  Returns
    (ShapleyVector, B), B the drawn orders' `marginal_vectors`.
    """
    return estimate_permutation_stack(ev, n, [seed], paired)[0]


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

