"""Sampling and paired-sampling permutation Shapley estimators.

Each sampled player order is walked front to back, evaluating the value
function on every prefix, so one order costs q evaluations.  Pairing also
looks up the reversed order's prefixes, the complements of the forward
ones, and averages the two marginal-contribution vectors, which cancels the
odd part of the game.

An estimate streams its orders: each block is drawn into one reused
buffer, walked, and folded into the replicate's `exact.WalkMoments`, its
sum and covariance, so a sampled walk holds a few blocks of orders and
gains, and no n x q array, beyond the tables it reads.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import exact
from .errors import DimensionError, DomainError, PartitionError
from .games import guard_draws
from .streams import derive_rng


def sample_permutations(q: int, n: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """n independent uniform player orders, one per row, written into `out`, an (n, q) int64 array, if given.

    Each row is set to 0..q-1 and shuffled by rng in turn, so n orders
    drawn as consecutive blocks of rows are these n orders, and leave rng
    in the same state.
    """
    guard_draws(n, q)
    out = np.empty((n, q), dtype=np.int64) if out is None else out
    out[...] = np.arange(q)
    return rng.permuted(out, axis=1, out=out)


def _walk(ev, supply, n: int, paired: bool, sink=None) -> None:
    """`exact.prefix_walk` of the n orders `supply` gives, counted once it has walked them all.

    The logical cost is q evaluations per order, 2q paired; a walk that
    raises counts nothing.  Whether the evaluator reads its value table is
    decided once, from all n q lookups, as one `ev.values_at` call of them
    would decide it.  From n = 2^q orders on, with the table read, every
    gain is one of the q 2^q entries of `exact.gain_table`, which then holds
    no more floats than one n x q array, and the walk gathers them from it
    (`exact.table_gains`).  Otherwise it looks up each block's q nonempty
    prefixes, and paired the reverse ones, through `ev.values_at`
    (`exact.lookup_gains`).  Both sources give the same bits, non-finite
    ones too.
    """
    q = ev.q
    table = ev.lookup_table(n * q)
    if table is not None and n >= 1 << q:
        source = partial(exact.table_gains, exact.gain_table(table, paired))
    else:
        source = partial(exact.lookup_gains, ev.values_at, paired)
    count = ev.eval_count
    try:
        exact.prefix_walk(supply, source, sink)
    finally:
        # lookups count block by block; the walk counts once, when it is whole
        ev.eval_count = count
    ev.eval_count += (2 if paired else 1) * n * q


def marginal_vectors(ev, perms, paired: bool = False) -> np.ndarray:
    """Marginal-contribution vector of each permutation, walked by prefixes.

    Row i, column j holds the payoff gain when player j joins the players
    preceding it in permutation i; paired, row i is the sum of the vectors
    of order i and of its reverse, whose prefixes are the complements of
    the forward ones, so no second walk is made.  The walk (`_walk`) writes
    each block's gains into the rows of the result.  DomainError unless
    every row orders the q players.
    """
    q = ev.q
    perms = np.asarray(perms)
    if perms.ndim != 2 or perms.shape[1] != q:
        raise DimensionError(f"expected an (n, {q}) array of player orders, got shape {perms.shape}")
    if perms.size and (perms.min() < 0 or perms.max() >= q):
        raise DomainError(f"player orders must hold players 0..{q - 1}")
    B = np.empty(perms.shape)
    _walk(ev, exact.order_blocks(perms, B), perms.shape[0], paired)
    return B


def estimate_permutation_stack(ev, n: int, seeds, paired: bool = False) -> list:
    """Average marginal contributions over n sampled orders (n pairs if paired), one estimate per seed.

    The replicates' orders are walked as one stack and streamed: each
    replicate's rows come in chunks of at most np.getbufsize(), counted
    from its first row, and replicates of one chunk each share a block of
    the walk.  A chunk is drawn from derive_rng(seeds[i], 0), replicate
    i's generator, into one reused buffer, walked, and folded into
    replicate i's own `exact.WalkMoments`.  So its result is bit for bit that of
    `estimate_permutation` with seeds[i], and phi, the fold's row sum over
    n, has the bits of the mean of the n marginal vectors.  Returns one
    (ShapleyVector, WalkMoments) per seed.
    """
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    q = ev.q
    guard_draws(n, q)
    rngs = [derive_rng(seed, 0) for seed in seeds]
    folds = [exact.WalkMoments(paired) for _ in seeds]
    step = np.getbufsize()
    chunks = [(i, min(step, n - start)) for i in range(len(seeds)) for start in range(0, n, step)]
    per = max(1, min(len(seeds), step // n))
    blocks = [chunks[k : k + per] for k in range(0, len(chunks), per)]
    orders = np.empty((per * min(step, n), q), dtype=np.int64)
    gains = np.empty(orders.shape)

    def draws():
        for block in blocks:
            rows = len(block) * block[0][1]
            for (i, m), out in zip(block, orders[:rows].reshape(len(block), -1, q)):
                sample_permutations(q, m, rngs[i], out=out)
            yield orders[:rows], gains[:rows]

    owners = iter(blocks)

    def fold(out):
        block = next(owners)
        for (i, _), rows in zip(block, out.reshape(len(block), -1, q)):
            folds[i].add(rows)

    _walk(ev, draws(), n * len(seeds), paired, fold)
    tag = "permutation-paired" if paired else "permutation"
    return [(exact.ShapleyVector(phi=f.row_sum / n * (0.5 if paired else 1.0), method_tag=tag), f) for f in folds]


def estimate_permutation(ev, n: int, paired: bool = False, seed=None):
    """Average marginal contributions over n sampled orders (n pairs if paired).

    The one-seed case of `estimate_permutation_stack`.  Returns
    (ShapleyVector, WalkMoments), the fold of the drawn orders' marginal
    vectors.
    """
    return estimate_permutation_stack(ev, n, [seed], paired)[0]


def partition_groups(partition, q: int) -> list:
    """The 0-based index groups of `partition` as int64 arrays.

    PartitionError unless every group is non-empty and the groups hold each
    of the q players exactly once.
    """
    groups = [np.asarray(g, dtype=np.int64) for g in partition]
    if any(g.size == 0 for g in groups):
        raise PartitionError("partition groups must be non-empty")
    flat = np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
    if not np.array_equal(np.sort(flat), np.arange(q)):
        raise PartitionError(f"groups must cover each of the {q} players exactly once")
    return groups


def group_sums(phi, partition) -> np.ndarray:
    """Sum of attribution over each group of a partition of the players.

    `partition` lists 0-based index groups that must cover every player
    exactly once (`partition_groups`); PartitionError otherwise.
    """
    values = phi.phi if isinstance(phi, exact.ShapleyVector) else np.asarray(phi, dtype=float)
    return np.array([float(values[g].sum()) for g in partition_groups(partition, values.shape[0])])
