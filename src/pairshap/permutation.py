"""Sampling and paired-sampling permutation Shapley estimators.

Each sampled player order is walked front to back, evaluating the value
function on every prefix, so one order costs q evaluations.  Pairing also
looks up the reversed order's prefixes, the complements of the forward
ones, and averages the two marginal-contribution vectors, which cancels the
odd part of the game.

An estimate streams its orders: one loop draws each block, walks it with
one `exact.PrefixWalk` call, which spends the orders as its scatter
targets, and folds its rows into each replicate's own fold.  Blocks hold
at most `exact.WALK_BLOCK` orders.  From that many orders per replicate on,
a worker thread shuffles the next block into a second buffer while this
one is walked (`streams.DrawAhead`).
A lone estimate folds `exact.WalkMoments`, the rows' sum and covariance,
which a plug-in covariance reads; a stack of replicates folds
`exact.WalkSum`, the sum alone, since only phi is read.  So a sampled walk
holds a few blocks of orders and gains, and no n x q array, beyond the
tables it reads.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import exact
from .errors import DomainError, PartitionError
from .games import guard_draws
from .streams import DrawAhead, derive_rng


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


def _source(ev, n: int, paired: bool):
    """The gain source of a walk of n orders: which gains it reads is decided from one replicate's n.

    The evaluator's value table is read as one `ev.values_at` call of the
    n q lookups would read it.  From n = 2^q orders on, with the table
    read, every gain is one of the q 2^q entries of `exact.gain_table`,
    which then holds no more floats than one n x q array, and the walk
    gathers them from it (`exact.table_gains`).  Otherwise it looks up each
    block's q nonempty prefixes, and paired the reverse ones, through
    `ev.values_at` (`exact.lookup_gains`).  Both sources give the same bits,
    non-finite ones too.
    """
    table = ev.lookup_table(n * ev.q)
    if table is not None and n >= 1 << ev.q:
        return partial(exact.table_gains, exact.gain_table(table, paired))
    return partial(exact.lookup_gains, ev.values_at, paired)


def _estimate(ev, n: int, seeds, paired: bool, fold) -> list:
    """Walk n sampled orders per seed as one stream, folding replicate i's rows into its own `fold(paired)`.

    Replicate i draws its orders from derive_rng(seeds[i], 0), made when
    its first chunk is drawn, in chunks of at most exact.WALK_BLOCK rows
    counted from its first row, so they are the orders of one draw of all
    n.  Below exact.WALK_BLOCK orders a replicate is one chunk: whole
    replicates share a block while their orders' n q entries add up to at
    most exact.WALK_BLOCK, and each block is drawn into one buffer, then
    walked.  From exact.WALK_BLOCK orders on, a block is one chunk of one
    replicate, and `DrawAhead`'s worker shuffles the next block into a
    second buffer while this thread walks the current one; smaller blocks
    do not pay for the hand-off.  Each block is walked by one
    `exact.PrefixWalk` with the gain source of one replicate (`_source`),
    which spends the orders as its scatter targets, and folded.  The
    logical cost is q evaluations per order, 2q paired, counted once every
    block is walked; a walk that raises counts nothing.  Returns the folds,
    in seed order.
    """
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    q = ev.q
    guard_draws(n, q)
    folds = [fold(paired) for _ in seeds]
    step = exact.WALK_BLOCK
    per = max(1, min(len(seeds), step // (n * q)))
    orders = np.empty((per * min(step, n), q), dtype=np.int64)
    gains = np.empty(orders.shape)
    walk = exact.PrefixWalk(_source(ev, n, paired))

    def walk_block(group, block):
        walk(block, gains[: block.shape[0]])
        for i, chunk in zip(group, gains[: block.shape[0]].reshape(len(group), -1, q)):
            folds[i].add(chunk)

    count = ev.eval_count
    try:
        if n < step:
            for first in range(0, len(seeds), per):
                group = range(first, min(first + per, len(seeds)))
                block = orders[: len(group) * n]
                for i, out in zip(group, block.reshape(len(group), n, q)):
                    sample_permutations(q, n, derive_rng(seeds[i], 0), out=out)
                walk_block(group, block)
        else:
            buffers = orders, np.empty_like(orders)
            drawn = None
            chunks = ((i, start) for i in range(len(seeds)) for start in range(0, n, step))
            with DrawAhead() as ahead:
                for k, (i, start) in enumerate(chunks):
                    if start == 0:
                        rng = derive_rng(seeds[i], 0)
                    block = buffers[k % 2][: min(step, n - start)]
                    block[...] = np.arange(q)
                    ahead.permute(rng, block)
                    if drawn is not None:
                        walk_block(*drawn)
                    drawn = (i,), block
                ahead.wait()
                walk_block(*drawn)
    finally:
        # lookups count block by block; the walk counts once, when it is whole
        ev.eval_count = count
    ev.eval_count += (2 if paired else 1) * len(seeds) * n * q
    return folds


def _phi(fold, n: int) -> exact.ShapleyVector:
    """The mean of a fold's n marginal vectors, halved if paired."""
    tag = "permutation-paired" if fold.paired else "permutation"
    return exact.ShapleyVector(phi=fold.row_sum / n * (0.5 if fold.paired else 1.0), method_tag=tag)


def estimate_permutation_stack(ev, n: int, seeds, paired: bool = False) -> list:
    """Average marginal contributions over n sampled orders (n pairs if paired), one ShapleyVector per seed.

    The whole stack is one streamed walk (`_estimate`) that folds only each
    replicate's row sum (`exact.WalkSum`), which has the bits of the row
    sum `estimate_permutation` folds.  So each result is bit for bit that of
    `estimate_permutation` with its seed, and has the bits of the mean of
    the n marginal vectors.  The walk reads the tables one replicate's walk
    reads, and beside them holds one block of orders and gains, and q
    floats per replicate.
    """
    return [_phi(fold, n) for fold in _estimate(ev, n, seeds, paired, exact.WalkSum)]


def estimate_permutation(ev, n: int, paired: bool = False, seed=None):
    """Average marginal contributions over n sampled orders (n pairs if paired).

    The one-seed walk of `estimate_permutation_stack`, folded into
    `exact.WalkMoments`.  Returns (ShapleyVector, WalkMoments), the fold of
    the drawn orders' marginal vectors, which a plug-in covariance reads.
    """
    (moments,) = _estimate(ev, n, [seed], paired, exact.WalkMoments)
    return _phi(moments, n), moments


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
