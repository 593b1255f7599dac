"""Sampling and paired-sampling least-squares Shapley estimators.

Coalitions are drawn from the kernel distribution, the last player is
pivoted out of the regression through the efficiency constraint, and the
remaining components are solved by unweighted least squares on the sampled
rows.  Pairing adds the complement of every draw, which cancels the odd part
of the game and removes most of the estimator's variance.

A stack of replicates, each with its own seed, is drawn and reduced to its
normal equations in chunks of at most STACK_ENTRIES draw entries, each
released before the next is drawn, and solved by one elimination; a lone
estimate is the stack of one seed, and also keeps its accepted batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact, linalg
from .errors import DomainError, RankDeficient, SingularMatrix
from .games import full_mask, guard_draws, mask_rows, member_masks
from .streams import derive_rng

RANK_RETRY_LIMIT = 100
# A chunk of kernel draws holds at most this many draw entries (draws x q),
# and a solve at most this many Gram entries: as many as the largest single
# replicate of a q = 4 benchmark cell, so a stack of replicates never needs
# more working memory than one such replicate did alone.
STACK_ENTRIES = 2**14


@dataclass(frozen=True)
class KernelSampleBatch:
    """One accepted batch of kernel draws.

    `draws` holds the n sampled coalitions as bitmasks.  For paired batches
    the design and response stack the n draw rows first and the n complement
    rows second, so row i and row n + i form a pair.  `retries` counts the
    rank-deficient batches that were discarded before this one.
    """

    draws: np.ndarray
    paired: bool
    design: np.ndarray
    response: np.ndarray
    seed: object
    retries: int


def sample_coalitions(weights: exact.KernelWeights, n: int, rngs) -> np.ndarray:
    """Draw n coalitions as bitmasks from each generator: an (r, n) array, row i from rngs[i].

    Each generator draws what a lone batch draws: n sizes s from `weights`,
    then an n x q array of uniform keys, and a draw's members are its s
    players of lowest key.  The sizes are read off the cumulative size
    probabilities at n uniforms, the arithmetic `Generator.choice` runs,
    without its validation of p on every call.  One sort ranks the whole
    stack: where a draw's s-th smallest key is below its (s+1)-th, the keys
    up to it are exactly the members.  Draws tied there are ranked by a
    double argsort, so every draw's members are those the double argsort
    gives.
    """
    q = weights.q
    guard_draws(n, q)
    sizes = np.empty((len(rngs), n), dtype=np.int64)
    keys = np.empty((len(rngs), n, q))
    cdf = weights.size_probs.cumsum()
    cdf /= cdf[-1]
    for i, rng in enumerate(rngs):
        sizes[i] = cdf.searchsorted(rng.random(n), side="right") + 1
        rng.random(out=keys[i])
    # the s-th and (s+1)-th smallest keys of each draw, read off the sorted
    # keys by flat index; s < q, so both exist
    ordered = np.sort(keys, axis=-1).reshape(-1)
    at = np.arange(0, ordered.size, q).reshape(sizes.shape) + sizes
    threshold = ordered[at - 1]
    tied = threshold == ordered[at]
    del ordered, at
    members = keys <= threshold[..., None]
    if tied.any():
        members[tied] = np.argsort(np.argsort(keys[tied], axis=1), axis=1) < sizes[tied][:, None]
    return member_masks(members)


def _design(masks: np.ndarray, q: int):
    """Design rows (the first q-1 indicators minus the last) and last indicators of coalition bitmasks.

    One row per mask, in the masks' flattened order; the indicators are
    subtracted as small integers and converted to float once.
    """
    Z = mask_rows(masks, q).view(np.int8)
    return (Z[:, :-1] - Z[:, -1:]).astype(float), Z[:, -1]


def design_response(ev, draws: np.ndarray, grand: np.ndarray, paired: bool = False):
    """Centered designs and responses of an (r, n) array of drawn bitmasks, one fit per row.

    Paired, each row's n draws are followed by their n complements.  A
    complement's design row is exactly minus its draw's, and its last
    indicator one minus the draw's, so only the draws are unpacked.  The
    whole stack, complements included, is looked up in one `values_at`
    call.  Row i's response subtracts the last indicator times grand[i],
    that fit's grand value.  Returns the designs as an (r, m, q-1) array and
    the responses as (r, m), m = 2n paired and n otherwise.
    """
    r, n = draws.shape
    x, last = _design(draws, ev.q)
    x, last = x.reshape(r, n, -1), last.reshape(r, n)
    if paired:
        # 0 - x rather than -x: a zero stays +0.0, as unpacking the complement gives it
        x = np.concatenate([x, np.subtract(0.0, x)], axis=1)
        last = np.concatenate([last, 1 - last], axis=1)
    values = ev.values_at(_with_complements(draws, paired, ev.q).reshape(-1, 1)).reshape(r, -1)
    # differences of finite payoffs can overflow; the solve refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        return x, values - last * grand[:, None]


def _gram(x: np.ndarray) -> np.ndarray:
    # a stacked matmul forms each slice as the 2-D x.T @ x would
    return np.matmul(x.transpose(0, 2, 1), x)


def _normal_equations(x: np.ndarray, y: np.ndarray):
    """Gram matrices x^T x and right sides x^T y of a stack of fits, each slice as its 2-D product."""
    # sums of finite payoffs can overflow: the solve refuses a non-finite
    # right side with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        return _gram(x), np.matmul(x.transpose(0, 2, 1), y[..., None])[..., 0]


def _solve_normal(gram: np.ndarray, rhs: np.ndarray, grand: np.ndarray) -> np.ndarray:
    """Least-squares solutions of a stack of fits, completed by efficiency, as an (r, q) array.

    SingularMatrix, listing every rank-deficient fit, if any fit's normal
    equations are singular.
    """
    # the elimination and the efficiency sum can overflow; ShapleyVector
    # refuses a non-finite phi with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        partial = linalg.solve_spd(gram, rhs)
        return np.concatenate([partial, (grand - partial.sum(axis=1))[:, None]], axis=1)


def _with_complements(draws: np.ndarray, paired: bool, q: int) -> np.ndarray:
    """Each row of draws, followed by the complements of its draws when paired."""
    return np.concatenate([draws, full_mask(q) ^ draws], axis=1) if paired else draws


def _fit(ev, n: int, seeds, paired: bool, batches=None) -> np.ndarray:
    """Estimates from n kernel draws per seed, as an (r, q) array, from one solve of their normal equations.

    Replicate i draws from derive_rng(seeds[i], attempt) and reads its grand
    value once.  The replicates are drawn, looked up and reduced to their
    Gram matrices and right sides in chunks of at most STACK_ENTRIES draw
    entries (one replicate per chunk if it is larger), and each chunk's
    draws, designs and responses are released before the next chunk is
    drawn.  Then one elimination solves every replicate.  Its pivot floor is
    the rank test: the replicates it finds singular alone redraw, from
    their next attempt's substream, and all are solved again, up to
    RANK_RETRY_LIMIT batches in all; RankDeficient is raised after that.
    `batches`, a list as long as seeds, receives each replicate's accepted
    KernelSampleBatch, and so keeps its chunk.  n draws give a design of
    rank at most n, paired or not, so n < q - 1 raises DomainError before
    anything is drawn.
    """
    q = ev.q
    if n < q - 1:
        raise DomainError(f"a kernel fit of {q} players needs at least {q - 1} draws, got {n}")
    weights = exact.kernel_weights(q)
    guard_draws(n, q)
    grand = ev.values_at(np.full((len(seeds), 1), full_mask(q)))[:, 0]
    gram = np.empty((len(seeds), q - 1, q - 1))
    rhs = np.empty((len(seeds), q - 1))
    per_chunk = max(1, STACK_ENTRIES // (n * q))
    pending = np.arange(len(seeds))
    for attempt in range(RANK_RETRY_LIMIT):
        for start in range(0, pending.size, per_chunk):
            chunk = pending[start : start + per_chunk]
            draws = sample_coalitions(weights, n, [derive_rng(seeds[i], attempt) for i in chunk])
            x, y = design_response(ev, draws, grand[chunk], paired)
            gram[chunk], rhs[chunk] = _normal_equations(x, y)
            if batches is not None:
                for k, i in enumerate(chunk.tolist()):
                    batches[i] = KernelSampleBatch(draws[k], paired, x[k], y[k], seeds[i], attempt)
            del draws, x, y
        try:
            return _solve_normal(gram, rhs, grand)
        except SingularMatrix as exc:
            if attempt + 1 == RANK_RETRY_LIMIT:
                raise RankDeficient(
                    f"design never reached rank {q - 1} in {RANK_RETRY_LIMIT} batches; increase n"
                ) from exc
            pending = exc.slices


def estimate_kernel_stack(ev, n: int, seeds, paired: bool = False) -> list:
    """Least-squares Shapley estimates from n kernel draws (n pairs if paired), one ShapleyVector per seed.

    Each replicate's result is bit for bit that of `estimate_kernel` with
    its seed.  The replicates are fitted by `_fit` in solve groups of at
    most STACK_ENTRIES Gram entries, so a cell's working memory does not
    grow with its replicates; at q = 4 a group holds 1 820 of them.
    """
    per_solve = max(1, STACK_ENTRIES // max(1, ev.q - 1) ** 2)
    tag = "kernel-paired" if paired else "kernel"
    return [
        exact.ShapleyVector(phi=phi, method_tag=tag)
        for start in range(0, len(seeds), per_solve)
        for phi in _fit(ev, n, seeds[start : start + per_solve], paired)
    ]


def estimate_kernel(ev, n: int, paired: bool = False, seed=None):
    """Least-squares Shapley estimate from n kernel draws (n pairs if paired).

    The one-seed fit of `estimate_kernel_stack`: batches whose normal
    equations are singular are redrawn from fresh substreams, up to
    RANK_RETRY_LIMIT times.  Returns the estimate together with the accepted
    KernelSampleBatch.
    """
    batches = [None]
    phi = _fit(ev, n, [seed], paired, batches)[0]
    return exact.ShapleyVector(phi=phi, method_tag="kernel-paired" if paired else "kernel"), batches[0]


def bilinearity_test(ev, trials: int, tol: float, seed=None) -> float:
    """Largest spread of one player's value over paired fits on random coalition bases.

    Each trial is a paired kernel fit on q - 1 draws, from the seed with
    entropy `seed` and spawn key (trial,): its q - 1 pairs determine the
    fit exactly, and `_fit` redraws a basis whose design is singular.  A
    game whose interactions have order at most two gives the same answer
    on every basis, so a spread beyond `tol` certifies higher-order
    structure.  `trials` below 2 and a `tol` that is not finite and positive
    raise DomainError before anything is drawn.
    """
    if trials < 2:
        raise DomainError(f"need at least 2 trials, got {trials}")
    if not 0 < tol < np.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(trial,)) for trial in range(trials)]
    solutions = np.array([vector.phi for vector in estimate_kernel_stack(ev, ev.q - 1, seeds, paired=True)])
    # rounding is monotone, so a coordinate's worst pair is its largest
    # and smallest solution, and their difference is the all-pairs maximum
    return float((solutions.max(axis=0) - solutions.min(axis=0)).max())
