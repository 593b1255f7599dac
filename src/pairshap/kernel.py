"""Sampling and paired-sampling least-squares Shapley estimators.

Coalitions are drawn from the kernel distribution, the last player is
pivoted out of the regression through the efficiency constraint, and the
remaining components are solved by unweighted least squares on the sampled
rows.  Pairing adds the complement of every draw, which cancels the odd part
of the game and removes most of the estimator's variance.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import exact, linalg
from .errors import DimensionError, DomainError, RankDeficient, SingularMatrix
from .games import full_mask, guard_draws, mask_rows, member_masks
from .streams import derive_rng

RANK_RETRY_LIMIT = 100


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
    players of lowest key.  One sort ranks the whole stack: where a draw's
    s-th smallest key is below its (s+1)-th, the keys up to it are exactly
    the members.  Draws tied there are ranked by a double argsort, so every
    draw's members are those the double argsort gives.
    """
    q = weights.q
    guard_draws(n, q)
    sizes = np.empty((len(rngs), n), dtype=np.int64)
    keys = np.empty((len(rngs), n, q))
    choices = np.arange(1, q)
    for i, rng in enumerate(rngs):
        sizes[i] = rng.choice(choices, size=n, p=weights.size_probs)
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


def design_response(ev, masks: np.ndarray, grand: np.ndarray):
    """Centered designs and responses of an (r, m) array of coalition bitmasks, one fit per row.

    The whole stack is looked up in one `values_at` call.  Row i's response
    subtracts the last indicator times grand[i], that fit's grand value.
    Returns the designs as an (r, m, q-1) array and the responses as (r, m).
    """
    r, m = masks.shape
    x, last = _design(masks, ev.q)
    values = ev.values_at(masks.reshape(-1, 1)).reshape(r, m)
    # differences of finite payoffs can overflow; the solve refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        return x.reshape(r, m, -1), values - last.reshape(r, m) * grand[:, None]


def _gram(x: np.ndarray) -> np.ndarray:
    # a stacked matmul forms each slice as the 2-D x.T @ x would
    return np.matmul(x.transpose(0, 2, 1), x)


def _solve_normal(gram: np.ndarray, x: np.ndarray, y: np.ndarray, grand: np.ndarray) -> np.ndarray:
    """Least-squares solutions of a stack of fits, completed by efficiency, as an (r, q) array.

    SingularMatrix, listing every rank-deficient fit, if any fit's normal
    equations are singular.
    """
    # sums of finite payoffs can overflow: the solve refuses a non-finite
    # right side, and ShapleyVector a non-finite phi, with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        partial = linalg.solve_spd(gram, np.matmul(x.transpose(0, 2, 1), y[..., None])[..., 0])
        return np.concatenate([partial, (grand - partial.sum(axis=1))[:, None]], axis=1)


def _with_complements(draws: np.ndarray, paired: bool, q: int) -> np.ndarray:
    """Each row of draws, followed by the complements of its draws when paired."""
    return np.concatenate([draws, full_mask(q) ^ draws], axis=1) if paired else draws


def estimate_kernel_stack(ev, n: int, seeds, paired: bool = False) -> list:
    """Least-squares Shapley estimates from n kernel draws (n pairs if paired), one per seed.

    The replicates are fitted as one stack: one sort ranks their draws, one
    lookup evaluates them, and one elimination solves their normal
    equations.  Replicate i still draws from derive_rng(seeds[i], attempt),
    and reads the grand value once, as a lone estimate does, so its result
    is bit for bit that of `estimate_kernel` with seeds[i].  The solve's
    pivot floor is the rank test: the replicates whose normal equations it
    finds singular alone redraw, from their next attempt's substream, and
    the stack is solved again, up to RANK_RETRY_LIMIT batches in all;
    RankDeficient is raised after that.  Returns one (ShapleyVector,
    KernelSampleBatch) per seed.
    """
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    q = ev.q
    weights = exact.kernel_weights(q)
    draws = sample_coalitions(weights, n, [derive_rng(seed, 0) for seed in seeds])
    grand = ev.values_at(np.full((len(seeds), 1), full_mask(q)))[:, 0]
    x, y = design_response(ev, _with_complements(draws, paired, q), grand)
    gram = _gram(x)
    retries = np.zeros(len(seeds), dtype=np.int64)
    for attempt in range(1, RANK_RETRY_LIMIT + 1):
        try:
            phi = _solve_normal(gram, x, y, grand)
            break
        except SingularMatrix as exc:
            if attempt == RANK_RETRY_LIMIT:
                raise RankDeficient(
                    f"design never reached rank {q - 1} in {RANK_RETRY_LIMIT} batches; increase n"
                ) from exc
            pending = exc.slices
            redrawn = sample_coalitions(weights, n, [derive_rng(seeds[i], attempt) for i in pending])
            x_new, y_new = design_response(ev, _with_complements(redrawn, paired, q), grand[pending])
            draws[pending], x[pending], y[pending], gram[pending] = redrawn, x_new, y_new, _gram(x_new)
            retries[pending] = attempt
    tag = "kernel-paired" if paired else "kernel"
    return [
        (
            exact.ShapleyVector(phi=phi[i], method_tag=tag),
            KernelSampleBatch(
                draws=draws[i], paired=paired, design=x[i], response=y[i], seed=seed, retries=int(retries[i])
            ),
        )
        for i, seed in enumerate(seeds)
    ]


def estimate_kernel(ev, n: int, paired: bool = False, seed=None):
    """Least-squares Shapley estimate from n kernel draws (n pairs if paired).

    The one-seed case of `estimate_kernel_stack`: batches whose normal
    equations are singular are redrawn from fresh substreams, up to
    RANK_RETRY_LIMIT times.  Returns the estimate together with the accepted
    KernelSampleBatch.
    """
    return estimate_kernel_stack(ev, n, [seed], paired)[0]


def solve_bilinear_basis(ev, basis) -> exact.ShapleyVector:
    """Exact paired solve on q-1 chosen coalitions, given as bitmasks, plus their complements.

    For games whose payoff is a quadratic form in the coalition indicator,
    this reproduces the Shapley values exactly whatever independent basis is
    chosen; `bilinearity_test` exploits that invariance.
    """
    basis = np.asarray(basis, dtype=np.int64)
    if basis.shape != (ev.q - 1,):
        raise DimensionError(f"basis must hold {ev.q - 1} coalition bitmasks, got shape {basis.shape}")
    grand = np.array([ev.grand_value()])
    x, y = design_response(ev, _with_complements(basis[None], True, ev.q), grand)
    try:
        phi = _solve_normal(_gram(x), x, y, grand)[0]
    except SingularMatrix as exc:
        raise RankDeficient("basis coalitions are linearly dependent") from exc
    return exact.ShapleyVector(phi=phi, method_tag="kernel-paired-basis")


def random_independent_basis(q: int, rng: np.random.Generator) -> np.ndarray:
    """Draw q-1 nonempty proper coalitions, as bitmasks, until their paired design has full rank."""
    full = full_mask(q)
    for _ in range(RANK_RETRY_LIMIT):
        masks = rng.integers(1, full, size=q - 1, dtype=np.int64)
        x, _ = _design(masks, q)
        try:
            linalg.solve_spd(x.T @ x, np.zeros(q - 1))
        except SingularMatrix:
            continue
        return masks
    raise RankDeficient(f"no independent basis found in {RANK_RETRY_LIMIT} draws")


@dataclass(frozen=True)
class BilinearityVerdict:
    """Outcome of the basis-invariance probe.

    `consistent` is True when every pair of per-basis solutions agrees to
    within `tol` in the max norm; `max_discrepancy` is the worst distance.
    """

    consistent: bool
    max_discrepancy: float
    trials: int
    tol: float


def bilinearity_test(ev, trials: int, tol: float, seed=None) -> BilinearityVerdict:
    """Solve on several random bases and compare the answers.

    Exactly bilinear games give identical answers on every basis; any
    disagreement beyond `tol` certifies higher-order structure.
    """
    if trials < 2:
        raise DomainError(f"need at least 2 trials, got {trials}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    solutions = []
    for trial in range(trials):
        rng = derive_rng(seed, trial)
        basis = random_independent_basis(ev.q, rng)
        solutions.append(solve_bilinear_basis(ev, basis).phi)
    worst = 0.0
    for a, b in combinations(solutions, 2):
        worst = max(worst, float(np.max(np.abs(a - b))))
    return BilinearityVerdict(
        consistent=worst <= tol, max_discrepancy=worst, trials=trials, tol=tol
    )
