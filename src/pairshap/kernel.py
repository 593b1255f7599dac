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
from .errors import DimensionError, DomainError, RankDeficient
from .games import full_mask, guard_draws, mask_rows, member_masks
from .streams import derive_rng

RANK_RETRY_LIMIT = 100
RANK_TOL = 1e-10


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


def sample_coalitions(weights: exact.KernelWeights, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n coalitions as bitmasks: for each a size s from `weights`, then s members uniformly."""
    q = weights.q
    guard_draws(n, q)
    s = rng.choice(np.arange(1, q), size=n, p=weights.size_probs)
    u = rng.random((n, q))
    return member_masks(np.argsort(np.argsort(u, axis=1), axis=1) < s[:, None])


def _design(masks: np.ndarray, q: int):
    """Design rows (the first q-1 indicators minus the last) and last indicators of coalition bitmasks."""
    Z = mask_rows(masks, q).astype(float)
    return Z[:, :-1] - Z[:, -1:], Z[:, -1]


def design_response(ev, masks: np.ndarray):
    """Centered design and response for a 1-D array of coalition bitmasks.

    The response subtracts the last indicator times the (cached) grand value.
    """
    x, last = _design(masks, ev.q)
    return x, ev.values_at(masks[:, None])[:, 0] - last * ev.grand_value()


def _solve_design(ev, x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Least-squares solve; None when the design is rank deficient."""
    gram = x.T @ x
    if linalg.rank(gram, RANK_TOL) < ev.q - 1:
        return None
    partial = linalg.solve_spd(gram, x.T @ y)
    return np.append(partial, ev.grand_value() - partial.sum())


def estimate_kernel(ev, n: int, paired: bool = False, seed=None):
    """Least-squares Shapley estimate from n kernel draws (n pairs if paired).

    Rank-deficient batches are discarded and redrawn from a fresh substream,
    up to RANK_RETRY_LIMIT times; RankDeficient is raised after that.
    Returns the estimate together with the accepted KernelSampleBatch.
    """
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    weights = exact.kernel_weights(ev.q)
    for attempt in range(RANK_RETRY_LIMIT):
        rng = derive_rng(seed, attempt)
        draws = sample_coalitions(weights, n, rng)
        masks = np.concatenate([draws, full_mask(ev.q) ^ draws]) if paired else draws
        x, y = design_response(ev, masks)
        phi = _solve_design(ev, x, y)
        if phi is None:
            continue
        batch = KernelSampleBatch(
            draws=draws, paired=paired, design=x, response=y, seed=seed, retries=attempt
        )
        tag = "kernel-paired" if paired else "kernel"
        return exact.ShapleyVector(phi=phi, method_tag=tag), batch
    raise RankDeficient(
        f"design never reached rank {ev.q - 1} in {RANK_RETRY_LIMIT} batches; increase n"
    )


def solve_bilinear_basis(ev, basis) -> exact.ShapleyVector:
    """Exact paired solve on q-1 chosen coalitions, given as bitmasks, plus their complements.

    For games whose payoff is a quadratic form in the coalition indicator,
    this reproduces the Shapley values exactly whatever independent basis is
    chosen; `bilinearity_test` exploits that invariance.
    """
    basis = np.asarray(basis, dtype=np.int64)
    if basis.shape != (ev.q - 1,):
        raise DimensionError(f"basis must hold {ev.q - 1} coalition bitmasks, got shape {basis.shape}")
    masks = np.concatenate([basis, full_mask(ev.q) ^ basis])
    x, y = design_response(ev, masks)
    phi = _solve_design(ev, x, y)
    if phi is None:
        raise RankDeficient("basis coalitions are linearly dependent")
    return exact.ShapleyVector(phi=phi, method_tag="kernel-paired-basis")


def random_independent_basis(q: int, rng: np.random.Generator) -> np.ndarray:
    """Draw q-1 nonempty proper coalitions, as bitmasks, until their paired design has full rank."""
    full = full_mask(q)
    for _ in range(RANK_RETRY_LIMIT):
        masks = rng.integers(1, full, size=q - 1, dtype=np.int64)
        x, _ = _design(masks, q)
        if linalg.rank(x.T @ x, RANK_TOL) == q - 1:
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
