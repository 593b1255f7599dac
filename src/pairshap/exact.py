"""Exact Shapley values by three independent routes.

Subset enumeration applies the combinatorial weighting directly, permutation
averaging walks every player order, and the kernel route solves the weighted
least-squares characterization over all nonempty proper coalitions.  All
three agree to floating-point accuracy and that agreement is itself a test.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg
from .errors import DomainError, SizeGuard
from .games import mask_rows, prefix_masks

SUBSET_LIMIT = 25
PERMUTATION_LIMIT = 9


@dataclass(frozen=True)
class ShapleyVector:
    """A length-q attribution vector tagged with the method that produced it."""

    phi: np.ndarray
    method_tag: str


@dataclass(frozen=True)
class KernelWeights:
    """Sampling distribution over nonempty proper coalitions.

    `size_probs[s-1]` is the total probability of drawing some coalition of
    size s; within a size all coalitions are equally likely.  `normalizer` is
    the constant that scales the raw per-coalition weight
    (q-1) / (C(q,s) * s * (q-s)) into a probability.
    """

    q: int
    size_probs: np.ndarray
    normalizer: float

    def coalition_probability(self, size: int) -> float:
        if not 1 <= size <= self.q - 1:
            raise DomainError(f"coalition size must lie in 1..{self.q - 1}, got {size}")
        return float(self.size_probs[size - 1] / float_binomial(self.q, size))


def float_binomial(n: int, k: int) -> float:
    """Binomial coefficient as a float, stable for the sizes used here."""
    if k < 0 or k > n:
        return 0.0
    k = min(k, n - k)
    out = 1.0
    for i in range(k):
        out *= (n - i) / (i + 1)
    return out


def kernel_weights(q: int) -> KernelWeights:
    if q < 2:
        raise DomainError(f"q must be at least 2, got {q}")
    sizes = np.arange(1, q)
    raw = (q - 1) / (sizes * (q - sizes))
    normalizer = float(raw.sum())
    return KernelWeights(q=q, size_probs=raw / normalizer, normalizer=normalizer)


def coalition_matrix(q: int) -> np.ndarray:
    """All 2^q coalitions as a binary matrix; row index equals the bitmask."""
    return mask_rows(np.arange(2**q, dtype=np.int64), q)


def value_table(ev) -> np.ndarray:
    """Payoff of every coalition, indexed by bitmask.  Exactly 2^q evaluations."""
    _guard(ev.q, SUBSET_LIMIT, "value table enumeration")
    return ev.evaluate_many(coalition_matrix(ev.q))


def _guard(q: int, limit: int, what: str) -> None:
    if q > limit:
        raise SizeGuard(f"{what} supports q <= {limit}, got q = {q}")


def _mask_sizes(q: int) -> np.ndarray:
    masks = np.arange(2**q, dtype=np.int64)
    sizes = np.zeros(2**q, dtype=np.int64)
    for j in range(q):
        sizes += (masks >> j) & 1
    return sizes


def shapley_subset(ev) -> ShapleyVector:
    """Shapley values from the subset formula over all coalitions."""
    q = ev.q
    _guard(q, SUBSET_LIMIT, "subset enumeration")
    table = value_table(ev)
    masks = np.arange(2**q, dtype=np.int64)
    sizes = _mask_sizes(q)
    weights = np.array([1.0 / (q * float_binomial(q - 1, s)) for s in range(q)])
    phi = np.empty(q)
    for j in range(q):
        bit = np.int64(1) << j
        rest = masks[(masks & bit) == 0]
        phi[j] = float(np.sum(weights[sizes[rest]] * (table[rest | bit] - table[rest])))
    return ShapleyVector(phi=phi, method_tag="subset")


def all_permutations(q: int) -> np.ndarray:
    """Every player order as an array of shape (q!, q)."""
    _guard(q, PERMUTATION_LIMIT, "permutation enumeration")
    return np.array(list(itertools.permutations(range(q))), dtype=np.int64)


def marginal_matrix(values_at, perms: np.ndarray) -> np.ndarray:
    """Marginal-contribution vectors for each permutation, walked by prefixes.

    Row i, column j holds the payoff gain of player j joining the players
    that precede it in permutation i.  `values_at(masks, out=...)` writes the
    payoffs of an (n, q) int64 array of coalition bitmasks into a float
    array that shares the masks' memory; it is called once, on the q
    nonempty prefixes of every order (the empty prefix is worth zero by
    normalization).  Each row sums to the grand value.
    """
    masks = prefix_masks(perms)
    # the payoffs overwrite their masks, so one n x q array is live until B
    gains = values_at(masks, out=masks.view(np.float64))
    for t in range(gains.shape[1] - 1, 0, -1):
        gains[:, t] -= gains[:, t - 1]
    B = np.empty_like(gains)
    np.put_along_axis(B, perms, gains, axis=1)
    return B


def shapley_all_permutations(ev) -> ShapleyVector:
    """Shapley values as the average marginal contribution over all q! orders."""
    q = ev.q
    _guard(q, PERMUTATION_LIMIT, "permutation enumeration")
    table = value_table(ev)
    perms = all_permutations(q)
    B = marginal_matrix(partial(np.take, table), perms)
    return ShapleyVector(phi=B.mean(axis=0), method_tag="permutation")


def kernel_population(ev):
    """Exact enumeration of the kernel sampling distribution.

    Returns (Z, p, x, y, values, grand) over the 2^q - 2 nonempty proper
    coalitions in mask order: indicator rows Z, probabilities p, centered
    design rows x (last player pivoted out), responses y, raw normalized
    payoffs, and the grand-coalition value.  Because rows follow mask order,
    values[::-1] are the payoffs of the complementary coalitions.
    """
    q = ev.q
    table = value_table(ev)
    grand = float(table[-1])
    Z = coalition_matrix(q)[1:-1].astype(float)
    values = table[1:-1]
    sizes = _mask_sizes(q)[1:-1]
    kw = kernel_weights(q)
    binoms = np.array([float_binomial(q, s) for s in range(1, q)])
    p = kw.size_probs[sizes - 1] / binoms[sizes - 1]
    x = Z[:, : q - 1] - Z[:, q - 1 :]
    y = values - Z[:, q - 1] * grand
    return Z, p, x, y, values, grand


def shapley_kernel_exact(ev) -> ShapleyVector:
    """Shapley values from the exactly weighted least-squares problem.

    The last player's value is recovered from the efficiency constraint:
    it equals the grand value minus the sum of the solved components.
    """
    _guard(ev.q, SUBSET_LIMIT, "kernel enumeration")
    _, p, x, y, _, grand = kernel_population(ev)
    hessian = (x * p[:, None]).T @ x
    partial = linalg.solve_spd(hessian, x.T @ (p * y))
    phi = np.append(partial, grand - partial.sum())
    return ShapleyVector(phi=phi, method_tag="kernel")
