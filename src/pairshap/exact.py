"""Exact Shapley values by three independent routes.

Subset enumeration applies the combinatorial weighting directly, permutation
averaging walks every player order, and the kernel route solves the weighted
least-squares characterization over all nonempty proper coalitions.  All
three agree to floating-point accuracy and that agreement is itself a test.

Enumeration works on length-2^q vectors indexed by coalition bitmask: the
value table, coalition sizes and weights.  Every moment the subset and
kernel routes need is a sum of such a vector over the coalitions holding a
player or a pair of players, which subset and superset sums give in
O(q 2^q) time without any 2^q x q matrix.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg
from .errors import DomainError, SizeGuard
from .games import full_mask, prefix_masks

SUBSET_LIMIT = 25
PERMUTATION_LIMIT = 9
# Coalitions per game call when tabulating all 2^q of them.
CHUNK_ROWS = 2**15


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


def value_table(ev) -> np.ndarray:
    """Payoff of every coalition, indexed by bitmask.  Exactly 2^q evaluations.

    The masks go to `ev.values_at` in order, CHUNK_ROWS at a time, so the
    game's own temporaries stay those of one chunk whatever q is.
    """
    q = ev.q
    _guard(q, SUBSET_LIMIT, "value table enumeration")
    size = 1 << q
    table = np.empty(size)
    for start in range(0, size, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, size)
        ev.values_at(np.arange(start, stop, dtype=np.int64)[:, None], out=table[start:stop, None])
    return table


def _guard(q: int, limit: int, what: str) -> None:
    if q > limit:
        raise SizeGuard(f"{what} supports q <= {limit}, got q = {q}")


def subset_sums(c) -> np.ndarray:
    """s[mask] = sum of c[j] over the players j in mask, for all 2^len(c) masks.

    Built by doubling: the masks whose highest bit is j are the masks below
    2^j with c[j] added.  With c all ones this gives coalition sizes; with
    c = (beta, -sum(beta)) it gives the pivoted design times beta.
    """
    c = np.asarray(c)
    s = np.zeros(1 << c.size, dtype=c.dtype)
    for j, cj in enumerate(c):
        np.add(s[: 1 << j], cj, out=s[1 << j : 2 << j])
    return s


def superset_sums(w: np.ndarray, q: int) -> np.ndarray:
    """Zeta transform in place: w[S] becomes the sum of w[T] over all T containing S.

    Pass j pairs every mask without bit j with the mask that adds it, as
    the two halves of a reshape(-1, 2, 2^j) view.  O(q 2^q) time and no
    memory beyond w, which is returned.
    """
    for j in range(q):
        halves = w.reshape(-1, 2, 1 << j)
        halves[:, 0, :] += halves[:, 1, :]
    return w


def pivot_moments(w: np.ndarray, q: int):
    """First and second moments of the pivoted design under coalition weights w.

    Returns (sum_S w_S x_S, sum_S w_S x_S x_S^T) over all masks S, where
    x_i = z_i - z_{q-1} for i < q - 1.  Both follow from the sums of w over
    the coalitions holding a player or a pair of players, read off the
    superset sums, which overwrite w.
    """
    bits = np.int64(1) << np.arange(q, dtype=np.int64)
    # sums of large weights can overflow; the solves that take these moments
    # refuse non-finite ones with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        # both[a, b] = sum of w over coalitions holding a and b; both[a, a] holds a
        both = superset_sums(w, q)[bits[:, None] | bits]
        pivot = both[:-1, -1]
        first = np.diag(both)[:-1] - both[-1, -1]
        second = both[:-1, :-1] - pivot[:, None] - pivot[None, :] + both[-1, -1]
    return first, second


def kernel_moments(table: np.ndarray, q: int):
    """Normal equations of the exact kernel least-squares fit over every coalition.

    Returns (p, y, hessian, rhs): the kernel probability of each coalition
    (zero for the empty and the grand one) and the response
    y = v(S) - z_{q-1} v(N), both indexed by bitmask, then the design moment
    sum_S p_S x_S x_S^T and the right side sum_S p_S y_S x_S.
    """
    kw = kernel_weights(q)
    per_size = np.zeros(q + 1)
    per_size[1:q] = kw.size_probs / np.array([float_binomial(q, s) for s in range(1, q)])
    p = per_size[subset_sums(np.ones(q, dtype=np.uint8))]
    y = table.copy()
    y[y.size // 2 :] -= table[-1]
    rhs, _ = pivot_moments(p * y, q)
    _, hessian = pivot_moments(p.copy(), q)
    return p, y, hessian, rhs


def shapley_subset(ev) -> ShapleyVector:
    """Shapley values from the subset formula over all coalitions.

    With w(s) = 1 / (q C(q-1, s)) and w(q) = 0, the formula's sum over
    coalitions without player j of w(|S|) (v(S + j) - v(S)) regroups into
    phi_j = sum_{T holding j} (w(|T|-1) + w(|T|)) v(T) - sum_S w(|S|) v(S).
    The first sum runs over the upper halves of a reshape(-1, 2, 2^j) view.
    """
    q = ev.q
    _guard(q, SUBSET_LIMIT, "subset enumeration")
    table = value_table(ev)
    sizes = subset_sums(np.ones(q, dtype=np.uint8))
    weights = np.array([1.0 / (q * float_binomial(q - 1, s)) for s in range(q)] + [0.0])
    joined = np.append(0.0, weights[:-1] + weights[1:])
    base = float(weights[sizes] @ table)
    table *= joined[sizes]
    del sizes
    phi = np.array([table.reshape(-1, 2, 1 << j)[:, 1, :].sum() for j in range(q)]) - base
    return ShapleyVector(phi=phi, method_tag="subset")


def all_permutations(q: int) -> np.ndarray:
    """Every player order as an array of shape (q!, q)."""
    _guard(q, PERMUTATION_LIMIT, "permutation enumeration")
    return np.array(list(itertools.permutations(range(q))), dtype=np.int64)


def marginal_matrix(values_at, perms: np.ndarray, paired: bool = False) -> np.ndarray:
    """Marginal-contribution vectors for each permutation, walked by prefixes.

    Row i, column j holds the payoff gain of player j joining the players
    that precede it in permutation i.  `values_at(masks, out=...)` writes the
    payoffs of an (n, q) int64 array of coalition bitmasks into a float
    array that shares the masks' memory; it is called once, on the q
    nonempty prefixes of every order (the empty prefix is worth zero by
    normalization).  Each row sums to the grand value.

    Paired, row i is the sum of the vectors of order i and of its reverse,
    and `values_at` is called a second time, on the reverse order's q
    prefixes.  Its prefix of length k is the complement of the forward
    prefix of length q - k, so those masks are read off the forward ones,
    longest first: column t holds the coalition that player perms[i, t]
    completes in the reverse walk.  The two gain arrays then line up column
    by column, are added, and are scattered once.
    """
    masks = prefix_masks(perms)
    if paired:
        full = full_mask(perms.shape[1])
        rev = np.empty_like(masks)
        rev[:, 0] = full
        np.bitwise_xor(masks[:, :-1], full, out=rev[:, 1:])
    # payoffs overwrite their masks, and B reuses the reverse masks' memory,
    # so the walk holds one n x q array until B, two when paired
    gains = values_at(masks, out=masks.view(np.float64))
    for t in range(gains.shape[1] - 1, 0, -1):
        gains[:, t] -= gains[:, t - 1]
    if paired:
        rev = values_at(rev, out=rev.view(np.float64))
        for t in range(rev.shape[1] - 1):
            rev[:, t] -= rev[:, t + 1]
        gains += rev
        B = rev
    else:
        B = np.empty_like(gains)
    np.put_along_axis(B, perms, gains, axis=1)
    return B


def shapley_all_permutations(ev) -> ShapleyVector:
    """Shapley values as the average marginal contribution over all q! orders."""
    q = ev.q
    _guard(q, PERMUTATION_LIMIT, "permutation enumeration")
    table = value_table(ev)
    perms = all_permutations(q)
    # prefixes of whole orders are always in range; clipping gathers unbuffered
    B = marginal_matrix(partial(np.take, table, mode="clip"), perms)
    return ShapleyVector(phi=B.mean(axis=0), method_tag="permutation")


def shapley_kernel_exact(ev) -> ShapleyVector:
    """Shapley values from the exactly weighted least-squares problem.

    The last player's value is recovered from the efficiency constraint:
    it equals the grand value minus the sum of the solved components.
    """
    _guard(ev.q, SUBSET_LIMIT, "kernel enumeration")
    table = value_table(ev)
    _, _, hessian, rhs = kernel_moments(table, ev.q)
    partial = linalg.solve_spd(hessian, rhs)
    phi = np.append(partial, table[-1] - partial.sum())
    return ShapleyVector(phi=phi, method_tag="kernel")
