"""Exact Shapley values by three independent routes.

Subset enumeration applies the combinatorial weighting directly, permutation
averaging walks every player order, and the kernel route solves the weighted
least-squares characterization over all nonempty proper coalitions.  All
three agree to floating-point accuracy and that agreement is itself a test.

Enumeration works on length-2^q vectors indexed by coalition bitmask: the
value table, coalition sizes and weights.  Every route here reads the
table that `GameEvaluator.value_table` builds once per evaluator.  Every
moment the subset and kernel routes need is a sum of such a vector over
the coalitions holding a player or a pair of players.  Subset sums give
sizes and fitted values; pair and one-player sums run the superset-sum
(zeta) transform only as far as those sums need it.  Both take O(q 2^q)
time and form no 2^q x q matrix.  The kernel design moment runs no pass
over 2^q entries: its weights depend on coalition size alone, so its pair
sums follow from the q + 1 size weights, and every vector indexed by
coalition size is copied out of those q + 1 values.  The permutation walk
reads every order's gains from one table of the q 2^q gains
v(T) - v(T - j), with one gather per order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import DomainError, SizeGuard
from .games import full_mask, prefix_masks, subset_sums

PERMUTATION_LIMIT = 9
# Passes of `_superset_passes` with more low masks than this, over vectors
# of at least MASKED_SIZE entries, update only the low masks they need;
# passes needing at most 8 low masks, with this many rows, update one
# column at a time.
FULL_PASS_LOWS = 128
MASKED_SIZE = 1 << 14
COLUMN_ROWS = 128


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


@lru_cache(maxsize=None)
def _low_masks(q: int, most: int) -> tuple:
    """Masks below 2^q of at most `most` players (1 or 2), ascending, and how many lie below each bit.

    Built once per q and most; the mask array is read-only.
    """
    bits = np.int64(1) << np.arange(q, dtype=np.int64)
    held = bits if most == 1 else bits[:, None] | bits
    masks = np.unique(np.append(np.int64(0), held))
    masks.flags.writeable = False
    return masks, tuple(np.searchsorted(masks, bits).tolist())


def _superset_passes(w: np.ndarray, q: int, most: int) -> None:
    """The superset-sum (zeta) transform's passes, as far as the sums of w over supersets of `most` players need.

    Pass j adds to each mask without bit j the mask with it, as the halves
    of a reshape(-1, 2, 2^j) view, in place and in order, so every entry
    read below is the transform's sum to the bit.  From pass j on, a
    superset sum of at most `most` players reads only the masks whose bits
    below j hold at most `most` players, so a pass may update just those
    low masks.  A pass with at most 8 of them and at least COLUMN_ROWS rows
    runs one strided column per low mask, which numpy does faster than its
    short inner loops.  A pass with more than FULL_PASS_LOWS low masks, over
    a vector of at least MASKED_SIZE entries, gathers and scatters the ones
    it needs; shorter passes cost less whole than the gathers do.  Beyond
    w, no step takes more scratch than one of numpy's buffered ufunc loops.
    """
    masks, below = _low_masks(q, most)
    for j in range(q):
        halves = w.reshape(-1, 2, 1 << j)
        low = masks[: below[j]]
        if low.size <= 8 and halves.shape[0] >= COLUMN_ROWS:
            for column in low.tolist():
                halves[:, 0, column] += halves[:, 1, column]
        elif 1 << j > FULL_PASS_LOWS and w.size >= MASKED_SIZE:
            # in row blocks whose gathers are no larger than numpy's ufunc buffers
            step = max(1, np.getbufsize() // low.size)
            for start in range(0, halves.shape[0], step):
                block = halves[start : start + step]
                block[:, 0, low] += block[:, 1, low]
        else:
            halves[:, 0, :] += halves[:, 1, :]


def pair_sums(w: np.ndarray, q: int) -> np.ndarray:
    """both[a, b] = sum of w[T] over the masks T holding players a and b; both[a, a] holds a.

    These are entries of the superset-sum (zeta) transform, run by
    `_superset_passes` over the masks they read.  w is overwritten.
    """
    _superset_passes(w, q, 2)
    bits = np.int64(1) << np.arange(q, dtype=np.int64)
    return w[bits[:, None] | bits]


def player_sums(w: np.ndarray, q: int) -> np.ndarray:
    """one[a] = sum of w[T] over the masks T holding player a: the diagonal of `pair_sums`, to the bit.

    The same passes update only the low masks of at most one player, 1 + j
    of them at pass j.  w is overwritten.
    """
    _superset_passes(w, q, 1)
    return w[np.int64(1) << np.arange(q, dtype=np.int64)]


def _pivoted(both: np.ndarray):
    """First and second moments of the pivoted design from the pair sums `both` of its weights."""
    pivot = both[:-1, -1]
    first = np.diag(both)[:-1] - both[-1, -1]
    second = both[:-1, :-1] - pivot[:, None] - pivot[None, :] + both[-1, -1]
    return first, second


def pivot_moments(w: np.ndarray, q: int):
    """First and second moments of the pivoted design under coalition weights w.

    Returns (sum_S w_S x_S, sum_S w_S x_S x_S^T) over all masks S, where
    x_i = z_i - z_{q-1} for i < q - 1.  Both follow from the sums of w over
    the coalitions holding a player or a pair of players, which `pair_sums`
    computes over w.
    """
    # sums of large weights can overflow; the solves that take these moments
    # refuse non-finite ones with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        return _pivoted(pair_sums(w, q))


def by_size(per_size: np.ndarray, q: int) -> np.ndarray:
    """v[mask] = per_size[|mask|] for all 2^q masks, by block copies of the q + 1 values.

    A mask's size is the size of its low b = q // 2 bits plus that of its
    high ones.  So each block of 2^b masks that share their high bits is a
    copy of one of q - b + 1 rows, row s holding per_size at the low masks'
    sizes plus s, and no 2^q index array is formed.
    """
    low = q // 2
    rows = per_size[np.arange(q - low + 1)[:, None] + subset_sums(np.ones(low, dtype=np.intp))]
    return rows.take(subset_sums(np.ones(q - low, dtype=np.intp)), axis=0).reshape(-1)


def size_weights(q: int) -> np.ndarray:
    """Kernel probability of one coalition of each size 0..q; zero for sizes 0 and q."""
    kw = kernel_weights(q)
    per_size = np.zeros(q + 1)
    per_size[1:q] = kw.size_probs / np.array([float_binomial(q, s) for s in range(1, q)])
    return per_size


def design_moment(q: int) -> np.ndarray:
    """The kernel design moment sum_S p_S x_S x_S^T, from the q + 1 size weights.

    Under the passes of `pair_sums` over p, an entry depends only on its
    mask's size c and on k, the number of its free bits processed so far:
    g(k, c) = g(k-1, c) + g(k-1, c+1), with g(0, c) = size_weights(q)[c].
    So every pair sum is g(q-2, 2) and every one-player sum g(q-1, 1), by
    the same additions; the result equals pivot_moments(p, q)[1] to the bit.
    """
    g = size_weights(q)
    for _ in range(q - 2):
        g = g[:-1] + g[1:]
    both = np.full((q, q), g[2])
    np.fill_diagonal(both, g[1] + g[2])
    return _pivoted(both)[1]


def _response(table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """y = v(S) - z_{q-1} v(N) by bitmask, written into out."""
    half = table.size // 2
    out[:half] = table[:half]
    np.subtract(table[half:], table[-1], out=out[half:])
    return out


def kernel_moments(table: np.ndarray, q: int):
    """Normal equations of the exact kernel least-squares fit over every coalition.

    Returns (p, y, hessian, rhs): the kernel probability of each coalition
    (zero for the empty and the grand one) and the response
    y = v(S) - z_{q-1} v(N), both indexed by bitmask, then the design moment
    sum_S p_S x_S x_S^T and the right side sum_S p_S y_S x_S.  The right
    side reads only one-player sums of p y, formed in y's buffer, which is
    then rebuilt.
    """
    p = by_size(size_weights(q), q)
    y = _response(table, np.empty_like(table))
    y *= p
    # as in pivot_moments, overflowing sums reach the solve as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        one = player_sums(y, q)
        rhs = one[:-1] - one[-1]
    return p, _response(table, y), design_moment(q), rhs


def shapley_subset(ev) -> ShapleyVector:
    """Shapley values from the subset formula over all coalitions.

    With w(s) = 1 / (q C(q-1, s)) and w(q) = 0, the formula's sum over
    coalitions without player j of w(|S|) (v(S + j) - v(S)) regroups into
    phi_j = sum_{T holding j} (w(|T|-1) + w(|T|)) v(T) - sum_S w(|S|) v(S).
    The first sum runs over the upper halves of a reshape(-1, 2, 2^j) view.
    """
    q = ev.q
    table = ev.value_table()
    weights = np.array([1.0 / (q * float_binomial(q - 1, s)) for s in range(q)] + [0.0])
    joined = np.append(0.0, weights[:-1] + weights[1:])
    base = float(by_size(weights, q) @ table)
    # the table is the evaluator's, so the weights are scaled by it, not it by them
    weighted = by_size(joined, q)
    weighted *= table
    phi = np.array([weighted.reshape(-1, 2, 1 << j)[:, 1, :].sum() for j in range(q)]) - base
    return ShapleyVector(phi=phi, method_tag="subset")


def all_permutations(q: int) -> np.ndarray:
    """Every player order as an array of shape (q!, q), in the order of itertools.permutations.

    That order is lexicographic: the orders starting with player a come in
    block a, and their tails are the orders of q - 1 players, lexicographic
    too, with each player from a on moved up by one.  So the orders of k
    players are built from those of k - 1, one block copy per first player.
    """
    if q > PERMUTATION_LIMIT:
        raise SizeGuard(f"permutation enumeration supports q <= {PERMUTATION_LIMIT}, got q = {q}")
    perms = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, q + 1):
        tails = perms
        perms = np.empty((k * tails.shape[0], k), dtype=np.int64)
        for a, block in enumerate(perms.reshape(k, -1, k)):
            block[:, 0] = a
            np.add(tails, tails >= a, out=block[:, 1:])
    return perms


def _check_orders(last: np.ndarray, grand) -> None:
    """DomainError unless every walked order's last prefix, `last`, is the grand coalition's code `grand`.

    The orders' entries lie in [0, q), and q powers of two sum to 2^q - 1
    only if they are distinct, so this holds exactly when every order holds
    each player once.
    """
    if not np.all(last == grand):
        raise DomainError("every player order must hold each player exactly once")


def marginal_matrix(values_at, perms: np.ndarray, paired: bool = False) -> np.ndarray:
    """Marginal-contribution vectors for each permutation, walked by prefixes.

    Row i, column j holds the payoff gain of player j joining the players
    that precede it in permutation i.  `values_at(masks, out=...)` writes the
    payoffs of an (n, q) int64 array of coalition bitmasks into a float
    array that shares the masks' memory; it is called once, on the q
    nonempty prefixes of every order (the empty prefix is worth zero by
    normalization).  Each row sums to the grand value.  The orders' entries
    must lie in [0, q); DomainError unless each holds every player once.

    Paired, row i is the sum of the vectors of order i and of its reverse,
    and `values_at` is called a second time, on the reverse order's q
    prefixes.  Its prefix of length k is the complement of the forward
    prefix of length q - k, so those masks are read off the forward ones,
    longest first: column t holds the coalition that player perms[i, t]
    completes in the reverse walk.  The two gain arrays then line up column
    by column, are added, and are scattered once.
    """
    masks = prefix_masks(perms)
    full = full_mask(perms.shape[1])
    _check_orders(masks[:, -1], full)
    if paired:
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


def gain_table(table: np.ndarray, paired: bool = False) -> np.ndarray:
    """Every gain a walk over the value table can read, as a (2^q, q) array.

    Entry (T, j), for a coalition T holding player j, is the gain of j
    completing the prefix T, v(T) - v(T - j); paired, the gain the reverse
    order gives j there, v(N - T + j) - v(N - T), is added to it.  These are
    `marginal_matrix`'s operands, combined in its order, so a walk reading
    them gets its bits.  As there, a gain onto the empty coalition
    subtracts nothing: its payoff is zero by normalization.  Entries with j
    outside T are zero.

    Pass j takes the halves of reshape(-1, 2, 2^j) views of the table and of
    table[::-1], whose entry at T is v(N - T), so no index array is formed.
    Differences of finite payoffs can overflow; they are left non-finite
    without a warning, for the caller to check.
    """
    q = table.size.bit_length() - 1
    gains = np.zeros((table.size, q))
    rev = np.empty(table.size // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(q):
            lower, upper = table.reshape(-1, 2, 1 << j).transpose(1, 0, 2)
            column = gains.reshape(-1, 2, 1 << j, q)[:, 1, :, j]
            np.subtract(upper, lower, out=column)
            column[0, 0] = upper[0, 0]
            if paired:
                joined, left = table[::-1].reshape(-1, 2, 1 << j).transpose(1, 0, 2)
                back = np.subtract(joined, left, out=rev.reshape(-1, 1 << j))
                back[-1, -1] = joined[-1, -1]
                column += back
    return gains


def walk_gains(gains: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """`marginal_matrix` read off a `gain_table`, to the bit: one gather per walked order.

    Player j at a position whose inclusive prefix is T reads entry T q + j.
    That index is q 2^perms, prefix-summed by column adds (exact, in
    integers), plus perms.  The gathered gains overwrite it and are
    scattered to row i q + perms of B's flat view.  The orders are walked
    in blocks of np.getbufsize() rows, numpy's ufunc buffer size, so each
    block's index and targets stay in cache and the walk holds only B and
    two blocks beside the orders.  The orders' entries must lie in [0, q);
    DomainError unless each holds every player once.
    """
    n, q = perms.shape
    B = np.empty((n, q))
    step = max(1, min(n, np.getbufsize()))
    index = np.empty((step, q), dtype=np.int64)
    targets = np.empty_like(index)
    rows = q * np.arange(step, dtype=np.int64)[:, None]
    grand = q * full_mask(q)
    for start in range(0, n, step):
        block = perms[start : start + step]
        m = block.shape[0]
        walked = np.left_shift(np.int64(q), block, out=index[:m])
        for t in range(1, q):
            walked[:, t] += walked[:, t - 1]
        _check_orders(walked[:, -1], grand)
        walked += block
        # the index is in range, so clipping never bites; it gathers unbuffered
        gained = np.take(gains.reshape(-1), walked, out=walked.view(np.float64), mode="clip")
        np.add(block, rows[:m], out=targets[:m])
        B.reshape(-1)[start * q : (start + m) * q][targets[:m]] = gained
    return B


def shapley_all_permutations(ev) -> ShapleyVector:
    """Shapley values as the average marginal contribution over all q! orders."""
    perms = all_permutations(ev.q)
    B = walk_gains(gain_table(ev.value_table()), perms)
    return ShapleyVector(phi=B.mean(axis=0), method_tag="permutation")


def shapley_kernel_exact(ev) -> ShapleyVector:
    """Shapley values from the exactly weighted least-squares problem.

    The last player's value is recovered from the efficiency constraint:
    it equals the grand value minus the sum of the solved components.
    """
    table = ev.value_table()
    _, _, hessian, rhs = kernel_moments(table, ev.q)
    partial = linalg.solve_spd(hessian, rhs)
    phi = np.append(partial, table[-1] - partial.sum())
    return ShapleyVector(phi=phi, method_tag="kernel")
