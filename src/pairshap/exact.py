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
coalition size is copied out of those q + 1 values.

Every walk of player orders, sampled or all q! of them, is `prefix_walk`.
It streams: a supply gives the orders one block at a time, and for each
block the walk forms the prefix bitmasks, checks the orders, takes the
block's gains from a source, scatters them into player order and hands
them to a sink.  A source either looks the prefixes up and differences
their payoffs (`lookup_gains`) or gathers the gains from one table of the
q 2^q gains v(T) - v(T - j) (`table_gains` over `gain_table`), to the same
bits.  A sink either keeps the rows or folds them: into `WalkSum`, their
sum, or into `WalkMoments`, their sum and covariance.  So a walk of all q!
orders holds the orders and a few blocks, and no q! x q gain matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import linalg
from .errors import DomainError, NonFiniteError, SizeGuard
from .games import full_mask, subset_sums

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
    """A length-q attribution vector tagged with the method that produced it.

    Every exact route and estimator returns one, so this is where a
    non-finite phi is refused, with NonFiniteError.
    """

    phi: np.ndarray
    method_tag: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.phi)):
            raise NonFiniteError(f"{self.method_tag} Shapley values are not finite")


@dataclass(frozen=True)
class KernelWeights:
    """Sampling distribution over nonempty proper coalitions.

    `size_probs[s-1]` is the total probability of drawing some coalition of
    size s; within a size all coalitions are equally likely.  A coalition's
    probability is its raw weight (q-1) / (C(q,s) * s * (q-s)) over the
    total raw weight.
    """

    q: int
    size_probs: np.ndarray


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
    return KernelWeights(q=q, size_probs=raw / raw.sum())


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
    # the table is the evaluator's, so the weights are scaled by it, not it
    # by them; sums of finite payoffs can overflow, to a phi that
    # ShapleyVector refuses
    with np.errstate(over="ignore", invalid="ignore"):
        base = float(by_size(weights, q) @ table)
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


def prefix_walk(supply, source, sink=None) -> None:
    """Marginal-contribution vectors of player orders, walked by prefixes: the package's one walk.

    `supply` yields pairs (orders, out): an (m, q) block of at most
    np.getbufsize() orders, numpy's ufunc buffer size, and the (m, q) float
    rows its gains go to.  Row i, column j of out gets the payoff gain of
    player j joining the players that precede it in order i (paired, plus
    its gain in the reverse order).  For each block the walk forms the
    (m, q) int64 bitmasks of the q nonempty prefixes, by column adds of
    2^orders, checks the orders, and calls `source(masks, block)`, which
    returns the block's gains, column t that of the player at position t,
    in an (m, q) float array that may reuse the masks' memory:
    `table_gains` or `lookup_gains`.  The gains are scattered to entry
    i q + orders of out's flat view, and `sink(out)`, if given, takes them
    before the next block is drawn.  So the walk holds a few blocks beside
    what the supply and the sink hold, whichever source it has.  The
    orders' entries must lie in [0, q); DomainError unless each holds every
    player once, raised at the first block that holds such a row.
    """
    prefixes = np.empty((0, 0), dtype=np.int64)
    for block, out in supply:
        m, q = block.shape
        if prefixes.shape[0] < m:
            prefixes = np.empty((m, q), dtype=np.int64)
            targets = np.empty_like(prefixes)
            rows = q * np.arange(m, dtype=np.int64)[:, None]
        masks = np.left_shift(np.int64(1), block, out=prefixes[:m])
        for t in range(1, q):
            masks[:, t] += masks[:, t - 1]
        _check_orders(masks[:, -1], full_mask(q))
        np.add(block, rows[:m], out=targets[:m])
        out.reshape(-1)[targets[:m]] = source(masks, block)
        if sink is not None:
            sink(out)


def order_blocks(perms: np.ndarray, out: np.ndarray):
    """A `prefix_walk` supply: the rows of perms in blocks of np.getbufsize(), each with the rows of out its gains go to.

    out has perms' shape, and keeps every gain; or it has one block's rows,
    and every block's gains overwrite it, for a sink to fold.
    """
    step = np.getbufsize()
    for start in range(0, perms.shape[0], step):
        block = perms[start : start + step]
        yield block, (out[start : start + step] if out.shape[0] == perms.shape[0] else out[: block.shape[0]])


class WalkSum:
    """The sum of one walk's marginal-contribution rows, folded chunk by chunk.

    `add` takes the rows in order, in chunks of at most np.getbufsize()
    rows counted from the walk's first row, so a walk folds to the same
    bits however its chunks come in blocks.  `row_sum` adds the rows in
    order to zero, as numpy's sum over rows does: each chunk's first row
    has the sum so far added to it while the chunk is summed, and is then
    restored.  `paired` tells whether each row sums an order's and its
    reverse's vectors; the sum is not halved.
    """

    def __init__(self, paired: bool):
        self.paired = paired
        self.count, self.row_sum = 0, 0.0

    def add(self, chunk: np.ndarray) -> np.ndarray:
        """Fold a chunk of rows into `row_sum`; returns the chunk's own row sum."""
        # sums of finite gains can overflow; what reads the fold refuses a
        # non-finite phi with NonFiniteError
        with np.errstate(over="ignore", invalid="ignore"):
            # einsum adds the rows in order to zero, as numpy's sum over rows
            # does, to the bit, in a quarter of its time
            own = np.einsum("ij->j", chunk)
            if self.count:
                first = chunk[0].copy()
                chunk[0] += self.row_sum
                self.row_sum = np.einsum("ij->j", chunk)
                chunk[0] = first
            else:
                self.row_sum = own
        self.count += chunk.shape[0]
        return own


class WalkMoments(WalkSum):
    """The sum, extremes and covariance of one walk's marginal-contribution rows, folded chunk by chunk.

    `row_sum` is `WalkSum`'s.  Chunks are overwritten: paired, each row is
    then halved, the average of an order's and its reverse's vectors;
    `high` and `low` are the extremes of those rows.

    The covariance is folded by the pairwise update of Chan, Golub and
    LeVeque, "Algorithms for computing the sample variance" (The American
    Statistician, 1983): m2 takes each chunk's scatter about its own mean
    plus d d^T n_a n_b / (n_a + n_b), d the distance from the mean of the
    n_a rows before it.  A chunk is centered on its numpy mean, and one
    BLAS product adds up what rounding left of its mean, `rest`: its
    scatter is w^T w - m rest rest^T.  Means are kept about the first
    chunk's center, `shift`, so d is as exact as rest, even when the gains'
    mean is large against their spread.  The first chunk's m2 is its w^T w,
    centered as a two-pass covariance centers it, so a walk of one chunk
    has the two-pass bits; its `excess` m rest rest^T is taken out when a
    second chunk comes.
    """

    def __init__(self, paired: bool):
        super().__init__(paired)
        self.excess = 0.0
        self.high, self.low = -np.inf, np.inf

    def add(self, chunk: np.ndarray) -> None:
        before = self.count
        own = super().add(chunk)
        m = chunk.shape[0]
        # products of finite gains can overflow; what reads the fold refuses
        # a non-finite covariance with NonFiniteError
        with np.errstate(over="ignore", invalid="ignore"):
            if self.paired:
                chunk *= 0.5
            self.high = max(self.high, float(chunk.max()))
            self.low = min(self.low, float(chunk.min()))
            # numpy's mean of the (halved) rows: halving scales their sum exactly
            center = (0.5 * own if self.paired else own) / m
            chunk -= center
            rest = np.ones(m) @ chunk / m
            scatter = chunk.T @ chunk
            if not before:
                self.shift, self.mean, self.m2 = center, rest, scatter
                self.excess = m * rest[:, None] * rest
            else:
                scatter -= m * rest[:, None] * rest
                delta = (center - self.shift) + rest - self.mean
                self.m2 = self.m2 - self.excess + scatter + delta[:, None] * delta * (before * m / self.count)
                self.excess = 0.0
                self.mean = self.mean + delta * (m / self.count)

    def covariance(self) -> np.ndarray:
        """The rows' covariance, 1/(count - 1) normalized, for a fold of at least two rows."""
        return self.m2 / (self.count - 1)


def lookup_gains(values_at, paired: bool, masks: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A `prefix_walk` source: the gains as differences of prefix payoffs.

    `values_at(masks, out=...)` writes the payoffs of an (m, q) int64 array
    of coalition bitmasks into a float array that shares the masks' memory.
    It is called on the q nonempty prefixes of every order of the block (the
    empty prefix is worth zero by normalization), and paired, a second time,
    on the reverse order's q prefixes.  Its prefix of length k is the
    complement of the forward prefix of length q - k, so those masks are
    read off the forward ones, longest first: column t holds the coalition
    that player block[i, t] completes in the reverse walk.  The two gain
    arrays then line up column by column and are added.  As in `gain_table`,
    differences of finite payoffs can overflow; they are left non-finite
    without a warning.
    """
    if paired:
        rev = np.concatenate([np.zeros_like(masks[:, :1]), masks[:, :-1]], axis=1)
        rev ^= full_mask(masks.shape[1])
    gains = values_at(masks, out=masks.view(np.float64))
    if paired:
        rev = values_at(rev, out=rev.view(np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(gains.shape[1] - 1, 0, -1):
            gains[:, t] -= gains[:, t - 1]
        if paired:
            for t in range(rev.shape[1] - 1):
                rev[:, t] -= rev[:, t + 1]
            gains += rev
    return gains


def gain_table(table: np.ndarray, paired: bool = False) -> np.ndarray:
    """Every gain a walk over the value table can read, as a (2^q, q) array.

    Entry (T, j), for a coalition T holding player j, is the gain of j
    completing the prefix T, v(T) - v(T - j); paired, the gain the reverse
    order gives j there, v(N - T + j) - v(N - T), is added to it.  These are
    `lookup_gains`'s operands, combined in its order, so a walk reading
    them gets its bits, non-finite ones too.  As there, a gain onto the
    empty coalition subtracts nothing: its payoff is zero by normalization.
    Entries with j outside T are zero.

    Pass j takes the halves of reshape(-1, 2, 2^j) views of the table and of
    table[::-1], whose entry at T is v(N - T), so no index array is formed.
    Differences of finite payoffs can overflow; they are left non-finite
    without a warning.
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


def table_gains(gains: np.ndarray, masks: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A `prefix_walk` source: one gather from a `gain_table`, `lookup_gains`'s bits to the bit.

    Player j completing the prefix T reads entry T q + j.  That index
    overwrites the masks, exactly in integers, and the gathered gains
    overwrite the index.
    """
    index = np.multiply(masks, gains.shape[1], out=masks)
    index += block
    # the index is in range, so clipping never bites; it gathers unbuffered
    return np.take(gains.reshape(-1), index, out=index.view(np.float64), mode="clip")


def walk_all_orders(ev, paired: bool = False) -> WalkMoments:
    """`prefix_walk` of all q! orders, in `all_permutations` order, gathering from the evaluator's gain table.

    Each block of orders is one chunk of the returned fold.
    """
    perms = all_permutations(ev.q)
    moments = WalkMoments(paired)
    out = np.empty((min(perms.shape[0], np.getbufsize()), ev.q))
    prefix_walk(order_blocks(perms, out), partial(table_gains, gain_table(ev.value_table(), paired)), moments.add)
    return moments


def shapley_all_permutations(ev) -> ShapleyVector:
    """Shapley values as the average marginal contribution over all q! orders."""
    return ShapleyVector(phi=walk_all_orders(ev).row_sum / math.factorial(ev.q), method_tag="permutation")


def shapley_kernel_exact(ev) -> ShapleyVector:
    """Shapley values from the exactly weighted least-squares problem.

    The last player's value is recovered from the efficiency constraint:
    it equals the grand value minus the sum of the solved components.
    """
    table = ev.value_table()
    _, _, hessian, rhs = kernel_moments(table, ev.q)
    solved = linalg.solve_spd(hessian, rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.append(solved, table[-1] - solved.sum())
    return ShapleyVector(phi=phi, method_tag="kernel")
