"""Single-coalition and single-draw reference helpers that tests compare against.

The package works on batches: coalition matrices, bitmask prefixes and
batched samplers.  These are the one-at-a-time forms of the same
definitions, kept here as oracles and as the readable statement of each
definition.
"""
from __future__ import annotations

from functools import partial
from itertools import combinations

import numpy as np

from pairshap import exact, experiments, linalg
from pairshap.errors import DimensionError, DomainError, InputError
from pairshap.games import ValueFunctionSpec, mask_rows


class SpecError(InputError):
    """A value function lacks the structure a routine requires."""


def evaluate(spec: ValueFunctionSpec, z) -> float:
    """Normalized payoff of a single coalition."""
    z = np.asarray(z)
    if z.ndim != 1:
        raise DimensionError(f"expected a length-{spec.q} coalition vector, got shape {z.shape}")
    return float(spec.values(z[None, :])[0])


def evaluate_many(spec: ValueFunctionSpec, Z) -> np.ndarray:
    """Normalized payoffs for the rows of an (m, q) coalition matrix."""
    return spec.values(Z)


def walk_rows(perms, source) -> np.ndarray:
    """An `exact.PrefixWalk` of an (n, q) array of orders from a gain source, every block's gains kept as rows of one matrix."""
    perms = np.asarray(perms)
    B = np.empty(perms.shape)
    walk = exact.PrefixWalk(source)
    step = np.getbufsize()
    for start in range(0, perms.shape[0], step):
        walk(perms[start : start + step], B[start : start + step])
    return B


def marginal_vectors(ev, perms, paired: bool = False) -> np.ndarray:
    """Marginal-contribution vector of each order, every row kept, its prefixes looked up through `ev.values_at`.

    Row i, column j holds the payoff gain when player j joins the players
    preceding it in order i; paired, row i also adds the gains of the
    reverse order.  The estimators fold these rows as they walk them and
    keep none.
    """
    return walk_rows(perms, partial(exact.lookup_gains, ev.values_at, paired))


def marginal_vector(ev, perm) -> np.ndarray:
    """Marginal-contribution vector of a single permutation."""
    return marginal_vectors(ev, np.asarray(perm)[None, :])[0]


def max_pairwise_discrepancy(solutions) -> float:
    """The largest max-norm distance between two of the solutions, over every pair in turn."""
    worst = 0.0
    for a, b in combinations(solutions, 2):
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def two_pass_covariance(W: np.ndarray, paired: bool) -> np.ndarray:
    """Covariance of the rows of a marginal-contribution matrix, 1/(n - 1) normalized, by two passes.

    The rows are halved when paired, centered on their numpy mean and
    multiplied out, all in one matrix.  `exact.WalkMoments` folds a walk of
    at most np.getbufsize() rows to these bits.
    """
    W = 0.5 * W if paired else W.copy()
    W -= W.mean(axis=0)
    return W.T @ W / (W.shape[0] - 1)


def complement(z) -> np.ndarray:
    """Indicator of the complementary coalition."""
    z = np.asarray(z)
    if not np.isin(z, (0, 1)).all():
        raise DomainError("coalition entries must be 0 or 1")
    return (1 - z).astype(z.dtype)


def reverse_permutation(perm) -> np.ndarray:
    """The same player order walked back to front."""
    return np.asarray(perm)[::-1].copy()


def inverse_positions(perm) -> np.ndarray:
    """Position of each player within a permutation: out[perm[t]] = t."""
    perm = np.asarray(perm)
    out = np.empty_like(perm)
    out[perm] = np.arange(len(perm))
    return out


def prefix_coalition(perm, j: int) -> np.ndarray:
    """Indicator of the players that precede player j in the permutation."""
    perm = np.asarray(perm)
    pos = int(np.nonzero(perm == j)[0][0])
    z = np.zeros(len(perm), dtype=np.uint8)
    z[perm[:pos]] = 1
    return z


def coalition_matrix(q: int) -> np.ndarray:
    """All 2^q coalitions as a binary matrix; row index equals the bitmask."""
    return mask_rows(np.arange(2**q, dtype=np.int64), q)


def superset_sums(w: np.ndarray, q: int) -> np.ndarray:
    """Zeta transform in place: w[S] becomes the sum of w[T] over all T containing S.

    Pass j pairs every mask without bit j with the mask that adds it, as
    the two halves of a reshape(-1, 2, 2^j) view, and adds the second to
    the first.  `exact.pair_sums` runs the same passes over the masks its
    entries read.
    """
    for j in range(q):
        halves = w.reshape(-1, 2, 1 << j)
        halves[:, 0, :] += halves[:, 1, :]
    return w


def sample_coalition(weights: exact.KernelWeights, rng: np.random.Generator) -> np.ndarray:
    """Draw one coalition: a size from `weights`, then members uniformly."""
    sizes = np.arange(1, weights.q)
    s = int(rng.choice(sizes, p=weights.size_probs))
    members = rng.choice(weights.q, size=s, replace=False)
    z = np.zeros(weights.q, dtype=np.uint8)
    z[members] = 1
    return z


def coalition_probability(weights: exact.KernelWeights, size: int) -> float:
    """Kernel probability of one particular coalition of the given size."""
    if not 1 <= size <= weights.q - 1:
        raise DomainError(f"coalition size must lie in 1..{weights.q - 1}, got {size}")
    return float(weights.size_probs[size - 1] / exact.float_binomial(weights.q, size))


def psd_gap(T, T2) -> float:
    """Smallest eigenvalue of T - T2; nonnegative when pairing only helps."""
    difference = np.asarray(T, dtype=float) - np.asarray(T2, dtype=float)
    eigenvalues = linalg.eig_sym(difference)
    return float(eigenvalues[-1])


def search_blocks(adjacency) -> list[list[int]]:
    """Connected groups of a symmetric boolean adjacency by breadth-first search.

    Groups are sorted within and ordered by smallest member, as
    `asymptotics.detect_blocks` returns them.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    unseen = set(range(adjacency.shape[0]))
    blocks: list[list[int]] = []
    while unseen:
        start = min(unseen)
        frontier = [start]
        unseen.discard(start)
        component = {start}
        while frontier:
            node = frontier.pop()
            for neighbour in np.nonzero(adjacency[node])[0]:
                neighbour = int(neighbour)
                if neighbour in unseen:
                    unseen.discard(neighbour)
                    component.add(neighbour)
                    frontier.append(neighbour)
        blocks.append(sorted(component))
    return blocks


def separated_exact_check(ev, d: int, perm) -> np.ndarray:
    """Group-free players' attributions from a single paired walk.

    Requires the wrapped game to expose terms and the first d players to
    enter only plain linear or bilinear terms confined to those players;
    for such games one paired permutation already gives their Shapley
    values exactly, and those d components are returned.  A term that
    couples the first d players to the rest raises PartitionError.
    """
    terms = getattr(ev.game, "terms", None)
    if terms is None:
        raise SpecError("game does not expose its terms; a declared spec is required")
    if not 1 <= d <= ev.q:
        raise DomainError(f"d must lie in 1..{ev.q}, got {d}")
    experiments._check_partition_against_terms(ev.game, [np.arange(d), np.arange(d, ev.q)])
    for pos, term in enumerate(terms):
        if term.indices.min() < d and term.kind not in ("linear", "bilinear"):
            raise SpecError(f"terms[{pos}] is {term.kind!r}; only plain forms stay exact")
    perm = np.asarray(perm)
    if perm.shape != (ev.q,) or not np.array_equal(np.sort(perm), np.arange(ev.q)):
        raise DomainError("perm must be a permutation of 0..q-1")
    paired = 0.5 * (marginal_vector(ev, perm) + marginal_vector(ev, perm[::-1]))
    return paired[:d]


def cyclic_jacobi(A):
    """Eigenvalues (descending) of symmetric A by one rotation at a time.

    The row-by-row cyclic Jacobi that `linalg.eig_sym` ran before its
    rotations were grouped into parallel rounds: the same rotation formulas,
    the same stopping rule and sweep budget, and pairs visited as
    (0, 1), (0, 2), ..., (n-2, n-1).
    """
    a = np.array(A, dtype=float)
    n = a.shape[0]
    threshold = linalg.EIG_OFFDIAG_RTOL * float(np.linalg.norm(a))
    for _ in range(linalg.EIG_MAX_SWEEPS):
        if np.linalg.norm(a - np.diag(np.diag(a))) <= threshold:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                if a[p, r] == 0.0:
                    continue
                theta = (a[r, r] - a[p, p]) / (2.0 * a[p, r])
                t = 1.0 if theta == 0.0 else np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[r, r] = c
                J[p, r], J[r, p] = s, -s
                a = J.T @ a @ J
                a[p, r] = a[r, p] = 0.0
    w = np.diag(a).copy()
    return w[np.argsort(-w, kind="stable")]
