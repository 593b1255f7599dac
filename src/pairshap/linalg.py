"""Dense symmetric linear algebra with fixed, test-visible tolerances.

The matrices in this package are small (at most a few dozen rows).  Solves
eliminate one pivot at a time, over a whole (r, k, k) stack of matrices at
once where many small systems share a shape; each slice is pivoted on its
own and gives bit for bit what its own 2-D call gives.  The
eigensolver is a parallel-order Jacobi that applies all the disjoint
rotations of a round in one matrix product.  `solve_spd` and `eig_sym` raise
NonFiniteError for NaN or infinite input entries rather than returning NaN.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError, NoConvergence, NonFiniteError, SingularMatrix

SOLVE_SYMMETRY_RTOL = 1e-12
SINGULAR_PIVOT_RTOL = 1e-12
EIG_SYMMETRY_RTOL = 1e-10
EIG_OFFDIAG_RTOL = 1e-14
EIG_MAX_SWEEPS = 100


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{what} has NaN or infinite entries")


def _square_symmetric(A, rtol: float, stacks: bool = False) -> np.ndarray:
    """A as a float array, checked square, finite and symmetric; slice by slice if `stacks`."""
    A = np.asarray(A, dtype=float)
    if A.ndim not in ((2, 3) if stacks else (2,)) or A.shape[-1] != A.shape[-2]:
        kind = "a square matrix or a stack of them" if stacks else "a square matrix"
        raise DimensionError(f"expected {kind}, got shape {A.shape}")
    _require_finite(A, "matrix")
    if A.size:
        scale = np.max(np.abs(A), axis=(-2, -1))
        asymmetry = np.max(np.abs(A - np.swapaxes(A, -2, -1)), axis=(-2, -1))
        if np.any(asymmetry > rtol * scale):
            raise DimensionError("matrix is not symmetric within tolerance")
    return A


def solve_spd(A, b):
    """Solve A x = b for symmetric positive (semi)definite A, or for every slice of a stack.

    Gaussian elimination with partial pivoting.  `A` is k x k with `b` a
    vector or a matrix of right-hand-side columns, or `A` is an (r, k, k)
    stack with `b` an (r, k) or (r, k, c) stack; slice i solves A[i] x = b[i].
    A slice is singular when a pivot falls to SINGULAR_PIVOT_RTOL times the
    largest initial diagonal entry of its matrix; that pivot floor is the
    package's only rank test.  The other slices are still eliminated, and
    then SingularMatrix is raised: its message names the lowest singular
    slice of a stack, with its first failing step and pivot, and its
    `slices` holds the index of every singular slice.
    """
    A = _square_symmetric(A, SOLVE_SYMMETRY_RTOL, stacks=True)
    stacked = A.ndim == 3
    n = A.shape[-1]
    b = np.asarray(b, dtype=float)
    single = b.ndim == A.ndim - 1
    B = b[..., None] if single else b
    if B.shape[:-1] != A.shape[:-1]:
        raise DimensionError(f"right-hand side of shape {b.shape} does not fit a matrix of shape {A.shape}")
    _require_finite(B, "right-hand side")
    A = A.reshape(-1, n, n)
    B = B.reshape(A.shape[0], n, -1)

    aug = np.concatenate([A, B], axis=2)
    slices = np.arange(aug.shape[0])
    pivot_floor = SINGULAR_PIVOT_RTOL * np.max(np.abs(np.diagonal(A, axis1=1, axis2=2)), axis=1, initial=0.0)
    singular = np.zeros(aug.shape[0], dtype=bool)
    first = None
    for k in range(n):
        p = k + np.argmax(np.abs(aug[:, k:, k]), axis=1)
        pivot = aug[slices, p, k]
        low = np.abs(pivot) <= pivot_floor
        if low.any():
            fresh = low & ~singular
            i = int(np.argmax(fresh))
            if fresh[i] and (first is None or i < first[0]):
                first = i, k, pivot[i]
            singular |= low
        if k + 1 == n:
            break
        if np.any(p != k):
            top = aug[:, k].copy()
            aug[:, k] = aug[slices, p]
            aug[slices, p] = top
        # a singular slice is divided by infinity, which zeroes its factors
        # and leaves its entries as they stand, finite, while the rest go on
        factors = aug[:, k + 1 :, k] / np.where(singular, np.inf, aug[:, k, k])[:, None]
        aug[:, k + 1 :, k:] -= factors[:, :, None] * aug[:, k, None, k:]
    if first is not None:
        i, k, pivot = first
        where = f"slice {i}: " if stacked else ""
        raise SingularMatrix(
            f"{where}pivot {pivot:.3e} at step {k} below floor {pivot_floor[i]:.3e}", np.flatnonzero(singular)
        )

    # a stacked matmul runs each slice's product through the routine of the
    # 2-D product, so every slice rounds exactly as its own call would
    X = np.empty_like(B)
    for k in range(n - 1, -1, -1):
        rest = aug[:, k, n:]
        if k + 1 < n:
            rest = rest - np.matmul(aug[:, k, None, k + 1 : n], X[:, k + 1 :])[:, 0]
        X[:, k] = rest / aug[:, k, k, None]
    return X.reshape(b.shape)


@lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple:
    """Brent and Luk's parallel ordering of the n(n-1)/2 pairs, built once per n.

    The circle method: slot 0 stays put, the other slots turn one place per
    round, and slot i meets slot m-1-i.  Odd n gets a dummy slot n, whose
    partner sits out that round, so a sweep is n-1 rounds for even n and n
    for odd n, each pair meets exactly once, and the pairs of one round are
    disjoint.  Each round holds its p < r index arrays and the flat offsets
    of a[p, r], a[r, p], a[p, p] and a[r, r] in an n-by-n matrix.
    """
    m = n + n % 2
    slots = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted((slots[i], slots[m - 1 - i])) for i in range(m // 2)]
        p, r = np.array([pr for pr in pairs if pr[1] < n], dtype=np.intp).reshape(-1, 2).T
        offsets = (p * n + r, r * n + p, p * (n + 1), r * (n + 1))
        for index in (p, r, *offsets):
            index.flags.writeable = False
        rounds.append((p, r, *offsets))
        slots.insert(1, slots.pop())
    return tuple(rounds)


def eig_sym(A):
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric A.

    Parallel-order Jacobi: each sweep runs the round-robin rounds of
    `_round_robin`, and the rotations of one round, acting on disjoint
    pairs, commute, so one step a <- J^T a J, V <- V J applies them all.
    Converged when the off-diagonal Frobenius norm drops to EIG_OFFDIAG_RTOL
    times the Frobenius norm of the input.  Raises NoConvergence after
    EIG_MAX_SWEEPS sweeps.
    """
    A = _square_symmetric(A, EIG_SYMMETRY_RTOL)
    n = A.shape[0]
    # an exact power-of-two scaling keeps the squares in the norms finite
    _, exponent = np.frexp(np.max(np.abs(A))) if A.size else (0.0, 0)
    a = np.ldexp(A, -exponent, order="C")
    flat = a.reshape(-1)
    work = np.empty_like(a)
    V = np.eye(n)
    rotated = np.empty_like(V)
    J = np.eye(n)
    J_flat = J.reshape(-1)
    threshold = EIG_OFFDIAG_RTOL * float(np.linalg.norm(a))

    def offdiag_norm() -> float:
        return float(np.sqrt(np.sum(np.square(a - np.diag(np.diag(a))))))

    # a tiny a_pr can overflow theta * theta, which leaves t = 0: the identity
    with np.errstate(over="ignore"):
        for _ in range(EIG_MAX_SWEEPS):
            if offdiag_norm() <= threshold:
                break
            for _, _, pr, rp, pp, rr in _round_robin(n):
                apr = flat[pr]
                if not apr.any():
                    continue
                zero = apr == 0.0
                # theta = 0 turns by 45 degrees; a zero a_pr gets the identity
                theta = (flat[rr] - flat[pp]) / (2.0 * np.where(zero, 1.0, apr))
                t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t[theta == 0.0] = 1.0
                t[zero] = 0.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                J_flat[pp] = c
                J_flat[rr] = c
                J_flat[pr] = s
                J_flat[rp] = -s
                np.matmul(J.T, a, out=work)
                np.matmul(work, J, out=a)
                flat[pr] = 0.0
                flat[rp] = 0.0
                np.matmul(V, J, out=rotated)
                V, rotated = rotated, V
                J_flat[pp] = 1.0
                J_flat[rr] = 1.0
                J_flat[pr] = 0.0
                J_flat[rp] = 0.0
        else:
            if offdiag_norm() > threshold:
                raise NoConvergence(f"Jacobi iteration did not converge in {EIG_MAX_SWEEPS} sweeps")

    w = np.ldexp(np.diag(a), exponent)
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order]
