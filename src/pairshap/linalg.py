"""Dense symmetric linear algebra with fixed, test-visible tolerances.

The matrices in this package are small (at most a few dozen rows).  Solves
and ranks eliminate one pivot at a time; the eigensolver is a parallel-order
Jacobi that applies all the disjoint rotations of a round in one matrix
product.  `solve_spd` and `eig_sym` raise NonFiniteError for NaN or infinite
input entries rather than returning NaN.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, NoConvergence, NonFiniteError, SingularMatrix

SOLVE_SYMMETRY_RTOL = 1e-12
SINGULAR_PIVOT_RTOL = 1e-12
EIG_SYMMETRY_RTOL = 1e-10
EIG_OFFDIAG_RTOL = 1e-14
EIG_MAX_SWEEPS = 100


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{what} has NaN or infinite entries")


def _square_symmetric(A, rtol: float) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    _require_finite(A, "matrix")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if scale and float(np.max(np.abs(A - A.T))) > rtol * scale:
        raise DimensionError("matrix is not symmetric within tolerance")
    return A


def solve_spd(A, b):
    """Solve A x = b for symmetric positive (semi)definite A.

    Gaussian elimination with partial pivoting; `b` may be a vector or a
    matrix of right-hand-side columns.  Raises SingularMatrix when a pivot
    falls to SINGULAR_PIVOT_RTOL times the largest initial diagonal entry.
    """
    A = _square_symmetric(A, SOLVE_SYMMETRY_RTOL)
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    single = b.ndim == 1
    B = b[:, None] if single else b
    if B.shape[0] != n:
        raise DimensionError(f"right-hand side has {B.shape[0]} rows, matrix has {n}")
    _require_finite(B, "right-hand side")

    aug = np.hstack([A.copy(), B.copy()])
    pivot_floor = SINGULAR_PIVOT_RTOL * float(np.max(np.abs(np.diag(A)))) if n else 0.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[p, k]) <= pivot_floor:
            raise SingularMatrix(f"pivot {aug[p, k]:.3e} at step {k} below floor {pivot_floor:.3e}")
        if p != k:
            aug[[k, p]] = aug[[p, k]]
        factors = aug[k + 1 :, k] / aug[k, k]
        aug[k + 1 :, k:] -= np.outer(factors, aug[k, k:])

    X = np.empty_like(B)
    for k in range(n - 1, -1, -1):
        X[k] = (aug[k, n:] - aug[k, k + 1 : n] @ X[k + 1 :]) / aug[k, k]
    return X[:, 0] if single else X


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


def rank(A, tol: float) -> int:
    """Numerical rank by Gaussian elimination with complete pivoting.

    Pivots smaller than `tol` times the largest initial pivot count as zero.
    """
    if not tol > 0:
        raise DomainError(f"rank tolerance must be positive, got {tol}")
    M = np.asarray(A, dtype=float).copy()
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {M.shape}")
    m, n = M.shape
    first_pivot = None
    r = 0
    for step in range(min(m, n)):
        sub = np.abs(M[step:, step:])
        flat = int(np.argmax(sub))
        pr, pc = divmod(flat, n - step)
        pivot = sub[pr, pc]
        if first_pivot is None:
            first_pivot = pivot
        if first_pivot == 0.0 or pivot < tol * first_pivot:
            break
        if pr:
            M[[step, step + pr]] = M[[step + pr, step]]
        if pc:
            M[:, [step, step + pc]] = M[:, [step + pc, step]]
        factors = M[step + 1 :, step] / M[step, step]
        M[step + 1 :, step:] -= np.outer(factors, M[step, step:])
        r += 1
    return r
