"""Asymptotic covariance matrices of the sampling estimators.

The least-squares estimators disperse like a sandwich covariance built from
the design second moment and the residual-weighted second moment; the
permutation estimators disperse like the covariance of (paired) marginal-
contribution vectors.  Both are available exactly, by enumeration, and as
plug-in estimates from a sampled batch.  Reports carry the matrix, its
spectrum, and provenance, and feed the block detector and the
cost-adjusted spectrum comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import exact, linalg, permutation
from .errors import DimensionError, DomainError, NumericError, SizeGuard
from .streams import derive_rng

KERNEL_ENUM_LIMIT = 20
DEGENERATE_ATOL = 1e-13
NULLSPACE_RTOL = 1e-12


@dataclass(frozen=True)
class CovarianceReport:
    """A covariance matrix with its spectrum and origin.

    `method` names the estimator the matrix describes; `provenance` records
    whether it came from exact enumeration or a plug-in batch.  `degenerate`
    flags a numerically zero matrix, which for paired methods certifies that
    the game is exactly bilinear (the paired estimators are then exact and
    the matrix carries no information).
    """

    method: str
    provenance: str
    q: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    trace: float
    degenerate: bool


def _make_report(matrix: np.ndarray, method: str, provenance: str, q: int, scale: float) -> CovarianceReport:
    matrix = 0.5 * (matrix + matrix.T)
    eigenvalues, _ = linalg.eig_sym(matrix)
    # |matrix| <= atol * scale^2, divided by the scale so that no square overflows
    scale = max(1.0, scale)
    degenerate = bool(np.max(np.abs(matrix)) / scale <= DEGENERATE_ATOL * scale)
    return CovarianceReport(
        method=method,
        provenance=provenance,
        q=q,
        matrix=matrix,
        eigenvalues=eigenvalues,
        trace=float(np.trace(matrix)),
        degenerate=degenerate,
    )


def _sandwich(hessian: np.ndarray, meat: np.ndarray) -> np.ndarray:
    inner = linalg.solve_spd(hessian, meat)
    return linalg.solve_spd(hessian, inner.T)


def kernel_matrices_exact(ev, paired: bool = False):
    """Population design moment, residual moment, and sandwich covariance.

    Enumerates the full kernel sampling distribution (q <= 20) as vectors
    indexed by coalition bitmask.  Unpaired, the meat weights squared
    residuals of the exact least-squares fit; paired, it weights the squared
    even parts of those residuals and the design moment doubles because each
    draw contributes its complement row as well.  Paired moments need kernel
    weights symmetric under complement; NumericError is raised otherwise.
    Returns (meat, hessian, report).
    """
    q = ev.q
    if q > KERNEL_ENUM_LIMIT:
        raise SizeGuard(f"kernel moment enumeration supports q <= {KERNEL_ENUM_LIMIT}, got q = {q}")
    table = exact.value_table(ev)
    p, y, J, rhs = exact.kernel_moments(table, q)
    del table
    partial = linalg.solve_spd(J, rhs)
    scale = float(np.max(np.abs(y)))
    if paired:
        # Each draw S brings its complement N - S (mask 2^q - 1 - S), so the
        # complement rows carry the weights p[::-1].  Their design moment is J
        # again, since the row of N - S is minus the row of S; their right side
        # matches only for weights symmetric under complement, and only then
        # does the paired fit share the unpaired solution used below.
        complement_rhs, _ = exact.pivot_moments(p[::-1] * y, q)
        if not np.allclose(complement_rhs, rhs, rtol=0.0, atol=1e-12 * scale):
            raise NumericError("paired kernel moments need kernel weights symmetric under complement")
        hessian = 2.0 * J
        # the even part 0.5 (y(S) - y(N - S)) of the response
        residual = 0.5 * (y - y[::-1])
        method = "kernel-paired"
    else:
        hessian = J
        residual = y
        method = "kernel"
    # squares of finite payoffs can overflow; `_sandwich` refuses the
    # non-finite meat with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        residual -= exact.subset_sums(np.append(partial, -partial.sum()))
        residual *= residual
        residual *= 4.0 * p if paired else p
    _, meat = exact.pivot_moments(residual, q)
    covariance = _sandwich(hessian, meat)
    report = _make_report(covariance, method, "exact-enumeration", q, scale)
    return meat, hessian, report


def kernel_matrices_plugin(batch, phi):
    """Plug-in moments and sandwich covariance from an accepted batch.

    Uses the batch's own design rows and responses with the supplied
    attribution vector; pairing is read off the batch.  Returns
    (meat, hessian, report); the solve raises SingularMatrix when the
    sampled design moment is not invertible.
    """
    values = phi.phi if isinstance(phi, exact.ShapleyVector) else np.asarray(phi, dtype=float)
    partial = values[:-1]
    m, q = batch.design.shape[0], batch.design.shape[1] + 1
    n = m // 2 if batch.paired else m
    # as in kernel_matrices_exact, overflowing squares give a non-finite
    # meat, which `_sandwich` refuses with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        if batch.paired:
            x = batch.design[:n]
            draw_y = batch.response[:n]
            comp_y = batch.response[n:]
            paired_residual = 0.5 * (draw_y - comp_y) - x @ partial
            meat = (x * (4.0 * paired_residual**2)[:, None]).T @ x / n
            hessian = 2.0 * (x.T @ x) / n
            method = "kernel-paired"
        else:
            x = batch.design
            residual = batch.response - x @ partial
            meat = (x * (residual**2)[:, None]).T @ x / n
            hessian = x.T @ x / n
            method = "kernel"
    covariance = _sandwich(hessian, meat)
    scale = float(np.max(np.abs(batch.response))) if batch.response.size else 0.0
    provenance = f"plug-in(n={n}, seed={batch.seed})"
    report = _make_report(covariance, method, provenance, q, scale)
    return meat, hessian, report


def permutation_covariance_exact(ev, paired: bool = True) -> CovarianceReport:
    """Covariance of the (paired) marginal-contribution vector over all orders.

    Enumerates all q! permutations (q <= 9) from a value table and forms the
    covariance with the unbiased 1/(q! - 1) normalization.  Every row of the
    averaged matrix sums to the grand value, so the all-ones vector is always
    in the null space; for additively separated games the matrix is block
    diagonal, and for bilinear games it vanishes entirely.
    """
    perms = exact.all_permutations(ev.q)
    table = exact.value_table(ev)
    # prefixes of whole orders are always in range; clipping gathers unbuffered
    W = exact.marginal_matrix(partial(np.take, table, mode="clip"), perms, paired)
    return _walk_covariance(W, paired, "exact-enumeration")


def permutation_covariance_plugin(ev, n: int, seed=None, paired: bool = True, walked=None) -> CovarianceReport:
    """Sample covariance of (paired) marginal vectors from n fresh orders.

    Draws with the same substream layout as `estimate_permutation`, so the
    same seed reproduces the estimator's own draws.  `walked`, the matrix
    `estimate_permutation` returned for the same n, seed and pairing, is
    used instead of drawing and walking those orders again; it is
    overwritten.  Uses the 1/(n - 1) normalization.
    """
    if n < 2:
        raise DomainError(f"need at least 2 sampled orders, got {n}")
    if walked is None:
        perms = permutation.sample_permutations(ev.q, n, derive_rng(seed, 0))
        walked = permutation.marginal_vectors(ev, perms, paired)
    return _walk_covariance(walked, paired, f"plug-in(n={n}, seed={seed})")


def _walk_covariance(W: np.ndarray, paired: bool, provenance: str) -> CovarianceReport:
    """Covariance of the rows of a marginal-contribution matrix, 1/(m - 1) normalized.

    `W` comes from one walk, paired-summed when paired.  The pairing
    average and the centering overwrite it, so no further m x q array is
    made.
    """
    if paired:
        W *= 0.5
        method = "permutation-paired"
    else:
        method = "permutation"
    scale = max(float(W.max()), -float(W.min())) if W.size else 0.0
    W -= W.mean(axis=0)
    # products of finite contributions can overflow; eig_sym in
    # `_make_report` refuses the non-finite matrix with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        covariance = W.T @ W / (W.shape[0] - 1)
    return _make_report(covariance, method, provenance, W.shape[1], scale)


def predicted_stderr(report: CovarianceReport, n: int) -> np.ndarray:
    """Per-player standard error sqrt(variance / n) implied by a report.

    Permutation covariances are q-by-q and read off directly.  Kernel
    covariances describe the q-1 solved components; the pivoted player's
    error is the negated sum of the others by the efficiency constraint, so
    its variance is the total of the matrix.
    """
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    M = report.matrix
    q = report.q
    if M.shape == (q, q):
        diag = np.diag(M)
    else:
        ones = np.ones(q - 1)
        diag = np.append(np.diag(M), ones @ M @ ones)
    # degenerate matrices can carry roundoff-negative variances
    return np.sqrt(np.maximum(diag, 0.0) / n)


def positive_eigenvalues(report: CovarianceReport) -> np.ndarray:
    """Eigenvalues excluding the numerical null space (|w| <= rtol * trace)."""
    w = report.eigenvalues
    return w[np.abs(w) > NULLSPACE_RTOL * abs(report.trace)]


def detect_blocks(report: CovarianceReport, threshold: float) -> list[list[int]]:
    """Connected groups of players under |matrix entry| > threshold.

    Expects a q-by-q matrix (the permutation covariances qualify); returns
    0-based groups sorted within and ordered by smallest member.  Zero rows
    come out as singleton groups.
    """
    if not threshold > 0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    M = report.matrix
    if M.shape != (report.q, report.q):
        raise DimensionError(
            f"block detection needs a {report.q}x{report.q} matrix, got {M.shape}"
        )
    adjacency = np.abs(M) > threshold
    unseen = set(range(report.q))
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


def report_to_dict(report: CovarianceReport) -> dict:
    """JSON-ready view of a report; lists for arrays, plain floats elsewhere."""
    return {
        "method": report.method,
        "provenance": report.provenance,
        "q": report.q,
        "matrix": [[float(v) for v in row] for row in report.matrix],
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "trace": report.trace,
        "degenerate": report.degenerate,
    }
