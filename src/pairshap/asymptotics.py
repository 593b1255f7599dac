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

import numpy as np

from . import exact, linalg, permutation
from .errors import DimensionError, DomainError, NumericError
from .streams import derive_rng

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


def _subtract_fitted(residual: np.ndarray, coefs: np.ndarray) -> None:
    """residual -= subset_sums(coefs), to the bit, with a quarter of residual as scratch.

    `subset_sums` adds a mask's top players' coefficients, in order, to the
    sum over its lower players, so each of the (up to) eight blocks of
    residual that share the top three players' bits takes the lower sums
    plus those players' coefficients.  The lower sums and one block's
    fitted values are an eighth of residual each.
    """
    top = min(3, coefs.size - 1)
    lower = exact.subset_sums(coefs[: coefs.size - top])
    scratch = np.empty_like(lower)
    for high, block in enumerate(residual.reshape(1 << top, -1)):
        fitted = lower
        for b in range(top):
            if high >> b & 1:
                fitted = np.add(fitted, coefs[b - top], out=scratch)
        block -= fitted


def kernel_matrices_exact(ev, paired: bool = False):
    """Population design moment, residual moment, and sandwich covariance.

    Enumerates the full kernel sampling distribution (q <= TABLE_LIMIT; the
    value table raises SizeGuard beyond, before allocating) as vectors
    indexed by coalition bitmask.  Unpaired, the meat weights squared
    residuals of the exact least-squares fit; paired, it weights the squared
    even parts of those residuals and the design moment doubles because each
    draw contributes its complement row as well.  Paired moments need kernel
    weights symmetric under complement; NumericError is raised otherwise,
    before the game is evaluated.  Returns (meat, hessian, report).

    Beyond the value table it holds two vectors of length 2^q, the
    coalition probabilities and the response, and a quarter of one for the
    fitted values: the paired even part, the residuals and their weighted
    squares overwrite the response in turn.
    """
    q = ev.q
    if paired:
        # Each draw S brings its complement N - S (mask 2^q - 1 - S), so the
        # complement rows carry the weights p[::-1].  The row of N - S is minus
        # the row of S, so for weights symmetric under complement the
        # complement rows' design moment is J and their right side is rhs:
        # the design moment doubles and the paired fit shares the unpaired
        # solution used below.  A coalition's weight depends on its size
        # alone, so the per-size weights decide it.
        per_size = exact.size_weights(q)
        if not np.allclose(per_size, per_size[::-1], rtol=1e-12, atol=0.0):
            raise NumericError("paired kernel moments need kernel weights symmetric under complement")
    p, y, J, rhs = exact.kernel_moments(ev.value_table(), q)
    partial = linalg.solve_spd(J, rhs)
    scale = max(float(y.max()), -float(y.min()))
    if paired:
        hessian = 2.0 * J
        # the even part 0.5 (y(S) - y(N - S)) of the response, in place: its
        # entry at N - S is minus its entry at S, exactly, so the lower half
        # is formed and the upper half mirrors it
        half = y.size // 2
        lower = y[:half]
        lower -= y[::-1][:half]
        lower *= 0.5
        np.negative(lower[::-1], out=y[half:])
        method = "kernel-paired"
    else:
        hessian = J
        method = "kernel"
    residual = y
    # squares of finite payoffs can overflow; `_sandwich` refuses the
    # non-finite meat with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        _subtract_fitted(residual, np.append(partial, -partial.sum()))
        residual *= residual
        if paired:
            p *= 4.0
        residual *= p
    # released before the meat's passes, so their gathers do not add to it
    del p
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
    return _walk_covariance(exact.walk_all_orders(ev, paired), paired, "exact-enumeration")


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
    method = "permutation-paired" if paired else "permutation"
    # sums and products of finite contributions can overflow; eig_sym in
    # `_make_report` refuses the non-finite matrix with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(float(W.max()), -float(W.min())) if W.size else 0.0
        W -= W.mean(axis=0)
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
