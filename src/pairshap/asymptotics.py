"""Asymptotic covariance matrices of the sampling estimators.

The least-squares estimators disperse like a sandwich covariance built from
the design second moment and the residual-weighted second moment; the
permutation estimators disperse like the covariance of (paired) marginal-
contribution vectors.  Both are available exactly, by enumeration, and as
plug-in estimates from a sampled batch.  A permutation covariance, exact or
plug-in, is folded block by block as its walk streams: each block of
orders is walked by one `exact.PrefixWalk` call and folded into
`exact.WalkMoments`, so no q! x q or n x q matrix of marginal vectors is
held.  Reports carry the matrix, its spectrum, and provenance, and feed the
block detector and the cost-adjusted spectrum comparison.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import exact, linalg, permutation
from .errors import DimensionError, DomainError, NumericError

DEGENERATE_ATOL = 1e-13
NULLSPACE_RTOL = 1e-12


@dataclass(frozen=True)
class CovarianceReport:
    """A covariance matrix with its spectrum and origin.

    `method` names the estimator the matrix describes; `provenance` records
    whether it came from exact enumeration or a plug-in batch.  `degenerate`
    flags a numerically zero matrix: the estimator is then exact, and the
    matrix carries no information.  A game whose interactions have order at
    most two has degenerate paired matrices, but the converse fails: the
    paired estimators are exact whenever the game's complement-odd part,
    v(S) - v(N - S), is affine, as for exp(b^T z) + exp(-b^T z) with
    sum(b) = 0, whose dividends of order three and more are not zero.
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
    eigenvalues = linalg.eig_sym(matrix)
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
    indexed by coalition bitmask.  The meat weights squared residuals of
    the exact least-squares fit.  Paired, the fit is the unpaired one of the
    response's complement-even part: the meat takes its residuals with
    weight 4, and the design moment doubles because each draw contributes
    its complement row as well.  Paired moments need kernel weights
    symmetric under complement; NumericError is raised otherwise, before
    the game is evaluated.  Returns (meat, hessian, report).

    Beyond the value table it holds two vectors of length 2^q, the
    coalition probabilities and the response, and a quarter of one for the
    fitted values: the paired even part, the residuals and their weighted
    squares overwrite the response in turn.
    """
    q = ev.q
    factor, method = (2.0, "kernel-paired") if paired else (1.0, "kernel")
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
        # the even part 0.5 (y(S) - y(N - S)) of the response, in place: its
        # entry at N - S is minus its entry at S, exactly, so the lower half
        # is formed and the upper half mirrors it
        half = y.size // 2
        lower = y[:half]
        lower -= y[::-1][:half]
        lower *= 0.5
        np.negative(lower[::-1], out=y[half:])
    residual = y
    # squares of finite payoffs can overflow; `_sandwich` refuses the
    # non-finite meat with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        _subtract_fitted(residual, np.append(partial, -partial.sum()))
        residual *= residual
        # the weight 4 is applied to the probabilities, paired only, so the
        # unpaired route makes no pass over 2^q entries for a weight of 1
        if paired:
            p *= 4.0
        residual *= p
    # released before the meat's passes, so their gathers do not add to it
    del p
    _, meat = exact.pivot_moments(residual, q)
    hessian = factor * J
    covariance = _sandwich(hessian, meat)
    report = _make_report(covariance, method, "exact-enumeration", q, scale)
    return meat, hessian, report


def kernel_matrices_plugin(batch, phi):
    """Plug-in moments and sandwich covariance from an accepted batch.

    Uses the batch's own design rows and responses with the supplied
    attribution vector; pairing is read off the batch.  As in
    `kernel_matrices_exact`, a paired batch is fitted as an unpaired one:
    its n draw rows, with each draw's even part 0.5 (y(S) - y(N - S)) as
    the response, the meat weighted by 4 and the design moment doubled.
    Returns (meat, hessian, report); the solve raises SingularMatrix when
    the sampled design moment is not invertible.
    """
    values = phi.phi if isinstance(phi, exact.ShapleyVector) else np.asarray(phi, dtype=float)
    partial = values[:-1]
    m, q = batch.design.shape[0], batch.design.shape[1] + 1
    n = m // 2 if batch.paired else m
    weight, factor, method = (4.0, 2.0, "kernel-paired") if batch.paired else (1.0, 1.0, "kernel")
    x = batch.design[:n]
    # as in kernel_matrices_exact, overflowing squares give a non-finite
    # meat, which `_sandwich` refuses with NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        y = 0.5 * (batch.response[:n] - batch.response[n:]) if batch.paired else batch.response
        residual = y - x @ partial
        meat = (x * (weight * residual**2)[:, None]).T @ x / n
        hessian = factor * (x.T @ x) / n
    covariance = _sandwich(hessian, meat)
    scale = float(np.max(np.abs(batch.response))) if batch.response.size else 0.0
    provenance = f"plug-in(n={n}, seed={batch.seed})"
    report = _make_report(covariance, method, provenance, q, scale)
    return meat, hessian, report


def permutation_covariance_exact(ev, paired: bool = True) -> CovarianceReport:
    """Covariance of the (paired) marginal-contribution vector over all orders.

    Walks all q! permutations (q <= 9) through the evaluator's gain table
    and folds the rows block by block (`exact.walk_all_orders`), with the
    unbiased 1/(q! - 1) normalization.  Every row of the averaged matrix
    sums to the grand value, so the all-ones vector is always in the null
    space; for additively separated games the matrix is block diagonal, and
    for bilinear games it vanishes entirely.
    """
    return _walk_covariance(exact.walk_all_orders(ev, exact.WalkMoments(paired)), "exact-enumeration")


def permutation_covariance_plugin(ev, n: int, seed=None, paired: bool = True, drawn=None) -> CovarianceReport:
    """Sample covariance of (paired) marginal vectors from n fresh orders.

    The orders are drawn, walked and folded by `estimate_permutation` with
    the same seed, so they are the estimator's own draws.  `drawn`, what it
    returned for the same n, seed and pairing, gives its fold instead of
    walking those orders again.  Uses the 1/(n - 1) normalization.
    """
    if n < 2:
        raise DomainError(f"need at least 2 sampled orders, got {n}")
    moments = (drawn or permutation.estimate_permutation(ev, n, paired, seed))[1]
    return _walk_covariance(moments, f"plug-in(n={n}, seed={seed})")


def _walk_covariance(moments: exact.WalkMoments, provenance: str) -> CovarianceReport:
    """The report of a walk's folded covariance; `eig_sym` in `_make_report` refuses a non-finite one with NonFiniteError."""
    method = "permutation-paired" if moments.paired else "permutation"
    covariance = moments.covariance()
    return _make_report(covariance, method, provenance, covariance.shape[0], max(moments.high, -moments.low))


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


def check_threshold(threshold: float) -> None:
    """DomainError unless a block threshold is finite and positive; callers check it before computing a covariance."""
    if not 0 < threshold < np.inf:
        raise DomainError(f"threshold must be finite and positive, got {threshold}")


def detect_blocks(report: CovarianceReport, threshold: float) -> list[list[int]]:
    """Connected groups of players under |matrix entry| > threshold.

    Expects a symmetric q-by-q matrix (the permutation covariances qualify);
    returns 0-based groups sorted within and ordered by smallest member.
    Zero rows come out as singleton groups.  The groups are the distinct rows
    of the adjacency's boolean transitive closure, each kept at its smallest
    member.
    """
    check_threshold(threshold)
    M = report.matrix
    if M.shape != (report.q, report.q):
        raise DimensionError(
            f"block detection needs a {report.q}x{report.q} matrix, got {M.shape}"
        )
    # the reflexive transitive closure of the adjacency, by repeated boolean
    # squaring: after k squarings it joins players linked by paths of up to
    # 2^k edges, and no path needs more than q - 1
    reach = (np.abs(M) > threshold) | np.eye(report.q, dtype=bool)
    for _ in range(max(report.q - 1, 1).bit_length()):
        reach = reach @ reach
    return [np.flatnonzero(row).tolist() for j, row in enumerate(reach) if row.argmax() == j]


def report_to_dict(report: CovarianceReport) -> dict:
    """JSON-ready view of a report: its fields in order, arrays as lists."""
    view = {f.name: getattr(report, f.name) for f in fields(report)}
    return {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in view.items()}
