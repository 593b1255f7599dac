"""Monte Carlo experiment harness.

Three experiment kinds: `bias_variance` replicates each estimator at several
sample sizes and compares empirical dispersion against the asymptotic
prediction, `method_comparison` tabulates raw and cost-adjusted covariance
spectra for the two paired estimators, and `additive_recovery` checks that
group attribution sums of an additively separated game are recovered from a
single paired walk.  Every replicate draws from its own substream keyed by
(master seed, method, size index, replicate index), so results do not depend
on execution order, and the replicates of a (method, size) cell are
estimated by one `estimate_stack` call.  Every estimate and
covariance comes from an `estimators.ESTIMATORS` entry, and every kind's rows
are written by `write_csv` under that kind's header.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, exact, permutation
from .errors import DomainError, PartitionError, SchemaError, SizeGuard
from .estimators import ESTIMATORS
from .games import DRAW_LIMIT, GameEvaluator, ValueFunctionSpec, guard_draws, parse_spec

KINDS = ("bias_variance", "method_comparison", "additive_recovery")

BIAS_VARIANCE_HEADER = "method,n,j,bias,sigma_hat,tau,evals_per_sample"
COMPARISON_HEADER = "method,kind,position,eigenvalue"
RECOVERY_HEADER = "group,exact,permutation_paired,kernel_paired"


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by the experiment kinds.

    `methods`, `sizes` and `reps` matter only for bias/variance runs.
    """

    vf: ValueFunctionSpec
    master_seed: int
    methods: tuple[str, ...] = tuple(ESTIMATORS)
    sizes: tuple[int, ...] = ()
    reps: int = 0


@dataclass(frozen=True)
class BiasVarianceRow:
    """Per (method, size, player) summary over replicates.

    `bias` is the mean absolute deviation from the exact value, `sigma_hat`
    the replicate standard deviation, `tau` the asymptotic prediction
    sqrt(covariance diagonal / n).  `mean_error` keeps the signed mean
    deviation for in-memory consumers; it is not part of the CSV schema.
    """

    method: str
    n: int
    j: int
    bias: float
    sigma_hat: float
    tau: float
    evals_per_sample: int
    mean_error: float


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    kind: str
    position: int
    eigenvalue: float


@dataclass(frozen=True)
class RecoveryRow:
    group: int
    exact: float
    permutation_paired: float
    kernel_paired: float


def _replicate_seeds(config: ExperimentConfig, method: str, n_index: int) -> list:
    """Entropy keys [master_seed, method_id, n_index, rep] of a cell's replicates, for `derive_rng`."""
    method_id = list(ESTIMATORS).index(method)
    return [[config.master_seed, method_id, n_index, rep] for rep in range(config.reps)]


def run_bias_variance(config: ExperimentConfig) -> list[BiasVarianceRow]:
    """Replicate every (method, size) cell and summarize against exact values.

    A cell's replicates are estimated by one `estimate_stack` call, which
    bounds its own working memory; each replicate gives bit for bit its
    lone estimate.  One
    evaluator serves the whole run, so the game is tabulated once and every
    replicate reads that table.
    """
    _validate_bias_variance(config)
    spec = config.vf
    q = spec.q
    ev = GameEvaluator(spec)
    exact_phi = exact.shapley_subset(ev).phi
    rows: list[BiasVarianceRow] = []
    for method in config.methods:
        estimator = ESTIMATORS[method]
        report = estimator.exact_covariance(ev)
        cost = estimator.cost(q)
        for n_index, n in enumerate(config.sizes):
            seeds = _replicate_seeds(config, method, n_index)
            estimates = np.array([vector.phi for vector in estimator.estimate_stack(ev, n, seeds)])
            tau = asymptotics.predicted_stderr(report, n)
            errors = estimates - exact_phi
            bias = np.abs(errors).mean(axis=0)
            sigma_hat = estimates.std(axis=0, ddof=1)
            mean_error = errors.mean(axis=0)
            for j in range(q):
                rows.append(
                    BiasVarianceRow(
                        method=method,
                        n=n,
                        j=j + 1,
                        bias=float(bias[j]),
                        sigma_hat=float(sigma_hat[j]),
                        tau=float(tau[j]),
                        evals_per_sample=cost,
                        mean_error=float(mean_error[j]),
                    )
                )
    return rows


def run_method_comparison(config: ExperimentConfig) -> list[ComparisonRow]:
    """Raw and cost-adjusted spectra of the two paired-method covariances.

    The permutation matrix always carries a null space (row sums are fixed
    by efficiency), so its spectrum is reported without the numerically zero
    eigenvalues; the kernel spectrum is reported whole.
    """
    q = config.vf.q
    ev = GameEvaluator(config.vf)
    rows: list[ComparisonRow] = []
    for estimator in (ESTIMATORS["kernel-paired"], ESTIMATORS["permutation-paired"]):
        report = estimator.exact_covariance(ev)
        if report.matrix.shape == (q, q):
            raw = asymptotics.positive_eigenvalues(report)
        else:
            raw = report.eigenvalues
        adjusted = raw * estimator.cost(q)
        for position, value in enumerate(raw, start=1):
            rows.append(ComparisonRow(report.method, "raw", position, float(value)))
        for position, value in enumerate(adjusted, start=1):
            rows.append(ComparisonRow(report.method, "adjusted", position, float(value)))
    return rows


def run_additive_recovery(config: ExperimentConfig, partition, kernel_n: int = 100) -> list[RecoveryRow]:
    """Group attribution sums: exact, one paired walk, and a paired kernel fit.

    The game's terms must respect the partition (every term inside one
    group); the single paired permutation walk then recovers the exact group
    sums, while the kernel column shows a finite-sample estimate.  The walk
    is the `permutation-paired` estimate at n = 1 seeded by the master seed,
    the fit the `kernel-paired` one at kernel_n pairs seeded by the master
    seed with spawn key (1,).  The partition and kernel_n are checked before
    the game is tabulated or sampled.
    """
    spec = config.vf
    groups = permutation.partition_groups([sorted(int(i) for i in g) for g in partition], spec.q)
    _check_partition_against_terms(spec, groups)
    if kernel_n < 1:
        raise DomainError(f"kernel_n must be positive, got {kernel_n}")
    guard_draws(kernel_n, spec.q)

    ev = GameEvaluator(spec)
    kernel_seed = np.random.SeedSequence(entropy=config.master_seed, spawn_key=(1,))
    columns = [
        exact.shapley_subset(ev),
        ESTIMATORS["permutation-paired"].estimate(ev, 1, config.master_seed)[0],
        ESTIMATORS["kernel-paired"].estimate(ev, kernel_n, kernel_seed)[0],
    ]
    sums = [permutation.group_sums(vector, groups) for vector in columns]
    return [RecoveryRow(k + 1, *(float(column[k]) for column in sums)) for k in range(len(groups))]


def _check_partition_against_terms(spec: ValueFunctionSpec, groups) -> None:
    for pos, term in enumerate(spec.terms):
        touched = set(int(i) for i in term.indices)
        if not any(touched <= set(g.tolist()) for g in groups):
            raise PartitionError(f"terms[{pos}] spans more than one partition group")


def _validate_bias_variance(config: ExperimentConfig) -> None:
    if not config.methods:
        raise SchemaError("at least one method is required")
    unknown = [m for m in config.methods if m not in ESTIMATORS]
    if unknown:
        raise SchemaError(f"unknown methods {unknown}; choose from {tuple(ESTIMATORS)}")
    if len(set(config.methods)) != len(config.methods):
        raise SchemaError("methods must be distinct")
    if not config.sizes:
        raise SchemaError("at least one sample size is required")
    if any(s < 1 for s in config.sizes):
        raise SchemaError("sample sizes must be positive")
    if list(config.sizes) != sorted(set(config.sizes)):
        raise SchemaError("sample sizes must be strictly ascending")
    if config.reps < 2:
        raise SchemaError(f"need at least 2 replicates, got {config.reps}")
    # sized before any work: the largest cell's draws, and the replicates'
    # seeds and estimates, which grow as reps and reps x q
    q = config.vf.q
    guard_draws(config.sizes[-1], q)
    if config.reps * q > DRAW_LIMIT:
        raise SizeGuard(f"replicates support reps * q <= {DRAW_LIMIT}, got reps = {config.reps} at q = {q}")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(rows, header: str, path) -> None:
    """Write `header`, then per row the fields it names: floats by `_fmt`, anything else by `str`."""
    names = header.split(",")
    lines = [header]
    for row in rows:
        values = [getattr(row, name) for name in names]
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values))
    Path(path).write_text("\n".join(lines) + "\n")


_CONFIG_KEYS = {"kind", "vf", "methods", "sizes", "reps", "master_seed", "outputs", "partition", "kernel_n"}


def run_from_config(doc: dict) -> dict:
    """Parse an experiment document, run it, and write its CSV output.

    Returns a summary with the kind, the output path, and the row count.
    """
    if not isinstance(doc, dict):
        raise SchemaError("experiment config must be an object")
    extra = set(doc) - _CONFIG_KEYS
    if extra:
        raise SchemaError(f"unknown config keys: {sorted(extra)}")
    kind = doc.get("kind", "bias_variance")
    if kind not in KINDS:
        raise SchemaError(f"unknown experiment kind {kind!r}; choose from {KINDS}")
    if "vf" not in doc:
        raise SchemaError("config requires 'vf'")
    if "master_seed" not in doc or not _is_int(doc["master_seed"]) or doc["master_seed"] < 0:
        raise SchemaError("config requires a non-negative integer 'master_seed'")
    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict) or "csv" not in outputs:
        raise SchemaError("config requires outputs.csv")
    csv = outputs["csv"]
    if not isinstance(csv, str):
        raise SchemaError(f"'outputs.csv' must be a path string, got {csv!r}")
    # fail before any computation, not after the whole run
    parent = Path(csv).parent
    if not parent.is_dir():
        raise SchemaError(f"cannot write CSV file {csv!r}: {str(parent)!r} is not a directory")
    methods = doc.get("methods", list(ESTIMATORS))
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise SchemaError("'methods' must be a list of method names")
    sizes = doc.get("sizes", [])
    if not isinstance(sizes, list) or not all(_is_int(n) for n in sizes):
        raise SchemaError("'sizes' must be a list of integers")
    for key in ("reps", "kernel_n"):
        if key in doc and not _is_int(doc[key]):
            raise SchemaError(f"'{key}' must be an integer, got {doc[key]!r}")

    config = ExperimentConfig(
        vf=parse_spec(doc["vf"]),
        master_seed=doc["master_seed"],
        methods=tuple(methods),
        sizes=tuple(sizes),
        reps=doc.get("reps", 0),
    )

    if kind == "bias_variance":
        rows, header = run_bias_variance(config), BIAS_VARIANCE_HEADER
    elif kind == "method_comparison":
        rows, header = run_method_comparison(config), COMPARISON_HEADER
    else:
        if "partition" not in doc:
            raise SchemaError("additive_recovery requires 'partition'")
        partition = _parse_partition(doc["partition"], config.vf.q)
        rows = run_additive_recovery(config, partition, kernel_n=doc.get("kernel_n", 100))
        header = RECOVERY_HEADER
    try:
        write_csv(rows, header, csv)
    except OSError as exc:
        raise SchemaError(f"cannot write CSV file {csv!r}: {exc}") from exc

    return {"kind": kind, "csv": csv, "rows": len(rows)}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_partition(raw, q: int) -> list[list[int]]:
    """1-based index groups from a config document, returned 0-based."""
    if not isinstance(raw, list) or not all(isinstance(g, list) for g in raw):
        raise SchemaError("'partition' must be a list of index lists")
    groups = []
    for g in raw:
        if not all(_is_int(i) for i in g):
            raise SchemaError("partition indices must be integers")
        if any(i < 1 or i > q for i in g):
            raise SchemaError(f"partition indices must lie in 1..{q}")
        groups.append([i - 1 for i in g])
    return groups
