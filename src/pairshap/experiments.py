"""Monte Carlo experiment harness.

Three experiment kinds: `bias_variance` replicates each estimator at several
sample sizes and compares empirical dispersion against the asymptotic
prediction, `method_comparison` tabulates raw and cost-adjusted covariance
spectra for the two paired estimators, and `additive_recovery` checks that
group attribution sums of an additively separated game are recovered from a
single paired walk.  Every replicate draws from its own substream keyed by
(master seed, method, size index, replicate index), so results do not depend
on execution order, and the replicates of a (method, size) cell are fitted
in stacks of up to STACK_ENTRIES draw entries each.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, exact, kernel, permutation
from .errors import DomainError, PartitionError, SchemaError
from .estimators import ESTIMATORS
from .games import GameEvaluator, ValueFunctionSpec, guard_draws, parse_spec
from .streams import derive_rng

# One stack of replicates holds at most this many draw entries (draws x q):
# as many as the largest single replicate of a q = 4 benchmark cell, so a
# stack never needs more working memory than that replicate did alone.
STACK_ENTRIES = 2**14

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
    method_id = list(ESTIMATORS).index(method)
    return [
        np.random.SeedSequence(entropy=[config.master_seed, method_id, n_index, rep])
        for rep in range(config.reps)
    ]


def run_bias_variance(config: ExperimentConfig) -> list[BiasVarianceRow]:
    """Replicate every (method, size) cell and summarize against exact values.

    A cell's replicates are estimated in stacks of at most STACK_ENTRIES
    draw entries; each replicate gives bit for bit its lone estimate.
    """
    _validate_bias_variance(config)
    spec = config.vf
    q = spec.q
    exact_phi = exact.shapley_subset(GameEvaluator(spec)).phi
    rows: list[BiasVarianceRow] = []
    for method in config.methods:
        estimator = ESTIMATORS[method]
        report = estimator.exact_covariance(GameEvaluator(spec))
        cost = estimator.cost(q)
        for n_index, n in enumerate(config.sizes):
            guard_draws(n, q)
            seeds = _replicate_seeds(config, method, n_index)
            ev = GameEvaluator(spec)
            per_stack = max(1, STACK_ENTRIES // (n * q))
            # the inner comprehension drops each stack's draws before the next stack is drawn
            estimates = np.concatenate([
                [vector.phi for vector, _ in estimator.estimate_stack(ev, n, seeds[start : start + per_stack])]
                for start in range(0, len(seeds), per_stack)
            ])
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
    rows: list[ComparisonRow] = []
    for estimator in (ESTIMATORS["kernel-paired"], ESTIMATORS["permutation-paired"]):
        report = estimator.exact_covariance(GameEvaluator(config.vf))
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
    sums, while the kernel column shows a finite-sample estimate.
    """
    spec = config.vf
    groups = [np.asarray(sorted(int(i) for i in g), dtype=np.int64) for g in partition]
    _check_partition_against_terms(spec, groups)

    exact_sums = permutation.group_sums(exact.shapley_subset(GameEvaluator(spec)).phi, groups)

    ev = GameEvaluator(spec)
    rng = derive_rng(config.master_seed, 0)
    perms = permutation.sample_permutations(spec.q, 1, rng)
    walk = 0.5 * permutation.marginal_vectors(ev, perms, paired=True)[0]
    perm_sums = permutation.group_sums(walk, groups)

    kernel_seed = np.random.SeedSequence(entropy=config.master_seed, spawn_key=(1,))
    kernel_vec, _ = kernel.estimate_kernel(
        GameEvaluator(spec), kernel_n, paired=True, seed=kernel_seed
    )
    kernel_sums = permutation.group_sums(kernel_vec.phi, groups)

    return [
        RecoveryRow(
            group=k + 1,
            exact=float(exact_sums[k]),
            permutation_paired=float(perm_sums[k]),
            kernel_paired=float(kernel_sums[k]),
        )
        for k in range(len(groups))
    ]


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


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_bias_variance_csv(rows: list[BiasVarianceRow], path) -> None:
    lines = [BIAS_VARIANCE_HEADER]
    for r in rows:
        lines.append(
            f"{r.method},{r.n},{r.j},{_fmt(r.bias)},{_fmt(r.sigma_hat)},{_fmt(r.tau)},{r.evals_per_sample}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_comparison_csv(rows: list[ComparisonRow], path) -> None:
    lines = [COMPARISON_HEADER]
    for r in rows:
        lines.append(f"{r.method},{r.kind},{r.position},{_fmt(r.eigenvalue)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_recovery_csv(rows: list[RecoveryRow], path) -> None:
    lines = [RECOVERY_HEADER]
    for r in rows:
        lines.append(
            f"{r.group},{_fmt(r.exact)},{_fmt(r.permutation_paired)},{_fmt(r.kernel_paired)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


_CONFIG_KEYS = {"kind", "vf", "methods", "sizes", "reps", "master_seed", "outputs", "partition", "kernel_n"}


def run_from_config(doc: dict, jobs: int = 1) -> dict:
    """Parse an experiment document, run it, and write its CSV output.

    `jobs` is validated but changes nothing; a thread pool measured slower.
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
    if not _is_int(jobs) or jobs < 1:
        raise DomainError(f"jobs must be a positive integer, got {jobs!r}")
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
        rows = run_bias_variance(config)
        write = write_bias_variance_csv
    elif kind == "method_comparison":
        rows = run_method_comparison(config)
        write = write_comparison_csv
    else:
        if "partition" not in doc:
            raise SchemaError("additive_recovery requires 'partition'")
        partition = _parse_partition(doc["partition"], config.vf.q)
        rows = run_additive_recovery(config, partition, kernel_n=doc.get("kernel_n", 100))
        write = write_recovery_csv
    try:
        write(rows, csv)
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
