"""Experiment harness: replication, determinism, CSV output, config parsing."""
import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from pairshap import exact, experiments
from pairshap.cli import main
from pairshap.errors import PartitionError, SchemaError
from pairshap.estimators import ESTIMATORS
from pairshap.games import GameEvaluator, parse_spec

from conftest import REFERENCE_DOC, separated_doc

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of the CSV bytes that the harness wrote when it still ran one
# estimate per replicate (numpy 2.4, OpenBLAS 0.3.31, x86-64).  Stacked
# cells must reproduce them bit for bit.
BIAS_VARIANCE_Q4_SHA256 = "8dfd757115f0d33b02e2b261a1439a31be227fb0f5fe3a85e1c28d6fc1cd93ae"
# the benchmark's replicate workload: all four methods, sizes 256 / 1024 /
# 4096 and 20 replicates, at a fixed master seed
BENCHMARK_SHAPED_DOC = {
    "kind": "bias_variance",
    "vf": REFERENCE_DOC,
    "methods": list(ESTIMATORS),
    "sizes": [256, 1024, 4096],
    "reps": 20,
    "master_seed": 20260806,
}
BENCHMARK_SHAPED_SHA256 = "ecc1369b99f898c5fce41031476fb1b6aaf2a145eced4c71f002f9713ffd19b6"


def small_config(**overrides):
    fields = dict(
        vf=parse_spec(REFERENCE_DOC),
        master_seed=1001,
        methods=tuple(ESTIMATORS),
        sizes=(16, 32),
        reps=10,
    )
    fields.update(overrides)
    return experiments.ExperimentConfig(**fields)


def test_bias_variance_row_grid():
    rows = experiments.run_bias_variance(small_config())
    assert len(rows) == 4 * 2 * 4
    seen = {(r.method, r.n, r.j) for r in rows}
    assert len(seen) == len(rows)
    costs = {r.method: r.evals_per_sample for r in rows}
    assert costs == {
        "kernel": 1,
        "kernel-paired": 2,
        "permutation": 4,
        "permutation-paired": 8,
    }
    for r in rows:
        assert r.bias >= 0.0
        assert r.sigma_hat > 0.0
        assert r.tau > 0.0
        assert np.isfinite(r.mean_error)


def test_bias_variance_csv_byte_identical_across_jobs(tmp_path):
    a = tmp_path / "a.csv"
    experiments.write_bias_variance_csv(experiments.run_bias_variance(small_config()), a)
    lines = a.read_text().splitlines()
    assert lines[0] == experiments.BIAS_VARIANCE_HEADER
    assert len(lines) == 1 + 4 * 2 * 4
    # every float field survives a text round trip
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        float(parts[3]), float(parts[4]), float(parts[5])


def experiment_csv_sha256(doc, tmp_path) -> str:
    """sha256 of the CSV that `pairshap experiment` writes for `doc`."""
    csv = tmp_path / "rows.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(doc, outputs={"csv": str(csv)})))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["experiment", "--config", str(config)]) == 0
    return hashlib.sha256(csv.read_bytes()).hexdigest()


def test_bias_variance_q4_config_csv_is_pinned(tmp_path):
    doc = json.loads((CONFIGS / "bias_variance_q4.json").read_text())
    assert experiment_csv_sha256(doc, tmp_path) == BIAS_VARIANCE_Q4_SHA256


def test_benchmark_shaped_config_csv_is_pinned(tmp_path):
    assert experiment_csv_sha256(BENCHMARK_SHAPED_DOC, tmp_path) == BENCHMARK_SHAPED_SHA256


def lone_summaries(config):
    """Per cell (bias, sigma_hat, mean_error), from one `estimate` call per replicate."""
    exact_phi = exact.shapley_subset(GameEvaluator(config.vf)).phi
    cells = []
    for method in config.methods:
        estimator = ESTIMATORS[method]
        for n_index, n in enumerate(config.sizes):
            seeds = experiments._replicate_seeds(config, method, n_index)
            estimates = np.array([estimator.estimate(GameEvaluator(config.vf), n, seed)[0].phi for seed in seeds])
            errors = estimates - exact_phi
            cells.append((np.abs(errors).mean(axis=0), estimates.std(axis=0, ddof=1), errors.mean(axis=0)))
    return cells


Q2_DOC = {"q": 2, "terms": [{"kind": "exp_linear", "indices": [1, 2], "beta": [0.7, -0.4], "offset": 0.2}]}


@pytest.mark.parametrize(
    "doc, sizes, reps, stack_entries",
    [
        # one draw per replicate, every cell in one stack
        (Q2_DOC, (1, 2), 5, experiments.STACK_ENTRIES),
        # 4 replicates per stack: 10 replicates leave a stack of 2
        (REFERENCE_DOC, (16,), 10, 256),
        # a stack holds one replicate, exactly filled and overfilled
        (REFERENCE_DOC, (64, 100), 3, 256),
        # the benchmark's largest cell: one replicate per stack
        (REFERENCE_DOC, (4096,), 3, experiments.STACK_ENTRIES),
    ],
    ids=["n1", "remainder", "one-per-stack", "one-per-stack-4096"],
)
def test_stacked_cells_equal_lone_estimates(monkeypatch, doc, sizes, reps, stack_entries):
    monkeypatch.setattr(experiments, "STACK_ENTRIES", stack_entries)
    config = small_config(vf=parse_spec(doc), sizes=sizes, reps=reps)
    rows = experiments.run_bias_variance(config)
    q = config.vf.q
    for k, (bias, sigma_hat, mean_error) in enumerate(lone_summaries(config)):
        cell = rows[k * q : (k + 1) * q]
        assert np.array_equal([r.bias for r in cell], bias), cell[0].method
        assert np.array_equal([r.sigma_hat for r in cell], sigma_hat), cell[0].method
        assert np.array_equal([r.mean_error for r in cell], mean_error), cell[0].method


@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_stacked_draws_equal_lone_draws_at_one_sample(method):
    spec = parse_spec(Q2_DOC)
    estimator = ESTIMATORS[method]
    seeds = [np.random.SeedSequence(entropy=[7, rep]) for rep in range(6)]
    stacked = estimator.estimate_stack(GameEvaluator(spec), 1, seeds)
    for seed, (vector, drawn) in zip(seeds, stacked):
        lone_vector, lone_drawn = estimator.estimate(GameEvaluator(spec), 1, seed)
        assert np.array_equal(vector.phi, lone_vector.phi)
        assert vector.method_tag == lone_vector.method_tag
        if method.startswith("kernel"):
            assert np.array_equal(drawn.draws, lone_drawn.draws)
            assert np.array_equal(drawn.design, lone_drawn.design)
            assert np.array_equal(drawn.response, lone_drawn.response)
        else:
            assert np.array_equal(drawn, lone_drawn)


def test_replicate_streams_differ_by_cell():
    config = small_config()
    a = experiments._replicate_seeds(config, "kernel", 0)
    b = experiments._replicate_seeds(config, "kernel", 1)
    c = experiments._replicate_seeds(config, "permutation", 0)
    states = {tuple(s.generate_state(4)) for s in a + b + c}
    assert len(states) == 3 * config.reps


def test_dispersion_shrinks_with_sample_size():
    rows = experiments.run_bias_variance(
        small_config(methods=("permutation-paired",), sizes=(8, 128), reps=30)
    )
    small = np.mean([r.sigma_hat for r in rows if r.n == 8])
    large = np.mean([r.sigma_hat for r in rows if r.n == 128])
    assert large < small / 2


@pytest.mark.parametrize(
    "overrides",
    [
        dict(methods=()),
        dict(methods=("kernel", "kernel")),
        dict(methods=("unknown",)),
        dict(sizes=()),
        dict(sizes=(32, 16)),
        dict(sizes=(0, 16)),
        dict(reps=1),
    ],
)
def test_bias_variance_rejects_bad_config(overrides):
    with pytest.raises(SchemaError):
        experiments.run_bias_variance(small_config(**overrides))


def test_method_comparison_large_game_spectra():
    rng = np.random.default_rng(2024)
    beta = [float(b) for b in rng.standard_normal(8)]
    doc = {"q": 8, "terms": [{"kind": "exp_linear", "indices": list(range(1, 9)), "beta": beta}]}
    config = experiments.ExperimentConfig(vf=parse_spec(doc), master_seed=2024)
    rows = experiments.run_method_comparison(config)
    # both spectra have q-1 entries: the kernel fit has q-1 free coordinates,
    # the walk covariance sheds its null direction
    assert len(rows) == 4 * 7
    for r in rows:
        assert r.kind in ("raw", "adjusted")
        assert 1 <= r.position <= 7
        assert r.eigenvalue >= -1e-9
    tops = {
        (r.method, r.kind): r.eigenvalue for r in rows if r.position == 1
    }
    assert tops[("permutation-paired", "adjusted")] > tops[("kernel-paired", "adjusted")]
    for method in ("kernel-paired", "permutation-paired"):
        assert tops[(method, "adjusted")] == pytest.approx(
            tops[(method, "raw")] * (2 if method == "kernel-paired" else 16), rel=1e-12
        )


def test_method_comparison_csv(tmp_path):
    config = experiments.ExperimentConfig(vf=parse_spec(REFERENCE_DOC), master_seed=5)
    rows = experiments.run_method_comparison(config)
    out = tmp_path / "cmp.csv"
    experiments.write_comparison_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == experiments.COMPARISON_HEADER
    assert len(lines) == 1 + len(rows)


def test_additive_recovery_walk_column_is_exact():
    rng = np.random.default_rng(303)
    config = experiments.ExperimentConfig(vf=parse_spec(separated_doc(rng, 2)), master_seed=404)
    rows = experiments.run_additive_recovery(config, [[0, 1], [2, 3, 4, 5]])
    assert [r.group for r in rows] == [1, 2]
    for r in rows:
        assert abs(r.permutation_paired - r.exact) <= 1e-9
        assert abs(r.kernel_paired - r.exact) > 1e-4


def test_additive_recovery_rejects_spanning_terms():
    rng = np.random.default_rng(304)
    config = experiments.ExperimentConfig(vf=parse_spec(separated_doc(rng, 2)), master_seed=1)
    with pytest.raises(PartitionError):
        experiments.run_additive_recovery(config, [[0, 1, 2], [3, 4, 5]])


def test_recovery_csv(tmp_path):
    rng = np.random.default_rng(305)
    config = experiments.ExperimentConfig(vf=parse_spec(separated_doc(rng, 3)), master_seed=6)
    rows = experiments.run_additive_recovery(config, [[0, 1, 2], [3, 4, 5, 6]])
    out = tmp_path / "rec.csv"
    experiments.write_recovery_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == experiments.RECOVERY_HEADER
    assert len(lines) == 3


def config_doc(tmp_path, **overrides):
    doc = {
        "kind": "bias_variance",
        "vf": REFERENCE_DOC,
        "methods": ["kernel-paired"],
        "sizes": [16],
        "reps": 4,
        "master_seed": 99,
        "outputs": {"csv": str(tmp_path / "out.csv")},
    }
    doc.update(overrides)
    return doc


def test_run_from_config_bias_variance(tmp_path):
    summary = experiments.run_from_config(config_doc(tmp_path))
    assert summary == {"kind": "bias_variance", "csv": str(tmp_path / "out.csv"), "rows": 4}
    assert (tmp_path / "out.csv").exists()


def test_run_from_config_comparison(tmp_path):
    doc = {
        "kind": "method_comparison",
        "vf": REFERENCE_DOC,
        "master_seed": 3,
        "outputs": {"csv": str(tmp_path / "cmp.csv")},
    }
    summary = experiments.run_from_config(doc)
    assert summary["kind"] == "method_comparison"
    assert summary["rows"] == 4 * 3


def test_run_from_config_recovery(tmp_path):
    rng = np.random.default_rng(306)
    doc = {
        "kind": "additive_recovery",
        "vf": separated_doc(rng, 2),
        "master_seed": 12,
        "partition": [[1, 2], [3, 4, 5, 6]],
        "kernel_n": 50,
        "outputs": {"csv": str(tmp_path / "rec.csv")},
    }
    summary = experiments.run_from_config(doc)
    assert summary["rows"] == 2
    lines = (tmp_path / "rec.csv").read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d, t: d.update(surprise=1),
        lambda d, t: d.update(kind="unknown"),
        lambda d, t: d.pop("vf"),
        lambda d, t: d.pop("master_seed"),
        lambda d, t: d.update(master_seed=True),
        lambda d, t: d.update(master_seed="7"),
        lambda d, t: d.update(outputs={}),
        lambda d, t: d.pop("outputs"),
    ],
)
def test_run_from_config_rejects_bad_documents(tmp_path, mutate):
    doc = config_doc(tmp_path)
    mutate(doc, tmp_path)
    with pytest.raises(SchemaError):
        experiments.run_from_config(doc)


def test_run_from_config_recovery_requires_partition(tmp_path):
    rng = np.random.default_rng(307)
    doc = {
        "kind": "additive_recovery",
        "vf": separated_doc(rng, 2),
        "master_seed": 12,
        "outputs": {"csv": str(tmp_path / "rec.csv")},
    }
    with pytest.raises(SchemaError):
        experiments.run_from_config(doc)


@pytest.mark.parametrize(
    "partition",
    [
        "nope",
        [[1, 2], "x"],
        [[0, 1], [2, 3, 4, 5, 6]],
        [[1, True], [3, 4, 5, 6]],
        [[1, 2], [3, 4, 5, 7]],
    ],
)
def test_parse_partition_rejects_bad_groups(partition):
    with pytest.raises(SchemaError):
        experiments._parse_partition(partition, 6)


def test_parse_partition_shifts_to_zero_based():
    assert experiments._parse_partition([[1, 3], [2, 4]], 4) == [[0, 2], [1, 3]]
