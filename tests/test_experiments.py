"""Experiment harness: replication, determinism, CSV output, config parsing."""
import numpy as np
import pytest

from pairshap import experiments
from pairshap.errors import PartitionError, SchemaError
from pairshap.estimators import ESTIMATORS
from pairshap.games import parse_spec

from conftest import REFERENCE_DOC, separated_doc


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
