"""Experiment harness: replication, determinism, CSV output, config parsing."""
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from pairshap import exact, experiments, kernel, permutation
from pairshap.cli import main
from pairshap.errors import PartitionError, SchemaError, SizeGuard
from pairshap.estimators import ESTIMATORS
from pairshap.games import GameEvaluator, parse_spec
from pairshap.streams import derive_rng

from conftest import REFERENCE_DOC, RowCounter, random_game_doc, separated_doc, traced_peak

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


def test_bias_variance_csv_has_one_round_tripping_row_per_cell_and_player(tmp_path):
    a = tmp_path / "a.csv"
    experiments.write_csv(experiments.run_bias_variance(small_config()), experiments.BIAS_VARIANCE_HEADER, a)
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


def test_bias_variance_q4_config_csv_is_pinned(tmp_path, spec_rows, spec_tables):
    doc = json.loads((CONFIGS / "bias_variance_q4.json").read_text())
    assert experiment_csv_sha256(doc, tmp_path) == BIAS_VARIANCE_Q4_SHA256
    # one value table serves the exact values, the four covariances and
    # every replicate: the game is tabulated once and sees no rows
    assert spec_tables == [4]
    assert spec_rows == []


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
        # one draw per replicate, every kernel cell in one chunk
        (Q2_DOC, (1, 2), 5, kernel.STACK_ENTRIES),
        # 4 replicates per chunk: 10 replicates leave a chunk of 2
        (REFERENCE_DOC, (16,), 10, 256),
        # a chunk holds one replicate, exactly filled and overfilled
        (REFERENCE_DOC, (64, 100), 3, 256),
        # the benchmark's largest cell: one replicate per chunk
        (REFERENCE_DOC, (4096,), 3, kernel.STACK_ENTRIES),
        # 50 replicates, kernel ones in chunks of 4 (n = 4) or 1 (n = 20)
        # and solve groups of 7; the walks are not cut by STACK_ENTRIES
        (REFERENCE_DOC, (4, 20), 50, 64),
    ],
    ids=["n1", "remainder", "one-per-stack", "one-per-stack-4096", "fifty"],
)
def test_stacked_cells_equal_lone_estimates(monkeypatch, doc, sizes, reps, stack_entries):
    monkeypatch.setattr(kernel, "STACK_ENTRIES", stack_entries)
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
    for seed, vector in zip(seeds, stacked):
        lone_vector, lone_drawn = estimator.estimate(GameEvaluator(spec), 1, seed)
        assert vector.phi.tobytes() == lone_vector.phi.tobytes()
        assert vector.method_tag == lone_vector.method_tag
        # the lone estimate keeps what its plug-in reads: the one draw, or the fold of the one order
        if method.startswith("kernel"):
            draws = kernel.sample_coalitions(exact.kernel_weights(2), 1, [derive_rng(seed, 0)])
            assert np.array_equal(lone_drawn.draws, draws[0]) and lone_drawn.retries == 0
            grand = np.array([GameEvaluator(spec).grand_value()])
            x, y = kernel.design_response(GameEvaluator(spec), draws, grand, lone_drawn.paired)
            assert np.array_equal(lone_drawn.design, x[0]) and np.array_equal(lone_drawn.response, y[0])
        else:
            assert lone_drawn.count == 1
            assert lone_drawn.row_sum.tobytes() == (lone_vector.phi / (0.5 if lone_drawn.paired else 1.0)).tobytes()


@pytest.mark.parametrize("reps", [1, 3, 50])
@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_stacks_are_lone_estimates_bit_for_bit(method, reps):
    spec = parse_spec(REFERENCE_DOC)
    estimator = ESTIMATORS[method]
    seeds = [[91, reps, rep] for rep in range(reps)]
    stacked = estimator.estimate_stack(GameEvaluator(spec), 40, seeds)
    assert len(stacked) == reps
    for seed, vector in zip(seeds, stacked):
        lone, _ = estimator.estimate(GameEvaluator(spec), 40, seed)
        assert vector.phi.tobytes() == lone.phi.tobytes()
        assert vector.method_tag == lone.method_tag


@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_cell_memory_does_not_grow_with_replicates(method):
    # at n = 1024 one replicate's draws hold n q = 4096 entries (32 KB of
    # floats); what a stack keeps per replicate, its result and a kernel
    # fit's Gram matrix and right side, takes well under 1 KB
    spec = parse_spec(REFERENCE_DOC)
    estimator = ESTIMATORS[method]
    ev = GameEvaluator(spec)
    ev.value_table()
    # a first call also allocates what numpy keeps for the process
    estimator.estimate_stack(ev, 1024, [[92, 0]])
    peaks = {}
    for reps in (5, 200):
        seeds = [[92, rep] for rep in range(reps)]
        _, peaks[reps] = traced_peak(lambda: estimator.estimate_stack(ev, 1024, seeds))
    assert peaks[200] - peaks[5] <= 195 * 1024, peaks


@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_cell_memory_does_not_grow_with_replicates_at_q12(method, monkeypatch):
    # at q = 12, 200 replicates of n = 64 orders walk 12 800 >= 2^12 orders,
    # but a replicate walks fewer: a cell builds no gain table, whose q 2^q
    # floats take 384 KB, and keeps per replicate its result, and its row
    # sum or its Gram matrix and right side, with 1 KB of overhead each
    q, n = 12, 64
    spec = parse_spec(random_game_doc(np.random.default_rng(93), q))
    estimator = ESTIMATORS[method]
    kept = q + (q if method.startswith("permutation") else (q - 1) * q)
    built = []
    monkeypatch.setattr(exact, "gain_table", lambda *args, built_table=exact.gain_table: built.append(args) or built_table(*args))
    ev = GameEvaluator(spec)
    ev.value_table()
    estimator.estimate_stack(ev, n, [[94, 0]])
    peaks = {}
    for reps in (5, 200):
        seeds = [[94, rep] for rep in range(reps)]
        _, peaks[reps] = traced_peak(lambda: estimator.estimate_stack(ev, n, seeds))
    assert built == []
    assert peaks[200] - peaks[5] <= 195 * (1024 + 2 * 8 * kept), peaks


def test_each_cell_is_one_stack_call(monkeypatch):
    config = small_config(sizes=(16, 32, 64), reps=7)
    calls = []
    for kind in {type(estimator) for estimator in ESTIMATORS.values()}:

        def spied(self, ev, n, seeds, stack=kind.estimate_stack):
            calls.append((self, n, len(seeds)))
            return stack(self, ev, n, seeds)

        monkeypatch.setattr(kind, "estimate_stack", spied)
    experiments.run_bias_variance(config)
    assert calls == [(ESTIMATORS[m], n, 7) for m in config.methods for n in config.sizes]


def test_replicate_streams_differ_by_cell():
    config = small_config()
    a = experiments._replicate_seeds(config, "kernel", 0)
    b = experiments._replicate_seeds(config, "kernel", 1)
    c = experiments._replicate_seeds(config, "permutation", 0)
    states = {tuple(np.random.SeedSequence(entropy=key).generate_state(4)) for key in a + b + c}
    assert len(states) == 3 * config.reps


@pytest.mark.parametrize(
    "overrides",
    [dict(sizes=(4, 2**23)), dict(reps=2**22 + 1)],
    ids=["draws", "reps"],
)
def test_bias_variance_refuses_oversized_runs_before_the_game_is_called(overrides):
    game = RowCounter(parse_spec(REFERENCE_DOC))
    with pytest.raises(SizeGuard):
        experiments.run_bias_variance(small_config(vf=game, **overrides))
    assert game.calls == []


@pytest.mark.parametrize("change", [{"sizes": [4, 2**23]}, {"reps": 10**8}], ids=["draws", "reps"])
def test_oversized_bias_variance_config_exits_two_with_no_game_rows(tmp_path, capsys, spec_rows, change):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_doc(tmp_path, **change)))
    assert main(["experiment", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("SizeGuard:") and captured.err.count("\n") == 1
    assert spec_rows == []
    assert not (tmp_path / "out.csv").exists()


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
    experiments.write_csv(rows, experiments.COMPARISON_HEADER, out)
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
    experiments.write_csv(rows, experiments.RECOVERY_HEADER, out)
    lines = out.read_text().splitlines()
    assert lines[0] == experiments.RECOVERY_HEADER
    assert len(lines) == 3


def recovery_game(rng):
    """A game of one term per kind, each on its own group of a random partition; returns (doc, 0-based groups)."""
    q = int(rng.integers(4, 10))
    cuts = np.sort(rng.choice(np.arange(1, q), size=3, replace=False))
    groups = [g.tolist() for g in np.split(rng.permutation(q), cuts)]
    terms = []
    for kind, group in zip(rng.permutation(["linear", "bilinear", "exp_linear", "exp_bilinear"]), groups):
        k = len(group)
        term = {"kind": str(kind), "indices": sorted(i + 1 for i in group), "offset": float(rng.uniform(-1, 1))}
        if kind in ("linear", "exp_linear"):
            term["beta"] = [float(b) for b in rng.uniform(-0.8, 0.8, size=k)]
        else:
            term["A"] = [[float(a) for a in row] for row in rng.uniform(-0.8 / k, 0.8 / k, size=(k, k))]
        terms.append(term)
    return {"q": q, "terms": terms}, groups


@pytest.mark.parametrize("seed", range(10))
def test_additive_recovery_walk_column_is_one_paired_order_bit_for_bit(seed):
    rng = np.random.default_rng(310 + seed)
    doc, groups = recovery_game(rng)
    master_seed = int(rng.integers(0, 2**40))
    config = experiments.ExperimentConfig(vf=parse_spec(doc), master_seed=master_seed)
    rows = experiments.run_additive_recovery(config, groups, kernel_n=50)
    # one order from the master seed's first substream, walked with its
    # reverse and halved, then summed over each (sorted) group
    ev = GameEvaluator(parse_spec(doc))
    perms = permutation.sample_permutations(ev.q, 1, derive_rng(master_seed, 0))
    walk = 0.5 * permutation.marginal_vectors(ev, perms, paired=True)[0]
    expected = permutation.group_sums(walk, [sorted(g) for g in groups])
    assert np.array([r.permutation_paired for r in rows]).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "change, error",
    [
        ({"partition": [[1, 2], [3, 4, 5], [5]]}, "PartitionError: groups must cover each of the 5 players exactly once"),
        ({"partition": [[1, 2], [3, 4]]}, "PartitionError: groups must cover each of the 5 players exactly once"),
        ({"partition": [[1, 2], [], [3, 4, 5]]}, "PartitionError: partition groups must be non-empty"),
        ({"kernel_n": 0}, "DomainError: kernel_n must be positive, got 0"),
        ({"kernel_n": 10**9}, "SizeGuard: sampled draws support n * q <= "),
    ],
    ids=["repeated-player", "missing-player", "empty-group", "kernel_n-zero", "kernel_n-huge"],
)
def test_additive_recovery_inputs_fail_before_the_game_is_tabulated(tmp_path, spec_rows, spec_tables, change, error):
    doc = json.loads((CONFIGS / "additive_recovery_q5.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(doc, outputs={"csv": str(tmp_path / "rows.csv")}, **change)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["experiment", "--config", str(config)]) == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(error)
    assert spec_tables == [] and spec_rows == []


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_write_csv_writes_the_header_fields_of_each_row(tmp_path, kind):
    if kind == "bias_variance":
        rows, header = experiments.run_bias_variance(small_config(sizes=(16,), reps=3)), experiments.BIAS_VARIANCE_HEADER
    elif kind == "method_comparison":
        config = experiments.ExperimentConfig(vf=parse_spec(REFERENCE_DOC), master_seed=5)
        rows, header = experiments.run_method_comparison(config), experiments.COMPARISON_HEADER
    else:
        config = experiments.ExperimentConfig(vf=parse_spec(separated_doc(np.random.default_rng(306), 2)), master_seed=8)
        rows, header = experiments.run_additive_recovery(config, [[0, 1], [2, 3, 4, 5]]), experiments.RECOVERY_HEADER
    fields = [f.name for f in dataclasses.fields(rows[0]) if f.name != "mean_error"]
    assert header.split(",") == fields
    out = tmp_path / "rows.csv"
    experiments.write_csv(rows, header, out)
    with out.open(newline="") as fh:
        read = list(csv.DictReader(fh))
    assert len(read) == len(rows)
    for row, line in zip(rows, read):
        for name in fields:
            value = getattr(row, name)
            if isinstance(value, float):
                assert float(line[name]).hex() == value.hex()
            else:
                assert line[name] == str(value)


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
