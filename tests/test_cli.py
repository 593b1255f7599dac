"""CLI surface: subcommand output, exit codes, determinism."""
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairshap
from pairshap import asymptotics, exact
from pairshap.cli import main
from pairshap.estimators import ESTIMATORS

from conftest import OPPOSITE_INFINITIES_DOC, OVERFLOWING_GAIN_DOC, REFERENCE_DOC, REFERENCE_PHI, three_block_doc


@pytest.fixture
def vf_path(tmp_path):
    path = tmp_path / "vf.json"
    path.write_text(json.dumps(REFERENCE_DOC))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call(argv):
    """Exit code, stdout and stderr of one CLI call; an argparse exit gives its code.

    Any other exception propagates: the console script would print it as a
    traceback and exit 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_exact_all_methods(vf_path, capsys):
    code, out, err = run(capsys, ["exact", "--vf", vf_path])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["q"] == 4
    assert set(payload["phi"]) == {"subset", "permutation", "kernel"}
    for phi in payload["phi"].values():
        np.testing.assert_allclose(phi, REFERENCE_PHI, atol=5e-8)
    assert payload["max_pairwise_discrepancy"] <= 1e-9


def test_exact_routes_share_one_value_table(vf_path, capsys, spec_rows, spec_tables):
    code, _, _ = run(capsys, ["exact", "--vf", vf_path, "--method", "all"])
    assert code == 0
    # the 16 coalitions tabulated once, by subset sums, with no rows
    assert spec_tables == [4]
    assert spec_rows == []


def test_exact_single_method_has_no_discrepancy_field(vf_path, capsys):
    code, out, _ = run(capsys, ["exact", "--vf", vf_path, "--method", "subset"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload["phi"]) == {"subset"}
    assert "max_pairwise_discrepancy" not in payload


def test_exact_tsv(vf_path, capsys):
    code, out, _ = run(capsys, ["exact", "--vf", vf_path, "--method", "kernel", "--tsv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method\tj\tphi"
    assert len(lines) == 5
    values = [float(line.split("\t")[2]) for line in lines[1:]]
    np.testing.assert_allclose(values, REFERENCE_PHI, atol=5e-8)
    # repr round-trip keeps every bit
    assert all(line.split("\t")[0] == "kernel" for line in lines[1:])


def test_sample_kernel_paired(vf_path, capsys):
    code, out, err = run(
        capsys,
        ["sample", "--vf", vf_path, "--method", "kernel", "--paired", "--n", "200", "--seed", "5"],
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["method"] == "kernel-paired"
    assert payload["n"] == 200 and payload["seed"] == 5
    assert payload["evaluations"] == 2 * 200 + 1
    assert payload["stderr_source"] == "exact-enumeration"
    assert len(payload["phi"]) == 4 and len(payload["stderr"]) == 4
    assert all(s >= 0 for s in payload["stderr"])


def test_sample_permutation_plugin_stderr(vf_path, capsys):
    code, out, _ = run(
        capsys,
        [
            "sample", "--vf", vf_path, "--method", "permutation", "--paired",
            "--n", "64", "--seed", "9", "--stderr-from", "plugin",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "permutation-paired"
    assert payload["evaluations"] == 64 * 2 * 4
    assert payload["stderr_source"].startswith("plug-in")


@pytest.mark.parametrize("paired", [False, True])
def test_sample_plugin_stderr_is_the_asymptotics_plugin_beyond_one_block(tmp_path, capsys, paired):
    # at n = 20 000 the walk folds three chunks; the estimate's own fold and
    # a fresh walk of the same seed give the same bits
    vf = tmp_path / "vf.json"
    vf.write_text(json.dumps(three_block_doc(np.random.default_rng(60))))
    n, seed = 20_000, 61
    method = "permutation-paired" if paired else "permutation"
    code, out, _ = run(
        capsys,
        ["sample", "--vf", str(vf), "--method", "permutation", *(["--paired"] if paired else []),
         "--n", str(n), "--seed", str(seed), "--stderr-from", "plugin"],
    )
    assert code == 0
    sampled = json.loads(out)
    code, out, _ = run(
        capsys, ["asymptotics", "--vf", str(vf), "--method", method, "--plugin", str(n), "--seed", str(seed)]
    )
    assert code == 0
    report = json.loads(out)
    assert sampled["stderr_source"] == report["provenance"] == f"plug-in(n={n}, seed={seed})"
    assert sampled["stderr"] == [float(v) for v in np.sqrt(np.maximum(np.diag(report["matrix"]), 0.0) / n)]


@pytest.mark.parametrize(
    "method, paired, evaluations",
    [
        ("kernel", False, 64 + 1),
        ("kernel", True, 2 * 64 + 1),
        ("permutation", False, 64 * 4),
        ("permutation", True, 64 * 8),
    ],
)
def test_sample_evaluations_count_the_draws_not_the_exact_stderr(vf_path, capsys, method, paired, evaluations):
    argv = ["sample", "--vf", vf_path, "--method", method, "--n", "64", "--seed", "3", "--stderr-from", "exact"]
    code, out, _ = run(capsys, argv + (["--paired"] if paired else []))
    assert code == 0
    payload = json.loads(out)
    assert payload["evaluations"] == evaluations
    assert payload["stderr_source"] == "exact-enumeration"


def test_experiment_has_no_jobs_option(tmp_path):
    code, out, err = call(["experiment", "--config", str(tmp_path / "cfg.json"), "--jobs", "1"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --jobs 1" in err


def test_sample_is_deterministic(vf_path, capsys):
    argv = ["sample", "--vf", vf_path, "--method", "kernel", "--n", "100", "--seed", "11"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_asymptotics_exact_report(vf_path, capsys):
    code, out, _ = run(
        capsys, ["asymptotics", "--vf", vf_path, "--method", "kernel-paired", "--adjusted"]
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "method", "provenance", "q", "matrix", "eigenvalues", "trace",
        "degenerate", "adjusted_eigenvalues",
    }
    assert payload["method"] == "kernel-paired"
    assert payload["provenance"] == "exact-enumeration"
    assert len(payload["matrix"]) == 3
    np.testing.assert_allclose(
        payload["adjusted_eigenvalues"], 2 * np.asarray(payload["eigenvalues"]), rtol=1e-12
    )


def test_asymptotics_plugin_requires_seed(vf_path, capsys):
    code, _, err = run(
        capsys, ["asymptotics", "--vf", vf_path, "--method", "kernel", "--plugin", "64"]
    )
    assert code == 2
    assert err.startswith("SchemaError:")


def test_asymptotics_plugin_report(vf_path, capsys):
    code, out, _ = run(
        capsys,
        [
            "asymptotics", "--vf", vf_path, "--method", "permutation-paired",
            "--plugin", "128", "--seed", "3",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"].startswith("plug-in(n=128")
    assert len(payload["matrix"]) == 4


def test_blocks_three_block_game(tmp_path, capsys):
    rng = np.random.default_rng(55)
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(three_block_doc(rng)))
    code, out, _ = run(capsys, ["blocks", "--vf", str(path), "--threshold", "1e-8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert payload["q"] == 9


def test_blocks_plugin_path(vf_path, capsys):
    code, out, _ = run(
        capsys,
        ["blocks", "--vf", vf_path, "--threshold", "1e-8", "--plugin", "256", "--seed", "4"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [[1, 2, 3, 4]]
    assert payload["provenance"].startswith("plug-in")


@pytest.mark.parametrize("flags", [[], ["--plugin", "300", "--seed", "8"]], ids=["exact", "plugin"])
def test_blocks_are_the_groups_of_the_paired_walk_covariance(tmp_path, flags):
    vf = tmp_path / "vf.json"
    vf.write_text(json.dumps(three_block_doc(np.random.default_rng(62))))
    code, out, err = call(["asymptotics", "--vf", str(vf), "--method", "permutation-paired", *flags])
    assert code == 0 and err == ""
    report = json.loads(out)
    matrix = np.array(report["matrix"])
    for threshold in (1e-8, 1e-3, float(np.median(np.abs(matrix)))):
        code, out, err = call(["blocks", "--vf", str(vf), "--threshold", repr(threshold), *flags])
        assert code == 0 and err == ""
        payload = json.loads(out)
        expected = asymptotics.detect_blocks(asymptotics.CovarianceReport(**dict(report, matrix=matrix)), threshold)
        assert payload["provenance"] == report["provenance"]
        assert payload["blocks"] == [[j + 1 for j in block] for block in expected]


@pytest.mark.parametrize("flags", [[], ["--plugin", "1000", "--seed", "8"]], ids=["exact", "plugin"])
@pytest.mark.parametrize("threshold", ["0", "-1e-3"])
def test_blocks_threshold_fails_before_the_covariance(tmp_path, capsys, spec_tables, monkeypatch, flags, threshold):
    vf = tmp_path / "vf.json"
    vf.write_text(json.dumps(three_block_doc(np.random.default_rng(63))))
    walks = []
    monkeypatch.setattr(exact, "prefix_walk", lambda *args: walks.append(args))
    code, out, err = run(capsys, ["blocks", "--vf", str(vf), f"--threshold={threshold}", *flags])
    assert code == 2 and out == ""
    assert err == f"DomainError: threshold must be positive, got {float(threshold)}\n"
    assert spec_tables == [] and walks == []


README_SHA256 = "7f14250e53a68d56a31dab63bc59a7f9e90c0c2c198a10693f4b1c4337069b5e"


def test_readme_commands_are_pinned(tmp_path, monkeypatch):
    # every `pairshap ...` line of the README, run in a copy of its working
    # directory: each exits 0 with nothing on stderr, and one digest covers
    # their stdout and the CSV files the experiments write
    root = Path(__file__).resolve().parents[1]
    commands = [
        line.split()[1:] for line in (root / "README.md").read_text(encoding="utf-8").splitlines()
        if line.startswith("pairshap ")
    ]
    assert len(commands) == 11
    shutil.copytree(root / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv in commands:
        code, out, err = call(argv)
        assert (code, err) == (0, ""), argv
        digest.update(out.encode())
    csvs = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in csvs] == ["additive_recovery_q5.csv", "bias_variance_q4.csv", "method_comparison_q4.csv"]
    for path in csvs:
        digest.update(path.read_bytes())
    assert digest.hexdigest() == README_SHA256


def test_bilinear_test_verdicts(tmp_path, capsys):
    bilinear = tmp_path / "bi.json"
    bilinear.write_text(
        json.dumps(
            {
                "q": 3,
                "terms": [
                    {
                        "kind": "bilinear",
                        "indices": [1, 2, 3],
                        "A": [[0.5, 1.0, 0.0], [0.0, -0.25, 2.0], [0.0, 0.0, 1.5]],
                    }
                ],
            }
        )
    )
    code, out, _ = run(
        capsys, ["bilinear-test", "--vf", str(bilinear), "--trials", "8", "--tol", "1e-9", "--seed", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["verdict"] == "bilinear-consistent"
    assert payload["max_discrepancy"] <= 1e-9


def test_bilinear_test_flags_curved_game(vf_path, capsys):
    code, out, _ = run(
        capsys, ["bilinear-test", "--vf", vf_path, "--trials", "8", "--tol", "1e-9", "--seed", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is False
    assert payload["verdict"] == "not-bilinear-consistent"


def test_experiment_end_to_end(tmp_path, vf_path, capsys):
    csv_path = tmp_path / "rows.csv"
    config = {
        "kind": "bias_variance",
        "vf": REFERENCE_DOC,
        "methods": ["kernel-paired", "permutation-paired"],
        "sizes": [16, 32],
        "reps": 5,
        "master_seed": 77,
        "outputs": {"csv": str(csv_path)},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["experiment", "--config", str(cfg)])
    assert code == 0
    summary = json.loads(out)
    assert summary == {"kind": "bias_variance", "csv": str(csv_path), "rows": 2 * 2 * 4}
    first = csv_path.read_bytes()

    code, _, _ = run(capsys, ["experiment", "--config", str(cfg)])
    assert code == 0
    assert csv_path.read_bytes() == first


@pytest.mark.parametrize(
    "change",
    [
        {"kind": "additive_recovery", "kernel_n": "abc"},
        {"kind": "additive_recovery", "kernel_n": 2.5},
        {"kind": "additive_recovery", "kernel_n": True},
        {"reps": "5"},
        {"sizes": [True, 4]},
        {"methods": "kernel"},
        {"outputs": {"csv": 5}},
    ],
    ids=["kernel_n-str", "kernel_n-float", "kernel_n-bool", "reps-str", "sizes-bool",
         "methods-str", "csv-int"],
)
def test_mistyped_experiment_config_exits_two(tmp_path, capsys, change):
    config = {
        "kind": "bias_variance",
        "vf": REFERENCE_DOC,
        "methods": ["kernel"],
        "sizes": [16],
        "reps": 2,
        "partition": [[1, 2, 3, 4]],
        "master_seed": 1,
        "outputs": {"csv": str(tmp_path / "rows.csv")},
    }
    config.update(change)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, ["experiment", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err.startswith("SchemaError:")
    assert "must be" in err
    assert "Traceback" not in err
    assert not (tmp_path / "rows.csv").exists()


def _reference_with(q=4, **term) -> dict:
    """The reference game document with another q or other term fields."""
    doc = json.loads(json.dumps(REFERENCE_DOC))
    doc["q"] = q
    doc["terms"][0].update(term)
    return doc


@pytest.mark.parametrize(
    "doc, argv, error",
    [
        (_reference_with(q=64), ["bilinear-test", "--trials", "2", "--tol", "1e-9", "--seed", "1"], "SizeGuard"),
        (_reference_with(q=64), ["sample", "--method", "kernel", "--n", "16", "--seed", "1"], "SizeGuard"),
        (_reference_with(q=100_000_000_000), ["exact"], "SizeGuard"),
        (_reference_with(beta=["1", 0.1, 0.8, -0.2]), ["exact"], "SchemaError"),
        (_reference_with(beta=[True, 0.1, 0.8, -0.2]), ["exact"], "SchemaError"),
        ({"q": 2, "terms": [{"kind": "bilinear", "indices": [1, 2], "A": [[1.0, 2.0], [3.0]]}]}, ["exact"], "SchemaError"),
        (_reference_with(offset=float("inf")), ["exact"], "DomainError"),
        (_reference_with(offset=10**400), ["exact"], "DomainError"),
    ],
    ids=["q64-bilinear-test", "q64-sample-kernel", "q-huge", "beta-str", "beta-bool", "A-ragged",
         "offset-infinity", "offset-huge-int"],
)
def test_malformed_value_function_exits_two(tmp_path, doc, argv, error):
    vf = tmp_path / "vf.json"
    vf.write_text(json.dumps(doc))
    code, out, err = call([argv[0], "--vf", str(vf), *argv[1:]])
    assert code == 2
    assert out == ""
    assert err.startswith(f"{error}:")
    assert "Traceback" not in err


# payoffs near 1e295 are finite, but their squares overflow
OVERFLOWING_DOC = {"q": 4, "terms": [{"kind": "exp_linear", "indices": [1, 2, 3, 4], "beta": [170, 170, 170, 170]}]}


@pytest.mark.parametrize(
    "argv",
    [
        *(["asymptotics", "--method", method] for method in ESTIMATORS),
        ["sample", "--method", "kernel", "--n", "100", "--seed", "1"],
        ["sample", "--method", "permutation", "--n", "100", "--seed", "1"],
    ],
    ids=[*(f"asymptotics-{method}" for method in ESTIMATORS), "sample-kernel", "sample-permutation"],
)
def test_overflowing_covariance_exits_three(tmp_path, argv):
    vf = tmp_path / "vf.json"
    vf.write_text(json.dumps(OVERFLOWING_DOC))
    code, out, err = call([argv[0], "--vf", str(vf), *argv[1:]])
    assert code == 3
    assert out == ""
    assert "NonFiniteError: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # a reader that has gone: the write end of a pipe whose read end is closed
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(Path(pairshap.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    vf = Path(__file__).resolve().parents[1] / "configs" / "exp_linear_q4.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pairshap.cli", "exact", "--vf", str(vf)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


# exponentials that overflow in the value table itself
OVERFLOWING_PAYOFF_DOC = {"q": 4, "terms": [{"kind": "exp_linear", "indices": [1, 2, 3, 4], "beta": [800] * 4}]}
# finite payoffs v({2}) = -1.5e308 and v({1,2}) = 1.7e308, whose difference,
# the kernel response of {2}, overflows
OVERFLOWING_RESPONSE_DOC = {
    "q": 2,
    "terms": [
        {"kind": "linear", "indices": [2], "beta": [-1.5e308]},
        *({"kind": "bilinear", "indices": [1, 2], "A": [[0.0, 8e307], [8e307, 0.0]]} for _ in range(2)),
    ],
}


@pytest.mark.parametrize(
    "doc, argv",
    [
        *((OVERFLOWING_DOC, ["asymptotics", "--method", method]) for method in ESTIMATORS),
        (OVERFLOWING_DOC,
         ["sample", "--method", "kernel", "--paired", "--n", "100", "--seed", "1", "--stderr-from", "plugin"]),
        (OVERFLOWING_PAYOFF_DOC, ["exact"]),
        (OPPOSITE_INFINITIES_DOC, ["exact"]),
        (OPPOSITE_INFINITIES_DOC, ["sample", "--method", "permutation", "--n", "4", "--seed", "1"]),
        (OVERFLOWING_GAIN_DOC, ["exact"]),
        (OVERFLOWING_GAIN_DOC, ["asymptotics", "--method", "permutation"]),
        (OVERFLOWING_GAIN_DOC, ["asymptotics", "--method", "permutation-paired", "--plugin", "3", "--seed", "1"]),
        (OVERFLOWING_GAIN_DOC, ["sample", "--method", "permutation", "--n", "2", "--seed", "1"]),
        (OVERFLOWING_GAIN_DOC, ["sample", "--method", "permutation", "--n", "5", "--seed", "1"]),
        (OVERFLOWING_GAIN_DOC, ["sample", "--method", "kernel", "--n", "50", "--seed", "1"]),
        (OVERFLOWING_RESPONSE_DOC, ["sample", "--method", "kernel", "--n", "50", "--seed", "1"]),
    ],
    ids=[
        *(f"asymptotics-{method}" for method in ESTIMATORS), "sample-kernel-plugin", "exact-payoffs",
        "exact-opposite-infinities", "sample-opposite-infinities", "exact-overflowing-gain",
        "asymptotics-permutation-overflowing-gain", "plugin-permutation-paired-overflowing-gain",
        "sample-permutation-lookups-overflowing-gain", "sample-permutation-gains-overflowing-gain",
        "sample-kernel-overflowing-gain", "sample-kernel-overflowing-response",
    ],
)
def test_overflowing_covariance_prints_one_error_line(tmp_path, doc, argv):
    # a separate interpreter with Python's default warning filters, which
    # print every numpy RuntimeWarning to stderr
    vf = tmp_path / "vf.json"
    vf.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(pairshap.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "pairshap.cli", argv[0], "--vf", str(vf), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("NonFiniteError: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--method", "kernel", "--n", "1000000000000"],
        ["sample", "--method", "permutation", "--paired", "--n", "1000000000000"],
        ["asymptotics", "--method", "kernel-paired", "--plugin", "1000000000000"],
        ["asymptotics", "--method", "permutation", "--plugin", "1000000000000"],
        ["blocks", "--threshold", "1e-8", "--plugin", "1000000000000"],
    ],
    ids=["sample-kernel", "sample-permutation-paired", "asymptotics-kernel-paired", "asymptotics-permutation",
         "blocks"],
)
def test_huge_sample_size_exits_two(vf_path, argv):
    code, out, err = call([argv[0], "--vf", vf_path, *argv[1:], "--seed", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("SizeGuard: sampled draws support n * q <= ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["sample", "--method", "kernel", "--n", "16"], None),
        (["asymptotics", "--method", "kernel", "--plugin", "16"], None),
        (["blocks", "--threshold", "1e-8", "--plugin", "16"], None),
        (["bilinear-test", "--trials", "2", "--tol", "1e-9"], None),
        (None, {"kind": "bias_variance", "methods": ["kernel"], "sizes": [16], "reps": 2}),
        (None, {"kind": "additive_recovery", "partition": [[1, 2, 3, 4]]}),
    ],
    ids=["sample", "asymptotics-plugin", "blocks-plugin", "bilinear-test", "bias_variance", "additive_recovery"],
)
def test_negative_seed_exits_two(tmp_path, vf_path, argv, config):
    csv_path = tmp_path / "rows.csv"
    if config is None:
        argv = [argv[0], "--vf", vf_path, *argv[1:], "--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(config, vf=REFERENCE_DOC, master_seed=-1, outputs={"csv": str(csv_path)})))
        argv = ["experiment", "--config", str(cfg)]
    code, out, err = call(argv)
    assert code == 2
    assert out == ""
    assert "non-negative integer" in err
    assert "Traceback" not in err
    assert not csv_path.exists()


def test_unwritable_csv_exits_two(tmp_path):
    csv_path = tmp_path / "missing" / "rows.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"kind": "method_comparison", "vf": REFERENCE_DOC, "master_seed": 1, "outputs": {"csv": str(csv_path)}}
        )
    )
    code, out, err = call(["experiment", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err.startswith("SchemaError: cannot write")
    assert "Traceback" not in err
    assert not csv_path.exists()


@pytest.mark.parametrize("parent", ["missing", "file"])
def test_csv_in_missing_directory_fails_before_computing(tmp_path, monkeypatch, parent):
    from pairshap import games

    rows = []
    values = games.ValueFunctionSpec.values
    monkeypatch.setattr(games.ValueFunctionSpec, "values", lambda self, Z: rows.append(len(Z)) or values(self, Z))
    if parent == "file":
        (tmp_path / "file").write_text("")
    csv_path = tmp_path / parent / "rows.csv"
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "bias_variance_q4.json").read_text())
    doc["outputs"] = {"csv": str(csv_path)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = call(["experiment", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err.startswith("SchemaError: cannot write CSV file")
    assert "is not a directory" in err
    assert rows == []
    assert not csv_path.exists()


def test_missing_file_exits_two(capsys):
    code, out, err = run(capsys, ["exact", "--vf", "/nonexistent/vf.json"])
    assert code == 2
    assert out == ""
    assert err.startswith("SchemaError:")


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["exact", "--vf", str(path)])
    assert code == 2
    assert err.startswith("SchemaError:")


def test_oversized_game_exits_two(tmp_path, capsys):
    doc = {"q": 26, "terms": [{"kind": "linear", "indices": [1], "beta": [1.0]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["exact", "--vf", str(path), "--method", "subset"])
    assert code == 2
    assert err.startswith("SizeGuard:")


def test_rank_deficient_sampling_exits_three(vf_path, capsys):
    code, _, err = run(
        capsys, ["sample", "--vf", vf_path, "--method", "kernel", "--n", "1", "--seed", "0"]
    )
    assert code == 3
    assert err.startswith("RankDeficient:")


def test_unknown_flag_exits_two(vf_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["exact", "--vf", vf_path, "--bogus"])
    assert info.value.code == 2


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# Drawn CLI inputs for the exit-code contract: tiny games, small sizes, and
# seeds and config fields that are often negative or of the wrong type.
_INTS = st.integers(-3, 40)
# sample sizes, now and then far beyond the draw limit
_SIZES = st.one_of(_INTS, st.just(10**12))
_SEED_TEXT = st.one_of(st.integers(-3, 2**70).map(str), st.sampled_from(["x", "1.5", ""]))


@st.composite
def _game(draw):
    """A tiny game document, or one with a single malformed field."""
    q = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["linear", "exp_linear", "bilinear", "exp_bilinear"]))
    coeff = st.floats(-1.0, 1.0, allow_nan=False)
    term = {"kind": kind, "indices": list(range(1, q + 1))}
    if kind.endswith("bilinear"):
        term["A"] = draw(st.lists(st.lists(coeff, min_size=q, max_size=q), min_size=q, max_size=q))
    else:
        term["beta"] = draw(st.lists(coeff, min_size=q, max_size=q))
    doc = {"q": q, "terms": [term]}
    fault = draw(st.sampled_from([None, None, "q", "coefficient", "magnitude", "ragged", "offset"]))
    coeffs = term.get("A", [term.get("beta")])
    if fault == "q":
        doc["q"] = draw(st.sampled_from([64, 65, 100_000_000_000]))
    elif fault == "coefficient":
        coeffs[-1][-1] = draw(st.sampled_from(["1", True, False, None, 10**400]))
    elif fault == "magnitude":
        # finite payoffs whose squares, or whose exponentials, overflow
        big = draw(st.sampled_from([170.0, -170.0, 1e160, 1e300]))
        for row in coeffs:
            row[:] = [big] * len(row)
    elif fault == "ragged":
        coeffs[-1].append(0.5)
    elif fault == "offset":
        term["offset"] = draw(st.sampled_from([float("inf"), float("-inf"), float("nan"), 10**400, "0"]))
    return doc


@st.composite
def _command(draw, vf: str, tmp: str):
    """One argv for a CLI call on the game file `vf`, writing only below `tmp`."""
    seed = ["--seed", draw(_SEED_TEXT)]
    command = draw(st.sampled_from(["sample", "asymptotics", "blocks", "bilinear-test", "experiment", "experiment"]))
    if command == "sample":
        argv = ["sample", "--vf", vf, "--method", draw(st.sampled_from(["kernel", "permutation"]))]
        argv += ["--n", str(draw(_SIZES)), *seed, "--stderr-from", draw(st.sampled_from(["exact", "plugin"]))]
        return argv + (["--paired"] if draw(st.booleans()) else [])
    if command == "asymptotics":
        argv = ["asymptotics", "--vf", vf, "--method", draw(st.sampled_from([*ESTIMATORS, "other"]))]
        if draw(st.booleans()):
            argv += ["--plugin", str(draw(_SIZES))] + (seed if draw(st.booleans()) else [])
        return argv + (["--adjusted"] if draw(st.booleans()) else [])
    if command == "blocks":
        argv = ["blocks", "--vf", vf, "--threshold", draw(st.sampled_from(["1e-8", "0", "-1"]))]
        return argv + (["--plugin", str(draw(_SIZES)), *seed] if draw(st.booleans()) else [])
    if command == "bilinear-test":
        return ["bilinear-test", "--vf", vf, "--trials", str(draw(_INTS)), "--tol", "1e-9", *seed]
    with open(vf, encoding="utf-8") as fh:
        game = json.load(fh)
    # valid values, then at most one field replaced by a negative or mistyped one
    sizes = st.lists(st.integers(1, 24), min_size=1, max_size=2, unique=True).map(sorted)
    fields = {
        "master_seed": (st.integers(0, 2**70), st.one_of(st.integers(-3, -1), st.sampled_from(["7", 2.5, True]))),
        # 2**24 replicates of at least 2 players exceed the replicate limit
        "reps": (st.integers(2, 3), st.one_of(st.integers(-3, 1), st.sampled_from(["2", 2.5, None, 2**24]))),
        "sizes": (sizes, st.sampled_from([[True, 4], 8, [0], [-1], [3, 3], [4, 2], []])),
        "kernel_n": (st.integers(1, 24), st.one_of(st.integers(-3, 0), st.sampled_from(["abc", 2.5, True]))),
        "methods": (
            st.lists(st.sampled_from(list(ESTIMATORS)), min_size=1, max_size=4, unique=True),
            st.sampled_from(["kernel", ["other"], [], ["kernel", "kernel"]]),
        ),
        "partition": (st.just([game["terms"][0]["indices"]]), st.sampled_from([[[1], [1]], "x", [[0]]])),
        "csv": (st.just(f"{tmp}/rows.csv"), st.sampled_from([f"{tmp}/missing/rows.csv", "", 5, None])),
    }
    fault = draw(st.sampled_from([None, *fields]))
    values = {key: draw(bad if key == fault else good) for key, (good, bad) in fields.items()}
    kind = draw(st.sampled_from(["bias_variance", "method_comparison", "additive_recovery"]))
    doc = {key: values[key] for key in ("master_seed", "reps", "sizes", "kernel_n", "methods", "partition")}
    doc.update(kind=kind, vf=game, outputs={"csv": values["csv"]})
    cfg = f"{tmp}/cfg.json"
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return ["experiment", "--config", cfg]


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(game=_game(), data=st.data())
def test_exit_code_contract(game, data):
    with tempfile.TemporaryDirectory() as tmp:
        vf = f"{tmp}/vf.json"
        with open(vf, "w", encoding="utf-8") as fh:
            json.dump(game, fh)
        argv = data.draw(_command(vf, tmp))
        code, _, err = call(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
