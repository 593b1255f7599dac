"""Covariance matrices: golden spectra, identities, plug-in convergence."""
import hashlib
import json

import numpy as np
import pytest

from pairshap import asymptotics, cli, exact, kernel, linalg, permutation
from pairshap.errors import DimensionError, DomainError, NumericError, SizeGuard
from pairshap.estimators import ESTIMATORS
from pairshap.games import GameEvaluator, parse_spec

from conftest import (
    REFERENCE_DOC,
    REFERENCE_SIGMA_EIGS,
    REFERENCE_SIGMA_TRACE,
    REFERENCE_T2_EIGS,
    REFERENCE_T2_TRACE,
    REFERENCE_T_EIGS,
    REFERENCE_T_TRACE,
    dense_kernel_moments,
    random_bilinear_doc,
    random_game_doc,
    three_block_doc,
    traced_peak,
)
from oracles import psd_gap, search_blocks


def test_reference_unpaired_kernel_spectrum(reference_ev):
    meat, hessian, report = asymptotics.kernel_matrices_exact(reference_ev, paired=False)
    assert report.method == "kernel"
    assert report.provenance == "exact-enumeration"
    np.testing.assert_allclose(report.eigenvalues, REFERENCE_T_EIGS, atol=1e-8)
    assert report.trace == pytest.approx(REFERENCE_T_TRACE, abs=1e-10)
    assert meat.shape == (3, 3) and hessian.shape == (3, 3)
    assert not report.degenerate


def test_reference_paired_kernel_spectrum(reference_ev):
    _, hessian, report = asymptotics.kernel_matrices_exact(reference_ev, paired=True)
    assert report.method == "kernel-paired"
    np.testing.assert_allclose(report.eigenvalues, REFERENCE_T2_EIGS, atol=1e-8)
    assert report.trace == pytest.approx(REFERENCE_T2_TRACE, abs=1e-10)
    # paired design moment is twice the unpaired one
    _, unpaired_hessian, _ = asymptotics.kernel_matrices_exact(reference_ev, paired=False)
    np.testing.assert_allclose(hessian, 2.0 * unpaired_hessian, atol=1e-12)


def test_reference_paired_walk_spectrum(reference_ev):
    report = asymptotics.permutation_covariance_exact(reference_ev, paired=True)
    assert report.method == "permutation-paired"
    assert report.matrix.shape == (4, 4)
    positive = asymptotics.positive_eigenvalues(report)
    np.testing.assert_allclose(positive, REFERENCE_SIGMA_EIGS, atol=1e-8)
    assert report.trace == pytest.approx(REFERENCE_SIGMA_TRACE, abs=1e-10)
    # the ones vector is annihilated: every paired walk sums to the grand value
    np.testing.assert_allclose(report.matrix @ np.ones(4), np.zeros(4), atol=1e-9)


@pytest.mark.parametrize("paired", [False, True])
def test_kernel_moments_match_dense_oracle(paired):
    # Differences are relative to the largest reference entry; second-order
    # quantities are also allowed the squared payoff scale, because paired
    # moments of games on two players vanish and keep only rounding noise.
    rng = np.random.default_rng(97)
    for q in range(2, 11):
        for _ in range(3):
            spec = parse_spec(random_game_doc(rng, q))
            table = GameEvaluator(spec).value_table()
            scale = float(np.max(np.abs(table)))
            partial, meat, hessian = dense_kernel_moments(table, q, paired)
            inverse = np.linalg.inv(hessian)
            covariance = inverse @ meat @ inverse
            got_meat, got_hessian, report = asymptotics.kernel_matrices_exact(GameEvaluator(spec), paired=paired)
            phi = exact.shapley_kernel_exact(GameEvaluator(spec)).phi
            for got, expected, floor in (
                (phi[:-1], partial, 0.0),
                (got_hessian, hessian, 0.0),
                (got_meat, meat, scale**2),
                (report.matrix, covariance, scale**2),
            ):
                assert np.max(np.abs(got - expected)) <= 1e-12 * max(np.max(np.abs(expected)), floor)


# A fixed q = 14 game, and the sha256 of kernel_matrices_exact's meat,
# hessian and matrix bytes, unpaired then paired.  Computed when every pair
# sum still ran the full superset-sum transform, and computed again when
# linear forms came to add their coefficients in `indices` order; that
# moved the meat by at most 6.3e-16 and the matrix by 8.2e-16 of their
# largest entries.
PINNED_Q14_DOC = {
    "q": 14,
    "terms": [
        {"kind": "exp_bilinear", "indices": list(range(1, 8)),
         "A": [[((3 * i + 5 * j) % 11 - 5) / 40 for j in range(7)] for i in range(7)], "offset": -0.5},
        {"kind": "exp_linear", "indices": list(range(5, 15)),
         "beta": [((5 * j) % 9 - 4) / 10 for j in range(10)], "offset": 0.25},
    ],
}
PINNED_Q14_SHA256 = "536e2b71f3287f01d4df7c3e187f95a5bee425175f2adf999998a84f861d34e0"


def test_exact_kernel_report_bytes_are_pinned():
    digest = hashlib.sha256()
    for paired in (False, True):
        meat, hessian, report = asymptotics.kernel_matrices_exact(GameEvaluator(parse_spec(PINNED_Q14_DOC)), paired=paired)
        for matrix in (meat, hessian, report.matrix):
            digest.update(np.ascontiguousarray(matrix, dtype=np.float64).tobytes())
    assert digest.hexdigest() == PINNED_Q14_SHA256


def test_paired_moment_check_fires_on_complement_asymmetric_weights(monkeypatch, reference_ev, tmp_path, capsys):
    honest = exact.kernel_weights

    def skewed(q):
        kw = honest(q)
        probs = kw.size_probs * np.linspace(1.0, 2.0, q - 1)
        return exact.KernelWeights(q=q, size_probs=probs / probs.sum())

    monkeypatch.setattr(exact, "kernel_weights", skewed)
    asymptotics.kernel_matrices_exact(reference_ev, paired=False)
    with pytest.raises(NumericError):
        asymptotics.kernel_matrices_exact(reference_ev, paired=True)
    path = tmp_path / "vf.json"
    path.write_text(json.dumps(REFERENCE_DOC))
    code = cli.main(["asymptotics", "--vf", str(path), "--method", "kernel-paired"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "symmetric under complement" in captured.err and "Traceback" not in captured.err


def test_report_invariants_on_random_games():
    rng = np.random.default_rng(90)
    for _ in range(10):
        q = int(rng.integers(3, 7))
        spec = parse_spec(random_game_doc(rng, q))
        reports = [
            asymptotics.kernel_matrices_exact(GameEvaluator(spec), paired=False)[2],
            asymptotics.kernel_matrices_exact(GameEvaluator(spec), paired=True)[2],
            asymptotics.permutation_covariance_exact(GameEvaluator(spec), paired=True),
        ]
        for report in reports:
            M = report.matrix
            assert np.max(np.abs(M - M.T)) <= 1e-10 * max(1.0, np.max(np.abs(M)))
            assert report.eigenvalues.min() >= -1e-9
            assert report.trace == pytest.approx(float(report.eigenvalues.sum()), abs=1e-12)


def test_psd_gap_pairing_never_hurts():
    rng = np.random.default_rng(91)
    for _ in range(50):
        q = int(rng.integers(3, 8))
        beta = [float(b) for b in rng.uniform(-0.8, 0.8, size=q)]
        spec = parse_spec(
            {"q": q, "terms": [{"kind": "exp_linear", "indices": list(range(1, q + 1)), "beta": beta}]}
        )
        _, _, unpaired = asymptotics.kernel_matrices_exact(GameEvaluator(spec), paired=False)
        _, _, paired = asymptotics.kernel_matrices_exact(GameEvaluator(spec), paired=True)
        assert psd_gap(unpaired.matrix, paired.matrix) >= -1e-9


def test_psd_gap_of_identical_matrices_is_zero():
    M = np.diag([2.0, 1.0])
    assert psd_gap(M, M) == pytest.approx(0.0, abs=1e-14)


def test_bilinear_game_paired_matrices_vanish():
    rng = np.random.default_rng(92)
    doc, _ = random_bilinear_doc(rng, 5)
    spec = parse_spec(doc)
    meat, _, report = asymptotics.kernel_matrices_exact(GameEvaluator(spec), paired=True)
    scale = max(1.0, float(np.max(np.abs(report.matrix))))
    assert np.max(np.abs(meat)) <= 1e-18 * max(1.0, np.max(np.abs(meat)) + 1)
    assert report.degenerate
    sigma = asymptotics.permutation_covariance_exact(GameEvaluator(spec), paired=True)
    assert np.max(np.abs(sigma.matrix)) <= 1e-12
    assert sigma.degenerate


def test_linear_game_unpaired_matrices_vanish():
    spec = parse_spec(
        {"q": 4, "terms": [{"kind": "linear", "indices": [1, 2, 3, 4], "beta": [1.0, -2.0, 0.5, 3.0]}]}
    )
    meat, _, report = asymptotics.kernel_matrices_exact(GameEvaluator(spec), paired=False)
    assert np.max(np.abs(meat)) <= 1e-18
    assert report.degenerate


def test_three_block_game_covariance_is_block_diagonal():
    rng = np.random.default_rng(93)
    spec = parse_spec(three_block_doc(rng))
    report = asymptotics.permutation_covariance_exact(GameEvaluator(spec), paired=True)
    M = report.matrix
    blocks = [range(0, 3), range(3, 6), range(6, 9)]
    for a in range(3):
        for b in range(3):
            sub = M[np.ix_(blocks[a], blocks[b])]
            if a == b:
                assert np.max(np.abs(sub)) > 1e-6
            else:
                assert np.max(np.abs(sub)) <= 1e-12


def test_block_detection_exact_and_edge_cases(reference_ev):
    rng = np.random.default_rng(94)
    spec = parse_spec(three_block_doc(rng))
    report = asymptotics.permutation_covariance_exact(GameEvaluator(spec), paired=True)
    assert asymptotics.detect_blocks(report, 1e-8) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    # a dense covariance is one block
    dense = asymptotics.permutation_covariance_exact(reference_ev, paired=True)
    assert asymptotics.detect_blocks(dense, 1e-8) == [[0, 1, 2, 3]]
    # a threshold above every entry leaves singletons
    assert asymptotics.detect_blocks(dense, 1e6) == [[0], [1], [2], [3]]
    with pytest.raises(DomainError):
        asymptotics.detect_blocks(dense, 0.0)


def test_block_detection_is_the_breadth_first_search_on_random_patterns():
    rng = np.random.default_rng(95)
    for _ in range(2000):
        q = int(rng.integers(1, 20))
        # a symmetric pattern of random density, with signed entries on both
        # sides of the threshold
        upper = np.triu(rng.uniform(-1.0, 1.0, size=(q, q)) * (rng.random((q, q)) < rng.uniform(0.0, 0.4)))
        M = upper + upper.T
        report = asymptotics.CovarianceReport(
            method="permutation-paired", provenance="pattern", q=q, matrix=M,
            eigenvalues=np.zeros(q), trace=0.0, degenerate=False,
        )
        assert asymptotics.detect_blocks(report, 0.5) == search_blocks(np.abs(M) > 0.5)


def test_block_detection_requires_full_size_matrix(reference_ev):
    report = asymptotics.kernel_matrices_exact(reference_ev, paired=True)[2]
    with pytest.raises(DimensionError):
        asymptotics.detect_blocks(report, 1e-8)


def test_kernel_plugin_close_to_exact(reference_spec):
    _, _, exact_report = asymptotics.kernel_matrices_exact(
        GameEvaluator(reference_spec), paired=False
    )
    hits = 0
    for seed in range(50):
        ev = GameEvaluator(reference_spec)
        vec, batch = kernel.estimate_kernel(ev, 65536, paired=False, seed=seed)
        _, _, plugin = asymptotics.kernel_matrices_plugin(batch, vec)
        rel = np.linalg.norm(plugin.matrix - exact_report.matrix) / np.linalg.norm(
            exact_report.matrix
        )
        if rel <= 0.1:
            hits += 1
    assert hits >= 45


def test_kernel_plugin_paired_close_to_exact(reference_spec):
    _, _, exact_report = asymptotics.kernel_matrices_exact(
        GameEvaluator(reference_spec), paired=True
    )
    ev = GameEvaluator(reference_spec)
    vec, batch = kernel.estimate_kernel(ev, 65536, paired=True, seed=7)
    _, _, plugin = asymptotics.kernel_matrices_plugin(batch, vec)
    rel = np.linalg.norm(plugin.matrix - exact_report.matrix) / np.linalg.norm(
        exact_report.matrix
    )
    assert rel <= 0.1
    assert plugin.provenance.startswith("plug-in(n=65536")


def test_kernel_plugin_median_error_shrinks_with_n(reference_spec):
    # substituting the exact attribution, the plug-in covariance converges
    exact_phi = exact.shapley_subset(GameEvaluator(reference_spec)).phi
    _, _, exact_report = asymptotics.kernel_matrices_exact(
        GameEvaluator(reference_spec), paired=False
    )
    medians = []
    for n in (4**4, 4**5, 4**6, 4**7, 4**8):
        errs = []
        for seed in range(9):
            ev = GameEvaluator(reference_spec)
            _, batch = kernel.estimate_kernel(ev, n, paired=False, seed=seed)
            _, _, plugin = asymptotics.kernel_matrices_plugin(batch, exact_phi)
            errs.append(
                np.linalg.norm(plugin.matrix - exact_report.matrix)
                / np.linalg.norm(exact_report.matrix)
            )
        medians.append(float(np.median(errs)))
    assert all(b < a for a, b in zip(medians, medians[1:]))


def test_linear_game_plugin_matrices_vanish():
    spec = parse_spec(
        {"q": 4, "terms": [{"kind": "linear", "indices": [1, 2, 3, 4], "beta": [1.0, -2.0, 0.5, 3.0]}]}
    )
    ev = GameEvaluator(spec)
    vec, batch = kernel.estimate_kernel(ev, 256, paired=False, seed=3)
    _, _, plugin = asymptotics.kernel_matrices_plugin(batch, vec)
    assert np.linalg.norm(plugin.matrix) <= 1e-18


def test_walk_plugin_close_to_exact(reference_spec):
    exact_report = asymptotics.permutation_covariance_exact(
        GameEvaluator(reference_spec), paired=True
    )
    plugin = asymptotics.permutation_covariance_plugin(
        GameEvaluator(reference_spec), 65536, seed=8, paired=True
    )
    exact_pos = asymptotics.positive_eigenvalues(exact_report)
    plugin_pos = plugin.eigenvalues[: exact_pos.shape[0]]
    np.testing.assert_allclose(plugin_pos, exact_pos, rtol=0.1)
    np.testing.assert_allclose(plugin.matrix @ np.ones(4), np.zeros(4), atol=1e-9)


def test_walk_plugin_row_sums_vanish_any_seed(reference_spec):
    for seed in range(5):
        report = asymptotics.permutation_covariance_plugin(
            GameEvaluator(reference_spec), 64, seed=seed, paired=True
        )
        np.testing.assert_allclose(report.matrix @ np.ones(4), np.zeros(4), atol=1e-9)


def test_walk_plugin_bilinear_game_vanishes():
    rng = np.random.default_rng(95)
    doc, _ = random_bilinear_doc(rng, 4)
    report = asymptotics.permutation_covariance_plugin(
        GameEvaluator(parse_spec(doc)), 128, seed=9, paired=True
    )
    assert np.max(np.abs(report.matrix)) <= 1e-12
    assert report.degenerate


def test_walk_plugin_validates_n(reference_spec):
    with pytest.raises(DomainError):
        asymptotics.permutation_covariance_plugin(GameEvaluator(reference_spec), 1, seed=1)


def test_predicted_stderr_shapes(reference_ev):
    _, _, kernel_report = asymptotics.kernel_matrices_exact(reference_ev, paired=False)
    stderr = asymptotics.predicted_stderr(kernel_report, 100)
    assert stderr.shape == (4,)
    ones = np.ones(3)
    expected_last = np.sqrt(float(ones @ kernel_report.matrix @ ones) / 100)
    assert stderr[3] == pytest.approx(expected_last, abs=1e-12)
    walk_report = asymptotics.permutation_covariance_exact(
        GameEvaluator(reference_ev.game), paired=True
    )
    stderr = asymptotics.predicted_stderr(walk_report, 100)
    np.testing.assert_allclose(stderr, np.sqrt(np.diag(walk_report.matrix) / 100), atol=1e-15)
    with pytest.raises(DomainError):
        asymptotics.predicted_stderr(kernel_report, 0)


def test_evaluation_cost_map():
    # the key order keys the experiment substreams, so it is fixed too
    assert list(ESTIMATORS) == ["kernel", "kernel-paired", "permutation", "permutation-paired"]
    assert [estimator.cost(10) for estimator in ESTIMATORS.values()] == [1, 2, 10, 20]


def test_dimension_adjusted_eigs(tmp_path, capsys):
    # every table entry is accepted, and its spectrum is scaled by its cost at q = 4
    path = tmp_path / "vf.json"
    path.write_text(json.dumps(REFERENCE_DOC))
    for name, factor in zip(ESTIMATORS, (1, 2, 4, 8)):
        assert cli.main(["asymptotics", "--vf", str(path), "--method", name, "--adjusted"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == name
        np.testing.assert_allclose(
            payload["adjusted_eigenvalues"], factor * np.asarray(payload["eigenvalues"]), rtol=0, atol=1e-15
        )


def test_size_guards():
    spec = parse_spec(
        {"q": 26, "terms": [{"kind": "linear", "indices": [1], "beta": [1.0]}]}
    )
    with pytest.raises(SizeGuard):
        asymptotics.kernel_matrices_exact(GameEvaluator(spec), paired=False)
    mid = parse_spec({"q": 10, "terms": [{"kind": "linear", "indices": [1], "beta": [1.0]}]})
    with pytest.raises(SizeGuard):
        asymptotics.permutation_covariance_exact(GameEvaluator(mid))


@pytest.mark.parametrize("scale", [0.0, 3.0, 1e6])
@pytest.mark.parametrize("ratio", [0.25, 0.999, 1.001, 4.0])
def test_degenerate_verdict_is_entry_against_squared_scale(scale, ratio):
    bound = asymptotics.DEGENERATE_ATOL * max(1.0, scale) ** 2
    report = asymptotics._make_report(np.diag([ratio * bound, 0.0]), "kernel", "test", 3, scale)
    assert report.degenerate == (ratio <= 1.0)


def test_degenerate_verdict_survives_scales_whose_square_overflows():
    report = asymptotics._make_report(np.diag([1e290, 0.0]), "kernel", "test", 3, 1e160)
    assert report.degenerate
    report = asymptotics._make_report(np.diag([1e300, 0.0]), "kernel", "test", 3, 1e150)
    assert not report.degenerate


def test_report_to_dict_round_trip(reference_ev):
    report = asymptotics.permutation_covariance_exact(reference_ev, paired=True)
    payload = asymptotics.report_to_dict(report)
    assert set(payload) == {
        "method",
        "provenance",
        "q",
        "matrix",
        "eigenvalues",
        "trace",
        "degenerate",
    }
    assert payload["q"] == 4
    np.testing.assert_allclose(np.asarray(payload["matrix"]), report.matrix, atol=0)


def test_unpaired_walk_covariance_scales_estimator_variance(reference_spec):
    # sanity: empirical sd of the unpaired walk estimator tracks sqrt(diag/n)
    report = asymptotics.permutation_covariance_exact(
        GameEvaluator(reference_spec), paired=False
    )
    n, reps = 64, 400
    estimates = np.empty((reps, 4))
    for s in range(reps):
        estimates[s] = permutation.estimate_permutation(
            GameEvaluator(reference_spec), n, paired=False, seed=np.random.SeedSequence([96, s])
        )[0].phi
    ratio = estimates.std(axis=0, ddof=1) / asymptotics.predicted_stderr(report, n)
    assert np.all((ratio > 0.8) & (ratio < 1.2))


def test_exact_walk_covariance_memory_stays_within_three_and_a_half_order_arrays():
    # At q = 8 the paired walk over all q! orders holds the orders and a few
    # blocks of np.getbufsize() x q entries: the prefixes, the scatter
    # targets, the gains and the fold's temporaries.  No q! x q gain matrix
    # is formed, so the traced peak stays below one q! x q order array and
    # four blocks, well inside 3.5 q! x q float arrays.
    q = 8
    rng = np.random.default_rng(97)
    spec = parse_spec(random_game_doc(rng, q))
    report, peak = traced_peak(lambda: asymptotics.permutation_covariance_exact(GameEvaluator(spec), paired=True))
    assert report.matrix.shape == (q, q)
    assert peak <= 8 * 40320 * q + 4 * 8 * np.getbufsize() * q <= 3.5 * 8 * 40320 * q


def test_paired_covariances_vanish_on_a_game_beyond_order_two():
    # v = exp(b^T z) + exp(-b^T z) - 2 plus a linear term, with sum(b) = 0:
    # b^T z of a coalition's complement is -b^T z, so the exponentials are
    # even under complement, the odd part of v is affine and both paired
    # estimators are exact.  Yet v has Moebius dividends of order three and
    # more.  So a degenerate paired covariance, or a consistent bilinear
    # test, does not certify that a game has order two.
    q = 8
    beta = np.random.default_rng(62).normal(0.0, 0.6, size=q)
    beta -= beta.mean()
    spec = parse_spec({
        "q": q,
        "terms": [
            {"kind": "exp_linear", "indices": list(range(1, q + 1)), "beta": beta.tolist()},
            {"kind": "exp_linear", "indices": list(range(1, q + 1)), "beta": (-beta).tolist()},
            {"kind": "linear", "indices": list(range(1, q + 1)), "beta": np.linspace(-1.0, 1.0, q).tolist()},
        ],
    })
    ev = GameEvaluator(spec)
    dividends = ev.value_table().copy()
    for i in range(q):
        halves = dividends.reshape(-1, 2, 1 << i)
        halves[:, 1, :] -= halves[:, 0, :]
    sizes = exact.subset_sums(np.ones(q, dtype=np.int64))
    assert np.abs(dividends[sizes >= 3]).max() > 0.01
    for paired in (True, False):
        kernel_report = asymptotics.kernel_matrices_exact(ev, paired=paired)[2]
        walk_report = asymptotics.permutation_covariance_exact(ev, paired=paired)
        assert kernel_report.degenerate == walk_report.degenerate == paired
    assert kernel.bilinearity_test(ev, 8, 1e-9, seed=63) <= 1e-9
