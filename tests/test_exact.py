"""Exact Shapley routes: golden values, axioms, and route agreement."""
import itertools
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pairshap import asymptotics, exact, games
from pairshap.errors import DomainError, SizeGuard
from pairshap.games import GameEvaluator, parse_spec

from conftest import (
    REFERENCE_PHI,
    TableGame,
    bilinear_shapley,
    random_bilinear_doc,
    random_game_doc,
    subset_shapley_by_players,
    traced_peak,
)
from oracles import coalition_matrix, coalition_probability, evaluate, superset_sums, walk_rows

ROUTES = (exact.shapley_subset, exact.shapley_all_permutations, exact.shapley_kernel_exact)


def test_reference_game_golden_values(reference_spec):
    for route in ROUTES:
        phi = route(GameEvaluator(reference_spec)).phi
        np.testing.assert_allclose(phi, REFERENCE_PHI, atol=5e-8)


def test_method_tags(reference_spec):
    tags = [route(GameEvaluator(reference_spec)).method_tag for route in ROUTES]
    assert tags == ["subset", "permutation", "kernel"]


def test_three_way_agreement_on_random_games():
    rng = np.random.default_rng(30)
    for _ in range(30):
        q = int(rng.integers(2, 9))
        spec = parse_spec(random_game_doc(rng, q))
        vectors = [route(GameEvaluator(spec)).phi for route in ROUTES]
        for i in range(3):
            for k in range(i + 1, 3):
                np.testing.assert_allclose(vectors[i], vectors[k], atol=1e-9)


def test_efficiency_axiom():
    rng = np.random.default_rng(31)
    for _ in range(10):
        q = int(rng.integers(2, 8))
        spec = parse_spec(random_game_doc(rng, q))
        grand = evaluate(spec, np.ones(q))
        for route in ROUTES:
            assert route(GameEvaluator(spec)).phi.sum() == pytest.approx(grand, abs=1e-9)


def test_dummy_axiom_constant_game():
    game = TableGame(3, np.full(8, 4.2))
    for route in ROUTES:
        np.testing.assert_allclose(route(GameEvaluator(game)).phi, np.zeros(3), atol=1e-12)


def test_symmetry_axiom_on_symmetrized_game():
    # symmetrize a random table over the swap of players 0 and 1
    rng = np.random.default_rng(32)
    q = 5
    table = rng.normal(size=2**q)
    swapped = table.copy()
    for mask in range(2**q):
        bit0, bit1 = mask & 1, (mask >> 1) & 1
        other = (mask & ~3) | (bit0 << 1) | bit1
        swapped[mask] = table[other]
    game = TableGame(q, 0.5 * (table + swapped))
    phi = exact.shapley_subset(GameEvaluator(game)).phi
    assert phi[0] == pytest.approx(phi[1], abs=1e-10)


def test_linearity_axiom_on_table_games():
    rng = np.random.default_rng(33)
    q = 4
    t1 = rng.normal(size=2**q)
    t2 = rng.normal(size=2**q)
    alpha = 1.7
    phi1 = exact.shapley_subset(GameEvaluator(TableGame(q, t1))).phi
    phi2 = exact.shapley_subset(GameEvaluator(TableGame(q, t2))).phi
    mixed = exact.shapley_subset(GameEvaluator(TableGame(q, alpha * t1 + t2))).phi
    np.testing.assert_allclose(mixed, alpha * phi1 + phi2, atol=1e-9)


def test_q2_table_game_closed_form():
    a, b, c = 2.0, -1.0, 5.0
    game = TableGame(2, np.array([0.0, a, b, c]))
    phi = exact.shapley_all_permutations(GameEvaluator(game)).phi
    np.testing.assert_allclose(phi, [(a + c - b) / 2, (b + c - a) / 2], atol=1e-12)


def test_linear_game_returns_beta():
    beta = np.array([0.4, -1.2, 0.05, 0.9])
    spec = parse_spec(
        {"q": 4, "terms": [{"kind": "linear", "indices": [1, 2, 3, 4], "beta": list(beta)}]}
    )
    for route in ROUTES:
        np.testing.assert_allclose(route(GameEvaluator(spec)).phi, beta, atol=1e-10)


def test_bilinear_game_closed_form():
    rng = np.random.default_rng(34)
    for q in (2, 4, 6):
        doc, A = random_bilinear_doc(rng, q)
        phi = exact.shapley_subset(GameEvaluator(parse_spec(doc))).phi
        np.testing.assert_allclose(phi, bilinear_shapley(A), atol=1e-9)


def test_evaluation_count_is_exactly_two_to_q(reference_spec):
    for route in ROUTES:
        ev = GameEvaluator(reference_spec)
        route(ev)
        assert ev.eval_count == 2**4


def test_size_guards():
    big = parse_spec(
        {"q": 26, "terms": [{"kind": "linear", "indices": [1], "beta": [1.0]}]}
    )
    with pytest.raises(SizeGuard):
        exact.shapley_subset(GameEvaluator(big))
    mid = parse_spec(
        {"q": 10, "terms": [{"kind": "linear", "indices": [1], "beta": [1.0]}]}
    )
    with pytest.raises(SizeGuard):
        exact.shapley_all_permutations(GameEvaluator(mid))
    assert games.TABLE_LIMIT == 25
    assert exact.PERMUTATION_LIMIT == 9


def test_readme_size_limits_are_the_code_limits():
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    found = re.search(
        r"Size limits: subset enumeration and the exact kernel route up to q=(\d+), "
        r"full permutation enumeration up to q=(\d+), exact kernel covariances up to q=(\d+)\.",
        text,
    )
    assert found, "README has no 'Size limits:' sentence in the expected form"
    documented = [int(limit) for limit in found.groups()]
    assert documented == [games.TABLE_LIMIT, exact.PERMUTATION_LIMIT, games.TABLE_LIMIT]


def test_float_binomial():
    assert exact.float_binomial(5, 2) == 10.0
    assert exact.float_binomial(25, 12) == pytest.approx(5200300.0)
    assert exact.float_binomial(4, 5) == 0.0
    assert exact.float_binomial(7, 0) == 1.0


def test_kernel_weights_q4_reference_values():
    kw = exact.kernel_weights(4)
    np.testing.assert_allclose(kw.size_probs, [4 / 11, 3 / 11, 4 / 11], atol=1e-15)
    assert coalition_probability(kw, 1) == pytest.approx(1 / 11, abs=1e-15)
    assert coalition_probability(kw, 2) == pytest.approx(1 / 22, abs=1e-15)
    assert coalition_probability(kw, 3) == pytest.approx(1 / 11, abs=1e-15)


def test_kernel_weights_q2_singletons():
    kw = exact.kernel_weights(2)
    np.testing.assert_allclose(kw.size_probs, [1.0])
    assert coalition_probability(kw, 1) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        exact.kernel_weights(1)


def test_kernel_weights_sum_to_one_and_complement_symmetry():
    for q in range(2, 10):
        kw = exact.kernel_weights(q)
        total = sum(
            coalition_probability(kw, s) * exact.float_binomial(q, s) for s in range(1, q)
        )
        assert total == pytest.approx(1.0, abs=1e-12)
        for s in range(1, q):
            assert coalition_probability(kw, s) == coalition_probability(kw, q - s)


def test_kernel_size_weights_are_exactly_complement_symmetric():
    # so the complement rows of a paired fit carry the same weights, bit for
    # bit, and the paired covariance needs no transform to check them
    for q in range(2, 26):
        per_size = exact.size_weights(q)
        assert per_size[0] == per_size[q] == 0.0
        assert np.array_equal(per_size, per_size[::-1])


def test_kernel_weights_rejects_out_of_range_size():
    kw = exact.kernel_weights(5)
    with pytest.raises(DomainError):
        coalition_probability(kw, 0)
    with pytest.raises(DomainError):
        coalition_probability(kw, 5)


def test_coalition_matrix_layout():
    M = coalition_matrix(3)
    assert M.shape == (8, 3)
    np.testing.assert_array_equal(M[0], [0, 0, 0])
    np.testing.assert_array_equal(M[5], [1, 0, 1])  # mask 5 = players 0 and 2
    np.testing.assert_array_equal(M[7], [1, 1, 1])


@pytest.mark.parametrize("q", range(1, 9))
def test_all_permutations_keep_the_itertools_order(q):
    # the exact walk covariance sums its rows in this order
    expected = np.array(list(itertools.permutations(range(q))), dtype=np.int64)
    got = exact.all_permutations(q)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_all_permutations_refuse_ten_players():
    assert exact.all_permutations(exact.PERMUTATION_LIMIT).shape == (362_880, 9)
    with pytest.raises(SizeGuard):
        exact.all_permutations(exact.PERMUTATION_LIMIT + 1)


@pytest.mark.parametrize("q", range(2, 21))
def test_by_size_is_the_size_gather_bit_for_bit(q):
    per_size = np.random.default_rng(600 + q).normal(size=q + 1)
    per_size[q // 2] = -0.0
    sizes = exact.subset_sums(np.ones(q, dtype=np.uint8))
    for values in (per_size, exact.size_weights(q)):
        expected = values[sizes]
        got = exact.by_size(values, q)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_prefix_walk_rows_telescope(hand_game_q3):
    table = hand_game_q3.value_table()
    perms = exact.all_permutations(3)
    B = walk_rows(perms, partial(exact.lookup_gains, partial(np.take, table), False))
    np.testing.assert_allclose(B.sum(axis=1), np.full(6, 17.0), atol=1e-12)
    # identity order: gains 1, 3-1, 17-3
    identity_row = B[np.lexsort(perms.T[::-1])[0]]
    np.testing.assert_allclose(identity_row, [1.0, 2.0, 14.0], atol=1e-12)


def test_subset_route_matches_player_loop_oracle():
    rng = np.random.default_rng(35)
    for q in range(2, 11):
        for _ in range(3):
            spec = parse_spec(random_game_doc(rng, q))
            expected = subset_shapley_by_players(GameEvaluator(spec).value_table(), q)
            phi = exact.shapley_subset(GameEvaluator(spec)).phi
            assert np.max(np.abs(phi - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_subset_and_superset_sums_match_brute_force():
    q = 5
    rng = np.random.default_rng(36)
    c = rng.normal(size=q)
    w = rng.normal(size=2**q)
    members = [[j for j in range(q) if mask >> j & 1] for mask in range(2**q)]
    expected_subset = [sum(c[j] for j in S) for S in members]
    expected_superset = [sum(w[T] for T in range(2**q) if T & S == S) for S in range(2**q)]
    np.testing.assert_allclose(exact.subset_sums(c), expected_subset, rtol=0, atol=1e-14)
    sizes = exact.subset_sums(np.ones(q, dtype=np.uint8))
    np.testing.assert_array_equal(sizes, [len(S) for S in members])
    out = superset_sums(w.copy(), q)
    np.testing.assert_allclose(out, expected_superset, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "full_pass_lows, column_rows, masked_size",
    [
        # passes run whole, as strided columns from q = 8, and masked from
        # q = 14, in several row blocks at q = 18
        pytest.param(
            exact.FULL_PASS_LOWS, exact.COLUMN_ROWS, exact.MASKED_SIZE, id=f"{exact.FULL_PASS_LOWS}-{exact.COLUMN_ROWS}"
        ),
        # every pass needing at most 8 low masks runs as columns, every later one masked
        pytest.param(8, 1, 1, id="8-1"),
        # every pass runs whole
        pytest.param(1 << 30, 1 << 30, 1 << 30, id="whole"),
    ],
)
@pytest.mark.parametrize("q", [*range(2, 15), 18])
def test_pair_sums_are_the_gathered_superset_sums_bit_for_bit(monkeypatch, q, full_pass_lows, column_rows, masked_size):
    # and the one-player sums are their diagonal, on every branch of the passes
    monkeypatch.setattr(exact, "FULL_PASS_LOWS", full_pass_lows)
    monkeypatch.setattr(exact, "COLUMN_ROWS", column_rows)
    monkeypatch.setattr(exact, "MASKED_SIZE", masked_size)
    rng = np.random.default_rng(400 + q)
    size = 1 << q
    signs = rng.choice([-1.0, 1.0], size=(3, size))
    spanning = 10.0 ** rng.uniform(-300.0, 300.0, size=(2, size))
    vectors = [
        signs[0] * spanning[0],
        signs[1] * spanning[1] * (rng.random(size) < 0.5),
        # sums of these overflow to +-inf, and inf - inf gives nan
        signs[2] * rng.uniform(0.5, 1.0, size) * 1.7e308,
        rng.normal(size=size),
    ]
    bits = np.int64(1) << np.arange(q, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for w in vectors:
            expected = superset_sums(w.copy(), q)[bits[:, None] | bits]
            assert np.array_equal(exact.pair_sums(w.copy(), q), expected, equal_nan=True)
            assert np.array_equal(exact.player_sums(w.copy(), q), np.diag(expected), equal_nan=True)
        overflowed = superset_sums(vectors[2].copy(), q)[bits[:, None] | bits]
    assert q < 3 or not np.isfinite(overflowed).all()


@pytest.mark.parametrize("q", range(2, 21))
def test_design_moment_is_the_pivoted_pair_sums_of_the_weights_bit_for_bit(q):
    p = exact.size_weights(q)[exact.subset_sums(np.ones(q, dtype=np.uint8))]
    _, expected = exact.pivot_moments(p, q)
    assert exact.design_moment(q).tobytes() == expected.tobytes()


@pytest.mark.parametrize("q", [16, 18])
def test_pivot_moments_scratch_is_a_quarter_vector(q):
    # Beyond w, which it overwrites, pivot_moments holds the masked passes'
    # gathers and the buffers of numpy's strided loops: three of getbufsize()
    # elements, whatever q is.
    exact.pivot_moments(np.ones(1 << 9), 9)  # one-time imports are not scratch
    w = np.random.default_rng(39).normal(size=1 << q)
    _, peak = traced_peak(lambda: exact.pivot_moments(w, q))
    assert peak <= 8 * (2**q // 4 + 3 * np.getbufsize())


def test_value_table_calls_the_game_in_chunks_of_rows():
    q = 17
    spec = parse_spec({"q": q, "terms": [{"kind": "linear", "indices": list(range(1, q + 1)), "beta": [1.0] * q}]})
    rows = []

    class Recording:
        def __init__(self):
            self.q = q

        def values(self, Z):
            rows.append(len(Z))
            return spec.values(Z)

    ev = GameEvaluator(Recording())
    table = ev.value_table()
    assert rows == [games.CHUNK_ROWS] * (2**q // games.CHUNK_ROWS)
    assert ev.eval_count == 2**q
    np.testing.assert_array_equal(table, exact.subset_sums(np.ones(q)))


@pytest.mark.parametrize("q", [16, 18])
@pytest.mark.parametrize("route, vectors", [("kernel", 2.3), ("kernel-paired", 2.3), ("kernel-phi", 2.1)])
def test_exact_kernel_scratch_beyond_the_table(q, route, vectors):
    # Beyond the value table, the exact kernel covariance holds the coalition
    # probabilities, the response (overwritten by the residuals) and a
    # quarter of a vector for the fitted values; the kernel Shapley values
    # hold the probabilities and the response.
    rng = np.random.default_rng(41)
    beta = rng.uniform(-0.3, 0.3, size=q).tolist()
    spec = parse_spec({"q": q, "terms": [{"kind": "exp_linear", "indices": list(range(1, q + 1)), "beta": beta}]})
    run = {
        "kernel": partial(asymptotics.kernel_matrices_exact, paired=False),
        "kernel-paired": partial(asymptotics.kernel_matrices_exact, paired=True),
        "kernel-phi": exact.shapley_kernel_exact,
    }[route]
    run(GameEvaluator(spec))  # one-time imports and per-q index lists are not scratch
    ev = GameEvaluator(spec)
    ev.value_table()
    _, peak = traced_peak(lambda: run(ev))
    assert peak <= 8 * vectors * 2**q


@pytest.mark.parametrize("route", ["subset", "kernel-paired"])
def test_enumeration_memory_stays_within_vectors(route):
    # No 2^q x q float matrix: the traced peak stays below 12 float vectors of
    # length 2^q plus one chunk of float rows for the game's own temporaries.
    q = 16
    rng = np.random.default_rng(37)
    beta = rng.uniform(-0.3, 0.3, size=q).tolist()
    spec = parse_spec({"q": q, "terms": [{"kind": "exp_linear", "indices": list(range(1, q + 1)), "beta": beta}]})
    run = {
        "subset": lambda: exact.shapley_subset(GameEvaluator(spec)),
        "kernel-paired": lambda: asymptotics.kernel_matrices_exact(GameEvaluator(spec), paired=True),
    }[route]
    _, peak = traced_peak(run)
    assert peak <= 8 * (12 * 2**q + games.CHUNK_ROWS * q)
