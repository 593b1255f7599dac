"""Value-function parsing, normalization, and coalition/permutation helpers."""
import json
import warnings

import numpy as np
import pytest

from pairshap.errors import (
    DimensionError,
    DomainError,
    NonFiniteError,
    SchemaError,
    SizeGuard,
)
from pairshap import exact, games, kernel, permutation
from pairshap.games import TERM_KINDS, GameEvaluator, mask_rows, parse_spec

from conftest import (
    OPPOSITE_INFINITIES_DOC,
    REFERENCE_DOC,
    RowCounter,
    TableGame,
    UnplayableGame,
    random_game_doc,
    traced_peak,
)
from oracles import (
    complement,
    evaluate,
    evaluate_many,
    inverse_positions,
    prefix_coalition,
    reverse_permutation,
)


def test_parse_reference_document():
    spec = parse_spec(json.dumps(REFERENCE_DOC))
    assert spec.q == 4
    assert len(spec.terms) == 1
    assert spec.terms[0].kind == "exp_linear"
    # indices are stored 0-based
    assert list(spec.terms[0].indices) == [0, 1, 2, 3]


def test_reference_game_values():
    spec = parse_spec(REFERENCE_DOC)
    full = evaluate(spec, np.ones(4, dtype=np.uint8))
    assert full == pytest.approx(np.exp(0.2) - 1.0, abs=1e-12)
    assert evaluate(spec, np.zeros(4, dtype=np.uint8)) == 0.0


def test_normalization_is_exact_zero_for_random_games():
    rng = np.random.default_rng(20)
    for trial in range(25):
        q = int(rng.integers(2, 8))
        spec = parse_spec(random_game_doc(rng, q))
        assert evaluate(spec, np.zeros(q, dtype=np.uint8)) == 0.0


def test_linear_game_evaluates_to_dot_product():
    beta = [0.3, -0.7, 0.2]
    spec = parse_spec({"q": 3, "terms": [{"kind": "linear", "indices": [1, 2, 3], "beta": beta}]})
    Z = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]], dtype=np.uint8)
    np.testing.assert_allclose(evaluate_many(spec, Z), Z @ np.asarray(beta), atol=1e-15)


def test_zero_linear_game_is_identically_zero():
    spec = parse_spec({"q": 2, "terms": [{"kind": "linear", "indices": [1, 2], "beta": [0.0, 0.0]}]})
    Z = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    assert np.all(evaluate_many(spec, Z) == 0.0)


def test_multi_term_document_parses():
    doc = {
        "q": 5,
        "terms": [
            {"kind": "bilinear", "indices": [1, 2], "A": [[1.0, 0.5], [0.0, -1.0]]},
            {"kind": "exp_bilinear", "indices": [3, 4, 5], "A": [[0.1] * 3] * 3},
        ],
    }
    spec = parse_spec(doc)
    assert [t.kind for t in spec.terms] == ["bilinear", "exp_bilinear"]


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda d: d.update(q="4"), SchemaError),
        (lambda d: d.update(q=1), DomainError),
        (lambda d: d.update(terms=[]), SchemaError),
        (lambda d: d.update(bogus=1), SchemaError),
        (lambda d: d.pop("terms"), SchemaError),
        (lambda d: d["terms"][0].update(kind="cubic"), SchemaError),
        (lambda d: d["terms"][0].update(indices=[1, 1, 2, 3]), DomainError),
        (lambda d: d["terms"][0].update(indices=[0, 1, 2, 3]), DomainError),
        (lambda d: d["terms"][0].update(indices=[1, 2, 3, 5]), DomainError),
        (lambda d: d["terms"][0].update(beta=[1.0, 2.0]), DimensionError),
        (lambda d: d["terms"][0].pop("beta"), SchemaError),
        (lambda d: d["terms"][0].update(A=[[1.0]]), SchemaError),
        (lambda d: d["terms"][0].update(offset="x"), SchemaError),
        (lambda d: d.update(q=64), SizeGuard),
        (lambda d: d.update(q=100_000_000_000), SizeGuard),
        (lambda d: d["terms"][0].update(beta=["1", 2, 3, 4]), SchemaError),
        (lambda d: d["terms"][0].update(beta=[True, 2, 3, 4]), SchemaError),
        (lambda d: d["terms"][0].update(offset=True), SchemaError),
        (lambda d: d["terms"][0].update(offset=[1.0]), SchemaError),
        (lambda d: d["terms"][0].update(offset=float("inf")), DomainError),
        (lambda d: d["terms"][0].update(offset=10**400), DomainError),
        (lambda d: d["terms"][0].update(beta=[10**400, 2, 3, 4]), DomainError),
    ],
)
def test_parse_rejections(mutate, expected):
    doc = json.loads(json.dumps(REFERENCE_DOC))
    mutate(doc)
    with pytest.raises(expected):
        parse_spec(doc)


def test_parse_rejects_invalid_json_text():
    with pytest.raises(SchemaError):
        parse_spec("{not json")


def test_bilinear_params_shape_checked():
    doc = {"q": 3, "terms": [{"kind": "bilinear", "indices": [1, 2], "A": [[1.0, 2.0]]}]}
    with pytest.raises(DimensionError):
        parse_spec(doc)


def test_overflowing_exponential_raises_non_finite():
    spec = parse_spec(
        {"q": 2, "terms": [{"kind": "exp_linear", "indices": [1, 2], "beta": [500.0, 500.0]}]}
    )
    with pytest.raises(NonFiniteError):
        evaluate(spec, np.ones(2, dtype=np.uint8))


def test_terms_of_opposite_infinite_sign_raise_without_a_warning():
    spec = parse_spec(OPPOSITE_INFINITIES_DOC)
    orders = np.array([[0, 1, 2], [2, 1, 0]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            spec.values(np.array([[1, 1, 0]], dtype=np.uint8))
        with pytest.raises(NonFiniteError):
            spec.value_table()
        # 4 orders of 3 players reach the 8 coalitions: the walk tries the
        # table first, then the rows
        with pytest.raises(NonFiniteError):
            permutation.marginal_vectors(GameEvaluator(spec), orders)


def test_evaluate_rejects_wrong_length_and_non_binary():
    spec = parse_spec(REFERENCE_DOC)
    with pytest.raises(DimensionError):
        evaluate(spec, np.ones(3, dtype=np.uint8))
    with pytest.raises(DomainError):
        evaluate(spec, np.array([2, 0, 0, 0]))
    for bad in (2, 255):
        with pytest.raises(DomainError):
            spec.values(np.array([[0, 1, 0, 0], [0, 0, bad, 0]], dtype=np.uint8))
    assert spec.values(np.zeros((0, 4), dtype=np.uint8)).shape == (0,)


def test_complement_involution_and_size():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = int(rng.integers(2, 12))
        z = rng.integers(0, 2, size=q).astype(np.uint8)
        zc = complement(z)
        np.testing.assert_array_equal(complement(zc), z)
        assert z.sum() + zc.sum() == q
    np.testing.assert_array_equal(complement(np.array([1, 0, 1, 0])), [0, 1, 0, 1])
    np.testing.assert_array_equal(complement(np.ones(4, dtype=np.uint8)), np.zeros(4))


def test_prefix_coalition_definition():
    # players are 0-based internally: order (2,0,1), target player 1
    perm = np.array([2, 0, 1])
    np.testing.assert_array_equal(prefix_coalition(perm, 1), [1, 0, 1])
    np.testing.assert_array_equal(prefix_coalition(perm, 2), [0, 0, 0])
    identity = np.arange(5)
    np.testing.assert_array_equal(prefix_coalition(identity, 0), np.zeros(5))


def test_prefix_chain_is_strictly_increasing():
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = int(rng.integers(2, 9))
        perm = rng.permutation(q)
        previous = np.zeros(q, dtype=np.uint8)
        for t in range(q):
            current = prefix_coalition(perm, int(perm[t])).copy()
            current[perm[t]] = 1
            assert current.sum() == previous.sum() + 1
            assert np.all(current >= previous)
            previous = current
        assert previous.sum() == q


def test_reverse_and_inverse_positions():
    perm = np.array([2, 0, 3, 1])
    np.testing.assert_array_equal(reverse_permutation(reverse_permutation(perm)), perm)
    inv = inverse_positions(perm)
    for j in range(4):
        assert perm[inv[j]] == j


def test_reversal_identity_exhaustive_small_q():
    # prefix of j in the reversed order = complement of (prefix of j plus j)
    import itertools

    for q in range(2, 7):
        for perm in itertools.permutations(range(q)):
            perm = np.asarray(perm)
            rev = reverse_permutation(perm)
            for j in range(q):
                lhs = prefix_coalition(rev, j)
                joined = prefix_coalition(perm, j).copy()
                joined[j] = 1
                np.testing.assert_array_equal(lhs, complement(joined))


def test_evaluator_counts_and_caches_grand_value(reference_spec):
    ev = GameEvaluator(reference_spec)
    assert ev.eval_count == 0
    ev.values_at([[15]])
    assert ev.eval_count == 1
    ev.values_at(np.zeros((5, 1), dtype=np.int64))
    assert ev.eval_count == 6
    first = ev.grand_value()
    second = ev.grand_value()
    assert first == second
    assert ev.eval_count == 7  # cached after one counted call


def test_value_table_is_built_once_read_only_and_counted_per_call(reference_spec):
    game = RowCounter(reference_spec)
    ev = GameEvaluator(game)
    table = ev.value_table()
    # mask order, in two slices of 2^(q-1) rows
    assert game.calls == [8, 8]
    assert np.array_equal(np.concatenate(game.masks), np.arange(16))
    assert ev.eval_count == 16
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1.0
    assert ev.value_table() is table
    assert game.calls == [8, 8]
    assert ev.eval_count == 32
    one_by_one = [reference_spec.values(mask_rows(np.array([m]), 4))[0] for m in range(16)]
    np.testing.assert_allclose(table, one_by_one, rtol=1e-15, atol=0.0)


def test_lookups_after_the_value_table_read_it(reference_spec):
    game = RowCounter(reference_spec)
    ev = GameEvaluator(game)
    table = ev.value_table()
    # fewer masks than coalitions, then more: neither reads rows or builds a
    # table once one is held
    few = np.array([[3, 15], [0, 7], [15, 1]])
    many = np.random.default_rng(5).integers(0, 16, size=(40, 2))
    assert np.array_equal(ev.values_at(few), table[few])
    out = np.empty(many.shape)
    assert ev.values_at(many, out=out) is out
    assert np.array_equal(out, table[many])
    assert ev.grand_value() == table[-1]
    assert game.calls == [8, 8]
    assert ev.eval_count == 16 + few.size + many.size + 1
    # a lookup of at least 2^q masks builds the table and counts only its
    # masks; a later value_table() returns that table and counts 2^q
    game = RowCounter(reference_spec)
    ev = GameEvaluator(game)
    assert np.array_equal(ev.values_at(many), table[many])
    assert game.calls == [8, 8] and ev.eval_count == many.size
    built = ev._table
    assert ev.value_table() is built and ev.eval_count == many.size + 16
    assert np.array_equal(built, table) and game.calls == [8, 8]
    # exp(800) overflows on coalition {1, 3} alone: the build raises and keeps
    # no table, and a lookup whose own masks miss {1, 3} reads indicator rows
    doc = {"q": 3, "terms": [{"kind": "exp_bilinear", "indices": [1, 2, 3], "A": [[0, 0, 800], [0, -1000, 0], [0, 0, 0]]}]}
    spec = parse_spec(doc)
    ev = GameEvaluator(spec)
    masks = np.array([[0, 1, 2, 3, 4, 6, 7, 7, 6, 3]]).T
    got = ev.values_at(masks)
    assert ev._table is None and ev.eval_count == masks.size
    assert np.array_equal(got[:, 0], spec.values(mask_rows(masks[:, 0], 3)))
    with pytest.raises(NonFiniteError):
        ev.values_at(np.full((8, 1), 5))
    assert ev._table is None and ev.eval_count == masks.size


def test_value_only_game_with_a_non_finite_payoff_builds_no_table():
    # a game known only by its `values` is checked like a declared one: its
    # table holds +inf on {2, 3}, so the exact routes raise, the build is not
    # tried again, and a walk that never completes {2, 3} gets finite rows
    payoffs = np.arange(8.0)
    payoffs[6] = np.inf
    game = RowCounter(TableGame(3, payoffs))
    ev = GameEvaluator(game)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (exact.shapley_subset, exact.shapley_all_permutations, exact.shapley_kernel_exact):
            with pytest.raises(NonFiniteError):
                route(ev)
        assert game.calls == [4, 4] and ev._table is None and ev.eval_count == 0
        # no order starts with players 2 and 3, nor, paired, ends with them;
        # 8 orders make at least 2^3 lookups
        orders = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1], [0, 2, 1]] * 2)
        for walked, paired in ((orders, False), (orders[1:3].repeat(4, axis=0), True)):
            B = permutation.marginal_vectors(ev, walked, paired)
            assert np.all(np.isfinite(B))
        assert game.calls == [4, 4] + [8] * 9
        # a lookup of 2^3 masks sends its rows, and builds no table again
        assert np.array_equal(ev.values_at(np.array([[5]] * 8)), np.full((8, 1), 5.0))
        assert game.calls == [4, 4] + [8] * 10 and ev._table is None


@pytest.mark.parametrize("paired", [False, True])
def test_row_lookups_refuse_a_non_finite_payoff_of_a_value_only_game(paired):
    # a q = 3 game known only by its values, worth +inf on players {2, 3}
    # (mask 6): fewer than 2^3 lookups evaluate rows, which refuse that
    # payoff and count nothing
    payoffs = np.arange(8.0)
    payoffs[6] = np.inf
    ev = GameEvaluator(TableGame(3, payoffs))
    with pytest.raises(NonFiniteError):
        ev.values_at([[6]])
    assert np.array_equal(ev.values_at([[1, 3, 7]]), [[1.0, 3.0, 7.0]])
    ev.eval_count = 0
    # neither order, nor its reverse, has {2, 3} as a prefix
    B = permutation.marginal_vectors(ev, np.array([[1, 0, 2], [2, 0, 1]]), paired)
    assert np.all(np.isfinite(B)) and ev.eval_count == (2 if paired else 1) * 6
    with pytest.raises(NonFiniteError):
        permutation.marginal_vectors(ev, np.array([[1, 0, 2], [1, 2, 0]]), paired)
    assert ev.eval_count == (2 if paired else 1) * 6


def test_a_streamed_walk_raises_at_the_first_block_that_visits_a_non_finite_payoff():
    # one block more than np.getbufsize() orders: the table build is refused,
    # the first block's prefixes are evaluated as rows, column by column, and
    # the second block's one order starts with players 2 and 3
    payoffs = np.arange(8.0)
    payoffs[6] = np.inf
    game = RowCounter(TableGame(3, payoffs))
    ev = GameEvaluator(game)
    step = np.getbufsize()
    perms = np.array([[0, 1, 2]] * step + [[2, 1, 0]])
    with pytest.raises(NonFiniteError):
        permutation.marginal_vectors(ev, perms)
    assert game.calls == [4, 4] + [step] * 3 + [1, 1]
    assert ev.eval_count == 0 and ev._table is None


def test_value_table_refuses_more_than_25_players_before_allocating():
    ev = GameEvaluator(UnplayableGame(26))
    _, peak = traced_peak(lambda: pytest.raises(SizeGuard, ev.value_table))
    # a table of 2^26 floats would take 512 MB
    assert peak < 2**20
    assert ev.eval_count == 0


def test_evaluator_wraps_table_games(hand_game_q3):
    assert hand_game_q3.q == 3
    np.testing.assert_array_equal(hand_game_q3.values_at([[1], [7]]), [[1.0], [17.0]])


def same_bits(a, b) -> bool:
    """Whether two float arrays hold the same bits, so 0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def one_kind_doc(rng: np.random.Generator, kind: str, q: int) -> dict:
    """One to three terms of one kind; the first reads every player, in order or shuffled."""
    terms = []
    for t in range(int(rng.integers(1, 4))):
        k = q if t == 0 else int(rng.integers(1, q + 1))
        order = np.arange(q) if t == 0 and rng.random() < 0.5 else rng.permutation(q)
        term = {"kind": kind, "indices": [int(i) + 1 for i in order[:k]], "offset": float(rng.uniform(-1, 1))}
        # coefficients of mixed magnitudes, so that the order of additions shows
        shape = (k,) if kind in games.LINEAR_KINDS else (k, k)
        top = 0 if kind.startswith("exp") else 3
        coeffs = rng.uniform(-1, 1, size=shape) * 10.0 ** rng.integers(-3, top, size=shape) / k
        term["beta" if kind in games.LINEAR_KINDS else "A"] = coeffs.tolist()
        terms.append(term)
    return {"q": q, "terms": terms}


@pytest.mark.parametrize("kind", TERM_KINDS)
def test_value_table_is_the_rows_to_the_bit(kind):
    # the spec's table, its rows in any batches and order, and every path
    # of values_at give one payoff per coalition
    rng = np.random.default_rng(TERM_KINDS.index(kind) + 50)
    for trial in range(40):
        q = int(rng.integers(2, 11))
        doc = one_kind_doc(rng, kind, q)
        if kind not in games.LINEAR_KINDS and trial % 2:
            # a -0.0 payoff read off a term's own table must still come out 0.0
            doc["terms"] = [dict(term, offset=-0.0) for term in doc["terms"]]
        spec = parse_spec(doc)
        table = spec.value_table()
        order = rng.permutation(2**q)
        cuts = np.sort(rng.choice(np.arange(1, 2**q), size=min(6, 2**q - 1), replace=False))
        batches = [order[i : i + 1] for i in range(4)] + np.split(order, cuts)
        for batch in batches:
            assert same_bits(spec.values(mask_rows(batch, q)), table[batch])
        few = rng.integers(0, 2**q, size=(int(rng.integers(1, 2**q)), 1))
        many = rng.integers(0, 2**q, size=(2**q + 3, 2))
        ev = GameEvaluator(spec)
        rows, tabled = ev.values_at(few), ev.values_at(many)
        ev.value_table()
        assert same_bits(rows, table[few]) and same_bits(ev.values_at(few), rows)
        assert same_bits(tabled, table[many]) and same_bits(ev.values_at(many), tabled)
        assert same_bits(ev.value_table(), table)


def test_bilinear_term_tables_evaluate_their_own_players(monkeypatch):
    # a 3-player term of a 16-player game is evaluated on its 2^3 own
    # coalitions, not on 2^16 indicator rows, and spread to the table
    shapes = []
    form = games._quadratic_form

    def recorded(zsub, A):
        shapes.append(zsub.shape)
        return form(zsub, A)

    monkeypatch.setattr(games, "_quadratic_form", recorded)
    rng = np.random.default_rng(71)
    q = 16
    for kind in ("bilinear", "exp_bilinear"):
        A = rng.uniform(-0.5, 0.5, size=(3, 3)).tolist()
        spec = parse_spec({"q": q, "terms": [{"kind": kind, "indices": [9, 2, 14], "A": A, "offset": 0.25}]})
        shapes.clear()
        table = spec.value_table()
        # 8 rows, in two mask-order chunks of 2^(k-1)
        assert shapes == [(4, 3), (4, 3)]
        masks = np.arange(0, 2**q, 37)
        assert same_bits(table[masks], spec.values(mask_rows(masks, q)))


@pytest.mark.parametrize("width", range(1, 9))
def test_bilinear_payoffs_do_not_depend_on_their_batch(width):
    # a form over two players once rounded differently in a batch of one row
    rng = np.random.default_rng(width + 60)
    q = width + 1
    seeds = range(8)
    for kind in ("bilinear", "exp_bilinear"):
        for _ in range(20):
            A = rng.uniform(-1, 1, size=(width, width)) * 10.0 ** rng.integers(-3, 1, size=(width, width)) / width
            term = {"kind": kind, "indices": list(range(1, width + 1)), "A": A.tolist()}
            spec = parse_spec({"q": q, "terms": [term]})
            masks = rng.integers(0, 2**q, size=40)
            alone = [spec.values(mask_rows(masks[i : i + 1], q))[0] for i in range(masks.size)]
            assert same_bits(spec.values(mask_rows(masks, q)), alone)
            # a stack reads the table of its cell's evaluator; a lone estimate
            # evaluates its grand value as one row and its 2q draws as a batch
            ev = GameEvaluator(spec)
            ev.value_table()
            stacked = kernel.estimate_kernel_stack(ev, 2 * q, seeds)
            for seed, vector in zip(seeds, stacked):
                assert same_bits(vector.phi, kernel.estimate_kernel(GameEvaluator(spec), 2 * q, seed=seed)[0].phi)


@pytest.mark.parametrize("indices", [list(range(1, 21)), list(range(1, 21, 2))], ids=["full-width", "half-width"])
def test_value_table_build_memory(indices):
    # the table, the term's own table and a few chunk-sized temporaries: a
    # 2^q index array, or a second 2^q float array, would go past the bound
    q, k = 20, len(indices)
    beta = np.random.default_rng(70).uniform(-0.3, 0.3, size=k).tolist()
    spec = parse_spec({"q": q, "terms": [{"kind": "exp_linear", "indices": indices, "beta": beta}]})
    table, peak = traced_peak(spec.value_table)
    # the bytes of the finiteness check's boolean array are the 2^q beyond 8 * 2^q
    assert peak <= 9 * 2**q + 8 * (2**k + 4 * games.CHUNK_ROWS)
    assert same_bits(table[:: 2 ** (q // 2)], spec.values(mask_rows(np.arange(0, 2**q, 2 ** (q // 2)), q)))
