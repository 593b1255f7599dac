"""Permutation estimators: walks, pairing, group sums, separated games."""
import itertools
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.stats import chi2

from pairshap import asymptotics, exact, games, kernel, permutation
from pairshap.estimators import ESTIMATORS
from pairshap.errors import DomainError, NonFiniteError, PartitionError, SizeGuard
from pairshap.games import GameEvaluator, mask_rows, member_masks, parse_spec
from pairshap.streams import derive_rng

from conftest import (
    OVERFLOWING_GAIN_DOC,
    REFERENCE_PHI,
    LateInfinity,
    RowCounter,
    TableGame,
    UnplayableGame,
    bilinear_shapley,
    random_bilinear_doc,
    random_game_doc,
    separated_doc,
    three_block_doc,
    traced_peak,
)
from oracles import (
    evaluate,
    evaluate_many,
    marginal_vector,
    marginal_vectors,
    prefix_coalition,
    SpecError,
    separated_exact_check,
    two_pass_covariance,
    walk_rows,
)


def walk_by_rows(ev, perms) -> np.ndarray:
    """Reference walk: q batches of n indicator rows, one batch per prefix length."""
    perms = np.asarray(perms)
    n, q = perms.shape
    rows = np.arange(n)
    Z = np.zeros((n, q), dtype=np.uint8)
    gains = np.empty((n, q))
    previous = np.zeros(n)
    for t in range(q):
        Z[rows, perms[:, t]] = 1
        current = evaluate_many(ev.game, Z)
        gains[:, t] = current - previous
        previous = current
    B = np.empty_like(gains)
    np.put_along_axis(B, perms, gains, axis=1)
    return B


def lookup_walk(table, perms, paired=False) -> np.ndarray:
    """Reference walk: the prefixes of every order looked up in the value table, as walks of fewer than 2^q orders run."""
    return walk_rows(perms, partial(exact.lookup_gains, partial(np.take, table, mode="clip"), paired))


def table_walk(table, perms, paired=False) -> np.ndarray:
    """The walk of 2^q orders or more: every gain gathered from the gain table of the value table."""
    return walk_rows(perms, partial(exact.table_gains, exact.gain_table(table, paired)))


def walk_sizes(q: int) -> tuple[int, int]:
    """Order counts just below and at the switch from indicator rows to the value table.

    Below it the walk's n * q prefixes are fewer than the 2^q coalitions;
    at it they are at least as many, and the walk builds the table.
    """
    below = (2**q - 1) // q
    return below, below + 1


def drawn_orders(q: int, n: int, seed) -> np.ndarray:
    """The n orders an estimate seeded by `seed` walks."""
    return permutation.sample_permutations(q, n, derive_rng(seed, 0))


def assert_estimate_folds(drawn, rows) -> None:
    """An `estimate_permutation` result has the bits of the mean of rows, halved if paired.

    Its fold has the bits of their two-pass covariance too when it holds at
    least two rows and at most one chunk.
    """
    vector, moments = drawn
    assert vector.phi.tobytes() == (rows.mean(axis=0) * (0.5 if moments.paired else 1.0)).tobytes()
    if 1 < rows.shape[0] <= np.getbufsize():
        assert moments.covariance().tobytes() == two_pass_covariance(rows, moments.paired).tobytes()


def test_marginal_vectors_match_row_walk():
    # the estimate folds the rows of the reference walk, to the bit, whether
    # it looks its prefixes up as rows or in the value table
    rng = np.random.default_rng(90)
    kinds = set()
    for q in range(2, 13):
        for n in walk_sizes(q):
            doc = random_game_doc(rng, q)
            kinds.update(term["kind"] for term in doc["terms"])
            spec = parse_spec(doc)
            seed = [90, q, n]
            expected = walk_by_rows(GameEvaluator(spec), drawn_orders(q, n, seed))
            assert_estimate_folds(permutation.estimate_permutation(GameEvaluator(spec), n, seed=seed), expected)
    assert kinds == {"linear", "bilinear", "exp_linear", "exp_bilinear"}


def test_marginal_vectors_physical_rows_and_logical_count():
    # below the switch each prefix column is n indicator rows; at it the game
    # sees the value table's two mask-order chunks of 2^(q-1) rows once, and
    # a second walk on the same evaluator reads the table and sends no rows
    rng = np.random.default_rng(91)
    for q in range(2, 13):
        spec = parse_spec(random_game_doc(rng, q))
        row_n, table_n = walk_sizes(q)
        for n, tabulated in ((row_n, False), (table_n, True)):
            game = RowCounter(spec)
            ev = GameEvaluator(game)
            permutation.estimate_permutation(ev, n, seed=[91, q, n])
            assert ev.eval_count == n * q
            if tabulated:
                assert game.calls == [2 ** (q - 1)] * 2
                assert np.array_equal(np.concatenate(game.masks), np.arange(2**q))
                permutation.estimate_permutation(ev, n, seed=[91, q, n])
                assert game.calls == [2 ** (q - 1)] * 2 and ev.eval_count == 2 * n * q
            else:
                assert max(game.calls) <= n
                assert game.calls == [n] * q


def test_paired_marginal_vectors_match_two_one_way_walks():
    rng = np.random.default_rng(94)
    kinds = set()
    for q in range(2, 13):
        for n in walk_sizes(q):
            doc = random_game_doc(rng, q)
            kinds.update(term["kind"] for term in doc["terms"])
            spec = parse_spec(doc)
            seed = [94, q, n]
            perms = drawn_orders(q, n, seed)
            expected = walk_by_rows(GameEvaluator(spec), perms) + walk_by_rows(GameEvaluator(spec), perms[:, ::-1])
            ev = GameEvaluator(spec)
            assert_estimate_folds(permutation.estimate_permutation(ev, n, paired=True, seed=seed), expected)
            assert ev.eval_count == 2 * q * n
            table = GameEvaluator(spec).value_table()
            both = lookup_walk(table, perms) + lookup_walk(table, perms[:, ::-1])
            assert np.array_equal(lookup_walk(table, perms, paired=True), both), (q, n)
    assert kinds == {"linear", "bilinear", "exp_linear", "exp_bilinear"}


def test_paired_walk_physical_rows():
    # at the switch the forward prefixes build the value table, and the
    # reverse order's prefixes read it: the game sees the 2^q coalitions once,
    # in mask order, and a second paired walk sends no rows
    rng = np.random.default_rng(95)
    for q in range(2, 13):
        spec = parse_spec(random_game_doc(rng, q))
        row_n, table_n = walk_sizes(q)
        for n, tabulated in ((row_n, False), (table_n, True)):
            game = RowCounter(spec)
            ev = GameEvaluator(game)
            permutation.estimate_permutation(ev, n, paired=True, seed=[95, q, n])
            assert ev.eval_count == 2 * q * n
            if tabulated:
                assert game.calls == [2 ** (q - 1)] * 2
                assert np.array_equal(np.concatenate(game.masks), np.arange(2**q)), q
                permutation.estimate_permutation(ev, n, paired=True, seed=[95, q, n])
                assert game.calls == [2 ** (q - 1)] * 2 and ev.eval_count == 4 * q * n
            else:
                assert max(game.calls) <= n
                assert game.calls == [n] * (2 * q)


@pytest.fixture
def gain_walks(monkeypatch) -> list[int]:
    """Row counts of the blocks of every walk that gathers from a gain table (`exact.table_gains`) during the test."""
    calls: list[int] = []
    gather = exact.table_gains

    def counted(gains, masks, block):
        calls.append(len(block))
        return gather(gains, masks, block)

    monkeypatch.setattr(exact, "table_gains", counted)
    return calls


def test_gain_walk_is_the_lookup_walk_bit_for_bit(gain_walks):
    # from n = 2^q orders the walk gathers from the gain table; it must give
    # the prefix lookups' bits, on every term kind, with -0.0 offsets too
    rng = np.random.default_rng(96)
    kinds = set()
    for q in range(2, 11):
        for rep in range(4):
            doc = random_game_doc(rng, q)
            if rep % 2:
                for term in doc["terms"]:
                    term["offset"] = -0.0
            kinds.update(term["kind"] for term in doc["terms"])
            spec = parse_spec(doc)
            table = GameEvaluator(spec).value_table()
            for n in (2**q - 1, 2**q):
                seed = [96, q, rep, n]
                perms = drawn_orders(q, n, seed)
                for paired in (False, True):
                    expected = lookup_walk(table, perms, paired)
                    direct = table_walk(table, perms, paired)
                    assert direct.tobytes() == expected.tobytes(), (q, n, paired)
                    gain_walks.clear()
                    ev = GameEvaluator(spec)
                    assert_estimate_folds(permutation.estimate_permutation(ev, n, paired, seed), expected)
                    assert gain_walks == ([n] if n == 2**q else [])
                    assert ev.eval_count == (2 if paired else 1) * n * q
    assert kinds == {"linear", "bilinear", "exp_linear", "exp_bilinear"}


def test_gain_table_entries_are_the_walk_gains():
    # entry (T, j) is v(T) - v(T - j), plus v(N - T + j) - v(N - T) paired,
    # for T holding j, and zero elsewhere
    q = 4
    table = np.random.default_rng(97).normal(size=2**q)
    table[0] = 0.0
    full = 2**q - 1
    for paired in (False, True):
        gains = exact.gain_table(table, paired)
        assert gains.shape == (2**q, q)
        for T in range(2**q):
            for j in range(q):
                bit = 1 << j
                if not T & bit:
                    assert gains[T, j] == 0.0
                    continue
                expected = table[T] - table[T ^ bit]
                if paired:
                    expected += table[full ^ T ^ bit] - table[full ^ T]
                assert gains[T, j] == expected


@pytest.mark.parametrize("q", range(2, 10))
def test_exact_walk_routes_are_the_lookup_walk_bit_for_bit(q):
    # phi has the bits of the mean of the q! rows of the lookup walk.  The
    # covariance of up to np.getbufsize() rows (q <= 7) is folded in one
    # chunk, to the two-pass bits; q = 8 and 9 fold several chunks, within
    # 1e-13 of max|cov| of the two passes, or of the squared largest gain
    # where the covariance is roundoff
    rng = np.random.default_rng(500 + q)
    spec = parse_spec(random_game_doc(rng, q))
    table = GameEvaluator(spec).value_table()
    perms = np.array(list(itertools.permutations(range(q))), dtype=np.int64)
    phi = exact.shapley_all_permutations(GameEvaluator(spec)).phi
    assert phi.tobytes() == lookup_walk(table, perms).mean(axis=0).tobytes()
    for paired in (False, True):
        report = asymptotics.permutation_covariance_exact(GameEvaluator(spec), paired)
        walked = lookup_walk(table, perms, paired)
        expected = two_pass_covariance(walked, paired)
        if len(perms) <= np.getbufsize():
            assert report.matrix.tobytes() == (0.5 * (expected + expected.T)).tobytes(), paired
        else:
            scale = max(np.abs(expected).max(), (np.abs(walked).max() * (0.5 if paired else 1.0)) ** 2)
            np.testing.assert_allclose(report.matrix, expected, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("paired", [False, True])
def test_overflowing_gains_are_the_same_bits_from_both_sources(gain_walks, paired):
    # an overflowing gain is left non-finite, without a warning, by the
    # lookups and by the gain table alike, to the same bits; the estimators
    # and covariances that read it refuse it with NonFiniteError
    spec = parse_spec(OVERFLOWING_GAIN_DOC)
    table = GameEvaluator(spec).value_table()
    assert np.all(np.isfinite(table))
    perms = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = lookup_walk(table, perms, paired)
        assert not np.all(np.isfinite(expected))
        assert table_walk(table, perms, paired).tobytes() == expected.tobytes()
        # 3 orders look their prefixes up in the table the walk builds, 4
        # gather; each draw holds an order [0, 1], whose gain overflows
        for n in (3, 4):
            assert (drawn_orders(2, n, 1)[:, 0] == 0).any()
            gain_walks.clear()
            ev = GameEvaluator(spec)
            with pytest.raises(NonFiniteError):
                permutation.estimate_permutation(ev, n, paired, seed=1)
            assert gain_walks == ([n] if n == 4 else [])
            assert ev.eval_count == (2 if paired else 1) * n * 2


@pytest.mark.parametrize("bad", [[0, 0, 1], [-1, 0, 1], [0, 1, 3], [2, 2, 2]])
@pytest.mark.parametrize("paired", [False, True])
def test_walks_refuse_rows_that_are_not_orders(hand_game_q3, bad, paired):
    # the walk checks each block before its source reads a gain: through the
    # evaluator's lookups, which count nothing, or from the gain table
    table = hand_game_q3.value_table()
    count = hand_game_q3.eval_count
    for perms in (np.array([bad]), np.array([[2, 0, 1]] * 7 + [bad])):
        with pytest.raises(DomainError):
            marginal_vectors(hand_game_q3, perms, paired)
        assert hand_game_q3.eval_count == count
        with pytest.raises(DomainError):
            table_walk(table, perms, paired)


@pytest.mark.parametrize("paired", [False, True])
def test_a_walk_that_raises_in_a_later_block_counts_nothing(paired):
    # q = 18 walks of fewer than 2^18 lookups send their prefixes as rows, q
    # columns a block (2q paired), and the game turns non-finite at the
    # second block's first column.  A lone estimate of np.getbufsize() + 10
    # orders, and a stack of 8 replicates of 100 orders, 4 to a block, each
    # walk their first block, raise, and count nothing.
    q, step = 18, np.getbufsize()
    spec = parse_spec({"q": q, "terms": [{"kind": "linear", "indices": list(range(1, q + 1)), "beta": [1.0] * q}]})
    columns = (2 if paired else 1) * q
    for walk, rows in (
        (lambda ev: permutation.estimate_permutation(ev, step + 10, paired, seed=1), [step] * columns + [10]),
        (lambda ev: permutation.estimate_permutation_stack(ev, 100, list(range(8)), paired), [400] * (columns + 1)),
    ):
        game = LateInfinity(spec, columns)
        ev = GameEvaluator(game)
        with pytest.raises(NonFiniteError):
            walk(ev)
        assert game.calls == rows
        assert ev.eval_count == 0 and ev._table is None


@pytest.mark.parametrize("paired", [False, True])
def test_gain_walk_memory_stays_within_three_order_arrays(paired):
    # q = 12 walks from the gain table from n = 2^12 = 4096 orders.  With the
    # value table built in the trace, the estimate's traced peak stays below
    # the gain table's q 2^q floats, 9 bytes per coalition (the value table
    # and its finiteness check) and five blocks of np.getbufsize() x q
    # entries (the drawn orders, their gains, the prefixes, the scatter
    # targets and the fold's temporaries): less than three n x q float
    # arrays.  n spans several of the walk's blocks.
    q, n = 12, 20_000
    ev = GameEvaluator(parse_spec({"q": q, "terms": [{"kind": "linear", "indices": list(range(1, q + 1)), "beta": [1.0] * q}]}))
    (vector, _), peak = traced_peak(lambda: permutation.estimate_permutation(ev, n, paired, seed=98))
    np.testing.assert_allclose(vector.phi, 1.0, atol=1e-12)
    bound = 8 * q * 2**q + 9 * 2**q + 5 * 8 * np.getbufsize() * q
    assert peak <= bound < 3 * 8 * n * q


def test_permutation_plugin_reuses_the_estimate_walk(reference_spec):
    n, seed = 40, 17
    for name in ("permutation", "permutation-paired"):
        estimator = ESTIMATORS[name]
        game = RowCounter(reference_spec)
        ev = GameEvaluator(game)
        drawn = estimator.estimate(ev, n, seed)
        calls, evaluations = list(game.calls), ev.eval_count
        report = estimator.plugin_covariance(ev, n, seed, drawn)
        assert game.calls == calls and ev.eval_count == evaluations
        fresh = estimator.plugin_covariance(GameEvaluator(reference_spec), n, seed)
        assert np.array_equal(report.matrix, fresh.matrix)
        assert report.provenance == fresh.provenance == f"plug-in(n={n}, seed={seed})"
        assert report.method == fresh.method == name


@pytest.mark.parametrize("q", [2, 4, 9, 63])
def test_drawing_orders_block_by_block_is_one_draw(q):
    # rows drawn as consecutive blocks of one reused buffer are the rows of
    # one draw, and leave the generator in the same state
    n = 20_000 if q < 63 else 300
    whole = permutation.sample_permutations(q, n, derive_rng(51, q))
    expected = derive_rng(51, q)
    permutation.sample_permutations(q, n, expected)
    for block in (3, 7, np.getbufsize()):
        rng = derive_rng(51, q)
        buffer = np.empty((block, q), dtype=np.int64)
        parts = []
        for start in range(0, n, block):
            m = min(block, n - start)
            parts.append(permutation.sample_permutations(q, m, rng, out=buffer[:m]).copy())
        assert np.array_equal(np.concatenate(parts), whole), block
        assert rng.bit_generator.state == expected.bit_generator.state, block


@pytest.mark.parametrize("paired", [False, True])
@pytest.mark.parametrize("n, reps", [(5, 7), (256, 3), (np.getbufsize(), 2), (np.getbufsize() + 5, 3), (20_000, 2)])
def test_stacked_walks_are_lone_walks_and_the_mean_of_the_rows(n, reps, paired):
    # a stack streams each replicate's orders in chunks counted from its own
    # first row, and folds only their row sums, to the bits of the lone
    # fold's; phi has the bits of the mean of the drawn orders' marginal
    # vectors, and a lone fold of one chunk has the two-pass covariance's bits
    spec = parse_spec(random_game_doc(np.random.default_rng(52), 5))
    seeds = [np.random.SeedSequence([53, n, rep]) for rep in range(reps)]
    stacked = permutation.estimate_permutation_stack(GameEvaluator(spec), n, seeds, paired)
    for seed, vector in zip(seeds, stacked):
        lone, moments = permutation.estimate_permutation(GameEvaluator(spec), n, paired, seed=seed)
        assert vector.phi.tobytes() == lone.phi.tobytes()
        B = marginal_vectors(GameEvaluator(spec), drawn_orders(5, n, seed), paired)
        assert vector.phi.tobytes() == (B.mean(axis=0) * (0.5 if paired else 1.0)).tobytes()
        if n > 1 and n <= np.getbufsize():
            assert moments.covariance().tobytes() == two_pass_covariance(B, paired).tobytes()


@pytest.mark.parametrize("paired", [False, True])
@pytest.mark.parametrize("n", [5, 8192, 20_000])
def test_walk_sum_is_the_row_sum_of_walk_moments(n, paired):
    # rows of mixed scales, folded in chunks of np.getbufsize() rows, as a walk folds them
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(n, 6)) * 10.0 ** rng.integers(-3, 4, size=6)
    folds = exact.WalkSum(paired), exact.WalkMoments(paired)
    for fold in folds:
        for start in range(0, n, np.getbufsize()):
            fold.add(rows[start : start + np.getbufsize()].copy())
    assert folds[0].count == folds[1].count == n
    assert folds[0].row_sum.tobytes() == folds[1].row_sum.tobytes()
    assert folds[0].row_sum.tobytes() == rows.sum(axis=0).tobytes()


@pytest.mark.parametrize("paired", [False, True])
def test_plugin_from_the_estimate_is_a_fresh_plugin_beyond_one_block(paired):
    n, seed = 20_000, 54
    spec = parse_spec(three_block_doc(np.random.default_rng(55)))
    estimator = ESTIMATORS["permutation-paired" if paired else "permutation"]
    ev = GameEvaluator(spec)
    drawn = estimator.estimate(ev, n, seed)
    evaluations = ev.eval_count
    report = estimator.plugin_covariance(ev, n, seed, drawn)
    assert ev.eval_count == evaluations
    fresh = estimator.plugin_covariance(GameEvaluator(spec), n, seed)
    assert report.matrix.tobytes() == fresh.matrix.tobytes()
    assert report.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()


@pytest.mark.parametrize("paired", [False, True])
def test_folded_covariance_of_gains_with_a_large_mean(paired):
    # gains near 1e8 from a linear term, spread about 1 by an exp_bilinear
    # term: a fold of several chunks stays within 1e-13 of max|cov| of the
    # two passes.  The two passes run on the rows less their first row, an
    # exact shift, so that their own mean is accurate; on the raw rows the
    # rounding of their mean alone moves them by more than that.
    q, n, seed = 9, 30_000, 56
    rng = np.random.default_rng(57)
    doc = {
        "q": q,
        "terms": [
            {"kind": "linear", "indices": list(range(1, q + 1)), "beta": (1e8 * rng.uniform(1.0, 1.1, size=q)).tolist()},
            {"kind": "exp_bilinear", "indices": list(range(1, q + 1)), "A": rng.normal(0.0, 0.35, size=(q, q)).tolist()},
        ],
    }
    spec = parse_spec(doc)
    B = marginal_vectors(GameEvaluator(spec), drawn_orders(q, n, seed), paired)
    assert np.abs(B.mean(axis=0)).min() > (1e8 if paired else 5e7) and B.std(axis=0).max() < 10
    expected = two_pass_covariance(B - B[0], paired)
    got = asymptotics.permutation_covariance_plugin(GameEvaluator(spec), n, seed=seed, paired=paired).matrix
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


def test_plugin_memory_does_not_grow_with_the_orders():
    # a paired q = 9 plug-in streams its orders: at n = 50 000 and at
    # n = 400 000 its traced peak stays below the gain table, the value table
    # with its finiteness check (9 bytes per coalition) and five blocks of
    # np.getbufsize() x q entries (the drawn orders, their gains, the
    # prefixes, the scatter targets and the fold's temporaries), and the two
    # peaks differ by less than one block column.  A walk that holds its
    # orders or its gains needs an n x q array, past the bound at either n.
    q = 9
    spec = parse_spec(three_block_doc(np.random.default_rng(58)))
    asymptotics.permutation_covariance_plugin(GameEvaluator(spec), 100, seed=1)  # one-time imports
    peaks = [
        traced_peak(lambda: asymptotics.permutation_covariance_plugin(GameEvaluator(spec), n, seed=59))[1]
        for n in (50_000, 400_000)
    ]
    bound = 8 * q * 2**q + 9 * 2**q + 5 * 8 * np.getbufsize() * q
    assert max(peaks) <= bound < 8 * 50_000 * q
    assert abs(peaks[1] - peaks[0]) <= 8 * np.getbufsize()


@pytest.mark.parametrize("n", [14_000, 15_000])
def test_walk_memory_stays_within_three_order_arrays(n):
    # q = 18 switches from indicator rows to the value table at
    # n = ceil(2^18 / 18) = 14564: n = 14 000 walks the row path and n = 15 000
    # builds the evaluator's table, which outlives the walk.  Either way the
    # estimate's traced peak, temporaries included, stays below 9 bytes per
    # coalition when it builds the table (the table and the boolean array of
    # its finiteness check) and five blocks of np.getbufsize() x q entries
    # (the drawn orders, their gains, the prefixes, the scatter targets, and
    # the rows of one prefix column or the fold's temporaries); paired, one
    # more block holds the reverse prefixes.  The one-way peak stays below
    # three n x q float arrays.
    q = 18
    tables = 9 * 2**q if n * q >= 2**q else 0
    for paired in (False, True):
        ev = GameEvaluator(parse_spec({"q": q, "terms": [{"kind": "linear", "indices": list(range(1, q + 1)), "beta": [1.0] * q}]}))
        (vector, _), peak = traced_peak(lambda: permutation.estimate_permutation(ev, n, paired, seed=93))
        np.testing.assert_allclose(vector.phi, 1.0, atol=1e-12)
        assert peak <= tables + (6 if paired else 5) * 8 * np.getbufsize() * q
        assert paired or peak <= 3 * 8 * n * q + tables


@pytest.mark.parametrize("paired", [False, True])
def test_table_switch_is_decided_once_per_walk(paired):
    # q = 18 switches to the value table at n = ceil(2^18 / 18) = 14564 orders,
    # decided from all n q lookups, though each block of the walk holds fewer
    # than 2^18 of them: n = 15 000 shows the game the table's 2^18 rows once,
    # and n = 14 000 its n q prefixes as rows (2 n q paired), block by block
    q = 18
    assert 14_000 * q < 2**q <= 15_000 * q and np.getbufsize() * q < 2**q
    spec = parse_spec(random_game_doc(np.random.default_rng(101), q))
    for n, tabulated in ((15_000, True), (14_000, False)):
        game = RowCounter(spec)
        ev = GameEvaluator(game)
        drawn = permutation.estimate_permutation(ev, n, paired, seed=102)
        assert ev.eval_count == (2 if paired else 1) * n * q
        if tabulated:
            assert np.array_equal(np.concatenate(game.masks), np.arange(2**q))
        else:
            assert sum(game.calls) == (2 if paired else 1) * n * q
            assert max(game.calls) <= np.getbufsize()
            assert ev._table is None
        perms = drawn_orders(q, n, 102)
        expected = walk_by_rows(GameEvaluator(spec), perms)
        if paired:
            expected += walk_by_rows(GameEvaluator(spec), perms[:, ::-1])
        assert_estimate_folds(drawn, expected)


@pytest.mark.parametrize("paired", [False, True])
def test_a_stack_decides_its_tables_from_one_replicate(gain_walks, paired):
    # 20 replicates of n = 1 000 orders make 360 000 >= 2^18 lookups at
    # q = 18, but one replicate makes 18 000: the stack builds no value table
    # and looks its blocks' prefixes up as rows, as each lone walk does
    q, n, reps = 18, 1000, 20
    assert n * q < 2**q <= reps * n * q
    spec = parse_spec(random_game_doc(np.random.default_rng(103), q))
    game = RowCounter(spec)
    ev = GameEvaluator(game)
    seeds = [[104, rep] for rep in range(reps)]
    stacked = permutation.estimate_permutation_stack(ev, n, seeds, paired)
    assert ev._table is None and gain_walks == []
    assert sum(game.calls) == ev.eval_count == (2 if paired else 1) * reps * n * q
    for seed, vector in zip(seeds[:2], stacked):
        lone, _ = permutation.estimate_permutation(GameEvaluator(spec), n, paired, seed=seed)
        assert vector.phi.tobytes() == lone.phi.tobytes()


@pytest.mark.parametrize("paired", [False, True])
def test_row_walk_memory_is_one_order_array_and_four_blocks(paired):
    # q = 26 is beyond the value table, so every block's prefixes are sent as
    # rows.  Over several blocks the estimate's traced peak stays below five
    # blocks of np.getbufsize() x q entries: the drawn orders, their gains,
    # the prefixes, the scatter targets, and the rows of one prefix column
    # with the game's own temporaries; paired, one more block holds the
    # reverse prefixes.  That is less than one n x q float array and four
    # blocks, which a walk that held its orders or its gains would exceed.
    q, n = 26, 50_000
    ev = GameEvaluator(parse_spec({"q": q, "terms": [{"kind": "linear", "indices": list(range(1, q + 1)), "beta": [1.0] * q}]}))
    (vector, _), peak = traced_peak(lambda: permutation.estimate_permutation(ev, n, paired, seed=103))
    np.testing.assert_allclose(vector.phi, 1.0, atol=1e-12)
    assert ev._table is None and n > 3 * np.getbufsize()
    bound = (6 if paired else 5) * 8 * np.getbufsize() * q
    assert peak <= bound < 8 * n * q + 4 * 8 * np.getbufsize() * q


def test_sampler_refuses_orders_over_the_limit(monkeypatch):
    with pytest.raises(SizeGuard):
        permutation.sample_permutations(9, 10**12, derive_rng(94))
    monkeypatch.setattr(games, "DRAW_LIMIT", 45)
    assert permutation.sample_permutations(9, 5, derive_rng(94)).shape == (5, 9)
    with pytest.raises(SizeGuard):
        permutation.sample_permutations(9, 6, derive_rng(94))


@pytest.mark.parametrize("bad", [-1, 8, 2**40])
def test_values_at_rejects_masks_outside_the_coalitions(hand_game_q3, bad):
    masks = np.array([[1, 3, 7], [4, 6, 7]], dtype=np.int64)
    expected = hand_game_q3.game.values(mask_rows(masks.ravel(), 3)).reshape(2, 3)
    np.testing.assert_array_equal(hand_game_q3.values_at(masks), expected)
    masks[1, 2] = bad
    with pytest.raises(DomainError):
        hand_game_q3.values_at(masks)
    assert hand_game_q3.eval_count == 6


def test_mask_rows_unpacks_bits_in_player_order():
    masks = np.array([0, 1, 6, 2**62 + 5], dtype=np.int64)
    Z = mask_rows(masks, 63)
    assert Z.dtype == np.uint8 and Z.shape == (4, 63)
    np.testing.assert_array_equal(Z, (masks[:, None] >> np.arange(63)) & 1)
    np.testing.assert_array_equal(member_masks(Z.astype(bool)), masks)
    np.testing.assert_array_equal(mask_rows(masks[:3], 3), [[0, 0, 0], [1, 0, 0], [0, 1, 1]])


def overflow_on_13_game() -> GameEvaluator:
    """q=3 game whose payoff overflows on coalition {1,3} and nowhere else."""
    doc = {
        "q": 3,
        "terms": [
            {
                "kind": "exp_bilinear",
                "indices": [1, 2, 3],
                "A": [[0.0, 0.0, 800.0], [0.0, -1000.0, 0.0], [0.0, 0.0, 0.0]],
            }
        ],
    }
    return GameEvaluator(parse_spec(doc))


@pytest.mark.parametrize("n", [1, 6])
def test_walk_raises_only_when_it_visits_a_non_finite_coalition(n):
    # {1,3} is a prefix exactly when player 2 (index 1) comes last: the
    # first seed whose n orders never end with it estimates finite values,
    # and the first whose orders do raises
    ends = [drawn_orders(3, n, seed)[:, -1] for seed in range(200)]
    safe = next(seed for seed, last in enumerate(ends) if (last != 1).all())
    unsafe = next(seed for seed, last in enumerate(ends) if (last == 1).any())
    vector, _ = permutation.estimate_permutation(overflow_on_13_game(), n, seed=safe)
    assert np.all(np.isfinite(vector.phi))
    with pytest.raises(NonFiniteError):
        permutation.estimate_permutation(overflow_on_13_game(), n, seed=unsafe)


def test_walk_bitmasks_reach_63_players():
    beta = np.linspace(-1.0, 1.0, 63)
    ev = GameEvaluator(parse_spec({"q": 63, "terms": [{"kind": "linear", "indices": list(range(1, 64)), "beta": list(beta)}]}))
    perm = np.random.default_rng(92).permutation(63)
    np.testing.assert_allclose(marginal_vector(ev, perm), beta, atol=1e-12)
    np.testing.assert_allclose(permutation.estimate_permutation(ev, 1, paired=True, seed=92)[0].phi, beta, atol=1e-12)
    with pytest.raises(SizeGuard):
        marginal_vector(GameEvaluator(UnplayableGame(64)), np.arange(64))


def test_marginal_vector_hand_game(hand_game_q3):
    b = marginal_vector(hand_game_q3, np.array([0, 1, 2]))
    np.testing.assert_allclose(b, [1.0, 2.0, 14.0], atol=1e-12)


def test_marginal_vector_matches_prefix_definition(reference_ev):
    rng = np.random.default_rng(70)
    for _ in range(10):
        perm = rng.permutation(4)
        b = marginal_vector(reference_ev, perm)
        for j in range(4):
            before = prefix_coalition(perm, j)
            after = before.copy()
            after[j] = 1
            gain = evaluate(reference_ev.game, after) - evaluate(reference_ev.game, before)
            assert b[j] == pytest.approx(gain, abs=1e-12)


def test_marginal_vector_telescopes_to_grand_value():
    rng = np.random.default_rng(71)
    for _ in range(10):
        q = int(rng.integers(2, 8))
        spec = parse_spec(random_game_doc(rng, q))
        ev = GameEvaluator(spec)
        perm = rng.permutation(q)
        b = marginal_vector(ev, perm)
        assert b.sum() == pytest.approx(evaluate(spec, np.ones(q)), abs=1e-10)


def test_marginal_vector_linear_game_is_beta():
    beta = np.array([0.2, -0.9, 1.4])
    spec = parse_spec(
        {"q": 3, "terms": [{"kind": "linear", "indices": [1, 2, 3], "beta": list(beta)}]}
    )
    b = marginal_vector(GameEvaluator(spec), np.arange(3))
    np.testing.assert_allclose(b, beta, atol=1e-12)


def test_sampled_permutations_are_uniform_q3():
    rng = derive_rng(72, 0)
    n = 60_000
    perms = permutation.sample_permutations(3, n, rng)
    codes = perms[:, 0] * 9 + perms[:, 1] * 3 + perms[:, 2]
    observed = np.bincount(codes, minlength=27)
    observed = observed[observed > 0]
    assert observed.shape == (6,)
    expected = n / 6
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic < chi2.isf(0.001, df=5)


def test_estimator_efficiency_every_draw(reference_spec):
    grand = evaluate(reference_spec, np.ones(4))
    for paired in (False, True):
        for n in (1, 3, 8):
            vec, _ = permutation.estimate_permutation(
                GameEvaluator(reference_spec), n, paired=paired, seed=n
            )
            assert vec.phi.sum() == pytest.approx(grand, abs=1e-9)


def test_estimator_determinism(reference_spec):
    a, _ = permutation.estimate_permutation(GameEvaluator(reference_spec), 16, paired=True, seed=5)
    b, _ = permutation.estimate_permutation(GameEvaluator(reference_spec), 16, paired=True, seed=5)
    assert np.array_equal(a.phi, b.phi)
    assert a.method_tag == "permutation-paired"


def test_evaluation_budget(reference_spec):
    n, q = 13, 4
    ev = GameEvaluator(reference_spec)
    permutation.estimate_permutation(ev, n, paired=False, seed=1)
    assert ev.eval_count == n * q
    ev = GameEvaluator(reference_spec)
    permutation.estimate_permutation(ev, n, paired=True, seed=1)
    assert ev.eval_count == 2 * n * q


def test_constant_game_estimates_zero():
    game = TableGame(4, np.full(16, 7.7))
    vec, _ = permutation.estimate_permutation(GameEvaluator(game), 5, paired=True, seed=2)
    np.testing.assert_allclose(vec.phi, np.zeros(4), atol=1e-12)


def test_bilinear_single_paired_permutation_is_exact():
    rng = np.random.default_rng(73)
    for trial in range(50):
        q = int(rng.integers(2, 7))
        doc, A = random_bilinear_doc(rng, q)
        ev = GameEvaluator(parse_spec(doc))
        perm = rng.permutation(q)
        estimate = 0.5 * (
            marginal_vector(ev, perm)
            + marginal_vector(ev, perm[::-1])
        )
        np.testing.assert_allclose(estimate, bilinear_shapley(A), atol=1e-10)


def test_unbiasedness_at_small_n():
    # replicate mean at n=8 sits within 3 standard errors of exact
    spec = parse_spec(
        {
            "q": 4,
            "terms": [
                {
                    "kind": "exp_linear",
                    "indices": [1, 2, 3, 4],
                    "beta": [-0.5, 0.1, 0.8, -0.2],
                    "offset": -1.0,
                }
            ],
        }
    )
    reps, n = 2000, 8
    estimates = np.empty((reps, 4))
    for s in range(reps):
        estimates[s] = permutation.estimate_permutation(
            GameEvaluator(spec), n, paired=False, seed=np.random.SeedSequence([74, s])
        )[0].phi
    mean = estimates.mean(axis=0)
    stderr = estimates.std(axis=0, ddof=1) / np.sqrt(reps)
    np.testing.assert_array_less(np.abs(mean - REFERENCE_PHI), 3.0 * stderr + 1e-12)


def test_group_sums_and_partition_errors():
    phi = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(
        permutation.group_sums(phi, [[0, 1], [2, 3]]), [3.0, 7.0]
    )
    np.testing.assert_allclose(permutation.group_sums(phi, [[0, 1, 2, 3]]), [10.0])
    with pytest.raises(PartitionError):
        permutation.group_sums(phi, [[0, 1], [1, 2, 3]])
    with pytest.raises(PartitionError):
        permutation.group_sums(phi, [[0, 1], [3]])
    with pytest.raises(PartitionError):
        permutation.group_sums(phi, [[0, 1, 2, 3], []])


def test_group_sums_accepts_shapley_vector(reference_spec):
    vec = exact.shapley_subset(GameEvaluator(reference_spec))
    total = permutation.group_sums(vec, [[0, 1, 2, 3]])
    assert total[0] == pytest.approx(vec.phi.sum(), abs=1e-12)


def test_additive_recovery_single_permutation_three_block_game():
    rng = np.random.default_rng(75)
    spec = parse_spec(three_block_doc(rng))
    groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    exact_sums = permutation.group_sums(
        exact.shapley_subset(GameEvaluator(spec)).phi, groups
    )
    ev = GameEvaluator(spec)
    for trial in range(50):
        perm = rng.permutation(9)
        single = marginal_vector(ev, perm)
        np.testing.assert_allclose(
            permutation.group_sums(single, groups), exact_sums, atol=1e-9
        )
        paired = 0.5 * (single + marginal_vector(ev, perm[::-1]))
        np.testing.assert_allclose(
            permutation.group_sums(paired, groups), exact_sums, atol=1e-9
        )


def test_separated_exact_check_recovers_block_components():
    rng = np.random.default_rng(76)
    for d in (1, 2, 3, 4):
        doc = separated_doc(rng, d)
        spec = parse_spec(doc)
        q = spec.q
        exact_phi = exact.shapley_subset(GameEvaluator(spec)).phi
        perm = rng.permutation(q)
        estimate = separated_exact_check(GameEvaluator(spec), d, perm)
        np.testing.assert_allclose(estimate, exact_phi[:d], atol=1e-9)


def test_separated_exact_check_matches_block_closed_form():
    # block Shapley values equal the row sums of the symmetrized block matrix
    rng = np.random.default_rng(77)
    d = 3
    doc = separated_doc(rng, d, exp_size=2)
    A1 = np.asarray(doc["terms"][0]["A"])
    spec = parse_spec(doc)
    perm = rng.permutation(spec.q)
    estimate = separated_exact_check(GameEvaluator(spec), d, perm)
    np.testing.assert_allclose(estimate, bilinear_shapley(A1), atol=1e-9)


def test_separated_exact_check_rejects_coupled_terms():
    doc = {
        "q": 4,
        "terms": [
            {"kind": "bilinear", "indices": [1, 2, 3], "A": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]},
        ],
    }
    ev = GameEvaluator(parse_spec(doc))
    with pytest.raises(PartitionError):
        separated_exact_check(ev, 2, np.arange(4))


def test_separated_exact_check_rejects_exp_terms_in_block():
    doc = {
        "q": 4,
        "terms": [
            {"kind": "exp_bilinear", "indices": [1, 2], "A": [[0.5, 0.0], [0.0, 0.5]]},
            {"kind": "linear", "indices": [3, 4], "beta": [1.0, 1.0]},
        ],
    }
    ev = GameEvaluator(parse_spec(doc))
    with pytest.raises(SpecError):
        separated_exact_check(ev, 2, np.arange(4))


def test_separated_exact_check_requires_declared_terms(hand_game_q3):
    with pytest.raises(SpecError):
        separated_exact_check(hand_game_q3, 1, np.arange(3))


def test_separated_exact_check_validates_d_and_perm():
    rng = np.random.default_rng(78)
    spec = parse_spec(separated_doc(rng, 2))
    ev = GameEvaluator(spec)
    with pytest.raises(DomainError):
        separated_exact_check(ev, 0, np.arange(spec.q))
    with pytest.raises(DomainError):
        separated_exact_check(ev, 2, np.zeros(spec.q, dtype=int))


def test_kernel_paired_misses_separated_components():
    # contrast case: at n=100 the kernel estimator does not recover the
    # separated block exactly
    rng = np.random.default_rng(79)
    doc = separated_doc(rng, 2)
    spec = parse_spec(doc)
    exact_phi = exact.shapley_subset(GameEvaluator(spec)).phi
    vec, _ = kernel.estimate_kernel(GameEvaluator(spec), 100, paired=True, seed=80)
    assert np.max(np.abs(vec.phi[:2] - exact_phi[:2])) > 1e-4
