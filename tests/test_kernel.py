"""Kernel sampling estimators: distribution, exactness, budgets, determinism."""
import numpy as np
import pytest
from scipy.stats import chi2

from pairshap import exact, games, kernel, linalg
from pairshap.errors import DomainError, RankDeficient, SingularMatrix, SizeGuard
from pairshap.estimators import ESTIMATORS
from pairshap.games import GameEvaluator, mask_rows, parse_spec
from pairshap.streams import derive_rng

from conftest import (
    REFERENCE_PHI,
    UnplayableGame,
    bilinear_shapley,
    fail_solves,
    random_bilinear_doc,
    random_game_doc,
)
from oracles import coalition_matrix, coalition_probability, evaluate, max_pairwise_discrepancy, sample_coalition


def coalition_to_mask(Z):
    return Z @ (1 << np.arange(Z.shape[-1]))


def test_single_draw_sampler_is_a_nonempty_proper_subset():
    kw = exact.kernel_weights(5)
    rng = derive_rng(100, 0)
    for _ in range(200):
        z = sample_coalition(kw, rng)
        assert 1 <= z.sum() <= 4


def test_single_draw_sampler_q2_always_singleton():
    kw = exact.kernel_weights(2)
    rng = derive_rng(101, 0)
    draws = np.array([sample_coalition(kw, rng) for _ in range(50)])
    assert np.all(draws.sum(axis=1) == 1)


def test_batch_sampler_size_frequencies_q4():
    kw = exact.kernel_weights(4)
    rng = derive_rng(102, 0)
    Z = mask_rows(kernel.sample_coalitions(kw, 1_000_000, [rng])[0], 4)
    sizes = Z.sum(axis=1)
    freq = np.array([(sizes == s).mean() for s in (1, 2, 3)])
    np.testing.assert_allclose(freq, [4 / 11, 3 / 11, 4 / 11], atol=0.01)


def test_batch_sampler_chi_square_over_all_coalitions_q4():
    kw = exact.kernel_weights(4)
    rng = derive_rng(103, 0)
    n = 1_000_000
    Z = mask_rows(kernel.sample_coalitions(kw, n, [rng])[0], 4)
    masks = coalition_to_mask(Z)
    observed = np.bincount(masks, minlength=16)[1:15]
    sizes = coalition_matrix(4)[1:15].sum(axis=1)
    expected = np.array([coalition_probability(kw, int(s)) for s in sizes]) * n
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic < chi2.isf(0.001, df=13)


def members_by_rank(u, s):
    """Reference member rows: the s players of lowest uniform key in each row."""
    return (np.argsort(np.argsort(u, axis=1), axis=1) < s[:, None]).astype(np.uint8)


def test_batch_sampler_matches_members_by_rank():
    for q in range(2, 13):
        kw = exact.kernel_weights(q)
        masks = kernel.sample_coalitions(kw, 5_000, [derive_rng(105, q)])[0]
        rng = derive_rng(105, q)
        s = rng.choice(np.arange(1, q), size=5_000, p=kw.size_probs)
        u = rng.random((5_000, q))
        assert np.array_equal(mask_rows(masks, q), members_by_rank(u, s)), q


class TiedKeys:
    """Random generator whose uniform keys, drawn into `out`, are rounded to quarters, so rows hold ties."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)

    def random(self, size=None, out=None):
        if out is None:
            return self.rng.random(size)
        out[...] = np.floor(4 * self.rng.random(out.shape)) / 4
        return out


def test_batch_sampler_keeps_sizes_when_keys_tie():
    q, n = 6, 2_000
    kw = exact.kernel_weights(q)
    masks = kernel.sample_coalitions(kw, n, [TiedKeys(106)])[0]
    stub = TiedKeys(106)
    s = stub.choice(np.arange(1, q), size=n, p=kw.size_probs)
    u = stub.random(out=np.empty((n, q)))
    Z = mask_rows(masks, q)
    np.testing.assert_array_equal(Z.sum(axis=1), s)
    assert np.array_equal(Z, members_by_rank(u, s))


class FixedKeys:
    """Generator stub that draws the given sizes and uniform keys.

    The sizes come from uniforms at the foot of each size's step of the
    sampler's cumulative size probabilities.
    """

    def __init__(self, sizes, keys):
        self.sizes = np.asarray(sizes)
        self.keys = np.asarray(keys, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            assert size == len(self.sizes)
            cdf = exact.kernel_weights(self.keys.shape[1]).size_probs.cumsum()
            cdf /= cdf[-1]
            return np.append(0.0, cdf)[self.sizes - 1]
        out[...] = self.keys
        return out


def test_sampler_reranks_only_draws_tied_at_the_threshold(monkeypatch):
    q = 4
    keys = [
        [0.5, 0.25, 0.25, 0.75],  # s = 1: two lowest keys tie at the threshold
        [0.5, 0.25, 0.25, 0.75],  # s = 2: the same tie, but both are members
        [0.1, 0.9, 0.9, 0.3],  # s = 2: a tie above the threshold
        [0.3, 0.3, 0.3, 0.3],  # s = 3: every key ties
        [0.6, 0.2, 0.4, 0.8],  # s = 2: no tie
    ]
    sizes = [1, 2, 2, 3, 2]
    expected = members_by_rank(np.array(keys), np.array(sizes))
    sorted_shapes = []
    argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        sorted_shapes.append(np.shape(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    masks = kernel.sample_coalitions(exact.kernel_weights(q), len(sizes), [FixedKeys(sizes, keys)])[0]
    Z = mask_rows(masks, q)
    np.testing.assert_array_equal(Z.sum(axis=1), sizes)
    assert np.array_equal(Z, expected)
    # the two draws tied at the threshold, and only they, took the double argsort
    assert sorted_shapes == [(2, q), (2, q)]
    sorted_shapes.clear()
    # ties away from the threshold alone never leave the sort
    kernel.sample_coalitions(exact.kernel_weights(q), 3, [FixedKeys([2, 2, 2], [keys[1], keys[2], keys[4]])])
    assert sorted_shapes == []


def test_stacked_sampler_rows_are_the_lone_batches():
    kw = exact.kernel_weights(6)
    stacked = kernel.sample_coalitions(kw, 300, [derive_rng(108, r) for r in range(4)])
    assert stacked.shape == (4, 300)
    for r in range(4):
        assert np.array_equal(stacked[r], kernel.sample_coalitions(kw, 300, [derive_rng(108, r)])[0])


def test_kernel_routes_refuse_64_players():
    ev = GameEvaluator(UnplayableGame(64))
    for paired in (False, True):
        with pytest.raises(SizeGuard):
            kernel.estimate_kernel(ev, 100, paired=paired, seed=1)
    with pytest.raises(SizeGuard):
        kernel.bilinearity_test(ev, trials=2, tol=1e-8, seed=1)
    assert ev.eval_count == 0


def test_sampler_refuses_draws_over_the_limit(monkeypatch):
    kw = exact.kernel_weights(4)
    with pytest.raises(SizeGuard):
        kernel.sample_coalitions(kw, 10**12, [derive_rng(107)])
    monkeypatch.setattr(games, "DRAW_LIMIT", 40)
    assert kernel.sample_coalitions(kw, 10, [derive_rng(107)]).shape == (1, 10)
    with pytest.raises(SizeGuard):
        kernel.sample_coalitions(kw, 11, [derive_rng(107)])


def test_single_draw_sampler_chi_square_q4():
    kw = exact.kernel_weights(4)
    rng = derive_rng(104, 0)
    n = 40_000
    masks = np.array([int(coalition_to_mask(sample_coalition(kw, rng))) for _ in range(n)])
    observed = np.bincount(masks, minlength=16)[1:15]
    sizes = coalition_matrix(4)[1:15].sum(axis=1)
    expected = np.array([coalition_probability(kw, int(s)) for s in sizes]) * n
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic < chi2.isf(0.001, df=13)


def test_linear_game_estimated_exactly():
    beta = np.array([0.5, -0.3, 1.1, 0.2, -0.8])
    spec = parse_spec(
        {"q": 5, "terms": [{"kind": "linear", "indices": [1, 2, 3, 4, 5], "beta": list(beta)}]}
    )
    for paired in (False, True):
        vector, batch = kernel.estimate_kernel(GameEvaluator(spec), 16, paired=paired, seed=1)
        np.testing.assert_allclose(vector.phi, beta, atol=1e-10)
        assert batch.retries == 0


def test_bilinear_game_paired_estimate_exact_any_batch():
    rng = np.random.default_rng(40)
    for trial in range(10):
        q = int(rng.integers(2, 7))
        doc, A = random_bilinear_doc(rng, q)
        spec = parse_spec(doc)
        vector, _ = kernel.estimate_kernel(
            GameEvaluator(spec), max(q, 8), paired=True, seed=trial
        )
        np.testing.assert_allclose(vector.phi, bilinear_shapley(A), atol=1e-9)


def test_estimates_satisfy_efficiency(reference_spec):
    grand = evaluate(reference_spec, np.ones(4))
    for paired in (False, True):
        for seed in range(5):
            vector, _ = kernel.estimate_kernel(
                GameEvaluator(reference_spec), 32, paired=paired, seed=seed
            )
            assert vector.phi.sum() == pytest.approx(grand, abs=1e-9)


def test_determinism_bit_identical(reference_spec):
    a, _ = kernel.estimate_kernel(GameEvaluator(reference_spec), 64, paired=True, seed=9)
    b, _ = kernel.estimate_kernel(GameEvaluator(reference_spec), 64, paired=True, seed=9)
    assert np.array_equal(a.phi, b.phi)
    c, _ = kernel.estimate_kernel(GameEvaluator(reference_spec), 64, paired=True, seed=10)
    assert not np.array_equal(a.phi, c.phi)


def test_evaluation_budget(reference_spec):
    n = 37
    ev = GameEvaluator(reference_spec)
    kernel.estimate_kernel(ev, n, paired=False, seed=2)
    assert ev.eval_count == n + 1  # grand value cached once
    ev = GameEvaluator(reference_spec)
    kernel.estimate_kernel(ev, n, paired=True, seed=2)
    assert ev.eval_count == 2 * n + 1
    # every estimator spends exactly the cost the CSV reports per draw, plus
    # the one cached grand value that the kernel fits use
    for name, estimator in ESTIMATORS.items():
        ev = GameEvaluator(reference_spec)
        estimator.estimate(ev, n, 2)
        grand = 1 if name.startswith("kernel") else 0
        assert ev.eval_count == estimator.cost(reference_spec.q) * n + grand, name
        # a stack of replicates spends what its replicates would alone
        ev = GameEvaluator(reference_spec)
        estimator.estimate_stack(ev, n, [2, 3, 4])
        assert ev.eval_count == 3 * (estimator.cost(reference_spec.q) * n + grand), name


def test_batch_layout(reference_spec):
    n = 10
    _, batch = kernel.estimate_kernel(GameEvaluator(reference_spec), n, paired=True, seed=3)
    draws = mask_rows(batch.draws, 4)
    assert draws.shape == (n, 4)
    assert batch.design.shape == (2 * n, 3)
    assert batch.response.shape == (2 * n,)
    sizes = draws.sum(axis=1)
    assert np.all((sizes >= 1) & (sizes <= 3))
    # complement rows negate the design rows
    np.testing.assert_array_equal(batch.design[n:], -batch.design[:n])
    _, unpaired = kernel.estimate_kernel(GameEvaluator(reference_spec), n, paired=False, seed=3)
    assert unpaired.design.shape == (n, 3)


def test_rank_deficient_replicate_alone_redraws(monkeypatch, reference_spec):
    n, seeds = 12, [31, 32, 33]
    lone = [kernel.estimate_kernel(GameEvaluator(reference_spec), n, seed=seed)[0] for seed in seeds]
    stacks = fail_solves(monkeypatch, 1)
    ev = GameEvaluator(reference_spec)
    stacked = kernel.estimate_kernel_stack(ev, n, seeds)
    # the stack, then the stack again with replicate 1 redrawn
    assert stacks == [3, 3]
    for i in (0, 2):
        assert stacked[i].phi.tobytes() == lone[i].phi.tobytes()
    # replicate 1 gets what a lone estimate whose first batch failed gets:
    # the fit of its second batch, drawn from the attempt-1 substream
    fail_solves(monkeypatch, 0)
    vector, batch = kernel.estimate_kernel(GameEvaluator(reference_spec), n, seed=32)
    assert batch.retries == 1
    redrawn = kernel.sample_coalitions(exact.kernel_weights(4), n, [derive_rng(32, 1)])[0]
    assert np.array_equal(batch.draws, redrawn)
    assert stacked[1].phi.tobytes() == vector.phi.tobytes()
    # the redraw looks up its n draws again, but not the grand value
    assert ev.eval_count == 3 * (n + 1) + n


@pytest.mark.parametrize("reps", [1, 3, 50])
def test_a_cell_solved_again_gives_the_redrawn_lone_estimate(monkeypatch, reference_spec, reps):
    n, failing = 12, reps // 2
    seeds = [[33, reps, rep] for rep in range(reps)]
    lone = [kernel.estimate_kernel(GameEvaluator(reference_spec), n, seed=seed)[0] for seed in seeds]
    stacks = fail_solves(monkeypatch, failing)
    stacked = kernel.estimate_kernel_stack(GameEvaluator(reference_spec), n, seeds)
    # one solve of the whole cell, then one again with the failed replicate redrawn
    assert stacks == [reps, reps]
    fail_solves(monkeypatch, 0)
    redrawn, batch = kernel.estimate_kernel(GameEvaluator(reference_spec), n, seed=seeds[failing])
    assert batch.retries == 1
    for i, vector in enumerate(stacked):
        expected = redrawn if i == failing else lone[i]
        assert vector.phi.tobytes() == expected.phi.tobytes(), i


@pytest.mark.parametrize("q", [2, 3, 4, 9, 18, 63])
def test_sampler_sizes_are_generator_choice_and_leave_its_state(q):
    kw = exact.kernel_weights(q)
    for n in (1, 7, 256, 4096):
        rng, reference = derive_rng(109, q, n), derive_rng(109, q, n)
        masks = kernel.sample_coalitions(kw, n, [rng])[0]
        sizes = reference.choice(np.arange(1, q), size=n, p=kw.size_probs)
        reference.random((n, q))
        assert np.array_equal(mask_rows(masks, q).sum(axis=1), sizes), n
        assert rng.bit_generator.state == reference.bit_generator.state, n


def test_solve_verdict_is_the_numpy_rank_of_sampled_kernel_grams():
    # the normal equations of sampled designs, paired and unpaired, many of
    # them rank deficient at small n: the solve refuses exactly those
    checked = deficient = 0
    for q in range(3, 11):
        weights = exact.kernel_weights(q)
        for n in sorted({2, q // 2, q - 1, q + 1, 2 * q}):
            for paired in (False, True):
                rngs = [derive_rng(18, q, n, int(paired), i) for i in range(100)]
                masks = kernel._with_complements(kernel.sample_coalitions(weights, n, rngs), paired, q)
                x, _ = kernel._design(masks.reshape(-1), q)
                gram = kernel._gram(x.reshape(len(rngs), -1, q - 1))
                singular = np.flatnonzero(np.linalg.matrix_rank(gram) < q - 1)
                try:
                    linalg.solve_spd(gram, np.ones((len(rngs), q - 1)))
                    refused = []
                except SingularMatrix as exc:
                    refused = exc.slices.tolist()
                assert refused == singular.tolist(), (q, n, paired)
                checked += len(rngs)
                deficient += singular.size
    assert checked >= 5000 and 0.2 < deficient / checked < 0.8


def test_rank_deficient_raises_after_redraw_budget(monkeypatch, reference_spec):
    # every solve finds the fit singular: it is redrawn until the budget of
    # RANK_RETRY_LIMIT batches is spent, one solve per batch
    stacks = fail_solves(monkeypatch, 0, solves=np.inf)
    for paired in (False, True):
        stacks.clear()
        ev = GameEvaluator(reference_spec)
        with pytest.raises(RankDeficient):
            kernel.estimate_kernel(ev, 12, paired=paired, seed=4)
        assert stacks == [1] * kernel.RANK_RETRY_LIMIT
        assert ev.eval_count == 1 + kernel.RANK_RETRY_LIMIT * (2 if paired else 1) * 12


def test_rejects_nonpositive_n(reference_spec):
    with pytest.raises(DomainError):
        kernel.estimate_kernel(GameEvaluator(reference_spec), 0, seed=1)


@pytest.mark.parametrize("paired", [False, True])
def test_fits_of_fewer_than_q_minus_one_draws_fail_before_drawing(monkeypatch, reference_spec, paired):
    # n draws span at most n dimensions, paired or not (a complement's row is
    # minus its draw's), so below q - 1 = 3 no redraw can reach full rank
    streams = []
    monkeypatch.setattr(kernel, "derive_rng", lambda *key: streams.append(key))
    for n in (0, 1, 2):
        ev = GameEvaluator(reference_spec)
        with pytest.raises(DomainError, match=f"needs at least 3 draws, got {n}"):
            kernel.estimate_kernel(ev, n, paired=paired, seed=1)
        with pytest.raises(DomainError):
            kernel.estimate_kernel_stack(ev, n, [1, 2], paired=paired)
        assert ev.eval_count == 0 and streams == []


def test_consistency_reference_game():
    # estimates at a large n are within 0.01 of exact for >= 99/100 seeds
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
    hits = 0
    for seed in range(100):
        vector, _ = kernel.estimate_kernel(GameEvaluator(spec), 4**8, paired=False, seed=seed)
        if np.max(np.abs(vector.phi - REFERENCE_PHI)) < 0.01:
            hits += 1
    assert hits >= 99


def draw_always(monkeypatch, masks):
    """Make every kernel draw, of every generator and attempt, the given bitmasks."""
    masks = np.asarray(masks, dtype=np.int64)
    monkeypatch.setattr(kernel, "sample_coalitions", lambda weights, n, rngs: np.tile(masks, (len(rngs), 1)))


def test_unit_basis_solves_bilinear_closed_form(monkeypatch):
    rng = np.random.default_rng(41)
    q = 5
    doc, A = random_bilinear_doc(rng, q)
    # a paired fit whose q - 1 draws are the singletons of players 1..q-1
    basis = np.int64(1) << np.arange(q - 1)
    draw_always(monkeypatch, basis)
    vector, batch = kernel.estimate_kernel(GameEvaluator(parse_spec(doc)), q - 1, paired=True, seed=1)
    assert np.array_equal(batch.draws, basis) and batch.retries == 0
    np.testing.assert_allclose(vector.phi, bilinear_shapley(A), atol=1e-9)
    assert vector.method_tag == "kernel-paired"


def test_two_bases_agree_on_bilinear_games():
    # a paired fit on q - 1 draws is exactly determined: it solves the game
    # on the basis it draws, and any basis gives a bilinear game's values
    rng = np.random.default_rng(42)
    doc, A = random_bilinear_doc(rng, 6)
    spec = parse_spec(doc)
    first, first_batch = kernel.estimate_kernel(GameEvaluator(spec), 5, paired=True, seed=50)
    second, second_batch = kernel.estimate_kernel(GameEvaluator(spec), 5, paired=True, seed=51)
    assert set(first_batch.draws.tolist()) != set(second_batch.draws.tolist())
    np.testing.assert_allclose(first.phi, second.phi, atol=1e-10)
    np.testing.assert_allclose(first.phi, bilinear_shapley(A), atol=1e-9)


def test_two_bases_disagree_on_reference_game(reference_spec):
    first, _ = kernel.estimate_kernel(GameEvaluator(reference_spec), 3, paired=True, seed=52)
    second, _ = kernel.estimate_kernel(GameEvaluator(reference_spec), 3, paired=True, seed=53)
    assert np.max(np.abs(first.phi - second.phi)) > 1e-6


def test_dependent_basis_raises(monkeypatch, reference_spec):
    # fewer than q - 1 draws can never form a basis
    with pytest.raises(DomainError):
        kernel.estimate_kernel(GameEvaluator(reference_spec), 2, paired=True, seed=1)
    # {1}, {1} and {2}, drawn on every attempt
    draw_always(monkeypatch, [1, 1, 2])
    with pytest.raises(RankDeficient):
        kernel.estimate_kernel(GameEvaluator(reference_spec), 3, paired=True, seed=1)
    with pytest.raises(RankDeficient):
        kernel.bilinearity_test(GameEvaluator(reference_spec), trials=2, tol=1e-8, seed=1)


def test_bilinearity_test_verdicts(reference_spec):
    rng = np.random.default_rng(43)
    doc, _ = random_bilinear_doc(rng, 5)
    assert kernel.bilinearity_test(GameEvaluator(parse_spec(doc)), trials=5, tol=1e-8, seed=60) <= 1e-8
    assert kernel.bilinearity_test(GameEvaluator(reference_spec), trials=5, tol=1e-8, seed=61) > 1e-6


def test_bilinearity_test_accepts_linear_games():
    spec = parse_spec(
        {"q": 4, "terms": [{"kind": "linear", "indices": [1, 2, 3, 4], "beta": [1.0, -2.0, 0.5, 3.0]}]}
    )
    assert kernel.bilinearity_test(GameEvaluator(spec), trials=4, tol=1e-8, seed=62) <= 1e-8


def test_bilinearity_test_validates_arguments(reference_spec):
    with pytest.raises(DomainError):
        kernel.bilinearity_test(GameEvaluator(reference_spec), trials=1, tol=1e-8, seed=1)
    for tol in (0.0, -1e-9, np.inf, np.nan):
        with pytest.raises(DomainError):
            kernel.bilinearity_test(GameEvaluator(reference_spec), trials=3, tol=tol, seed=1)


@pytest.mark.parametrize("trials", [2, 5, 40])
def test_bilinearity_discrepancy_is_the_all_pairs_maximum(trials):
    # the spread of each coordinate over the trials, to the bit of the
    # largest max-norm distance over every pair of lone paired fits on
    # q - 1 draws, one per trial seed
    ev = GameEvaluator(parse_spec(random_game_doc(np.random.default_rng(64), 6)))
    spread = kernel.bilinearity_test(ev, trials=trials, tol=1e-8, seed=63)
    solutions = [
        kernel.estimate_kernel(ev, 5, paired=True, seed=np.random.SeedSequence(entropy=63, spawn_key=(trial,)))[0].phi
        for trial in range(trials)
    ]
    assert spread == max_pairwise_discrepancy(solutions) > 0.0
