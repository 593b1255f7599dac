"""Solve, eigendecomposition, and the solve's singularity verdict; numpy.linalg is the oracle."""
import itertools

import numpy as np
import pytest

from pairshap import asymptotics, linalg
from pairshap.errors import DimensionError, NoConvergence, NonFiniteError, SingularMatrix
from pairshap.games import GameEvaluator, parse_spec

from oracles import cyclic_jacobi


def random_spd(rng, n):
    M = rng.normal(size=(n, n))
    return M.T @ M + 0.1 * np.eye(n)


def test_solve_identity_returns_rhs():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(linalg.solve_spd(np.eye(3), b), b, atol=1e-14)


def test_solve_diagonal():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    np.testing.assert_allclose(linalg.solve_spd(A, np.array([2.0, 8.0])), [1.0, 2.0], atol=1e-14)


def test_solve_fuzz_residual_bound():
    rng = np.random.default_rng(11)
    for n in range(1, 21):
        A = random_spd(rng, n)
        b = rng.normal(size=n)
        x = linalg.solve_spd(A, b)
        residual = np.max(np.abs(A @ x - b))
        assert residual <= 1e-9 * (1.0 + np.max(np.abs(b)))
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-8, atol=1e-10)


def test_solve_matrix_rhs():
    rng = np.random.default_rng(12)
    A = random_spd(rng, 5)
    B = rng.normal(size=(5, 3))
    X = linalg.solve_spd(A, B)
    np.testing.assert_allclose(A @ X, B, atol=1e-9)


def test_solve_singular_raises():
    A = np.ones((3, 3))
    with pytest.raises(SingularMatrix):
        linalg.solve_spd(A, np.ones(3))


def test_solve_rejects_asymmetric_and_bad_shapes():
    with pytest.raises(DimensionError):
        linalg.solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(DimensionError):
        linalg.solve_spd(np.eye(3), np.ones(2))
    with pytest.raises(DimensionError):
        linalg.solve_spd(np.ones((2, 3)), np.ones(2))


def test_eig_diagonal_sorted_descending():
    w = linalg.eig_sym(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [3.0, 2.0, 1.0], atol=1e-14)


def test_eig_fuzz_matches_eigvalsh():
    rng = np.random.default_rng(13)
    for n in list(range(1, 9)) + [12, 16, 20]:
        M = rng.normal(size=(n, n))
        A = 0.5 * (M + M.T)
        w = linalg.eig_sym(A)
        norm = np.linalg.norm(A)
        assert np.all(np.diff(w) <= 1e-12 * max(1.0, norm))
        np.testing.assert_allclose(w, np.linalg.eigvalsh(A)[::-1], atol=1e-9 * max(1.0, norm))


def test_eig_zero_matrix():
    w = linalg.eig_sym(np.zeros((4, 4)))
    np.testing.assert_array_equal(w, np.zeros(4))


def test_eig_convergence_budget_is_enforced():
    # the sweep cap exists as a contract; a plain matrix converges well inside it
    rng = np.random.default_rng(14)
    M = rng.normal(size=(20, 20))
    w = linalg.eig_sym(0.5 * (M + M.T))
    assert w.shape == (20,)
    assert linalg.EIG_MAX_SWEEPS == 100
    assert isinstance(NoConvergence("x"), Exception)


def test_eig_sweep_budget_raises(monkeypatch):
    rng = np.random.default_rng(14)
    M = rng.normal(size=(20, 20))
    monkeypatch.setattr(linalg, "EIG_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence):
        linalg.eig_sym(0.5 * (M + M.T))


@pytest.mark.parametrize("n", range(1, 26))
def test_round_robin_rounds_are_disjoint_and_cover_every_pair_once(n):
    rounds = linalg._round_robin(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    met = []
    for p, r, slots, identity in rounds:
        assert np.all(p < r)
        assert len(set(p.tolist()) | set(r.tolist())) == 2 * len(p)
        assert len(p) == n // 2
        np.testing.assert_array_equal(slots, np.concatenate([p * n + p, r * n + r, p * n + r, r * n + p]))
        np.testing.assert_array_equal(identity, np.eye(n).reshape(-1)[slots])
        met += zip(p.tolist(), r.tolist())
    assert sorted(met) == list(itertools.combinations(range(n), 2))


def assert_matches_eigvalsh(A, rtol=1e-13):
    w = linalg.eig_sym(A)
    reference = np.linalg.eigvalsh(A)[::-1]
    scale = max(np.max(np.abs(reference)), np.finfo(float).tiny)
    assert np.max(np.abs(w - reference)) <= rtol * scale


def test_eig_matches_the_cyclic_loop():
    rng = np.random.default_rng(20)
    for n in list(range(1, 13)) + [17]:
        M = rng.normal(size=(n, n))
        A = 0.5 * (M + M.T)
        w = linalg.eig_sym(A)
        w_loop = cyclic_jacobi(A)
        assert np.max(np.abs(w - w_loop)) <= 1e-13 * max(1.0, np.max(np.abs(w_loop)))


def test_eig_clustered_and_repeated_spectra():
    rng = np.random.default_rng(16)
    u = rng.normal(size=9)
    B = random_spd(rng, 4)
    assert_matches_eigvalsh(np.eye(7))
    assert_matches_eigvalsh(np.eye(9) + np.outer(u, u))
    assert_matches_eigvalsh(np.kron(np.eye(3), B))
    assert_matches_eigvalsh(np.eye(6) + 1e-9 * np.outer(u[:6], u[:6]))


def test_eig_paired_walk_covariance_of_a_separated_game():
    # players 6 and 7 belong to no term: zero rows beside the ones null space
    doc = {
        "q": 7,
        "terms": [
            {"kind": "exp_bilinear", "indices": [1, 2, 3], "A": [[0.3, -0.2, 0.1], [0.0, 0.4, 0.2], [0.1, 0.0, -0.3]]},
            {"kind": "exp_linear", "indices": [4, 5], "beta": [0.5, -0.7]},
        ],
    }
    report = asymptotics.permutation_covariance_exact(GameEvaluator(parse_spec(doc)), paired=True)
    assert np.all(report.matrix[5:] == 0.0)
    assert_matches_eigvalsh(report.matrix)


def test_eig_paired_kernel_covariance_at_q18():
    beta = np.random.default_rng(17).uniform(-0.3, 0.3, size=18)
    doc = {"q": 18, "terms": [{"kind": "exp_linear", "indices": list(range(1, 19)), "beta": beta.tolist()}]}
    _, _, report = asymptotics.kernel_matrices_exact(GameEvaluator(parse_spec(doc)), paired=True)
    assert report.matrix.shape == (17, 17)
    assert_matches_eigvalsh(report.matrix)


def test_eig_diagonal_input_returns_its_sorted_diagonal():
    d = np.array([3.0, -1.0, 2.0, 5.0, 0.0, 2.0])
    w = linalg.eig_sym(np.diag(d))
    np.testing.assert_array_equal(w, np.sort(d)[::-1])


def test_eig_scales_exactly_by_powers_of_two():
    rng = np.random.default_rng(18)
    M = rng.normal(size=(9, 9))
    A = M + M.T
    w = linalg.eig_sym(A)
    for power in (-600, 600):
        np.testing.assert_array_equal(linalg.eig_sym(np.ldexp(A, power)), np.ldexp(w, power))
    # squares of these entries overflow; the rank-one spectrum must survive
    w = linalg.eig_sym(np.full((2, 2), 1e200))
    np.testing.assert_allclose(w, [2e200, 0.0], rtol=1e-15, atol=1e185)


def test_eig_ignores_memory_layout():
    rng = np.random.default_rng(19)
    M = rng.normal(size=(7, 7))
    A = M + M.T
    np.testing.assert_array_equal(linalg.eig_sym(np.asfortranarray(A)), linalg.eig_sym(A))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise(bad):
    A = np.array([[2.0, bad], [bad, 1.0]])
    with pytest.raises(NonFiniteError):
        linalg.eig_sym(A)
    with pytest.raises(NonFiniteError):
        linalg.solve_spd(A, np.ones(2))
    with pytest.raises(NonFiniteError):
        linalg.solve_spd(np.eye(2), np.array([1.0, bad]))


def test_rank_of_unit_coalition_paired_design():
    # coalitions e_1..e_{q-1} plus complements give a full-rank paired design
    for q in range(2, 8):
        basis = np.eye(q, dtype=np.uint8)[: q - 1]
        rows = np.vstack([basis, 1 - basis]).astype(float)
        x = rows[:, :-1] - rows[:, -1:]
        b = np.arange(1.0, q)
        np.testing.assert_allclose(linalg.solve_spd(x.T @ x, b), np.linalg.solve(x.T @ x, b), rtol=1e-12)


def test_stacked_solve_matches_each_slice_bit_for_bit():
    rng = np.random.default_rng(30)
    for k in (1, 2, 3, 7, 12):
        A = np.stack([random_spd(rng, k) * 10.0 ** rng.integers(-3, 4) for _ in range(5)])
        b = rng.normal(size=(5, k))
        B = rng.normal(size=(5, k, 3))
        X = linalg.solve_spd(A, b)
        Y = linalg.solve_spd(A, B)
        assert X.shape == (5, k) and Y.shape == (5, k, 3)
        for i in range(5):
            assert np.array_equal(X[i], linalg.solve_spd(A[i], b[i]))
            assert np.array_equal(Y[i], linalg.solve_spd(A[i], B[i]))


def test_stacked_solve_lists_slices_singular_at_different_steps():
    rng = np.random.default_rng(32)
    huge = np.zeros((3, 3))
    huge[1:, 1:] = 1e200
    # slice: (matrix, the step at which it is found singular)
    singular = {
        1: (np.ones((3, 3)), 1),
        2: (np.zeros((3, 3)), 0),
        4: (np.diag([1.0, 1.0, 0.0]), 2),
        # eliminating it on would overflow 1e200 * 1e200
        5: (huge, 0),
    }
    A = np.stack([singular[i][0] if i in singular else random_spd(rng, 3) for i in range(7)])
    b = rng.normal(size=(7, 3))
    # the lowest singular slice is named, though a later one failed earlier
    with pytest.raises(SingularMatrix, match=r"^slice 1: pivot 0\.000e\+00 at step 1 ") as info:
        linalg.solve_spd(A, b)
    assert info.value.slices.tolist() == [1, 2, 4, 5]
    for i, (_, step) in singular.items():
        with pytest.raises(SingularMatrix, match=rf"^pivot .* at step {step} ") as alone:
            linalg.solve_spd(A[i], b[i])
        assert alone.value.slices.tolist() == [0]
    # the singular slices replaced, as a kernel fit redraws them, the others
    # solve as their own calls do
    A[list(singular)] = [random_spd(rng, 3) for _ in singular]
    X = linalg.solve_spd(A, b)
    for i in range(7):
        assert np.array_equal(X[i], linalg.solve_spd(A[i], b[i]))


def test_stacked_solve_names_the_singular_slice():
    A = np.stack([np.eye(3), 2.0 * np.eye(3), np.ones((3, 3)), np.eye(3)])
    with pytest.raises(SingularMatrix, match=r"^slice 2: pivot "):
        linalg.solve_spd(A, np.ones((4, 3)))
    with pytest.raises(SingularMatrix, match=r"^pivot "):
        linalg.solve_spd(np.ones((3, 3)), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stacked_solve_refuses_non_finite_slices(bad):
    A = np.stack([np.eye(2)] * 3)
    A[1, 0, 1] = A[1, 1, 0] = bad
    with pytest.raises(NonFiniteError):
        linalg.solve_spd(A, np.ones((3, 2)))
    b = np.ones((3, 2))
    b[2, 1] = bad
    with pytest.raises(NonFiniteError):
        linalg.solve_spd(np.stack([np.eye(2)] * 3), b)


def test_stacked_solve_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        linalg.solve_spd(np.stack([np.eye(3)] * 2), np.ones((3, 3)))
    with pytest.raises(DimensionError):
        linalg.solve_spd(np.stack([np.eye(3), np.triu(np.ones((3, 3)))]), np.ones((2, 3)))
    with pytest.raises(DimensionError):
        linalg.solve_spd(np.ones((2, 2, 2, 2)), np.ones((2, 2, 2)))
    with pytest.raises(DimensionError):
        linalg.eig_sym(np.stack([np.eye(2)] * 2))
