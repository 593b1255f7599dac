"""Shared fixtures: reference games, table games, and random game factories."""
from __future__ import annotations

import json
import math
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from pairshap.games import GameEvaluator, ValueFunctionSpec, parse_spec

# q=4 reference game: exp of a linear form minus one.  Its exact Shapley
# values and dispersion matrices below were frozen from an independent
# enumeration script before the package existed and act as golden values.
REFERENCE_DOC = {
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

REFERENCE_PHI = np.array([-0.6025740, 0.1194994, 0.9445458, -0.2400684])

# unpaired kernel sandwich: eigenvalues and trace
REFERENCE_T_EIGS = np.array([0.24481862, 0.07785224, 0.01591936])
REFERENCE_T_TRACE = 0.33859021917367077

# paired kernel sandwich
REFERENCE_T2_EIGS = np.array([0.00095503, 0.00039377, 0.00015574])
REFERENCE_T2_TRACE = 0.0015045473090849457

# paired walk covariance (unbiased normalization over all 4! orders)
REFERENCE_SIGMA_EIGS = np.array([7.50348695e-04, 6.99499611e-04, 2.02086819e-04])
REFERENCE_SIGMA_TRACE = 0.0016519351251335973

# q=3 hand-built table game: payoffs by coalition, used for walk tests.
# masks: {1}=1, {2}=5, {3}=7, {1,2}=3, {1,3}=11, {2,3}=13, {1,2,3}=17
HAND_TABLE_Q3 = np.array([0.0, 1.0, 5.0, 3.0, 7.0, 11.0, 13.0, 17.0])

# a q=3 game whose payoff on players {1, 2} is +inf from its exponential
# term plus -inf from its linear term
OPPOSITE_INFINITIES_DOC = {
    "q": 3,
    "terms": [
        {"kind": "exp_linear", "indices": [1, 2], "beta": [400.0, 400.0]},
        {"kind": "linear", "indices": [1, 2], "beta": [-1e308, -1e308]},
    ],
}


# a q=2 game with finite payoffs v({1}) = -1.5e308 and v({1,2}) = 1.5e308:
# player 2's gain onto {1} overflows
OVERFLOWING_GAIN_DOC = {
    "q": 2,
    "terms": [{"kind": "bilinear", "indices": [1, 2], "A": [[-1.5e308, 1e308], [1e308, 1e308]]}],
}


@pytest.fixture
def reference_spec() -> ValueFunctionSpec:
    return parse_spec(json.dumps(REFERENCE_DOC))


@pytest.fixture
def reference_ev(reference_spec) -> GameEvaluator:
    return GameEvaluator(reference_spec)


class TableGame:
    """Game given by an explicit payoff per coalition bitmask.

    Provides the same `q`/`values` surface as a parsed spec; payoffs are
    normalized by subtracting the empty-coalition entry.
    """

    def __init__(self, q: int, table):
        self.q = q
        raw = np.asarray(table, dtype=float)
        assert raw.shape == (2**q,)
        self.table = raw - raw[0]

    def values(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=np.int64)
        masks = Z @ (np.int64(1) << np.arange(self.q, dtype=np.int64))
        return self.table[masks]


class RowCounter:
    """Game wrapper recording how many rows each `values` call receives, and their bitmasks."""

    def __init__(self, game):
        self.game = game
        self.q = game.q
        self.calls: list[int] = []
        self.masks: list[np.ndarray] = []

    def values(self, Z) -> np.ndarray:
        self.calls.append(len(Z))
        self.masks.append(np.asarray(Z, dtype=np.int64) @ (np.int64(1) << np.arange(self.q)))
        return self.game.values(Z)


@pytest.fixture
def spec_rows(monkeypatch) -> list[int]:
    """Row counts of every `ValueFunctionSpec.values` call made during the test, in order.

    This reaches the games that the CLI and the experiments parse
    themselves, which a RowCounter cannot wrap.
    """
    calls: list[int] = []
    values = ValueFunctionSpec.values

    def counted(self, Z):
        calls.append(len(Z))
        return values(self, Z)

    monkeypatch.setattr(ValueFunctionSpec, "values", counted)
    return calls


@pytest.fixture
def spec_tables(monkeypatch) -> list[int]:
    """Player counts of every `ValueFunctionSpec.value_table` call made during the test, in order.

    A spec tabulates itself without calling its `values`, so `spec_rows`
    does not see these.
    """
    calls: list[int] = []
    value_table = ValueFunctionSpec.value_table

    def counted(self):
        calls.append(self.q)
        return value_table(self)

    monkeypatch.setattr(ValueFunctionSpec, "value_table", counted)
    return calls


class UnplayableGame:
    """Game of any player count whose payoffs must never be asked for.

    Documents cannot declare more than 63 players, so this is how tests
    reach the guards of the routes themselves.
    """

    def __init__(self, q: int):
        self.q = q

    def values(self, Z):
        raise AssertionError(f"game evaluated on {len(Z)} coalitions")


@pytest.fixture
def hand_game_q3() -> GameEvaluator:
    return GameEvaluator(TableGame(3, HAND_TABLE_Q3))


def subset_shapley_by_players(table: np.ndarray, q: int) -> np.ndarray:
    """Reference Shapley values: the subset formula walked player by player.

    For each player, the coalitions without it are picked out by a boolean
    mask and their weighted marginal gains summed; this is the loop that
    `exact.shapley_subset` replaced with one weighted vector.
    """
    masks = np.arange(2**q, dtype=np.int64)
    sizes = np.zeros(2**q, dtype=np.int64)
    for j in range(q):
        sizes += (masks >> j) & 1
    weights = np.array([1.0 / (q * math.comb(q - 1, s)) for s in range(q)])
    phi = np.empty(q)
    for j in range(q):
        bit = np.int64(1) << j
        rest = masks[(masks & bit) == 0]
        phi[j] = float(np.sum(weights[sizes[rest]] * (table[rest | bit] - table[rest])))
    return phi


def dense_kernel_moments(table: np.ndarray, q: int, paired: bool):
    """Reference kernel moments from dense float coalition matrices.

    Builds the indicator rows, the pivoted design x and the complement design
    of every nonempty proper coalition and forms the weighted products
    directly.  Returns (partial, meat, hessian) in the convention of
    `asymptotics.kernel_matrices_exact`.
    """
    masks = np.arange(1, 2**q - 1, dtype=np.int64)
    Z = ((masks[:, None] >> np.arange(q)) & 1).astype(float)
    sizes = Z.sum(axis=1).astype(np.int64)
    raw = np.array([(q - 1) / (s * (q - s)) for s in range(1, q)])
    p = (raw / raw.sum())[sizes - 1] / np.array([math.comb(q, int(s)) for s in sizes])
    grand = float(table[-1])
    values = table[1:-1]
    x = Z[:, : q - 1] - Z[:, q - 1 :]
    y = values - Z[:, q - 1] * grand
    J = (x * p[:, None]).T @ x
    partial = np.linalg.solve(J, x.T @ (p * y))
    if paired:
        residual = 0.5 * (values + grand - values[::-1]) - Z[:, -1] * grand - x @ partial
        meat = (x * (4.0 * p * residual**2)[:, None]).T @ x
        Zc = 1.0 - Z
        xc = Zc[:, :-1] - Zc[:, -1:]
        hessian = J + (xc * p[:, None]).T @ xc
    else:
        residual = y - x @ partial
        meat = (x * (p * residual**2)[:, None]).T @ x
        hessian = J
    return partial, meat, hessian


def random_game_doc(rng: np.random.Generator, q: int) -> dict:
    """A random game document mixing term kinds, with bounded coefficients."""
    kinds = ["linear", "bilinear", "exp_linear", "exp_bilinear"]
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        k = int(rng.integers(1, min(q, 4) + 1))
        indices = sorted(int(i) + 1 for i in rng.choice(q, size=k, replace=False))
        term = {"kind": kind, "indices": indices, "offset": float(rng.uniform(-1, 1))}
        if kind in ("linear", "exp_linear"):
            term["beta"] = [float(b) for b in rng.uniform(-0.8, 0.8, size=k)]
        else:
            scale = 0.8 / k
            term["A"] = [[float(a) for a in row] for row in rng.uniform(-scale, scale, size=(k, k))]
        terms.append(term)
    return {"q": q, "terms": terms}


def random_bilinear_doc(rng: np.random.Generator, q: int) -> tuple[dict, np.ndarray]:
    """A full-support bilinear game document and its coefficient matrix."""
    A = rng.normal(0.0, 1.0, size=(q, q))
    doc = {
        "q": q,
        "terms": [
            {
                "kind": "bilinear",
                "indices": list(range(1, q + 1)),
                "A": [[float(a) for a in row] for row in A],
            }
        ],
    }
    return doc, A


def bilinear_shapley(A: np.ndarray) -> np.ndarray:
    """Closed-form Shapley values of the quadratic-form game with matrix A."""
    return 0.5 * (A + A.T).sum(axis=1)


def separated_doc(rng: np.random.Generator, d: int, exp_size: int = 4) -> dict:
    """Plain bilinear block on the first d players, exp block on the rest."""
    q = d + exp_size
    A1 = rng.normal(0.0, 0.8, size=(d, d))
    A2 = rng.normal(0.0, 0.3, size=(exp_size, exp_size))
    return {
        "q": q,
        "terms": [
            {
                "kind": "bilinear",
                "indices": list(range(1, d + 1)),
                "A": [[float(a) for a in row] for row in A1],
            },
            {
                "kind": "exp_bilinear",
                "indices": list(range(d + 1, q + 1)),
                "A": [[float(a) for a in row] for row in A2],
            },
        ],
    }


def three_block_doc(rng: np.random.Generator) -> dict:
    """q=9 game with three disjoint exp blocks of three players each."""
    terms = []
    for k in range(3):
        A = rng.normal(0.0, 0.35, size=(3, 3))
        terms.append(
            {
                "kind": "exp_bilinear",
                "indices": [3 * k + 1, 3 * k + 2, 3 * k + 3],
                "A": [[float(a) for a in row] for row in A],
            }
        )
    return {"q": 9, "terms": terms}


def pytest_configure(config):
    # Even without an example database, hypothesis caches the constants it
    # reads from the source tree, from collection on; keep them out of the
    # checkout, for this run only.
    config.hypothesis_home = tempfile.mkdtemp(prefix="pairshap-hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


# Filled by tests/test_acceptance.py; one entry per numbered criterion.
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        word = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {number:2d}: {word}{suffix}")
