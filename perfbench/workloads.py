"""The three benchmark workloads: generated documents, oracles, timed operations, checks.

`make_job` runs in the benchmark's parent process.  It draws every input
document from the workload seed and computes the reference values that the
output checks compare against, so no oracle work happens in the measured
process.  `load` runs in the workload process: it parses the documents (part
of set-up) and returns an object whose `run` is one timed operation.

All calls into pairshap go through module attributes looked up at call time,
so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from pairshap import GameEvaluator, asymptotics, cli, exact, parse_spec

WORKLOADS = ("walk_q9", "replicates_q4", "enum_q18")

WALK_ORDERS = 100_000
WALK_THRESHOLD = 1e-4
# Entrywise tolerance of the plug-in covariance, in standard errors of each
# entry computed from the oracle distribution.
WALK_SE_MULTIPLE = 8.0

REPLICATE_REPS = 20
REPLICATE_SIZES = (256, 1024, 4096)
REPLICATE_METHODS = ("kernel", "kernel-paired", "permutation", "permutation-paired")
# The game of configs/bias_variance_q4.json, copied so that edits to that
# config cannot change the benchmark.
REPLICATE_GAME = {
    "q": 4,
    "terms": [
        {"kind": "exp_linear", "indices": [1, 2, 3, 4], "beta": [-0.5, 0.1, 0.8, -0.2], "offset": -1.0}
    ],
}
REPLICATE_HEADER = "method,n,j,bias,sigma_hat,tau,evals_per_sample"

ENUM_Q = 18
ENUM_TOL = 1e-9


def op_seed(seed: int, i: int) -> int:
    """A fresh integer seed for operation i of a run with workload seed `seed`."""
    return seed * 1_000_003 + i


# --------------------------------------------------------------------------
# Parent side: documents and oracles.


def make_job(workload: str, seed: int) -> dict:
    makers = {"walk_q9": _walk_job, "replicates_q4": _replicates_job, "enum_q18": _enum_job}
    return makers[workload](seed)


def _walk_job(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(0.0, 0.35, size=(3, 3)) for _ in range(3)]
    game = {
        "q": 9,
        "terms": [
            {"kind": "exp_bilinear", "indices": [3 * k + 1, 3 * k + 2, 3 * k + 3], "A": A.tolist()}
            for k, A in enumerate(blocks)
        ],
    }
    cov, se = _separated_walk_oracle(blocks, WALK_ORDERS)
    return {
        "workload": "walk_q9",
        "seed": seed,
        "game": game,
        "expected_logical_evals": 2 * 9 * WALK_ORDERS,
        "oracle": {"cov": cov.tolist(), "se": se.tolist()},
    }


def _separated_walk_oracle(blocks, n: int):
    """Paired-walk covariance of a game that is a sum of disjoint 3-player blocks.

    Under a uniform order of all players, each block's players appear in a
    uniform relative order, independently across blocks, and a player's
    marginal contribution depends only on that relative order.  So each
    diagonal block is the population covariance over the 3! orders of the
    block's own sub-game, cross-block entries are zero, and the standard
    error of every sample-covariance entry follows from fourth moments.
    """
    size = 3
    q = size * len(blocks)
    orders = list(itertools.permutations(range(size)))
    cov = np.zeros((q, q))
    centred = []
    for k, A in enumerate(blocks):

        def worth(members) -> float:
            z = np.zeros(size)
            z[list(members)] = 1.0
            return math.exp(z @ A @ z) - 1.0

        def marginals(order) -> np.ndarray:
            out = np.empty(size)
            for t, player in enumerate(order):
                out[player] = worth(order[: t + 1]) - worth(order[:t])
            return out

        W = np.array([0.5 * (marginals(o) + marginals(o[::-1])) for o in orders])
        D = W - W.mean(axis=0)
        sl = slice(size * k, size * (k + 1))
        cov[sl, sl] = D.T @ D / len(orders)
        centred.append(D)
    var_product = np.outer(np.diag(cov), np.diag(cov))
    for k, D in enumerate(centred):
        sl = slice(size * k, size * (k + 1))
        products = D[:, :, None] * D[:, None, :]
        var_product[sl, sl] = (products**2).mean(axis=0) - cov[sl, sl] ** 2
    return cov, np.sqrt(np.maximum(var_product, 0.0) / n)


def _replicates_job(seed: int) -> dict:
    q = REPLICATE_GAME["q"]
    per_rep = 0
    for n in REPLICATE_SIZES:
        # kernel: n draws plus one grand value; paired kernel: 2n plus one;
        # permutation walks: q per order, 2q when paired.
        per_rep += (n + 1) + (2 * n + 1) + q * n + 2 * q * n
    # exact Shapley values once, plus one exact covariance per method, each
    # from a full value table
    enumeration = (1 + len(REPLICATE_METHODS)) * 2**q
    return {
        "workload": "replicates_q4",
        "seed": seed,
        "config": {
            "kind": "bias_variance",
            "vf": REPLICATE_GAME,
            "methods": list(REPLICATE_METHODS),
            "sizes": list(REPLICATE_SIZES),
            "reps": REPLICATE_REPS,
        },
        "expected_logical_evals": enumeration + REPLICATE_REPS * per_rep,
        "oracle": {
            "rows": len(REPLICATE_METHODS) * len(REPLICATE_SIZES) * q,
            "evals_per_sample": {"kernel": 1, "kernel-paired": 2, "permutation": q, "permutation-paired": 2 * q},
        },
    }


def _enum_job(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    beta = rng.uniform(-0.3, 0.3, size=ENUM_Q)
    game = {
        "q": ENUM_Q,
        "terms": [{"kind": "exp_linear", "indices": list(range(1, ENUM_Q + 1)), "beta": beta.tolist()}],
    }
    reference = exact.shapley_kernel_exact(GameEvaluator(parse_spec(game))).phi
    return {
        "workload": "enum_q18",
        "seed": seed,
        "game": game,
        "expected_logical_evals": 2 * 2**ENUM_Q,
        "oracle": {"phi": reference.tolist(), "grand": math.expm1(float(beta.sum()))},
    }


# --------------------------------------------------------------------------
# Workload-process side: set-up, timed operations and their checks.


def load(job: dict, workdir: Path):
    kinds = {"walk_q9": Walk, "replicates_q4": Replicates, "enum_q18": Enum}
    return kinds[job["workload"]](job, workdir)


class Walk:
    """One op: paired plug-in walk covariance at n orders, then block detection."""

    def __init__(self, job: dict, workdir: Path):
        self.seed = job["seed"]
        self.spec = parse_spec(json.dumps(job["game"]))
        self.cov = np.array(job["oracle"]["cov"])
        self.tol = WALK_SE_MULTIPLE * np.array(job["oracle"]["se"]) + 1e-12

    def prepare(self, i: int):
        return op_seed(self.seed, i)

    def run(self, order_seed):
        ev = GameEvaluator(self.spec)
        report = asymptotics.permutation_covariance_plugin(ev, WALK_ORDERS, seed=order_seed, paired=True)
        blocks = asymptotics.detect_blocks(report, WALK_THRESHOLD)
        return report.matrix, blocks

    def check(self, output) -> str | None:
        matrix, blocks = output
        excess = np.abs(matrix - self.cov) - self.tol
        if np.max(excess) > 0:
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            return f"covariance entry ({i},{j}) = {matrix[i, j]:.6g}, oracle {self.cov[i, j]:.6g}"
        row_sums = np.abs(matrix.sum(axis=1))
        if np.max(row_sums) > 1e-9 * max(1.0, float(np.max(np.abs(matrix)))):
            return f"covariance row sums reach {np.max(row_sums):.3g}, expected about zero"
        flat = sorted(j for block in blocks for j in block)
        if flat != list(range(matrix.shape[0])):
            return f"detected blocks {blocks} are not a partition of the players"
        return None

    def finish(self) -> str | None:
        return None


class Replicates:
    """One op: an in-process `pairshap experiment --config` on a bias/variance config."""

    def __init__(self, job: dict, workdir: Path):
        self.seed = job["seed"]
        self.config = job["config"]
        self.oracle = job["oracle"]
        self._tmp = tempfile.TemporaryDirectory(dir=workdir)
        self.dir = Path(self._tmp.name)
        self.first: tuple[int, bytes] | None = None

    def prepare(self, i: int):
        csv = self.dir / "out.csv"
        path = self.dir / "config.json"
        doc = dict(self.config, master_seed=op_seed(self.seed, i), outputs={"csv": str(csv)})
        path.write_text(json.dumps(doc))
        return i, str(path), csv

    def run(self, prepared):
        i, path, csv = prepared
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(["experiment", "--config", path])
        return i, code, captured.getvalue(), csv

    def check(self, output) -> str | None:
        i, code, stdout, csv = output
        if code != 0:
            return f"experiment exited {code}"
        if json.loads(stdout).get("rows") != self.oracle["rows"]:
            return f"experiment summary reports the wrong row count: {stdout.strip()}"
        data = csv.read_bytes()
        lines = data.decode().splitlines()
        if lines[0] != REPLICATE_HEADER or len(lines) != 1 + self.oracle["rows"]:
            return f"CSV has header {lines[0]!r} and {len(lines) - 1} rows"
        for line in lines[1:]:
            method, _, _, *numbers, evals = line.split(",")
            if not all(math.isfinite(float(x)) for x in numbers):
                return f"non-finite CSV row {line!r}"
            if int(evals) != self.oracle["evals_per_sample"].get(method):
                return f"CSV row {line!r} has the wrong evals_per_sample"
        if self.first is None:
            self.first = (i, data)
        return None

    def finish(self) -> str | None:
        """Re-run the first op's config; its CSV must come back byte for byte."""
        try:
            if self.first is None:
                return None
            i, data = self.first
            _, code, _, csv = self.run(self.prepare(i))
            if code != 0 or csv.read_bytes() != data:
                return f"re-running op {i}'s config did not reproduce its CSV bytes"
            return None
        finally:
            self._tmp.cleanup()


class Enum:
    """One op: subset-formula Shapley values, then the exact paired kernel covariance."""

    def __init__(self, job: dict, workdir: Path):
        self.spec = parse_spec(json.dumps(job["game"]))
        self.phi = np.array(job["oracle"]["phi"])
        self.grand = job["oracle"]["grand"]

    def prepare(self, i: int):
        return None

    def run(self, _):
        phi = exact.shapley_subset(GameEvaluator(self.spec)).phi
        report = asymptotics.kernel_matrices_exact(GameEvaluator(self.spec), paired=True)[2]
        return phi, report

    def check(self, output) -> str | None:
        phi, report = output
        scale = max(1.0, abs(self.grand))
        if abs(float(phi.sum()) - self.grand) > ENUM_TOL * scale:
            return f"phi sums to {phi.sum():.17g}, grand value {self.grand:.17g}"
        gap = float(np.max(np.abs(phi - self.phi)))
        if gap > ENUM_TOL * scale:
            return f"phi differs from the exact kernel route by {gap:.3g}"
        w = report.eigenvalues
        if not report.trace > 0:
            return f"paired covariance trace {report.trace:.3g} is not positive"
        if np.min(w) < -ENUM_TOL * np.max(np.abs(w)):
            return f"paired covariance has eigenvalue {np.min(w):.3g}"
        return None

    def finish(self) -> str | None:
        return None
