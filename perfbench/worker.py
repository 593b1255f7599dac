"""One workload process: set-up, then a closed loop of timed ops for a fixed time.

    python3 perfbench/worker.py JOB.json --seconds S --trace 0|1 [--setup-only]

Prints "ready" once set-up is done (the parent times set-up up to that line),
then one JSON line with the run's results.  With --trace 1 the ops alternate
between untraced and traced, so the traced run measures its own overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pairshap  # noqa: E402
from pairshap import GameEvaluator, InputError, NumericError  # noqa: E402

import workloads  # noqa: E402
from tracing import EXACT_COUNTS, Tracer  # noqa: E402

# Untraced ops needed for the tail percentile to have ten ops beyond it.
MIN_OPS = 11


def count_evaluators() -> list:
    """Record every GameEvaluator built from now on, wherever it is built."""
    created: list = []
    init = GameEvaluator.__init__

    def registering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    GameEvaluator.__init__ = registering_init
    return created


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(pairshap.__file__).resolve().is_relative_to(HERE.parent / "src"):
        print(f"pairshap was imported from {pairshap.__file__}, not from this checkout", file=sys.stderr)
        return 2
    job = json.loads(Path(args.job).read_text())
    workload = workloads.load(job, Path(args.job).parent)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    created = count_evaluators()
    tracer = Tracer() if args.trace else None
    expected = job["expected_logical_evals"]
    problems: list[str] = []
    latencies: list[float] = []
    traced_latencies: list[float] = []
    logical: list[int] = []
    layers: list[dict] = []
    attempted = failed = 0

    def one(i: int, traced: bool):
        nonlocal attempted, failed
        prepared = workload.prepare(i)
        created.clear()
        first = tracer.install() if traced else 0
        start = time.perf_counter()
        try:
            output = workload.run(prepared)
            error = None
        except (InputError, NumericError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if traced:
            tracer.remove()
        attempted += 1
        evals = sum(ev.eval_count for ev in created)
        if error is None:
            error = workload.check(output)
        if error is None and evals != expected:
            error = f"{evals} logical evaluations, expected exactly {expected}"
        if error is not None:
            failed += 1
            problems.append(f"op {i}: {error}")
            return None
        if traced:
            layers.append(tracer.op_metrics(first, evals))
        return elapsed, evals

    # warm-up: checked and counted as attempted, but not timed
    one(0, False)
    deadline = time.perf_counter() + args.seconds
    i = 1
    # past the deadline only while ops succeed and too few have been timed
    while time.perf_counter() < deadline or (
        failed == 0 and (len(latencies) < MIN_OPS or (tracer is not None and not layers))
    ):
        traced = tracer is not None and i % 2 == 0
        result = one(i, traced)
        if result is not None:
            (traced_latencies if traced else latencies).append(result[0])
            if not traced:
                logical.append(result[1])
        i += 1
    finish = workload.finish()
    if finish:
        problems.append(finish)

    per_layer = {}
    if layers and latencies:
        for key in layers[0]:
            values = [m[key] for m in layers]
            if key in EXACT_COUNTS:
                if len(set(values)) != 1:
                    problems.append(f"{key} differs between ops: {sorted(set(values))}")
                per_layer[key] = values[0]
            else:
                per_layer[key] = statistics.median(values)
        per_layer["trace.overhead_frac"] = (
            statistics.median(traced_latencies) / statistics.median(latencies) - 1.0
        )
        tracer.dump(
            HERE / "out" / f"spans-{job['workload']}.json", workload=job["workload"], seed=job["seed"]
        )

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "latencies": latencies,
        "logical_evals": logical,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "per_layer": per_layer,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
