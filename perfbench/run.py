"""pairshap benchmark: one workload, timed in a fresh process, outputs checked.

    python3 perfbench/run.py --workload walk_q9 --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from `src/` beside this
directory.  The parent process draws the workload's documents from --seed and
computes the oracles, times set-up over several fresh workload processes,
then runs one workload process for --seconds (a closed loop: one client, the
next op starts when the previous one ends).  With --trace 0 it prints the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced run.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is timed over this many fresh processes besides the measured one.
SETUP_PROBES = 10
# One BLAS thread: steadier timings on a shared machine, and never more
# threads than cores.
BLAS_THREADS = 1
# Margin beyond --seconds for set-up, the warm-up op and the checks.
TIMEOUT_MARGIN_S = 120


def _worker(job: Path, env: dict, *flags: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job), *flags],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )


def _until_ready(proc: subprocess.Popen, start: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process failed during set-up")
    return time.perf_counter() - start


def _run(job: Path, seconds: int, trace: int) -> tuple[list[float], dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS))
    setups = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = _worker(job, env, "--setup-only")
        setups.append(_until_ready(proc, start))
        proc.communicate(timeout=TIMEOUT_MARGIN_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    start = time.perf_counter()
    proc = _worker(job, env, "--seconds", str(seconds), "--trace", str(trace))
    setups.append(_until_ready(proc, start))
    try:
        stdout, _ = proc.communicate(timeout=seconds + TIMEOUT_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return setups, json.loads(stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], result: dict) -> tuple[dict, list[str]]:
    lat = sorted(result["latencies"])
    n = len(lat)
    # highest percentile with at least ten ops beyond it
    tail_index = max(n - 11, 0)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (lat[tail_index], "s"),
        "evals_per_s": (sum(result["logical_evals"]) / sum(lat), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = [
        f"setup_s is the median of {len(setups)} process starts",
        f"op_tail_s is p{100.0 * (tail_index + 1) / n:.1f} of {n} timed ops "
        f"({n - tail_index - 1} beyond it)",
        f"failed_frac {result['failed'] / result['attempted']:.4g} "
        f"({result['failed']} of {result['attempted']} ops attempted, warm-up op included)",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def per_layer(result: dict) -> dict:
    units = {"self_s": "s", "overhead_frac": "ratio", "rows_per_logical_eval": "ratio",
             "accepted_batch_ratio": "ratio"}
    return {
        name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "count")}
        for name, value in result["per_layer"].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    if not (ROOT / "src" / "pairshap" / "__init__.py").is_file():
        print(f"no pairshap source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    job = OUT / f"job-{args.workload}-{args.seed}-{os.getpid()}.json"
    job.write_text(json.dumps(workloads.make_job(args.workload, args.seed)))
    try:
        setups, result = _run(job, args.seconds, args.trace)
    finally:
        job.unlink()

    if not result["latencies"]:
        print("no op succeeded:", *result["problems"][:10], sep="\n  ", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s closed loop, one client, "
          f"BLAS threads {BLAS_THREADS} of {os.cpu_count()} cores, trace {args.trace}")
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics, notes = end_to_end(setups, result)
        for note in notes:
            print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}")
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
