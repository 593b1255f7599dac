"""Command-line interface.

Subcommands: exact, sample, asymptotics, experiment, blocks, bilinear-test.
Data goes to stdout (JSON by default, TSV where tabular); error names and
messages go to stderr.  Exit codes: 0 success, 2 bad input or request
outside the supported range, 3 numerical failure, 141 (128 + SIGPIPE)
stdout closed by its reader.  Every randomized subcommand requires an
explicit --seed.  Sampled estimates and covariances are reached only
through `estimators.ESTIMATORS`; `blocks` reads the covariance of its
permutation-paired entry, exact or plug-in as `asymptotics` does.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import asymptotics, exact, experiments, kernel
from .errors import InputError, NumericError, SchemaError
from .estimators import ESTIMATORS
from .games import GameEvaluator, parse_spec


def _load_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read value function file {path!r}: {exc}") from exc
    return parse_spec(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path!r}: {exc}") from exc


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, the entropy numpy's SeedSequence accepts."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


# the routes of `exact --method`, in the order `--method all` prints them
_EXACT_ROUTES = {
    "subset": exact.shapley_subset,
    "permutation": exact.shapley_all_permutations,
    "kernel": exact.shapley_kernel_exact,
}


def _cmd_exact(args) -> int:
    spec = _load_spec(args.vf)
    chosen = list(_EXACT_ROUTES) if args.method == "all" else [args.method]
    # one evaluator, so the routes share one value table
    ev = GameEvaluator(spec)
    results = {name: _EXACT_ROUTES[name](ev).phi for name in chosen}
    if args.tsv:
        print("method\tj\tphi")
        for name in chosen:
            for j, value in enumerate(results[name], start=1):
                print(f"{name}\t{j}\t{float(value)!r}")
        return 0
    payload = {"q": spec.q, "phi": {name: [float(v) for v in results[name]] for name in chosen}}
    if len(chosen) > 1:
        pairs = itertools.combinations(results.values(), 2)
        payload["max_pairwise_discrepancy"] = max(float(abs(a - b).max()) for a, b in pairs)
    _emit(payload)
    return 0


def _cmd_sample(args) -> int:
    spec = _load_spec(args.vf)
    estimator = ESTIMATORS[f"{args.method}-paired" if args.paired else args.method]
    ev = GameEvaluator(spec)
    drawn = estimator.estimate(ev, args.n, args.seed)
    vector = drawn[0]
    evaluations = ev.eval_count

    if args.stderr_from == "exact":
        report = estimator.exact_covariance(ev)
    else:
        report = estimator.plugin_covariance(ev, args.n, args.seed, drawn)
    stderr_vec = asymptotics.predicted_stderr(report, args.n)

    _emit(
        {
            "q": spec.q,
            "method": vector.method_tag,
            "n": args.n,
            "seed": args.seed,
            "phi": [float(v) for v in vector.phi],
            "stderr": [float(v) for v in stderr_vec],
            "stderr_source": report.provenance,
            "evaluations": evaluations,
        }
    )
    return 0


def _covariance(estimator, ev, args) -> asymptotics.CovarianceReport:
    """The estimator's exact covariance, or its plug-in one from `--plugin N` draws with `--seed`."""
    if args.plugin is None:
        return estimator.exact_covariance(ev)
    if args.seed is None:
        raise SchemaError("--plugin requires --seed")
    return estimator.plugin_covariance(ev, args.plugin, args.seed)


def _cmd_asymptotics(args) -> int:
    spec = _load_spec(args.vf)
    estimator = ESTIMATORS[args.method]
    report = _covariance(estimator, GameEvaluator(spec), args)
    payload = asymptotics.report_to_dict(report)
    if args.adjusted:
        # rescaled by the evaluations one draw costs, for cross-method comparison
        adjusted = report.eigenvalues * estimator.cost(spec.q)
        payload["adjusted_eigenvalues"] = [float(v) for v in adjusted]
    _emit(payload)
    return 0


def _cmd_experiment(args) -> int:
    doc = _load_json(args.config)
    summary = experiments.run_from_config(doc)
    _emit(summary)
    return 0


def _cmd_blocks(args) -> int:
    # before the covariance, which may walk all q! orders
    asymptotics.check_threshold(args.threshold)
    spec = _load_spec(args.vf)
    report = _covariance(ESTIMATORS["permutation-paired"], GameEvaluator(spec), args)
    blocks = asymptotics.detect_blocks(report, args.threshold)
    _emit(
        {
            "q": spec.q,
            "threshold": args.threshold,
            "provenance": report.provenance,
            "blocks": [[j + 1 for j in block] for block in blocks],
        }
    )
    return 0


def _cmd_bilinear_test(args) -> int:
    spec = _load_spec(args.vf)
    spread = kernel.bilinearity_test(GameEvaluator(spec), args.trials, args.tol, seed=args.seed)
    consistent = spread <= args.tol
    _emit(
        {
            "q": spec.q,
            "trials": args.trials,
            "tol": args.tol,
            "consistent": consistent,
            "max_discrepancy": spread,
            "verdict": "bilinear-consistent" if consistent else "not-bilinear-consistent",
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairshap",
        description="Exact and sampled Shapley values with dispersion diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact Shapley values by one or all routes")
    p.add_argument("--vf", required=True, help="value function JSON file")
    p.add_argument("--method", choices=[*_EXACT_ROUTES, "all"], default="all")
    p.add_argument("--tsv", action="store_true", help="tabular TSV instead of JSON")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("sample", help="sampling estimate with standard errors")
    p.add_argument("--vf", required=True)
    p.add_argument("--method", choices=["kernel", "permutation"], required=True)
    p.add_argument("--paired", action="store_true")
    p.add_argument("--n", type=int, required=True, help="draws (pairs when --paired)")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--stderr-from", choices=["exact", "plugin"], default="exact", dest="stderr_from")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("asymptotics", help="asymptotic covariance report")
    p.add_argument("--vf", required=True)
    p.add_argument("--method", choices=list(ESTIMATORS), required=True)
    p.add_argument("--plugin", type=int, metavar="N", help="plug-in estimate from N draws (default: exact)")
    p.add_argument("--seed", type=_seed, help="required with --plugin")
    p.add_argument("--adjusted", action="store_true", help="also report cost-adjusted eigenvalues")
    p.set_defaults(handler=_cmd_asymptotics)

    p = sub.add_parser("experiment", help="run an experiment config and write CSV")
    p.add_argument("--config", required=True, help="experiment JSON file")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("blocks", help="player groups from the paired-walk covariance")
    p.add_argument("--vf", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--plugin", type=int, metavar="N", help="plug-in estimate from N draws (default: exact)")
    p.add_argument("--seed", type=_seed, help="required with --plugin")
    p.set_defaults(handler=_cmd_blocks)

    p = sub.add_parser("bilinear-test", help="probe basis invariance of paired solves")
    p.add_argument("--vf", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(handler=_cmd_bilinear_test)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        # a closed stdout shows here, not in the interpreter's final flush
        sys.stdout.flush()
        return code
    except (InputError, NumericError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    except BrokenPipeError:
        # the reader has gone: the rest of the output goes to devnull, so
        # that the interpreter's final flush of stdout is quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
