"""Span tracing of pairshap from outside the package.

The tracer wraps public functions of pairshap's modules, at every place the
function is looked up: a module attribute (also where another module
imported it by name) or a class attribute.  Each call records a span (name,
start, end, parent) in memory; a layer's self time is its span's duration
minus the durations of its direct children, which never overlap because the
workloads run in one thread.  Counts are taken at the same boundaries.

A function that a later version of the package no longer has is skipped,
and its metrics read zero.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

# span name -> (module, qualified name)
SPANS = {
    "games.values": ("games", "ValueFunctionSpec.values"),
    "games.as_coalitions": ("games", "as_coalitions"),
    "games.raw_values": ("games", "Term.raw_values"),
    "games.parse_spec": ("games", "parse_spec"),
    "permutation.sample_permutations": ("permutation", "sample_permutations"),
    "permutation.marginal_vectors": ("permutation", "marginal_vectors"),
    "exact.value_table": ("exact", "value_table"),
    "exact.coalition_matrix": ("exact", "coalition_matrix"),
    "exact.shapley_subset": ("exact", "shapley_subset"),
    "exact.kernel_population": ("exact", "kernel_population"),
    "kernel.estimate_kernel": ("kernel", "estimate_kernel"),
    "kernel.sample_coalitions": ("kernel", "sample_coalitions"),
    "kernel.design_response": ("kernel", "design_response"),
    "asymptotics.permutation_covariance_plugin": ("asymptotics", "permutation_covariance_plugin"),
    "asymptotics.kernel_matrices_exact": ("asymptotics", "kernel_matrices_exact"),
    "asymptotics.permutation_covariance_exact": ("asymptotics", "permutation_covariance_exact"),
    "asymptotics.detect_blocks": ("asymptotics", "detect_blocks"),
    "linalg.solve_spd": ("linalg", "solve_spd"),
    "linalg.rank": ("linalg", "rank"),
    "linalg.eig_sym": ("linalg", "eig_sym"),
    "streams.derive_rng": ("streams", "derive_rng"),
    "experiments.run_from_config": ("experiments", "run_from_config"),
    "cli.main": ("cli", "main"),
}

# Reported per-layer metrics: name -> unit.  Counts must repeat exactly from
# op to op; self times are medians over the traced ops.
CALLS = (
    "games.values", "permutation.marginal_vectors", "exact.value_table", "kernel.estimate_kernel",
    "asymptotics.kernel_matrices_exact", "linalg.solve_spd", "linalg.rank", "linalg.eig_sym",
    "streams.derive_rng",
)
SELF = (
    "games.values", "games.as_coalitions", "games.raw_values",
    "permutation.sample_permutations", "permutation.marginal_vectors",
    "exact.value_table", "exact.coalition_matrix", "exact.shapley_subset", "exact.kernel_population",
    "kernel.estimate_kernel", "kernel.sample_coalitions", "kernel.design_response",
    "asymptotics.permutation_covariance_plugin", "asymptotics.kernel_matrices_exact",
    "asymptotics.permutation_covariance_exact", "asymptotics.detect_blocks",
    "linalg.solve_spd", "linalg.rank", "linalg.eig_sym", "streams.derive_rng",
    "experiments.run_from_config", "cli.main",
)
EXACT_COUNTS = tuple(f"{n}.calls" for n in CALLS) + (
    "games.values.rows", "games.logical_evals", "kernel.retries",
)


def _sites(module_name: str, qualname: str):
    """The original function and every (owner, attribute) it is reachable by."""
    try:
        owner = importlib.import_module(f"pairshap.{module_name}")
    except ModuleNotFoundError:
        return None, []
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None) if owner is not None else None
    if original is None:
        return None, []
    if path:
        return original, [(owner, attr)]
    sites = []
    for name, mod in list(sys.modules.items()):
        if name == "pairshap" or name.startswith("pairshap."):
            for key, value in vars(mod).items():
                if value is original:
                    sites.append((mod, key))
    return original, sites


class Tracer:
    """Installs span wrappers between `install` and `remove`, one op at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = []
        for name, (module_name, qualname) in SPANS.items():
            original, sites = _sites(module_name, qualname)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            self._patches += [(owner, attr, original, wrapper) for owner, attr in sites]

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "games.values":
                counts["games.values.rows"] += int(np.shape(args[1])[0])
            elif name == "kernel.estimate_kernel":
                counts["kernel.retries"] += result[1].retries
            return result

        return traced

    def install(self) -> int:
        """Patch every site; returns the index of the op's first span."""
        self.counts.clear()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return len(self.spans)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def op_metrics(self, first: int, logical_evals: int) -> dict:
        """Per-layer counts and self times of the spans recorded since `first`."""
        ops = self.spans[first:]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(ops)
        for name, start, end, parent in ops:
            if parent >= 0:
                child_time[parent - first] += end - start
        for k, (name, start, end, _) in enumerate(ops):
            calls[name] += 1
            self_s[name] += end - start - child_time[k]
        out = {f"{n}.calls": calls[n] for n in CALLS}
        out.update({f"{n}.self_s": self_s[n] for n in SELF})
        rows = self.counts["games.values.rows"]
        out["games.values.rows"] = rows
        out["games.logical_evals"] = logical_evals
        out["games.rows_per_logical_eval"] = rows / logical_evals if logical_evals else 0.0
        retries = self.counts["kernel.retries"]
        out["kernel.retries"] = retries
        fits = calls["kernel.estimate_kernel"]
        # accepted over attempted batches; 1.0 when no batch was drawn
        out["kernel.accepted_batch_ratio"] = fits / (fits + retries) if fits else 1.0
        return out

    def dump(self, path, **meta) -> None:
        """Write every span, times in microseconds since the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start_us", "end_us", "parent"], "spans": rows}, fh)
