"""Tracing from the outside: timing wrappers around the program's public
functions, and the per-layer metrics computed from the recorded spans.

The wrappers replace module attributes, so they see every call the program
makes through ``module.function`` and every call inside ``core`` to its own
public functions.  Spans stay in memory while the round runs and are written
out once at its end.  A span is ``[name, start, end, parent, work, key]``:
``parent`` is the index of the enclosing span or -1, ``work`` the layer's
counted work for that call, ``key`` the generator tuple of a built table.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, function, span name).  ``model`` holds only types and is not
# traced.
TRACED = (
    ("semigroup", "build_apery", "semigroup.build_apery"),
    ("semigroup", "build_sieve", "semigroup.build_sieve"),
    ("semigroup", "obstruction_set_fast", "semigroup.obstruction_set_fast"),
    ("core", "is_in_class", "core.is_in_class"),
    ("core", "obstruction_set", "core.obstruction_set"),
    ("core", "resonances", "core.resonances"),
    ("core", "enumerate_admissible", "core.enumerate_admissible"),
    ("counting", "closed_form_count", "counting.closed_form_count"),
    ("cli", "main", "cli.main"),
)


def _work(name: str, result) -> tuple[int, list | None]:
    """Counted work of one call, read from its result."""
    if name == "semigroup.build_apery":
        return result.modulus, list(result.generators)
    if name == "semigroup.build_sieve":
        return result.bound + 1, list(result.generators)
    if name == "semigroup.obstruction_set_fast":
        lo, hi = result.interval
        return hi - lo - 1, None
    if name == "core.resonances":
        return len(result), None
    return 0, None


class Recorder:
    """Holds the spans of one single-threaded round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0, None])
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
                if result is not None:
                    span[4], span[5] = _work(name, result)

        return traced

    def install(self) -> None:
        from qcweights import cli, core, counting, semigroup

        modules = {"cli": cli, "core": core, "counting": counting, "semigroup": semigroup}
        for module, attr, name in TRACED:
            setattr(modules[module], attr, self.wrap(getattr(modules[module], attr), name))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def layer_metrics(spans: list[list], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``<span>.s`` is self time: the span's duration minus the time its child
    spans cover.  Ratios over an empty base read 1.0 (nothing wasted).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    tables = set()
    for index, (name, start, end, _, amount, key) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[index]
        work[name] += amount
        if key is not None:
            tables.add(tuple(key))
    metrics: dict[str, float] = {}
    for _, _, name in TRACED:
        if name == "cli.main":
            metrics["cli.main.calls"] = calls[name]
            metrics["cli.self_s"] = self_s[name]
        else:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.s"] = self_s[name]
    built = calls["semigroup.build_apery"] + calls["semigroup.build_sieve"]
    sieve_cells = work["semigroup.build_sieve"]
    window_cells = work["semigroup.obstruction_set_fast"]
    metrics["semigroup.apery_residues"] = work["semigroup.build_apery"]
    metrics["semigroup.sieve_cells"] = sieve_cells
    metrics["semigroup.window_cells"] = window_cells
    metrics["semigroup.table_reuse_ratio"] = len(tables) / built if built else 1.0
    metrics["semigroup.sieve_useful_ratio"] = window_cells / sieve_cells if sieve_cells else 1.0
    metrics["core.resonance_witnesses"] = work["core.resonances"]
    metrics["cli.output_bytes"] = output_bytes
    return metrics
