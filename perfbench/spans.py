"""Per-layer tracing from outside the program.

Each layer function is replaced in its module, and in every urnlab module
that bound the same function object under its own name (``from .dist import
tv`` gives ``mc.tv``), by a wrapper that records a span (name, start, end,
parent, op) and work counts computed from the call's arguments and result.
Nothing under ``src/`` changes.  Spans stay in memory until the run ends;
self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import urnlab
from urnlab import bounds, cli, dist, mc, model, negdep, phase

_MODULES = (urnlab, model, dist, bounds, phase, mc, negdep, cli)


def _binomial_counts(args, result):
    return {"entries": len(result)}


def _convolve_counts(args, result):
    a, b = args["a"].probs, args["b"].probs
    return {
        "macs": a.size * b.size,
        "nonzero_macs": int(np.count_nonzero(a)) * int(np.count_nonzero(b)),
    }


def _tv_product_counts(args, result):
    regular, heavy = args["x"]
    return {"cells": len(regular) * len(heavy)}


def _mixing_counts(args, result):
    return {"evaluations": result.evaluations}


def _batch_counts(args, result):
    events = 0 if result.event_counts is None else int(result.event_counts.sum())
    return {"draws": result.count, "events": events}


def _joint_moment_counts(args, result):
    params, size = args["params"], args["size"]
    low = max(0, size - params.regular_count)
    high = min(size, params.heavy_count)
    return {"terms": high - low + 1}


def _cli_counts(args, result):
    # cli.main writes to sys.stdout, which the benchmark redirects to a fresh
    # buffer for every invocation; its output is ASCII, so chars are bytes.
    getvalue = getattr(sys.stdout, "getvalue", None)
    return {"out_bytes": len(getvalue()) if getvalue else 0}


# (module, attribute, span name, work counter)
LAYER_FUNCTIONS = (
    (dist, "binomial_pmf", "dist.binomial_pmf", _binomial_counts),
    (dist, "convolve", "dist.convolve", _convolve_counts),
    (dist, "tv", "dist.tv", None),
    (dist, "tv_product", "dist.tv_product", _tv_product_counts),
    (dist, "observed_tv", "dist.observed_tv", None),
    (dist, "chain_tv", "dist.chain_tv", None),
    (bounds, "kolmogorov_lower_bound", "bounds.kolmogorov_lower_bound", None),
    (bounds, "chebyshev_lower_bound", "bounds.closed_form", None),
    (bounds, "l2_upper_bound", "bounds.closed_form", None),
    (bounds, "clt_lower_bound", "bounds.closed_form", None),
    (bounds, "coupling_union_bound", "bounds.closed_form", None),
    (bounds, "product_chain_upper_bound", "bounds.closed_form", None),
    (phase, "mixing_time", "phase.mixing_time", _mixing_counts),
    (phase, "product_condition_ratio", "phase.product_condition_ratio", None),
    (phase, "classify", "phase.classify", None),
    (mc, "draw_stream", "mc.draw_stream", None),
    (mc, "sample_coupled", "mc.sample_coupled", None),
    (mc, "sample_batch", "mc.sample_batch", _batch_counts),
    (mc, "empirical_pmf", "mc.empirical_pmf", None),
    (negdep, "joint_moment", "negdep.joint_moment", _joint_moment_counts),
    (negdep, "verify_negative_dependence", "negdep.verify_negative_dependence", None),
    (cli, "main", "cli.main", _cli_counts),
)

# The per-layer metrics a traced run reports, in order.  A layer the workload
# never calls reports zeros.  `starts` counts the distance evaluations
# (dist.tv or dist.tv_product spans) directly under a worst-start call.
PER_LAYER = {
    "dist.convolve": ("calls", "self_ms", "macs", "nonzero_mac_frac"),
    "dist.binomial_pmf": ("calls", "self_ms", "entries"),
    "dist.tv": ("calls", "self_ms"),
    "dist.tv_product": ("calls", "self_ms", "cells"),
    "dist.observed_tv": ("calls", "ms", "starts"),
    "dist.chain_tv": ("calls", "ms", "starts"),
    "bounds.kolmogorov_lower_bound": ("calls", "ms", "self_ms"),
    "bounds.closed_form": ("calls", "self_ms"),
    "phase.mixing_time": ("calls", "ms", "evaluations"),
    "phase.product_condition_ratio": ("calls", "ms"),
    "phase.classify": ("calls", "ms"),
    "mc.draw_stream": ("calls", "self_ms"),
    "mc.sample_coupled": ("calls", "self_ms"),
    "mc.sample_batch": ("calls", "ms", "draws", "events"),
    "mc.empirical_pmf": ("calls", "self_ms"),
    "negdep.joint_moment": ("calls", "self_ms", "terms"),
    "negdep.verify_negative_dependence": ("calls", "ms"),
    "cli.main": ("calls", "ms", "self_ms", "out_bytes"),
}
UNITS = {
    "calls": "count", "ms": "ms", "self_ms": "ms", "macs": "count",
    "nonzero_mac_frac": "ratio", "entries": "count", "cells": "count",
    "starts": "count", "evaluations": "count", "draws": "count", "events": "count",
    "terms": "count", "out_bytes": "bytes",
}
_DISTANCE_SPANS = ("dist.tv", "dist.tv_product")
_WORST_START_SPANS = ("dist.observed_tv", "dist.chain_tv")
OP_PREFIX = "op."


class Tracer:
    """Span and count store for one traced pass.

    Wrappers record only while `recording` is true, so the benchmark's own
    checks, which call the same functions, stay out of the trace.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.recording = False
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        signature = inspect.signature(fn)
        tracer, spans, stack, clock = self, self.spans, self._stack, time.perf_counter

        # begin()/end() inlined: the Monte Carlo layers make ~10^5 calls per op
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counts[name].update(counter(bound.arguments, result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attribute, name, counter in LAYER_FUNCTIONS:
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name, counter)
            for holder in _MODULES:
                for alias, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, alias, wrapper)
                        self._patched.append((holder, alias, original))

    def uninstall(self) -> None:
        for holder, alias, original in reversed(self._patched):
            setattr(holder, alias, original)
        self._patched.clear()

    def _self_and_children(self):
        durations = [end - start for _, start, end, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        distance_children = [0] * len(self.spans)
        for index, (name, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[index]
                if name in _DISTANCE_SPANS:
                    distance_children[parent] += 1
        self_time = [d - c for d, c in zip(durations, child_time)]
        return durations, self_time, distance_children

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric, named ``<layer>.<quantity>``."""
        durations, self_time, distance_children = self._self_and_children()
        totals: dict[str, Counter] = defaultdict(Counter)
        for index, (name, _, _, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["ms"] += 1e3 * durations[index]
            entry["self_ms"] += 1e3 * self_time[index]
            if name in _WORST_START_SPANS:
                entry["starts"] += distance_children[index]
        for name, counts in self.counts.items():
            totals[name].update(counts)
        convolve = totals["dist.convolve"]
        if convolve["macs"]:
            convolve["nonzero_mac_frac"] = convolve["nonzero_macs"] / convolve["macs"]
        return {
            f"{layer}.{quantity}": totals[layer][quantity]
            for layer, quantities in PER_LAYER.items()
            for quantity in quantities
        }

    def attribution(self) -> dict[str, tuple[str, float]]:
        """For each op, the layer with the largest self time, in ms."""
        _, self_time, _ = self._self_and_children()
        per_op: dict[str, Counter] = defaultdict(Counter)
        for index, (name, _, _, _, op) in enumerate(self.spans):
            if not name.startswith(OP_PREFIX):
                per_op[op][name] += 1e3 * self_time[index]
        return {op: layers.most_common(1)[0] for op, layers in per_op.items() if layers}

    def write(self, path) -> None:
        """All spans as gzipped CSV: name, start_s, end_s, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as handle:
            handle.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
