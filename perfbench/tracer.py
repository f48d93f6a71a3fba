"""Spans around the public functions of each submodtree module.

The traced run wraps the functions listed in ``TARGETS`` from the outside
(no file under ``src/`` changes).  Each call becomes a span (name, start,
end, parent) held in memory and written once, when the job ends.  Spans are
kept in one flat list of ints, four per span, so that the garbage collector
has no per-span object to scan.  Counts
are taken at the same boundaries.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute path, span name); "Class.method" patches the class
TARGETS = [
    ("cube", "ProductDistribution.probability_vector", "cube.probability_vector"),
    ("funcs", "ValueOracle.table", "funcs.table"),
    ("funcs", "ValueOracle.eval_many", "funcs.eval_many"),
    ("funcs", "is_submodular", "funcs.check"),
    ("funcs", "is_monotone", "funcs.check"),
    ("funcs", "is_alpha_monotone_decreasing", "funcs.check"),
    ("funcs", "lipschitz_constant", "funcs.check"),
    ("funcs", "restrict", "funcs.restrict"),
    ("fourier", "fwht", "fourier.fwht"),
    ("fourier", "Spectrum.from_dense", "fourier.from_dense"),
    ("fourier", "Spectrum.to_csv", "fourier.to_csv"),
    ("fourier", "pairwise_coefficient_gap", "fourier.pairwise"),
    ("fourier", "transform", "fourier.transform"),
    ("fourier", "parity_signs", "fourier.parity_signs"),
    ("dtree", "exact_distance", "dtree.exact_distance"),
    ("dtree", "truncation_disagreements", "dtree.truncation"),
    ("dtree", "truncate", "dtree.truncation"),
    ("decompose", "build_lipschitz_tree", "decompose.build"),
    ("decompose", "build_monotone_tree", "decompose.build"),
    ("decompose", "_certify", "decompose.certify"),
    ("decompose", "constantize_leaves", "decompose.constantize"),
    ("learn", "km_search", "learn.km_search"),
    ("hardness", "embed_build", "hardness.embed"),
    ("hardness", "embed_decode", "hardness.embed"),
    ("hardness", "correlation_brute_force", "hardness.correlation"),
    ("hardness", "correlation_closed_form", "hardness.correlation"),
    ("hardness", "alternating_partial_sum", "hardness.correlation"),
    ("hardness", "alternating_partial_sum_closed", "hardness.correlation"),
    ("cli", "main", "cli.main"),
    *[("cli", f"suite_{s}", f"cli.suite_{s}") for s in
      ("variance", "parseval", "pairwise", "rank", "pruning", "correlation", "embedding")],
]


class Recorder:
    """In-memory span list plus counters, written as JSON at job end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[int] = []  # name index, start ns, end ns, parent span; repeated
        self.counts: Counter = Counter()
        self.counters: list = []  # every query counter created in the job
        self._stack: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """fn recorded as span ``name``; after(args, result, before(args))
        adds counts once the span has ended."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            at = len(spans)
            spans.extend((name_id, time.perf_counter_ns(), 0, stack[-1] if stack else -1))
            stack.append(at >> 2)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[at + 2] = time.perf_counter_ns()
                stack.pop()
            if after:
                after(args, result, pre)
            return result

        return wrapper

    def write(self, path: str) -> None:
        self.counts["funcs.queries"] = sum(c.count for c in self.counters)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "spans": self.spans, "counts": self.counts}))


def _hooks(rec: Recorder) -> dict:
    counts = rec.counts

    def table_after(args, result, queries_before):
        counts["funcs.table_points"] += args[0].query_count - queries_before

    def eval_after(args, result, _):
        counts["funcs.eval_points"] += int(np.size(args[1]))

    def build_after(args, result, _):
        from submodtree import dtree

        counts["decompose.leaves"] += len(result.leaf_certificates) or dtree.tree_size(result.tree)

    def km_after(args, result, _):
        counts["learn.buckets_examined"] += result.info["buckets_examined"]
        counts["learn.buckets_retained"] += len(result.spectrum.coeffs)

    return {
        "funcs.table": (lambda args: args[0].query_count, table_after),
        "funcs.eval_many": (None, eval_after),
        "decompose.build": (None, build_after),
        "learn.km_search": (None, km_after),
    }


def install(rec: Recorder) -> None:
    """Patch every target in place, in each submodtree module that holds it."""
    import submodtree
    from submodtree import cli, cube, decompose, dtree, fourier, funcs, hardness, learn

    modules = [submodtree, cli, cube, decompose, dtree, fourier, funcs, hardness, learn]
    hooks = _hooks(rec)
    for mod_name, path, span in TARGETS:
        owner = sys.modules[f"submodtree.{mod_name}"]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        is_static = isinstance(raw, staticmethod)
        orig = raw.__func__ if is_static else raw
        before, after = hooks.get(span, (None, None))
        wrapped = rec.wrap(span, orig, before, after)
        if cls_path:
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            continue
        for mod in modules:  # names imported with "from .x import f" too
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    counter_init = funcs._QueryCounter.__init__

    def register(self):
        counter_init(self)
        rec.counters.append(self)

    funcs._QueryCounter.__init__ = register


def summarize(trace: dict) -> tuple[dict[str, float], Counter]:
    """Self time in seconds and call count per span name."""
    names, flat = trace["names"], trace["spans"]
    spans = list(zip(flat[0::4], flat[1::4], flat[2::4], flat[3::4]))
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s: dict[str, float] = {name: 0.0 for name in names}
    calls: Counter = Counter()
    for (name_id, start, end, _), child in zip(spans, child_ns):
        self_s[names[name_id]] += (end - start - child) / 1e9
        calls[names[name_id]] += 1
    return self_s, calls
