"""Spans around calls into heronet's layers, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records
one span per call: name, start, end and the enclosing span.  Functions
imported with `from .x import f` are bound in several modules, so every
heronet module that holds the original object gets the wrapper.  Spans stay
in memory in flat arrays and are written once, when the run ends.

A layer's self time is its span's duration minus the time covered by the
spans of its direct children.  Besides calls and self time, a few layers
report counters taken from their arguments and results (rows, PAD share,
emitted tokens and so on).  `Tracer.summary()` totals one process's spans
per layer, and `metrics()` sums the summaries of every process of a run
into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute path) of every traced function, in report order.  The
# stage entry points come first: their self time is the work no listed layer
# covers.
LAYERS = [
    ("pipeline", "stage_gen_data"),
    ("pipeline", "stage_retrieval"),
    ("pipeline", "stage_adversarial"),
    ("pipeline", "stage_rerank_train"),
    ("pipeline", "run_chat"),
    ("pipeline", "load_world"),
    ("checkpoint", "load_checkpoint"),
    ("checkpoint", "save_checkpoint"),
    ("corpus", "encode_text"),
    ("autodiff", "backward"),
    ("autodiff", "Adam.step"),
    ("autodiff", "matmul"),
    ("autodiff", "softmax"),
    ("autodiff", "layer_norm"),
    ("model", "encode_mean_pool"),
    ("model", "sample_batch"),
    ("bm25", "Bm25Index.top_k"),
    ("retrieval", "build_pool_cache"),
    ("retrieval", "mine_sqd_batch"),
    ("retrieval", "sqd_step"),
    ("retrieval", "mine_qrm_batch"),
    ("retrieval", "qrm_step"),
    ("retrieval", "retrieve_top_m_batch"),
    ("generation", "pg_step"),
    ("generation", "generate_candidates"),
    ("discriminator", "score_pairs"),
    ("discriminator", "disc_step"),
    ("rerank", "build_candidate_set"),
    ("rerank", "dedupe_candidates"),
    ("rerank", "rerank"),
    ("rerank", "rerank_train_epoch"),
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_encode(counts, args, kwargs, out):
    mask = out[0].mask
    counts["rows"] += mask.shape[0]
    counts["positions"] += mask.size
    counts["pads"] += mask.size - float(mask.sum())


def _count_sample(counts, args, kwargs, out):
    rows = _arg(args, kwargs, 2, "hidden").states.data.shape[0]
    start = len(kwargs.get("start") or (args[7] if len(args) > 7 else None)
                or [])
    emitted = [len(seq) - start for seq in out]
    counts["rows"] += rows
    counts["tokens"] += sum(emitted)
    # Every decode step extends every row, finished or not, so the step
    # count is the longest row's emitted length.
    counts["row_steps"] += rows * max(emitted, default=0)


def _count_retrieve(counts, args, kwargs, out):
    counts["queries"] += len(_arg(args, kwargs, 2, "queries"))


def _count_dedupe(counts, args, kwargs, out):
    counts["offered"] += len(_arg(args, kwargs, 0, "candidates"))
    counts["kept"] += len(out)


_COUNTERS = {
    "model.encode_mean_pool": _count_encode,
    "model.sample_batch": _count_sample,
    "retrieval.retrieve_top_m_batch": _count_retrieve,
    "rerank.dedupe_candidates": _count_dedupe,
}


def _share(num, den):
    return num / den if den else 0.0


# Derived per-layer metrics: name suffix -> value from that layer's counters.
_DERIVED = {
    "model.encode_mean_pool": {
        "rows": lambda c: c["rows"],
        "pad_share": lambda c: _share(c["pads"], c["positions"]),
    },
    "model.sample_batch": {
        "rows": lambda c: c["rows"],
        "tokens": lambda c: c["tokens"],
        "useful_token_share": lambda c: _share(c["tokens"], c["row_steps"]),
    },
    "retrieval.retrieve_top_m_batch": {
        "queries_per_call": lambda c: _share(c["queries"], c["calls"]),
    },
    "rerank.dedupe_candidates": {
        "keep_share": lambda c: _share(c["kept"], c["offered"]),
    },
}


_UNITS = {"pad_share": "share", "useful_token_share": "share",
          "keep_share": "share", "queries_per_call": "queries/call"}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, attr in LAYERS:
        layer = f"{module}.{attr}"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.total_s"] = "s"
        for stat in _DERIVED.get(layer, {}):
            units[f"{layer}.{stat}"] = _UNITS.get(stat, "count")
    return units


def metrics(summaries) -> dict:
    """Per-layer metrics as {name: {"value", "unit"}}, summed over the
    `Tracer.summary()` of every process of a run."""
    totals = defaultdict(lambda: defaultdict(float))
    for summary in summaries:
        for layer, counts in summary.items():
            for key, value in counts.items():
                totals[layer][key] += value
    out = {}
    for module, attr in LAYERS:
        layer = f"{module}.{attr}"
        counts = totals[layer]
        out[f"{layer}.calls"] = int(counts["calls"])
        out[f"{layer}.self_s"] = counts["self_s"]
        out[f"{layer}.total_s"] = counts["total_s"]
        for stat, fn in _DERIVED.get(layer, {}).items():
            out[f"{layer}.{stat}"] = float(fn(counts))
    units = metric_units()
    return {k: {"value": out[k], "unit": units[k]} for k in units}


class Tracer:
    """Records spans for the functions in LAYERS once installed."""

    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self.counts = defaultdict(lambda: defaultdict(float))

    def _wrap(self, layer, fn):
        name_id = len(self.names)
        self.names.append(layer)
        counter = _COUNTERS.get(layer)
        counts = self.counts[layer]
        stack, names = self._stack, self.span_name
        parents, starts, ends = self.span_parent, self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every traced function wherever a heronet module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "heronet" or n.startswith("heronet.")]
        for module, attr in LAYERS:
            layer = f"{module}.{attr}"
            owner = sys.modules[f"heronet.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(layer, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _durations(self):
        """(duration, self time) of every span."""
        n = len(self.span_start)
        start = np.frombuffer(self.span_start, dtype=np.float64, count=n)
        end = np.frombuffer(self.span_end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        return dur, dur - covered

    def summary(self) -> dict:
        """{layer: {"calls", "self_s", "total_s", counters...}} of this run.

        total_s counts a recursive layer once per nesting level; none of
        the traced functions call themselves.
        """
        n = len(self.span_start)
        name_ids = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        dur, own = self._durations()
        self_s = np.bincount(name_ids, weights=own, minlength=len(self.names))
        total_s = np.bincount(name_ids, weights=dur,
                              minlength=len(self.names))
        calls = np.bincount(name_ids, minlength=len(self.names))
        return {layer: {**self.counts[layer], "calls": float(calls[i]),
                        "self_s": float(self_s[i]),
                        "total_s": float(total_s[i])}
                for i, layer in enumerate(self.names)}

    def write(self, path):
        """Save every span (name, parent, start, end) for later inspection."""
        n = len(self.span_start)
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32, count=n),
            parent=np.frombuffer(self.span_parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.span_start, dtype=np.float64, count=n),
            end=np.frombuffer(self.span_end, dtype=np.float64, count=n))
