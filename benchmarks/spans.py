"""Layer spans recorded from outside the program.

``install`` replaces module attributes (``spamlab.evaluate.token_class_counts``
and the like) with wrappers that record a span per call: layer name, start,
end and the index of the enclosing span.  Spans stay in memory; the child
writes them out when its workload ends and ``summarize`` turns them into
per-layer self times and counts.  Nothing under ``src/`` is edited, so the
same wrappers measure any commit whose modules still reference these names.
A name a commit no longer has or no longer calls reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import time

# Layer -> the "module:attribute" names through which callers reach it.
# The library workloads call the package namespace, the evaluation engine
# calls its own module globals, and the CLI calls the names it imported.
LAYERS = {
    "corpus.load": ("spamlab:load_corpus", "spamlab.cli:load_corpus"),
    "evaluate.plan": ("spamlab:make_stratified_folds", "spamlab.cli:make_stratified_folds"),
    "evaluate.run": (
        "spamlab:cross_validate",
        "spamlab:sweep_attributes",
        "spamlab.cli:cross_validate",
        "spamlab.cli:sweep_attributes",
    ),
    "evaluate.split": ("spamlab.evaluate:fold_documents",),
    "features.count": ("spamlab.evaluate:token_class_counts",),
    "features.rank": ("spamlab.evaluate:select_attributes",),
    "features.vectorize": ("spamlab.evaluate:vectorize_documents",),
    "bayes.train": ("spamlab.evaluate:train_naive_bayes",),
    "bayes.classify": ("spamlab.evaluate:classify_nb_batch",),
    "memory.build": ("spamlab.evaluate:build_instance_base",),
    "memory.classify": ("spamlab.evaluate:classify_mb_batch",),
    "cli.main": ("spamlab.cli:main",),
}

# Pseudo-layer of the recorder's own counting, reported as trace.count_s.
COUNT = "trace.count"

# Per-layer metric name -> (layer, what).  "self" is the layer's self time
# in seconds, "calls" its call count, any other key a counter below.
METRICS = {
    "corpus.load_s": ("corpus.load", "self"),
    "corpus.docs": ("corpus.load", "docs"),
    "corpus.tokens": ("corpus.load", "tokens"),
    "features.count_s": ("features.count", "self"),
    "features.count_calls": ("features.count", "calls"),
    "features.token_visits": ("features.count", "token_visits"),
    "features.rank_s": ("features.rank", "self"),
    "features.rank_calls": ("features.rank", "calls"),
    "features.rank_distinct": ("features.rank", "distinct"),
    "features.mi_evals": ("features.rank", "mi_evals"),
    "features.vectorize_s": ("features.vectorize", "self"),
    "features.vectorize_cells": ("features.vectorize", "cells"),
    "memory.build_s": ("memory.build", "self"),
    "memory.classify_s": ("memory.classify", "self"),
    "memory.classify_calls": ("memory.classify", "calls"),
    "memory.distance_cells": ("memory.classify", "cells"),
    "bayes.train_s": ("bayes.train", "self"),
    "bayes.train_calls": ("bayes.train", "calls"),
    "bayes.classify_s": ("bayes.classify", "self"),
    "bayes.classify_cells": ("bayes.classify", "cells"),
    "evaluate.plan_s": ("evaluate.plan", "self"),
    "evaluate.split_s": ("evaluate.split", "self"),
    "evaluate.self_s": ("evaluate.run", "self"),
    "evaluate.folds": ("evaluate.split", "calls"),
    "evaluate.configs": ("evaluate.run", "configs"),
    "cli.self_s": ("cli.main", "self"),
    "trace.count_s": (COUNT, "self"),
}


class Recorder:
    """Spans as [layer, start, end, parent index] plus per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, int]] = {layer: {} for layer in LAYERS}
        self._open: list[int] = []
        self._distinct: dict[str, set] = {}
        self._doc_sizes: dict[int, int] = {}
        self._keep: list = []

    def wrap(self, layer: str, fn):
        count = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                span[1] = start
                self._open.pop()
            if count is not None:
                # Counting is the recorder's own work: a span of its own keeps
                # it out of the enclosing layer's self time.
                begun = time.monotonic()
                count(self, args, result)
                self.spans.append([COUNT, begun, time.monotonic(), span[3]])
            return result

        return traced

    def add(self, layer: str, key: str, amount: int) -> None:
        cell = self.counters[layer]
        cell[key] = cell.get(key, 0) + amount

    def add_distinct(self, layer: str, key) -> None:
        self._distinct.setdefault(layer, set()).add(key)
        self.counters[layer]["distinct"] = len(self._distinct[layer])

    def distinct_tokens(self, doc) -> int:
        # The library caches token_set on first use; reading it here would
        # warm that cache for the program, so the recorder keeps its own.
        key = id(doc)
        size = self._doc_sizes.get(key)
        if size is None:
            self._keep.append(doc)
            size = self._doc_sizes[key] = len(set(doc.tokens))
        return size


def _count_load(rec: Recorder, args, corpus) -> None:
    rec.add("corpus.load", "docs", len(corpus.documents))
    rec.add("corpus.load", "tokens", sum(len(d.tokens) for d in corpus.documents))


def _count_tokens(rec: Recorder, args, stats) -> None:
    docs = args[0].documents if hasattr(args[0], "documents") else args[0]
    rec.add("features.count", "token_visits", sum(rec.distinct_tokens(d) for d in docs))


def _count_rank(rec: Recorder, args, attributes) -> None:
    stats = args[0]
    counts = getattr(stats, "counts", None)
    if isinstance(counts, dict):
        rec.add("features.rank", "mi_evals", len(counts))
        key = (stats.n_spam, stats.n_legit, hash(frozenset(counts.items())))
    else:
        rec._keep.append(stats)
        key = id(stats)
    rec.add_distinct("features.rank", key)


def _count_vectorize(rec: Recorder, args, result) -> None:
    rows, cols = result[0].shape
    rec.add("features.vectorize", "cells", rows * cols)


def _count_mb(rec: Recorder, args, result) -> None:
    base, queries = args[0], args[1]
    rec.add("memory.classify", "cells", len(queries) * base.size * base.m)


def _count_nb(rec: Recorder, args, result) -> None:
    rows, cols = args[1].shape
    rec.add("bayes.classify", "cells", rows * cols)


def _count_configs(rec: Recorder, args, result) -> None:
    rec.add("evaluate.run", "configs", len(result) if isinstance(result, list) else 1)


_COUNTERS = {
    "corpus.load": _count_load,
    "features.count": _count_tokens,
    "features.rank": _count_rank,
    "features.vectorize": _count_vectorize,
    "memory.classify": _count_mb,
    "bayes.classify": _count_nb,
    "evaluate.run": _count_configs,
}


def install(rec: Recorder) -> list[str]:
    """Wrap every listed name that exists; return the names wrapped."""
    wrapped = []
    for layer, names in LAYERS.items():
        for name in names:
            module_name, attr = name.split(":")
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, rec.wrap(layer, fn))
                wrapped.append(name)
    return wrapped


def summarize(spans: list, counters: dict, window: float) -> dict:
    """Per-layer metrics from one child's spans.

    A span's self time is its duration minus its children's durations.
    ``trace.uncovered_s`` is the part of the window (from the end of the
    import to the end of the workload) that no root span covers.
    """
    self_time = {layer: 0.0 for layer in (*LAYERS, COUNT)}
    calls = {layer: 0 for layer in (*LAYERS, COUNT)}
    covered = 0.0
    for layer, start, end, parent in spans:
        duration = end - start
        self_time[layer] += duration
        calls[layer] += 1
        if parent < 0:
            covered += duration
        else:
            self_time[spans[parent][0]] -= duration
    out = {}
    for metric, (layer, what) in METRICS.items():
        if what == "self":
            out[metric] = self_time[layer]
        elif what == "calls":
            out[metric] = calls[layer]
        else:
            out[metric] = counters.get(layer, {}).get(what, 0)
    rank_calls = out["features.rank_calls"]
    out["features.rank_useful_ratio"] = (
        out["features.rank_distinct"] / rank_calls if rank_calls else 0.0
    )
    out["trace.uncovered_s"] = window - covered
    return out
