"""The benchmark's tracer (benchmarks/spans.py) over the library's paths.

A traced benchmark run fails when no traced child completes, and only a
traced run calls the tracer's counters, which read corpus documents,
instance-base sizes and the shapes of the classifiers' inputs.  This runs
every traced layer once on a small corpus, so that a change to what the
counters read fails here rather than in the benchmark.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import spamlab
import spamlab.cli
from spamlab.corpus import write_fixture_corpus

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_layer_records_and_counts(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spans = importlib.import_module("spans")
    for names in spans.LAYERS.values():  # the wrappers are undone afterwards
        for name in names:
            module, attr = name.split(":")
            module = importlib.import_module(module)
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, getattr(module, attr))
    write_fixture_corpus(spamlab.generate_fixture_corpus(3, 40, 12), tmp_path / "corpus")
    recorder = spans.Recorder()
    wrapped = spans.install(recorder)

    corpus = spamlab.load_corpus(tmp_path / "corpus", layout="fixture")
    plan = spamlab.make_stratified_folds(corpus, k_folds=3, seed=0)
    spamlab.cross_validate(corpus, spamlab.ClassifierConfig("nb"), 9.0, 20, plan)
    spamlab.cross_validate(corpus, spamlab.ClassifierConfig("mb", k=2), 1.0, 20, plan)
    spamlab.sweep_attributes(corpus, spamlab.ClassifierConfig("nb"), 999.0, plan, 10, 30, 10)
    assert spamlab.cli.main([
        "sweep", "--corpus", str(tmp_path / "corpus"), "--layout", "fixture",
        "--classifier", "nb", "--lambda", "999", "--m-range", "10:30:10",
        "--out", str(tmp_path / "sweep.csv"),
    ]) == 0

    layers = {layer for layer, names in spans.LAYERS.items() if set(names) & set(wrapped)}
    recorded = {span[0] for span in recorder.spans}
    assert layers and layers <= recorded, sorted(layers - recorded)
    counters = recorder.counters
    for layer, key in (
        ("corpus.load", "docs"),
        ("corpus.load", "tokens"),
        ("bayes.classify", "cells"),
        ("memory.classify", "cells"),
        ("evaluate.run", "configs"),
    ):
        assert counters[layer].get(key, 0) > 0, (layer, key)
