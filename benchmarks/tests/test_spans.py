"""Span bookkeeping: self time, uncovered time and layers never called."""

import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def test_self_time_subtracts_children_and_reports_uncovered():
    recorded = [
        ["evaluate.run", 10.0, 20.0, -1],
        ["features.count", 11.0, 14.0, 0],
        ["features.rank", 14.0, 15.0, 0],
        ["trace.count", 15.0, 15.5, 0],
        ["corpus.load", 21.0, 23.0, -1],
    ]
    out = spans.summarize(recorded, {}, window=15.0)
    assert out["evaluate.self_s"] == 10.0 - 3.0 - 1.0 - 0.5
    assert out["features.count_s"] == 3.0
    assert out["features.count_calls"] == 1
    assert out["trace.count_s"] == 0.5
    assert out["corpus.load_s"] == 2.0
    assert out["trace.uncovered_s"] == 15.0 - 10.0 - 2.0
    assert out["memory.classify_s"] == 0.0
    assert out["memory.classify_calls"] == 0
    assert out["features.rank_useful_ratio"] == 0.0


def test_wrapped_calls_nest_and_count(monkeypatch):
    module = types.ModuleType("fake_layers")

    def inner(docs):
        time.sleep(0.01)
        return len(docs)

    def outer(docs):
        return module.inner(docs) + module.inner(docs)

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    monkeypatch.setattr(spans, "LAYERS", {
        "evaluate.run": ("fake_layers:outer",),
        "features.split": ("fake_layers:inner", "fake_layers:no_longer_there"),
    })
    rec = spans.Recorder()
    assert spans.install(rec) == ["fake_layers:outer", "fake_layers:inner"]
    assert module.outer([1, 2, 3]) == 6
    names = ["evaluate.run", "features.split", "features.split", spans.COUNT]
    assert [s[0] for s in rec.spans] == names
    assert [s[3] for s in rec.spans] == [-1, 0, 0, -1]
    assert rec.counters["evaluate.run"] == {"configs": 1}
    assert all(start <= end for _, start, end, _ in rec.spans)
