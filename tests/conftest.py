from __future__ import annotations

import errno
import os
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from spamlab import FixtureParams, FoldPlan, TokenStats, generate_fixture_corpus
from spamlab.corpus import Corpus, Incidence
from spamlab.features import class_counts, rank_tokens, split_presence

# Heavy shared vocabulary so the classes are not trivially separable;
# used wherever tests need real errors and mid-range posteriors.
HARD_PARAMS = FixtureParams(overlap=0.85, shared_fraction=0.5)


class Features(NamedTuple):
    stats: TokenStats
    tokens: tuple[str, ...]  # the top m, best first
    scores: tuple[float, ...]
    x: np.ndarray  # (documents, m) presence of those tokens
    y: np.ndarray  # labels, 1 = spam


def matrix_of(sub: Incidence) -> np.ndarray:
    """An Incidence as a (documents, tokens) uint8 matrix: column j marks
    the rows listed in token j's postings."""
    matrix = np.zeros((len(sub.labels), len(sub.vocabulary)), dtype=np.uint8)
    for j in range(len(sub.vocabulary)):
        matrix[sub.indices[sub.indptr[j] : sub.indptr[j + 1]], j] = 1
    return matrix


def presence_matrix(incidence: Incidence, ids) -> np.ndarray:
    """The presence of token ids[j] in every document, as column j: the
    training postings of split_presence with no document tested."""
    return matrix_of(split_presence(incidence, ids, np.zeros(len(incidence.labels), bool))[0])


def top_features(corpus: Corpus, m: int) -> Features:
    """The engine's feature path with every document as training data:
    class counts with all documents outside fold 0 (so fold 0 trains on
    the whole corpus), the MI ranking, and the presence of the top m."""
    incidence = corpus.incidence
    stats = next(class_counts(incidence, np.ones(len(corpus), np.int64), 2))
    ids, scores = rank_tokens(stats)
    return Features(
        stats,
        tuple(incidence.vocabulary[i] for i in ids[:m].tolist()),
        tuple(scores[:m].tolist()),
        presence_matrix(incidence, ids[:m]),
        incidence.labels,
    )


def traced(call: Callable[[], object]) -> tuple[object, int, int]:
    """call() under tracemalloc: its result, the bytes still traced when it
    returns (what the result and anything else it left keep) and the peak."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def fold_members(plan: FoldPlan, fold: int) -> list[int]:
    """The indices of the documents that a fold plan tests in one fold."""
    return [i for i, f in enumerate(plan.assignment) if f == fold]


@pytest.fixture(scope="session")
def small_corpus():
    """90 legitimate / 10 spam, default (easily separable) vocabulary."""
    return generate_fixture_corpus(7, 90, 10)


@pytest.fixture(scope="session")
def hard_corpus():
    """200 legitimate / 40 spam with heavy class overlap."""
    return generate_fixture_corpus(7, 200, 40, HARD_PARAMS)


@pytest.fixture(scope="session")
def cv_corpus():
    """900 legitimate / 180 spam, the cross-validation regression corpus."""
    return generate_fixture_corpus(7, 900, 180)


@pytest.fixture
def deny_scandir(monkeypatch):
    """deny(directory) makes os.scandir fail there as on a directory that
    cannot be listed; a chmod shows nothing to a process running as root."""
    scandir = os.scandir

    def deny(denied: Path) -> None:
        def guarded(path="."):
            if Path(path) == denied:
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", guarded)

    return deny
