"""Mutual-information attribute selection and presence gather over an
``Incidence``.

Attributes are word-presence indicators: bit i of a document vector is 1
iff attribute token i occurs in the document.  Candidate tokens are ranked
by the mutual information between the presence indicator and the class,
estimated from document-level frequency ratios with no smoothing and the
0*log0 := 0 convention.  Scores are in bits (base-2 logs); the base only
scales scores and never changes the ranking.  A fold's attributes are the
top m ids of its training set's ranking; their presence is gathered once,
from the postings of just those ids, and split by the fold's test mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .corpus import Incidence

_BLOCK = 2**14  # key slots per count block of class_counts


@dataclass(frozen=True, eq=False)
class TokenStats:
    """Per token id (an index into the incidence's vocabulary), the counted
    documents of each class containing it; tokens with zero counts are not
    candidates."""

    n1_spam: np.ndarray
    n1_legit: np.ndarray
    n_spam: int
    n_legit: int


def class_counts(
    incidence: Incidence, folds: np.ndarray, k_folds: int
) -> Iterator[TokenStats]:
    """Token class counts of each training set of a k-fold split, by fold.

    ``folds[r]`` is document row r's fold in range(k_folds); the f-th
    TokenStats counts the documents outside fold f, in int64.  Every fold's
    own counts go into one 2 x k_folds x V table of the narrowest type that
    holds len(folds), block by block: a block is the most whole tokens whose
    postings plus 2 * k_folds counters per token fit in _BLOCK key slots (one
    token at least), counted by one bincount keyed by (class, fold, token).
    A training set's counts are the totals minus its fold's.  The table is
    built on the first fold and freed with the iterator; a block's key, token
    numbers and counts take at most 24 bytes per key slot.  Ranking each
    fold before taking the next keeps one TokenStats alive at a time.
    """
    size, indptr = len(incidence.vocabulary), incidence.indptr
    group = incidence.labels.astype(np.intp) * k_folds + folds  # intp: bincount casts no key
    table = np.empty((2, k_folds, size), dtype=np.min_scalar_type(len(folds)))
    reach = indptr + 2 * k_folds * np.arange(size + 1)  # key slots before each token
    start = 0
    while start < size:
        stop = max(np.searchsorted(reach, reach[start] + _BLOCK, "right") - 1, start + 1)
        key = group[incidence.indices[indptr[start] : indptr[stop]]] * (stop - start)
        key += np.repeat(np.arange(stop - start), np.diff(indptr[start : stop + 1]))
        counts = np.bincount(key, minlength=2 * k_folds * (stop - start))
        table[..., start:stop] = counts.reshape(2, k_folds, stop - start)  # each token in one block
        del key, counts  # one block alive at a time, and none once the folds are ranked
        start = stop
    totals = table.sum(axis=1, dtype=table.dtype)
    del group, reach  # the folds need only the table and the labels
    for fold in range(k_folds):  # rows by Label: LEGITIMATE = 0, SPAM = 1
        n1_legit, n1_spam = np.subtract(totals, table[:, fold], dtype=np.int64)
        n_legit, n_spam = np.bincount(incidence.labels[folds != fold], minlength=2).tolist()
        yield TokenStats(n1_spam, n1_legit, n_spam, n_legit)


def mutual_information_batch(
    n1_spam: np.ndarray, n1_legit: np.ndarray, n_spam: int, n_legit: int
) -> np.ndarray:
    """MI between each token's presence indicator and the class, in bits.

    The four-term sum skips empty cells (0*log0 := 0).  Logs are taken with
    math.log2, so that scores do not depend on which SIMD log numpy picks
    for the CPU.
    """
    n = n_spam + n_legit
    if n < 1:
        raise ValueError("totals must cover at least one document")
    p_x1 = (n1_spam + n1_legit) / n
    p_x0 = 1.0 - p_x1
    mi = np.zeros(len(p_x1))
    for joint_count, p_x, p_c in (
        (n1_spam, p_x1, n_spam / n),
        (n1_legit, p_x1, n_legit / n),
        (n_spam - n1_spam, p_x0, n_spam / n),
        (n_legit - n1_legit, p_x0, n_legit / n),
    ):
        joint = joint_count / n
        cell = joint > 0.0
        ratio = (joint[cell] / (p_x[cell] * p_c)).tolist()
        mi[cell] += joint[cell] * np.fromiter(map(math.log2, ratio), float)
    return mi


def _scaled_power(a: int, b: int, n_spam: int, n_legit: int) -> tuple[int, int]:
    """2 ** (N * MI) of the count pair (a, b), up to a constant of the
    training set, as a fraction of exact integers: the product of c ** c
    over the four cells over that of r ** r over the two presence rows."""
    cells = math.prod(c**c for c in (a, b, n_spam - a, n_legit - b))
    return cells, math.prod(r**r for r in (a + b, n_spam + n_legit - a - b))


def rank_tokens(stats: TokenStats) -> tuple[np.ndarray, np.ndarray]:
    """(ids, scores) of all candidates by MI descending, lexicographic on ties."""
    ids = np.flatnonzero(stats.n1_spam + stats.n1_legit)
    # MI depends only on the count pair, and a fold has ~10x fewer distinct
    # pairs than tokens: score each pair once.  A pair (a, b), coded
    # a * base + b, and its complement (n_spam - a, n_legit - b) have equal
    # MI in exact arithmetic, so both score as the smaller code: equal
    # scores are equal floats and fall to the lexicographic tie-break.
    base = stats.n_legit + 1
    code = stats.n1_spam[ids] * base + stats.n1_legit[ids]
    full = stats.n_spam * base + stats.n_legit
    pairs, pair_of = np.unique(np.minimum(code, full - code), return_inverse=True)
    a, b = pairs // base, pairs % base
    scores = mutual_information_batch(a, b, stats.n_spam, stats.n_legit)
    # a class-independent token carries exactly no information
    scores[a * stats.n_legit == b * stats.n_spam] = 0.0
    # Other pairs tie exactly too (the classes swap when n_spam == n_legit,
    # sums of c log c coincide) and score within rounding of each other:
    # neighbours in score order with equal 2 ** (N * MI) take one score.
    by_score = np.argsort(scores)
    near = np.flatnonzero(np.diff(scores[by_score]) <= 1e-12)
    for p, q in zip(by_score[near].tolist(), by_score[near + 1].tolist()):
        (cells_p, rows_p), (cells_q, rows_q) = (
            _scaled_power(int(a[i]), int(b[i]), stats.n_spam, stats.n_legit) for i in (p, q)
        )
        if cells_p * rows_q == cells_q * rows_p:
            scores[q] = scores[p]
    scores = scores[pair_of]
    order = np.lexsort((ids, -scores))
    return ids[order], scores[order]


def split_presence(
    incidence: Incidence, ids: Sequence[int], test: np.ndarray
) -> tuple[Incidence, np.ndarray]:
    """(the Incidence of token ids[j] as token j in the documents outside the
    boolean mask test, the (documents, len(ids)) uint8 presence matrix of
    those inside it, column j ids[j]), both in document order and split from
    one lookup of the postings of ids; ValueError unless the ids are integers
    in range(len(vocabulary))."""
    ids, size, n = np.asarray(ids), len(incidence.vocabulary), len(test)
    if ids.ndim != 1 or len(ids) and not (
        ids.dtype.kind in "iu" and ids.min() >= 0 and ids.max() < size
    ):
        raise ValueError(f"token ids must be integers in range({size})")
    ids, n_train = ids.astype(np.int64), n - np.count_nonzero(test)
    vocabulary = tuple(incidence.vocabulary[i] for i in ids.tolist())
    position = np.empty(n, np.min_scalar_type(n))  # document r is row position[r]
    position[np.argsort(test, kind="stable")] = np.arange(n)  # training rows first
    starts, stops = incidence.indptr[ids], incidence.indptr[ids + 1]
    at = position[np.concatenate(  # each posting's row; no slice outlives the call
        [incidence.indices[a:b] for a, b in zip(starts.tolist(), stops.tolist())]
        or [incidence.indices[:0]]
    )]
    trained = at < n_train
    ends = np.r_[0, np.cumsum(stops - starts, dtype=np.int64)]  # token j's run in at
    kept = np.r_[0, np.cumsum(trained, dtype=np.min_scalar_type(len(trained)))][ends]
    x_test = np.zeros((n - n_train, len(ids)), dtype=np.uint8)
    x_test[at[~trained] - n_train, np.repeat(np.arange(len(ids)), np.diff(ends - kept))] = 1
    rows = at[trained].astype(incidence.indices.dtype, copy=False)  # the incidence's row type
    return Incidence(vocabulary, kept, rows, incidence.labels[~test]), x_test
