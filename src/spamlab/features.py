"""Mutual-information attribute selection and binary vectorization.

Attributes are word-presence indicators: bit i of a document vector is 1
iff attribute token i occurs in the document.  Candidate tokens are ranked
by the mutual information between the presence indicator and the class,
estimated from document-level frequency ratios with no smoothing and the
0*log0 := 0 convention.  Scores are in bits (base-2 logs); the base only
scales scores and never changes the ranking.  Counting, scoring and
vectorizing are array work over a corpus ``Incidence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus, Document, Incidence, Label
from .errors import DataError


@dataclass(frozen=True, eq=False)
class TokenStats:
    """Per token id (an index into ``vocabulary``), the counted documents of
    each class containing it; tokens with zero counts are not candidates."""

    vocabulary: tuple[str, ...]
    n1_spam: np.ndarray
    n1_legit: np.ndarray
    n_spam: int
    n_legit: int

    @property
    def counts(self) -> dict[str, tuple[int, int]]:
        """Candidate token -> (n docs with token | spam, | legit)."""
        ids = np.flatnonzero(self.n1_spam + self.n1_legit).tolist()
        spam, legit = self.n1_spam.tolist(), self.n1_legit.tolist()
        return {self.vocabulary[i]: (spam[i], legit[i]) for i in ids}


@dataclass(frozen=True)
class AttributeSet:
    """Top-m tokens in rank order with their MI scores (non-increasing) and
    their ids in the vocabulary they were selected from."""

    tokens: tuple[str, ...]
    scores: tuple[float, ...]
    ids: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.tokens)


def class_counts(incidence: Incidence, rows: np.ndarray) -> TokenStats:
    """Token class counts over the documents where the boolean ``rows`` is set."""
    spam = incidence.labels == Label.SPAM
    spam_rows, legit_rows = rows & spam, rows & ~spam
    entries, size = np.diff(incidence.indptr), len(incidence.vocabulary)
    n1_spam, n1_legit = (
        np.bincount(incidence.indices[np.repeat(mask, entries)], minlength=size)
        for mask in (spam_rows, legit_rows)
    )
    n_spam, n_legit = int(spam_rows.sum()), int(legit_rows.sum())
    return TokenStats(incidence.vocabulary, n1_spam, n1_legit, n_spam, n_legit)


def token_class_counts(source: Corpus | Sequence[Document]) -> TokenStats:
    """Count, per distinct token, the documents of each class containing it."""
    if isinstance(source, Corpus):
        incidence = source.incidence
    else:
        incidence = Incidence.from_documents(tuple(source))
    return class_counts(incidence, np.ones(len(incidence.labels), dtype=bool))


def mutual_information_batch(
    n1_spam: np.ndarray, n1_legit: np.ndarray, n_spam: int, n_legit: int
) -> np.ndarray:
    """MI between each token's presence indicator and the class, in bits.

    The four-term sum skips empty cells (0*log0 := 0).  Logs are taken with
    math.log2, as in the scalar definition, so that scores do not depend on
    which SIMD log numpy picks for the CPU.
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


def mutual_information(
    n1_spam: int, n1_legit: int, n_spam: int, n_legit: int
) -> float:
    """MI between one token's presence indicator and the class, in bits."""
    spam, legit = np.array([n1_spam]), np.array([n1_legit])
    return float(mutual_information_batch(spam, legit, n_spam, n_legit)[0])


def rank_tokens(stats: TokenStats) -> tuple[np.ndarray, np.ndarray]:
    """(ids, scores) of all candidates by MI descending, lexicographic on ties."""
    ids = np.flatnonzero(stats.n1_spam + stats.n1_legit)
    # MI depends only on the count pair, and a fold has ~10x fewer distinct
    # pairs than tokens: score each pair once.
    base = stats.n_legit + 1
    pairs, pair_of = np.unique(
        stats.n1_spam[ids] * base + stats.n1_legit[ids], return_inverse=True
    )
    scores = mutual_information_batch(
        pairs // base, pairs % base, stats.n_spam, stats.n_legit
    )[pair_of]
    order = np.lexsort((ids, -scores))
    return ids[order], scores[order]


def select_attributes(stats: TokenStats, m: int) -> AttributeSet:
    """The m highest-MI tokens; selection for m1 <= m2 is a prefix of m2's."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    available = np.count_nonzero(stats.n1_spam + stats.n1_legit)
    if available < m:
        raise DataError(
            f"requested {m} attributes but only {available} distinct tokens available"
        )
    ids, scores = rank_tokens(stats)
    top = ids[:m].tolist()
    return AttributeSet(
        tokens=tuple(stats.vocabulary[i] for i in top),
        scores=tuple(scores[:m].tolist()),
        ids=tuple(top),
    )


def presence_matrix(incidence: Incidence, ids: Sequence[int]) -> np.ndarray:
    """(documents, len(ids)) uint8: column j marks the documents containing
    token id ids[j]; an id of -1 gives an all-zero column."""
    ids = np.asarray(ids, dtype=np.int64)
    column = np.full(len(incidence.vocabulary), -1, dtype=np.int32)
    known = ids >= 0
    column[ids[known]] = np.flatnonzero(known)
    columns = column[incidence.indices]
    hits = np.flatnonzero(columns >= 0)
    rows = np.searchsorted(incidence.indptr, hits, side="right") - 1
    matrix = np.zeros((len(incidence.labels), len(ids)), dtype=np.uint8)
    matrix[rows, columns[hits]] = 1
    return matrix


def vectorize_documents(
    docs: Sequence[Document], attributes: AttributeSet
) -> tuple[np.ndarray, np.ndarray]:
    """Stack document vectors into an (n, m) matrix plus a 0/1 label array."""
    incidence = Incidence.from_documents(tuple(docs))
    index = {token: i for i, token in enumerate(incidence.vocabulary)}
    ids = [index.get(token, -1) for token in attributes.tokens]
    return presence_matrix(incidence, ids), incidence.labels
