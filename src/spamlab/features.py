"""Mutual-information attribute selection and binary vectorization.

Attributes are word-presence indicators: bit i of a document vector is 1
iff attribute token i occurs in the document.  Candidate tokens are ranked
by the mutual information between the presence indicator and the class,
estimated from document-level frequency ratios with no smoothing and the
0*log0 := 0 convention.  Scores are in bits (base-2 logs); the base only
scales scores and never changes the ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, Document, Label
from .errors import DataError


@dataclass(frozen=True)
class TokenStats:
    """Document-level presence counts per token and class totals."""

    counts: dict[str, tuple[int, int]]  # token -> (n docs with token | spam, | legit)
    n_spam: int
    n_legit: int


@dataclass(frozen=True)
class AttributeSet:
    """Top-m tokens in rank order with their MI scores (non-increasing)."""

    tokens: tuple[str, ...]
    scores: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.tokens)

    def index(self) -> dict[str, int]:
        return {token: i for i, token in enumerate(self.tokens)}


def _documents(source: Corpus | Iterable[Document]) -> Iterable[Document]:
    return source.documents if isinstance(source, Corpus) else source


def token_class_counts(source: Corpus | Iterable[Document]) -> TokenStats:
    """Count, per distinct token, the documents of each class containing it."""
    counts: dict[str, list[int]] = {}
    n_spam = n_legit = 0
    for doc in _documents(source):
        spam = doc.label is Label.SPAM
        if spam:
            n_spam += 1
        else:
            n_legit += 1
        slot = 0 if spam else 1
        for token in doc.token_set:
            cell = counts.get(token)
            if cell is None:
                counts[token] = cell = [0, 0]
            cell[slot] += 1
    frozen = {t: (c[0], c[1]) for t, c in counts.items()}
    return TokenStats(counts=frozen, n_spam=n_spam, n_legit=n_legit)


def mutual_information(
    n1_spam: int, n1_legit: int, n_spam: int, n_legit: int
) -> float:
    """MI between one token's presence indicator and the class, in bits."""
    n = n_spam + n_legit
    if n < 1:
        raise ValueError("totals must cover at least one document")
    p_spam = n_spam / n
    p_legit = n_legit / n
    p_x1 = (n1_spam + n1_legit) / n
    p_x0 = 1.0 - p_x1
    mi = 0.0
    for joint, p_x, p_c in (
        (n1_spam / n, p_x1, p_spam),
        (n1_legit / n, p_x1, p_legit),
        ((n_spam - n1_spam) / n, p_x0, p_spam),
        ((n_legit - n1_legit) / n, p_x0, p_legit),
    ):
        if joint > 0.0:
            mi += joint * math.log2(joint / (p_x * p_c))
    return mi


def rank_tokens(stats: TokenStats) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """All candidate tokens ordered by MI descending, lexicographic on ties."""
    scored = [
        (token, mutual_information(c[0], c[1], stats.n_spam, stats.n_legit))
        for token, c in stats.counts.items()
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    tokens = tuple(t for t, _ in scored)
    scores = tuple(s for _, s in scored)
    return tokens, scores


def select_attributes(stats: TokenStats, m: int) -> AttributeSet:
    """The m highest-MI tokens; selection for m1 <= m2 is a prefix of m2's."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if len(stats.counts) < m:
        raise DataError(
            f"requested {m} attributes but only {len(stats.counts)} distinct tokens available"
        )
    tokens, scores = rank_tokens(stats)
    return AttributeSet(tokens=tokens[:m], scores=scores[:m])


def vectorize_documents(
    docs: Sequence[Document], attributes: AttributeSet
) -> tuple[np.ndarray, np.ndarray]:
    """Stack document vectors into an (n, m) matrix plus a 0/1 label array."""
    index = attributes.index()
    matrix = np.zeros((len(docs), attributes.m), dtype=np.uint8)
    labels = np.zeros(len(docs), dtype=np.uint8)
    for row, doc in enumerate(docs):
        for token in doc.token_set:
            col = index.get(token)
            if col is not None:
                matrix[row, col] = 1
        labels[row] = int(doc.label)
    return matrix, labels


def vectorize(doc: Document, attributes: AttributeSet) -> np.ndarray:
    """Binary presence vector for one document, dtype uint8, length m."""
    return vectorize_documents([doc], attributes)[0][0]
