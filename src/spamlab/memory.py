"""Memory-based classification over the k closest distance values.

All training instances are stored verbatim.  The neighborhood of a query
is every stored instance whose overlap distance (count of differing
attribute positions) falls among the k smallest distinct distance values,
so it can contain far more than k members when distances tie.  Voting
multiplies the legitimate-neighbor count by lambda before taking the
majority; exact ties go to legitimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bayes import DecisionPolicy, training_set
from .corpus import Label
from .errors import DataError


@dataclass(frozen=True)
class InstanceBase:
    """Immutable store of training vectors and labels, duplicates included."""

    vectors: np.ndarray  # (n, m) uint8
    labels: np.ndarray  # (n,) uint8, 1 = spam

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return self.vectors.shape[1]


def build_instance_base(
    vectors: Sequence[np.ndarray] | np.ndarray,
    labels: Sequence[Label] | Sequence[int] | np.ndarray,
) -> InstanceBase:
    matrix, y = training_set(vectors, labels)
    if matrix.size == 0:
        raise DataError("instance base needs at least one instance")
    return InstanceBase(vectors=matrix.astype(np.uint8), labels=y)


# Largest column block whose float32 product sums stay exact integers.
_EXACT_FLOAT32_WIDTH = 2**24


def _distances(
    base: InstanceBase, queries: np.ndarray, k: int, ms: Sequence[int] | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (m, distances) for each m of the ascending ms (default: base.m):
    the (n_queries, n_base) overlap distances over the first m columns, after
    the shape, k and m-range checks.

    For 0/1 vectors d(x, y) = |x| + |y| - 2 x.y.  The Gram matrix x.y grows
    by one column block per m, so each column is multiplied once.  A float32
    block product is exact: each of its sums is an integer no larger than
    the block width, checked against 2**24.  int32 holds every sum up to m.
    """
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != base.m:
        raise ValueError(f"query shape {queries.shape} does not match base m={base.m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ms = (base.m,) if ms is None else tuple(ms)
    if not ms or ms[0] < 1 or ms[-1] > base.m or any(a >= b for a, b in zip(ms, ms[1:])):
        raise ValueError(f"m range must ascend within 1..{base.m}, got {ms}")
    gram = np.zeros((len(queries), base.size), dtype=np.int32)
    x_norms = np.zeros(len(queries), dtype=np.int32)
    y_norms = np.zeros(base.size, dtype=np.int32)
    done = 0
    for m in ms:
        if m - done > _EXACT_FLOAT32_WIDTH:
            raise ValueError(f"column block {done}:{m} is too wide for exact float32 sums")
        x = queries[:, done:m]
        y = base.vectors[:, done:m]
        gram += (x.astype(np.float32) @ y.T.astype(np.float32)).astype(np.int32)
        x_norms += x.sum(axis=1, dtype=np.int32)
        y_norms += y.sum(axis=1, dtype=np.int32)
        done = m
        distances = x_norms[:, np.newaxis] + y_norms
        distances -= 2 * gram
        yield m, distances


def neighborhood_votes(
    base: InstanceBase, queries: np.ndarray, k: int, ms: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(spam, legit) member counts of each query row's k-distance neighborhood:
    every stored instance at one of the row's k smallest distinct distances.

    With an ascending ms, one row of counts per m over the first m columns,
    (len(ms), n_queries); without, the counts at base.m, (n_queries,).

    Each row's distances go into a histogram of (distance, label) counts;
    the neighborhood is every bin up to the one where the running count of
    occupied distances reaches k (all bins when k exceeds that count).
    """
    spam_votes, legit_votes = [], []
    for m, distances in _distances(base, queries, k, ms):
        n = len(distances)
        # bin (label, row, distance): legit histograms first, then spam
        bins = distances + np.arange(n, dtype=np.intp)[:, np.newaxis] * (m + 1)
        bins += (base.labels == 1) * np.intp(n * (m + 1))
        hist = np.bincount(bins.ravel(), minlength=2 * n * (m + 1))
        legit, spam = hist.reshape(2, n, m + 1)
        in_hood = np.cumsum((legit + spam) > 0, axis=1) <= k
        spam_votes.append((spam * in_hood).sum(axis=1))
        legit_votes.append((legit * in_hood).sum(axis=1))
    if ms is None:
        return spam_votes[0], legit_votes[0]
    return np.array(spam_votes), np.array(legit_votes)


def classify_mb_batch(
    base: InstanceBase, queries: np.ndarray, k: int, policy: DecisionPolicy,
    ms: Sequence[int] | None = None,
) -> np.ndarray:
    """uint8 decision per query row, 1 = spam: the lambda-scaled majority vote
    of neighborhood_votes, shaped as its counts; ties go to legitimate."""
    spam, legit = neighborhood_votes(base, queries, k, ms)
    return (spam > policy.lam * legit).astype(np.uint8)
