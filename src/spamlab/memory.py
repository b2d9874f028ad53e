"""Memory-based classification over the k closest distance values.

All training instances are stored verbatim.  The neighborhood of a query
is every stored instance whose overlap distance (count of differing
attribute positions) falls among the k smallest distinct distance values,
so it can contain far more than k members when distances tie.  Voting
multiplies the legitimate-neighbor count by lambda before taking the
majority; exact ties go to legitimate.  Stored and query vectors must be
0/1: two such vectors are at most |x| + |y| apart, and the kernel's
distance histograms are only that wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bayes import is_zero_one, lambda_to_threshold, m_range, training_set
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


# Largest column block whose float32 product sums, each an integer of
# magnitude up to twice the block width, stay exact.
_EXACT_FLOAT32_WIDTH = 2**23


def neighborhood_votes(
    base: InstanceBase, queries: np.ndarray, k: int, ms: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(spam, legit) member counts of each query row's k-distance neighborhood:
    every stored instance at one of the row's k smallest distinct distances.

    With an ascending ms, one row of counts per m over the first m columns,
    (len(ms), n_queries); without, the counts at base.m, (n_queries,).

    For 0/1 vectors d(x, y) = |x| + |y| - 2 x.y, at most |x| + |y|.  The
    int32 Gram term -2 x.y grows by one column block per m, so each column
    is multiplied once.  The float32 block product of -2 x and y is exact:
    its sums are integers of magnitude up to twice the block width, and
    the width is checked against _EXACT_FLOAT32_WIDTH.

    Each row's distances go into a histogram of (distance, label) counts,
    w = min(m, max|x| + max|y|) + 1 bins wide.  The bin of a pair is
    label * n * w + row * w + d, written into one int64 buffer by a
    broadcast add of the offset norms and an add of -2 x.y; before that,
    the same buffer holds the block product.  The neighborhood is every bin
    up to the one where the running count of occupied distances reaches k
    (all bins when k exceeds that count).
    """
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != base.m:
        raise ValueError(f"query shape {queries.shape} does not match base m={base.m}")
    if not is_zero_one(queries):
        raise ValueError("query vectors must hold only 0 and 1")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sweep = m_range(ms, base.m, 1)
    n, size = queries.shape[0], base.size
    rows = np.arange(n, dtype=np.intp)
    spam_offsets = (base.labels == 1) * np.intp(n)
    neg2gram = np.zeros((n, size), dtype=np.int32)
    x_norms = np.zeros(n, dtype=np.intp)
    y_norms = np.zeros(size, dtype=np.intp)
    bins = np.empty((n, size), dtype=np.intp)
    # float32 product in the first half of bins, its int32 cast in the second
    halves = bins.reshape(-1).view(np.int32)
    product = halves[: n * size].view(np.float32).reshape(n, size)
    block = halves[n * size:].reshape(n, size)
    spam_votes, legit_votes = [], []
    done = 0
    for m in sweep:
        if m - done > _EXACT_FLOAT32_WIDTH:
            raise ValueError(f"column block {done}:{m} is too wide for exact float32 sums")
        x = queries[:, done:m]
        y = base.vectors[:, done:m]
        np.matmul(np.multiply(x, -2, dtype=np.float32), y.T.astype(np.float32), out=product)
        np.copyto(block, product, casting="unsafe")
        neg2gram += block
        x_norms += x.sum(axis=1, dtype=np.intp)
        y_norms += y.sum(axis=1, dtype=np.intp)
        done = m
        w = min(m, x_norms.max(initial=0) + y_norms.max()) + 1
        np.add((x_norms + rows * w)[:, np.newaxis], y_norms + spam_offsets * w, out=bins)
        bins += neg2gram
        legit, spam = np.bincount(bins.ravel(), minlength=2 * n * w).reshape(2, n, w)
        in_hood = np.cumsum((legit + spam) > 0, axis=1) <= k
        spam_votes.append((spam * in_hood).sum(axis=1))
        legit_votes.append((legit * in_hood).sum(axis=1))
    if ms is None:
        return spam_votes[0], legit_votes[0]
    return np.array(spam_votes), np.array(legit_votes)


def classify_mb_batch(
    base: InstanceBase, queries: np.ndarray, k: int, lam: float,
    ms: Sequence[int] | None = None,
) -> np.ndarray:
    """uint8 decision per query row, 1 = spam: the lambda-scaled majority vote
    of neighborhood_votes, shaped as its counts; ties go to legitimate."""
    lam = float(lam)
    lambda_to_threshold(lam)  # validates lambda
    spam, legit = neighborhood_votes(base, queries, k, ms)
    return (spam > lam * legit).astype(np.uint8)
