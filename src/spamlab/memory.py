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
from typing import Sequence

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


@dataclass(frozen=True)
class Neighborhood:
    """Members at the k closest distinct distances, in (distance, index) order."""

    members: tuple[tuple[int, Label], ...]
    distinct_distances: frozenset[int]

    @property
    def spam_count(self) -> int:
        return sum(1 for _, label in self.members if label is Label.SPAM)

    @property
    def legit_count(self) -> int:
        return len(self.members) - self.spam_count


def build_instance_base(
    vectors: Sequence[np.ndarray] | np.ndarray,
    labels: Sequence[Label] | Sequence[int] | np.ndarray,
) -> InstanceBase:
    matrix, y = training_set(vectors, labels)
    if matrix.size == 0:
        raise DataError("instance base needs at least one instance")
    return InstanceBase(vectors=matrix.astype(np.uint8), labels=y)


def overlap_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Number of attribute positions where the two vectors differ."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"vector lengths differ: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def _distances(base: InstanceBase, queries: np.ndarray, k: int) -> np.ndarray:
    """(n_queries, n_base) overlap distances, after the shape and k checks."""
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != base.m:
        raise ValueError(f"query shape {queries.shape} does not match base m={base.m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x = queries.astype(np.float64)
    y = base.vectors.astype(np.float64)
    # d[i, j] = sum_i x(1-y) + (1-x)y counts differing bits exactly.
    dist = x @ (1.0 - y).T + (1.0 - x) @ y.T
    return np.rint(dist).astype(np.int64)


def k_distance_neighborhood(
    base: InstanceBase, query: np.ndarray, k: int
) -> Neighborhood:
    """Every instance at one of the k smallest distinct distances to the query."""
    distances = _distances(base, np.asarray(query)[np.newaxis], k)[0]
    distinct = np.unique(distances)[:k]
    cutoff = distinct[-1]
    members = [
        (int(d), Label(int(label)))
        for d, label in zip(distances, base.labels)
        if d <= cutoff
    ]
    members.sort(key=lambda item: item[0])
    return Neighborhood(
        members=tuple(members),
        distinct_distances=frozenset(int(d) for d in distinct),
    )


def classify_mb_batch(
    base: InstanceBase, queries: np.ndarray, k: int, policy: DecisionPolicy
) -> np.ndarray:
    """uint8 decision per query row, 1 = spam: the lambda-scaled majority vote
    in the row's k-distance neighborhood."""
    spam_mask = base.labels == 1
    distances = _distances(base, queries, k)
    out = np.zeros(len(distances), dtype=np.uint8)
    for i, row in enumerate(distances):
        cutoff = np.unique(row)[:k][-1]
        in_hood = row <= cutoff
        spam = int(np.count_nonzero(in_hood & spam_mask))
        legit = int(np.count_nonzero(in_hood)) - spam
        out[i] = spam > policy.lam * legit
    return out


def classify_mb(
    base: InstanceBase, query: np.ndarray, k: int, policy: DecisionPolicy
) -> Label:
    """classify_mb_batch for one query vector of length m."""
    return Label(classify_mb_batch(base, np.asarray(query)[np.newaxis], k, policy)[0])
