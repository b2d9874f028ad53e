"""Memory-based classification over the k closest distance values.

All training instances are stored, by attribute.  The neighborhood of a query
is every stored instance whose overlap distance (count of differing
attribute positions) falls among the k smallest distinct distance values,
so it can contain far more than k members when distances tie.  Voting
multiplies the legitimate-neighbor count by lambda before taking the
majority; exact ties go to legitimate.  Stored and query vectors must be
0/1: two such vectors are at most |x| + |y| apart, the kernel keeps its
distances in an integer type only that wide, and it adds one stored
column per query one, so its cost follows the query ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bayes import is_zero_one, lambda_to_threshold, m_range, training_set
from .corpus import Incidence, Label
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class InstanceBase:
    """Immutable store of training instances, duplicates included, by
    attribute: column j's ones are in rows[indptr[j]:indptr[j + 1]]."""

    indptr: np.ndarray  # (m + 1,)
    rows: np.ndarray  # stored row of each one, the spam rows numbered first
    labels: np.ndarray  # (n,) uint8, 1 = spam, descending

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.indptr) - 1


def build_instance_base(
    vectors: Sequence[np.ndarray] | np.ndarray | Incidence,
    labels: Sequence[Label] | Sequence[int] | np.ndarray,
) -> InstanceBase:
    """The base of a 0/1 training set, an (n, m) matrix or an Incidence."""
    indptr, rows, y = training_set(vectors, labels)
    if len(y) == 0 or len(indptr) < 2:
        raise DataError("instance base needs at least one instance")
    order = np.argsort(y == 0, kind="stable")  # spam first; row order[i] is stored as i
    position = np.argsort(order).astype(np.min_scalar_type(len(y)))
    return InstanceBase(indptr, position[rows], y[order])


def check_k(k: int) -> int:
    """k as an int; ConfigError unless operator.index takes it, it is >= 1 and no bool."""
    if isinstance(k, bool) or not hasattr(type(k), "__index__") or operator.index(k) < 1:
        raise ConfigError(f"memory-based classifier needs an integer k >= 1, got {k!r}")
    return operator.index(k)


def neighborhood_votes(
    base: InstanceBase, queries: np.ndarray, k: int, ms: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(spam, legit) member counts of each query row's k-distance neighborhood:
    every stored instance at one of the row's k smallest distinct distances,
    one row of counts per m of an ascending ms ((base.m,) by default) over
    the first m columns, (len(ms), n_queries).

    For 0/1 vectors d(x, y) = |y| + the sum over the ones of x of 1 - 2y,
    at most widest = min(m, max|x| + max|y|) at the last m, kept in the
    narrowest signed integer type that holds widest + 1.  The query ones
    are listed once, each with its column block [done, m) and its layer:
    its rank among its row's ones in that block, so the rows of one layer
    differ.  Each m adds |y| over its block, counted from the postings, to
    every query row, scatters 1 - 2y of the block's columns as rows in the
    distance type and, layer by layer, adds to each row the row of its one,
    64 rows at most per add: the cost follows the query ones, not the block
    width.
    Every add is exact: a row stays between d + |y|_block - x.y_block >= 0
    and d + |x or y|_block <= min(m, |x| + |y|) <= widest, d its distance
    over [0, done).

    The cut and the vote take 64 query rows at a time.  A row's cut starts
    at its smallest distance.  Each of up to k - 1 passes moves it to the
    next distinct distance: the minimum of d - (cut + 1) read as unsigned,
    where the distances up to the cut wrap to large values.  A row whose
    cut is its largest distance is done, and a run's passes stop once each
    of its rows is.  A vote counts the distances up to the cut over one
    class's columns, in the narrowest unsigned type that holds base.size.
    """
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != base.m:
        raise ValueError(f"query shape {queries.shape} does not match base m={base.m}")
    if not is_zero_one(queries):
        raise ValueError("query vectors must hold only 0 and 1")
    k = check_k(k)
    sweep = m_range(ms, base.m, 1)
    last = sweep[-1]
    # the query ones row by row, so a row's ones in one block are adjacent;
    # a one's layer is its rank among them
    rows, cols = np.nonzero(queries[:, :last])
    block = np.searchsorted(sweep, cols, side="right")
    at = np.arange(len(rows))
    first = (np.diff(rows, prepend=-1) != 0) | (np.diff(block, prepend=-1) != 0)
    layer = at - np.maximum.accumulate(np.where(first, at, 0))
    y_widest = np.bincount(base.rows[: base.indptr[last]], minlength=1).max()
    widest = min(last, int(np.bincount(rows, minlength=1).max()) + int(y_widest))
    dist = np.zeros((len(queries), base.size), dtype=np.min_scalar_type(-widest - 2))
    unsigned = np.dtype(f"u{dist.itemsize}")
    n_spam = np.count_nonzero(base.labels)
    votes = np.empty((2, len(sweep), len(queries)), dtype=np.min_scalar_type(base.size))
    for i, (done, m) in enumerate(zip((0, *sweep), sweep)):
        ones = slice(base.indptr[done], base.indptr[m])
        dist += np.bincount(base.rows[ones], minlength=base.size).astype(dist.dtype)  # |y|
        y = np.ones((m - done, base.size), dtype=dist.dtype)  # 1 - 2y, a row per column
        y[np.repeat(np.arange(m - done), np.diff(base.indptr[done : m + 1])), base.rows[ones]] = -1
        in_block = block == i
        r, c, t = rows[in_block], cols[in_block] - done, layer[in_block]
        for each in range(t.max(initial=-1) + 1):  # one layer: distinct rows
            rr, cc = r[t == each], c[t == each]
            for s in range(0, len(rr), 64):  # two 64-row copies at a time
                dist[rr[s : s + 64]] += y[cc[s : s + 64]]
        for s in range(0, len(queries), 64):  # cut and vote on 64 rows at a time
            run = dist[s : s + 64]
            cut, top = run.min(axis=1), run.max(axis=1) if k > 1 else None
            for _ in range(1, k):
                open_rows = cut < top
                if not open_rows.any():
                    break
                gap = (run - (cut + 1)[:, np.newaxis]).view(unsigned).min(axis=1)
                cut[open_rows] += gap[open_rows] + 1
            inside = run <= cut[:, np.newaxis]
            votes[0, i, s : s + 64] = inside[:, :n_spam].sum(axis=1, dtype=votes.dtype)
            votes[1, i, s : s + 64] = inside[:, n_spam:].sum(axis=1, dtype=votes.dtype)
    return tuple(votes)


def classify_mb_batch(
    base: InstanceBase, queries: np.ndarray, k: int, lam: float,
    ms: Sequence[int] | None = None,
) -> np.ndarray:
    """uint8 decision per query row, 1 = spam: the lambda-scaled majority vote
    of neighborhood_votes, shaped as its counts; ties go to legitimate."""
    lambda_to_threshold(lam)  # validates lambda
    spam, legit = neighborhood_votes(base, queries, k, ms)
    return (spam > float(lam) * legit).astype(np.uint8)
