"""Naive Bayes training and cost-threshold classification.

The paper's rule is a ratio: a message is spam when P(spam | x) /
P(legit | x) exceeds lambda, the same as its spam posterior exceeding
t = lambda / (1 + lambda).  The classifier decides on that ratio's log,
one cumulative sum of per-attribute log odds under the
conditional-independence assumption (raw products underflow well before
m = 700), against log lambda; ties go to legitimate, the safer direction
for lambda >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Incidence, Label
from .errors import ConfigError, DataError

def lambda_to_threshold(lam: float) -> float:
    """t = lambda / (1 + lambda); the inverse is lambda = t / (1 - t).

    The one lambda validator, raising ConfigError.  lambda must also keep t
    below 1.0 (lambda under about 9.0e15): no posterior can exceed t = 1.
    """
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0 and lam / (1.0 + lam) < 1.0):
        raise ConfigError(f"lambda must be positive and below about 9.0e15, got {lam:g}")
    return lam / (1.0 + lam)


@dataclass(frozen=True)
class NaiveBayesModel:
    """Class priors and P(X_i = 1 | class) tables of one length, all in (0, 1)."""

    prior_spam: float
    prior_legit: float
    p1_spam: np.ndarray
    p1_legit: np.ndarray

    def __post_init__(self) -> None:
        spam, legit = (np.asarray(p, dtype=np.float64) for p in (self.p1_spam, self.p1_legit))
        object.__setattr__(self, "p1_spam", spam), object.__setattr__(self, "p1_legit", legit)
        values = np.r_[self.prior_spam, self.prior_legit, spam.ravel(), legit.ravel()]
        if spam.ndim != 1 or spam.shape != legit.shape or not ((values > 0) & (values < 1)).all():
            raise ValueError("a model needs 1-D equal-length tables, all values inside (0, 1)")

    @property
    def m(self) -> int:
        return len(self.p1_spam)


def is_zero_one(matrix: np.ndarray) -> bool:
    """Whether every entry of a numeric matrix is 0 or 1: a min/max pass,
    plus an integrality pass for float matrices."""
    if matrix.dtype.kind not in "biuf":
        return False
    if matrix.size == 0:
        return True
    if not (matrix.min() >= 0 and matrix.max() <= 1):  # NaN fails too
        return False
    return matrix.dtype.kind != "f" or bool((matrix == matrix.astype(bool)).all())


def query_sweep(
    matrix: np.ndarray, ms: Sequence[int] | None, m_full: int, lowest: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Queries as an (n, m_full) 0/1 array and the m values of their sweep over
    column prefixes, (m_full,) by default, ascending within lowest..m_full; else ValueError."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != m_full:
        raise ValueError(f"query shape {matrix.shape} does not match m={m_full}")
    if not is_zero_one(matrix):
        raise ValueError("query vectors must hold only 0 and 1")
    ms = (m_full,) if ms is None else tuple(ms)
    if not ms or ms[0] < lowest or ms[-1] > m_full or any(a >= b for a, b in zip(ms, ms[1:])):
        raise ValueError(f"m range must ascend within {lowest}..{m_full}, got {ms}")
    return matrix, ms


def training_set(
    vectors: Sequence[np.ndarray] | np.ndarray | Incidence,
    labels: Sequence[Label] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, rows, y) of a 0/1 (n, m) matrix or an Incidence of n documents:
    column j's ones at rows[indptr[j]:indptr[j + 1]], and (n,) uint8 labels."""
    if isinstance(vectors, Incidence):
        indptr, rows, n = vectors.indptr, vectors.indices, len(vectors.labels)
    else:
        try:
            matrix = np.asarray(vectors)
        except ValueError:
            raise DataError("training vectors must all have the same length")
        if matrix.dtype == object or matrix.ndim != 2:
            raise DataError("training vectors must all have the same length")
        if not is_zero_one(matrix):
            raise DataError("training vectors must hold only 0 and 1")
        columns, rows = np.nonzero(matrix.T)
        indptr, n = np.searchsorted(columns, np.arange(matrix.shape[1] + 1)), len(matrix)
    y = np.asarray(labels)
    if len(y) != n:
        raise DataError("vector and label counts differ")
    if not is_zero_one(y):
        raise DataError("labels must be 0 (legitimate) or 1 (spam)")
    return indptr, rows, y.astype(np.uint8)


def train_naive_bayes(
    vectors: Sequence[np.ndarray] | np.ndarray | Incidence,
    labels: Sequence[Label] | np.ndarray,
) -> NaiveBayesModel:
    """Estimate priors as frequency ratios and conditionals per attribute.

    Laplace smoothing, (count + 1) / (n_class + 2), keeps every conditional
    strictly inside (0, 1); raw ratios would produce hard zeros that
    annihilate a whole class.
    """
    indptr, rows, y = training_set(vectors, labels)
    n_spam = int(y.sum())
    n_legit = len(y) - n_spam
    if n_spam == 0 or n_legit == 0:
        raise DataError("degenerate training set: need both classes")
    spam = np.r_[0, np.cumsum(y[rows], dtype=np.min_scalar_type(len(rows)))]  # spam ones so far
    ones_spam, ones = np.diff(spam[indptr]), np.diff(indptr)
    return NaiveBayesModel(
        prior_spam=n_spam / len(y),
        prior_legit=n_legit / len(y),
        p1_spam=(ones_spam + 1.0) / (n_spam + 2.0),
        p1_legit=(ones - ones_spam + 1.0) / (n_legit + 2.0),
    )


def _logs(values: Sequence[float]) -> tuple[list[float], list[float]]:
    """log v and log(1 - v) of each value by math's logs: numpy's SIMD logs
    differ in the last bit by CPU."""
    return [math.log(v) for v in values], [math.log1p(-v) for v in values]


def _log_odds(model: NaiveBayesModel, matrix: np.ndarray, ms: tuple[int, ...]) -> np.ndarray:
    """log P(spam | row) - log P(legit | row) over the first m columns of
    each row of a 0/1 matrix, (len(ms), n): the cumulative sum of the prior
    and per-attribute log odds, each m adding its new columns in order in an
    (n, 1 + block) buffer that starts from the last m's sums.
    """
    (prior_spam, prior_legit), _ = _logs([model.prior_spam, model.prior_legit])
    on_spam, off_spam = _logs(model.p1_spam.tolist())
    on_legit, off_legit = _logs(model.p1_legit.tolist())
    odds = np.empty((len(ms) + 1, len(matrix)))
    odds[0] = prior_spam - prior_legit
    on, off = np.subtract(on_spam, on_legit), np.subtract(off_spam, off_legit)
    for i, (done, m) in enumerate(zip((0, *ms), ms)):
        cum = np.empty((len(matrix), 1 + m - done))
        cum[:, 0], cum[:, 1:] = odds[i], off[done:m]
        np.copyto(cum[:, 1:], on[done:m], where=matrix[:, done:m].astype(bool))
        odds[i + 1] = np.cumsum(cum, axis=1, out=cum)[:, -1]
    return odds[1:]


def classify_nb_batch(
    model: NaiveBayesModel, matrix: np.ndarray, lam: float, ms: Sequence[int] | None = None
) -> np.ndarray:
    """uint8 decision per row of an (n, model.m) 0/1 matrix (ValueError for
    any other entry), 1 = spam: its log odds exceed log lambda.  One row per
    m of an ascending ms, (model.m,) by default, so (len(ms), n).
    """
    lambda_to_threshold(lam)  # validates lambda
    odds = _log_odds(model, *query_sweep(matrix, ms, model.m, 0))
    return (odds > math.log(float(lam))).astype(np.uint8)
