"""Naive Bayes training and cost-threshold classification.

Posteriors come from class priors and per-attribute conditionals under the
conditional-independence assumption.  Joint likelihoods are accumulated in
log space (raw products underflow well before m = 700) and normalized over
the two classes at the end.  A message is called spam when the spam
posterior strictly exceeds t = lambda / (1 + lambda); ties go to
legitimate, the safer direction for lambda >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Label
from .errors import ConfigError, DataError

@dataclass(frozen=True)
class DecisionPolicy:
    """Cost ratio lambda and the equivalent posterior threshold."""

    lam: float
    threshold: float

    @classmethod
    def from_lambda(cls, lam: float) -> "DecisionPolicy":
        return cls(lam=lam, threshold=lambda_to_threshold(lam))


def lambda_to_threshold(lam: float) -> float:
    """t = lambda / (1 + lambda); the inverse is lambda = t / (1 - t).

    The one lambda validator, raising ConfigError.  lambda must also keep t
    below 1.0 (lambda under about 9.0e15): no posterior can exceed t = 1.
    """
    if not (math.isfinite(lam) and lam > 0 and lam / (1.0 + lam) < 1.0):
        raise ConfigError(f"lambda must be positive and below about 9.0e15, got {lam:g}")
    return lam / (1.0 + lam)


@dataclass(frozen=True)
class NaiveBayesModel:
    """Unsmoothed class priors plus P(X_i = 1 | class) tables."""

    prior_spam: float
    prior_legit: float
    p1_spam: np.ndarray
    p1_legit: np.ndarray

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


def m_range(ms: Sequence[int] | None, m_full: int, lowest: int) -> tuple[int, ...]:
    """The m values of a sweep over column prefixes, (m_full,) by default;
    ValueError unless they strictly ascend within lowest..m_full."""
    ms = (m_full,) if ms is None else tuple(ms)
    if not ms or ms[0] < lowest or ms[-1] > m_full or any(a >= b for a, b in zip(ms, ms[1:])):
        raise ValueError(f"m range must ascend within {lowest}..{m_full}, got {ms}")
    return ms


def training_set(
    vectors: Sequence[np.ndarray] | np.ndarray,
    labels: Sequence[Label] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(n, m) 0/1 vector matrix and (n,) uint8 labels (1 = spam) of a training set."""
    try:
        matrix = np.asarray(vectors)
    except ValueError:
        raise DataError("training vectors must all have the same length")
    if matrix.dtype == object or matrix.ndim != 2:
        raise DataError("training vectors must all have the same length")
    if not is_zero_one(matrix):
        raise DataError("training vectors must hold only 0 and 1")
    y = np.asarray(labels)
    if len(y) != len(matrix):
        raise DataError("vector and label counts differ")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 (legitimate) or 1 (spam)")
    return matrix, y.astype(np.uint8)


def train_naive_bayes(
    vectors: Sequence[np.ndarray] | np.ndarray,
    labels: Sequence[Label] | np.ndarray,
) -> NaiveBayesModel:
    """Estimate priors as frequency ratios and conditionals per attribute.

    Laplace smoothing, (count + 1) / (n_class + 2), keeps every conditional
    strictly inside (0, 1); raw ratios would produce hard zeros that
    annihilate a whole class.
    """
    matrix, y = training_set(vectors, labels)
    n_spam = int(y.sum())
    n_legit = len(y) - n_spam
    if n_spam == 0 or n_legit == 0:
        raise DataError("degenerate training set: need both classes")

    ones_spam = matrix[y == 1].sum(axis=0, dtype=np.int64)
    ones_legit = matrix[y == 0].sum(axis=0, dtype=np.int64)
    p1_spam = (ones_spam + 1.0) / (n_spam + 2.0)
    p1_legit = (ones_legit + 1.0) / (n_legit + 2.0)
    total = n_spam + n_legit
    return NaiveBayesModel(
        prior_spam=n_spam / total,
        prior_legit=n_legit / total,
        p1_spam=p1_spam,
        p1_legit=p1_legit,
    )


def _log_joints(
    model: NaiveBayesModel, matrix: np.ndarray, ms: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Log prior + log likelihood per class over the first m columns of each
    row of a 0/1 matrix, (len(ms), n) per class.

    One cumulative sum of the per-attribute terms gives every m.  The terms
    are selected, not multiplied by indicators, so a hard zero in a
    hand-built model contributes -inf only when its bit is actually set.
    """
    x = matrix.astype(bool)
    cum = np.zeros((len(x), model.m + 1))

    def joint(prior: float, p1: np.ndarray) -> np.ndarray:
        np.cumsum(np.where(x, np.log(p1), np.log1p(-p1)), axis=1, out=cum[:, 1:])
        return np.log(prior) + cum[:, list(ms)].T

    with np.errstate(divide="ignore"):
        return joint(model.prior_spam, model.p1_spam), joint(model.prior_legit, model.p1_legit)


def _normalize_spam(log_spam: np.ndarray, log_legit: np.ndarray, prior_spam: float) -> np.ndarray:
    # exp(L_legit - L_spam) maps -inf joints to the right limits; only the
    # double-zero case (both joints impossible) needs a convention, and it
    # falls back to the prior.
    both_dead = np.isneginf(log_spam) & np.isneginf(log_legit)
    with np.errstate(over="ignore", invalid="ignore"):
        posterior = 1.0 / (1.0 + np.exp(log_legit - log_spam))
    posterior[both_dead] = prior_spam
    return posterior


def posterior_spam_batch(
    model: NaiveBayesModel, matrix: np.ndarray, ms: Sequence[int] | None = None
) -> np.ndarray:
    """P(spam | row) for each row of an (n, model.m) 0/1 matrix, in log space.

    With an ascending ms, one row of posteriors per m under the model's
    first m attributes, (len(ms), n); without, the posteriors at model.m,
    (n,).  A conditional depends only on its own column, so the model at m
    is the m-prefix of the model.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != model.m:
        raise ValueError(f"matrix shape {matrix.shape} does not match model m={model.m}")
    log_spam, log_legit = _log_joints(model, matrix, m_range(ms, model.m, 0))
    posterior = _normalize_spam(log_spam, log_legit, model.prior_spam)
    return posterior[0] if ms is None else posterior


def classify_nb_batch(
    model: NaiveBayesModel, matrix: np.ndarray, policy: DecisionPolicy,
    ms: Sequence[int] | None = None,
) -> np.ndarray:
    """uint8 decision per row, 1 = spam: the spam posterior strictly exceeds
    the policy threshold; shaped as posterior_spam_batch."""
    return (posterior_spam_batch(model, matrix, ms) > policy.threshold).astype(np.uint8)
