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


def training_set(
    vectors: Sequence[np.ndarray] | np.ndarray,
    labels: Sequence[Label] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(n, m) vector matrix and (n,) uint8 labels (1 = spam) of a training set."""
    try:
        matrix = np.asarray(vectors)
    except ValueError:
        raise DataError("training vectors must all have the same length")
    if matrix.dtype == object or matrix.ndim != 2:
        raise DataError("training vectors must all have the same length")
    y = np.asarray(labels, dtype=np.uint8)
    if len(y) != len(matrix):
        raise DataError("vector and label counts differ")
    return matrix, y


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


def _log_joints(model: NaiveBayesModel, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log prior + log likelihood per class for each row of a 0/1 matrix.

    Per-attribute terms are selected, not multiplied by indicators, so a
    hard zero in a hand-built model contributes -inf only when its bit is
    actually set.
    """
    x = matrix.astype(bool)
    with np.errstate(divide="ignore"):
        log_spam = np.log(model.prior_spam) + np.where(
            x, np.log(model.p1_spam), np.log1p(-model.p1_spam)
        ).sum(axis=1)
        log_legit = np.log(model.prior_legit) + np.where(
            x, np.log(model.p1_legit), np.log1p(-model.p1_legit)
        ).sum(axis=1)
    return log_spam, log_legit


def _normalize_spam(log_spam: np.ndarray, log_legit: np.ndarray, prior_spam: float) -> np.ndarray:
    # exp(L_legit - L_spam) maps -inf joints to the right limits; only the
    # double-zero case (both joints impossible) needs a convention, and it
    # falls back to the prior.
    both_dead = np.isneginf(log_spam) & np.isneginf(log_legit)
    with np.errstate(over="ignore", invalid="ignore"):
        posterior = 1.0 / (1.0 + np.exp(log_legit - log_spam))
    posterior[both_dead] = prior_spam
    return posterior


def posterior_spam_batch(model: NaiveBayesModel, matrix: np.ndarray) -> np.ndarray:
    """P(spam | row) for each row of an (n, m) 0/1 matrix, in log space."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != model.m:
        raise ValueError(f"matrix shape {matrix.shape} does not match model m={model.m}")
    log_spam, log_legit = _log_joints(model, matrix)
    return _normalize_spam(log_spam, log_legit, model.prior_spam)


def classify_nb_batch(
    model: NaiveBayesModel, matrix: np.ndarray, policy: DecisionPolicy
) -> np.ndarray:
    """uint8 decision per row, 1 = spam: the spam posterior strictly exceeds
    the policy threshold."""
    return (posterior_spam_batch(model, matrix) > policy.threshold).astype(np.uint8)


def posterior_spam(model: NaiveBayesModel, vector: np.ndarray) -> float:
    """P(spam | vector) for one vector of length m; always within [0, 1]."""
    return float(posterior_spam_batch(model, np.asarray(vector)[np.newaxis])[0])


def classify_nb(
    model: NaiveBayesModel, vector: np.ndarray, policy: DecisionPolicy
) -> Label:
    """classify_nb_batch for one vector of length m."""
    return Label(classify_nb_batch(model, np.asarray(vector)[np.newaxis], policy)[0])
