"""Cost-sensitive evaluation: weighted accuracy, TCR, 10-fold CV, t-tests.

Every legitimate message counts as lambda messages, so the weighted
accuracy of a split is (lambda * n_legit_legit + n_spam_spam) /
(lambda * N_legit + N_spam).  The no-filter baseline passes everything;
its weighted error anchors the total cost ratio TCR = baseline WErr /
filter WErr, where values above 1 mean the filter beats not filtering.

Cross-validation averages WAcc over the folds and computes TCR from the
baseline WErr of the whole corpus divided by the mean fold WErr (not a
mean of per-fold TCRs, which is a different number).  Attribute selection
and training both see only the nine training parts of each fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Sequence

import numpy as np

from .bayes import (
    DecisionPolicy,
    classify_nb_batch,
    lambda_to_threshold,
    train_naive_bayes,
)
from .corpus import Corpus, Label
from .errors import ConfigError, DataError
from .features import class_counts, presence_matrix, select_attributes
from .memory import build_instance_base, classify_mb_batch

CLASSIFIER_KINDS = ("nb", "mb", "oracle", "always-legit")


@dataclass(frozen=True)
class ConfusionCounts:
    """The four gold-vs-predicted cells; n_<gold>_<predicted>."""

    n_legit_legit: int = 0
    n_legit_spam: int = 0
    n_spam_spam: int = 0
    n_spam_legit: int = 0

    def __post_init__(self) -> None:
        for name in ("n_legit_legit", "n_legit_spam", "n_spam_spam", "n_spam_legit"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def n_legit(self) -> int:
        return self.n_legit_legit + self.n_legit_spam

    @property
    def n_spam(self) -> int:
        return self.n_spam_spam + self.n_spam_legit

    @property
    def total(self) -> int:
        return self.n_legit + self.n_spam

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            n_legit_legit=self.n_legit_legit + other.n_legit_legit,
            n_legit_spam=self.n_legit_spam + other.n_legit_spam,
            n_spam_spam=self.n_spam_spam + other.n_spam_spam,
            n_spam_legit=self.n_spam_legit + other.n_spam_legit,
        )


def confusion_counts(
    gold: Sequence[Label] | np.ndarray, predicted: Sequence[Label] | np.ndarray
) -> ConfusionCounts:
    """Tally the four cells from parallel gold and predicted labels (1 = spam)."""
    g = np.asarray(gold, dtype=np.intp)
    p = np.asarray(predicted, dtype=np.intp)
    if g.shape != p.shape:
        raise ValueError(f"gold and predicted lengths differ: {len(g)} vs {len(p)}")
    if not np.isin(g, (0, 1)).all() or not np.isin(p, (0, 1)).all():
        raise ValueError("labels must be 0 (legitimate) or 1 (spam)")
    ll, ls, sl, ss = np.bincount(2 * g + p, minlength=4).tolist()
    return ConfusionCounts(
        n_legit_legit=ll, n_legit_spam=ls, n_spam_spam=ss, n_spam_legit=sl
    )


def _weighted_error(wacc: float, errors: float, weighted_total: float, lam: float) -> float:
    """1 - wacc, checked against errors / weighted_total computed directly.

    When lambda makes the weighted errors tiny beside the weighted total,
    1 - wacc cancels to rounding noise (a no-op filter scored TCR=inf), so
    such a lambda is rejected; 1e-9 is far above a sound result's rounding.
    """
    werr = 1.0 - wacc
    if abs(werr - errors / weighted_total) > 1e-9 * (errors / weighted_total):
        raise ConfigError(
            f"lambda {lam:g} is out of range for this corpus: "
            "1 - WAcc loses the weighted errors to rounding"
        )
    return werr


def weighted_accuracy(counts: ConfusionCounts, lam: float) -> tuple[float, float]:
    """(WAcc, WErr) with each legitimate message weighted as lambda messages."""
    lambda_to_threshold(lam)  # validates lambda
    if counts.total == 0:
        raise DataError("cannot score an empty split")
    total = lam * counts.n_legit + counts.n_spam
    wacc = (lam * counts.n_legit_legit + counts.n_spam_spam) / total
    errors = lam * counts.n_legit_spam + counts.n_spam_legit
    return wacc, _weighted_error(wacc, errors, total, lam)


def baseline_metrics(n_legit: int, n_spam: int, lam: float) -> tuple[float, float]:
    """(WAcc, WErr) of the no-filter policy: every message passes."""
    lambda_to_threshold(lam)  # validates lambda
    if n_legit + n_spam < 1:
        raise DataError("baseline needs at least one message")
    total = lam * n_legit + n_spam
    wacc = lam * n_legit / total
    return wacc, _weighted_error(wacc, n_spam, total, lam)


def total_cost_ratio(counts: ConfusionCounts, lam: float) -> float:
    """N_spam over the lambda-weighted error count; inf for a perfect filter."""
    lambda_to_threshold(lam)  # validates lambda
    denominator = lam * counts.n_legit_spam + counts.n_spam_legit
    if denominator == 0:
        return math.inf
    return counts.n_spam / denominator


def spam_recall_precision(counts: ConfusionCounts) -> tuple[float, float]:
    """(SR, SP); SP is inf when nothing was blocked at all."""
    if counts.n_spam < 1:
        raise DataError("spam recall needs at least one spam message")
    sr = counts.n_spam_spam / counts.n_spam
    blocked = counts.n_spam_spam + counts.n_legit_spam
    sp = counts.n_spam_spam / blocked if blocked else math.inf
    return sr, sp


@dataclass(frozen=True)
class FoldPlan:
    """Seeded stratified partition: document index -> fold id."""

    k_folds: int
    assignment: tuple[int, ...]
    seed: int

    def test_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignment) if f == fold]


def make_stratified_folds(corpus: Corpus, k_folds: int = 10, seed: int = 0) -> FoldPlan:
    """Shuffle each class independently, deal round-robin into folds.

    Per-fold class counts differ by at most one across folds for any seed.
    """
    if k_folds < 2:
        raise ValueError(f"k_folds must be >= 2, got {k_folds}")
    by_class: dict[Label, list[int]] = {Label.LEGITIMATE: [], Label.SPAM: []}
    for i, doc in enumerate(corpus.documents):
        by_class[doc.label].append(i)
    for label, indices in by_class.items():
        if len(indices) < k_folds:
            raise DataError(
                f"need at least {k_folds} {label} documents, found {len(indices)}"
            )
    rng = Random(seed)
    assignment = [0] * len(corpus.documents)
    for label in (Label.LEGITIMATE, Label.SPAM):
        indices = by_class[label]
        rng.shuffle(indices)
        for position, doc_index in enumerate(indices):
            assignment[doc_index] = position % k_folds
    return FoldPlan(k_folds=k_folds, assignment=tuple(assignment), seed=seed)


@dataclass(frozen=True)
class ClassifierConfig:
    """Which classifier to run inside cross-validation.

    kind "oracle" predicts the gold labels and "always-legit" passes
    everything; both exist as harness checks, not real filters.
    """

    kind: str = "nb"
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CLASSIFIER_KINDS:
            raise ConfigError(f"unknown classifier kind: {self.kind!r}")
        if self.kind == "mb" and (self.k is None or self.k < 1):
            raise ConfigError(f"memory-based classifier needs k >= 1, got {self.k}")


@dataclass(frozen=True)
class AggregateResult:
    """Cross-validation outcome for one configuration.

    tcr is the whole-corpus baseline WErr over the mean fold WErr; SR and
    SP are pooled over the fold confusion counts.
    """

    classifier: str
    lam: float
    m: int
    k: int | None
    seed: int
    k_folds: int
    fold_counts: tuple[ConfusionCounts, ...]
    fold_waccs: tuple[float, ...]
    mean_wacc: float
    mean_werr: float
    baseline_wacc: float
    baseline_werr: float
    tcr: float
    spam_recall: float
    spam_precision: float


def _predict(
    config: ClassifierConfig,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    policy: DecisionPolicy,
) -> np.ndarray:
    """uint8 decision per test row, 1 = spam."""
    if config.kind == "nb":
        model = train_naive_bayes(x_train, y_train)
        return classify_nb_batch(model, x_test, policy)
    if config.kind == "mb":
        base = build_instance_base(x_train, y_train)
        return classify_mb_batch(base, x_test, config.k, policy)
    if config.kind == "oracle":
        return y_test
    return np.zeros(len(y_test), dtype=np.uint8)


def _aggregate(
    corpus: Corpus,
    config: ClassifierConfig,
    lam: float,
    m: int,
    plan: FoldPlan,
    fold_counts: list[ConfusionCounts],
) -> AggregateResult:
    fold_waccs = tuple(weighted_accuracy(c, lam)[0] for c in fold_counts)
    mean_wacc = math.fsum(fold_waccs) / len(fold_waccs)
    mean_werr = 1.0 - mean_wacc
    baseline_wacc, baseline_werr = baseline_metrics(corpus.n_legit, corpus.n_spam, lam)
    tcr = baseline_werr / mean_werr if mean_werr > 0 else math.inf
    sr, sp = spam_recall_precision(sum(fold_counts, ConfusionCounts()))
    return AggregateResult(
        classifier=config.kind,
        lam=lam,
        m=m,
        k=config.k if config.kind == "mb" else None,
        seed=plan.seed,
        k_folds=plan.k_folds,
        fold_counts=tuple(fold_counts),
        fold_waccs=fold_waccs,
        mean_wacc=mean_wacc,
        mean_werr=mean_werr,
        baseline_wacc=baseline_wacc,
        baseline_werr=baseline_werr,
        tcr=tcr,
        spam_recall=sr,
        spam_precision=sp,
    )


def _run_configurations(
    corpus: Corpus,
    config: ClassifierConfig,
    lam: float,
    ms: range,
    plan: FoldPlan,
) -> list[AggregateResult]:
    """Shared CV engine.

    The corpus incidence is built on the first call and kept on the corpus.
    Tokens are ranked once per fold and vectorized at the largest m; the
    smaller attribute sets are column prefixes of that matrix, which is
    exactly what per-m selection would produce (top-m lists are nested).
    ms stays a lazy range and per-m state grows fold by fold, so an m range
    beyond the vocabulary fails in the first fold's ranking, not in memory.
    """
    policy = DecisionPolicy.from_lambda(lam)
    incidence = corpus.incidence
    assignment = np.array(plan.assignment)
    per_m_counts: dict[int, list[ConfusionCounts]] = {}
    for fold in range(plan.k_folds):
        train = assignment != fold
        attrs = select_attributes(class_counts(incidence, train), ms[-1])
        x = presence_matrix(incidence, attrs.ids)
        x_train, y_train = x[train], incidence.labels[train]
        x_test, y_test = x[~train], incidence.labels[~train]
        for m in ms:
            predicted = _predict(
                config, x_train[:, :m], y_train, x_test[:, :m], y_test, policy
            )
            per_m_counts.setdefault(m, []).append(confusion_counts(y_test, predicted))
    return [
        _aggregate(corpus, config, lam, m, plan, per_m_counts[m]) for m in ms
    ]


def cross_validate(
    corpus: Corpus,
    config: ClassifierConfig,
    lam: float,
    m: int,
    plan: FoldPlan,
) -> AggregateResult:
    """Run the full k-fold protocol for one configuration."""
    return _run_configurations(corpus, config, lam, range(m, m + 1), plan)[0]


def sweep_attributes(
    corpus: Corpus,
    config: ClassifierConfig,
    lam: float,
    plan: FoldPlan,
    m_from: int = 50,
    m_to: int = 700,
    m_step: int = 50,
) -> list[AggregateResult]:
    """One AggregateResult per attribute-set size, ascending m."""
    if m_from < 1 or m_to < m_from or m_step < 1:
        raise ValueError(f"invalid m range {m_from}:{m_to}:{m_step}")
    ms = range(m_from, m_to + 1, m_step)
    return _run_configurations(corpus, config, lam, ms, plan)


@dataclass(frozen=True)
class TestResult:
    """One-tailed paired t-test outcome at the 0.05 level."""

    t_statistic: float
    degrees_of_freedom: int
    significant_at_05: bool


# One-tailed 0.05 critical values of Student's t for df 1..30.
_T_CRITICAL_05 = {
    1: 6.314, 2: 2.920, 3: 2.353, 4: 2.132, 5: 2.015,
    6: 1.943, 7: 1.895, 8: 1.860, 9: 1.833, 10: 1.812,
    11: 1.796, 12: 1.782, 13: 1.771, 14: 1.761, 15: 1.753,
    16: 1.746, 17: 1.740, 18: 1.734, 19: 1.729, 20: 1.725,
    21: 1.721, 22: 1.717, 23: 1.714, 24: 1.711, 25: 1.708,
    26: 1.706, 27: 1.703, 28: 1.701, 29: 1.699, 30: 1.697,
}


def t_critical_value(df: int) -> float:
    if df not in _T_CRITICAL_05:
        raise ValueError(f"no embedded critical value for df={df} (supported: 1..30)")
    return _T_CRITICAL_05[df]


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Test whether the per-fold scores in a exceed those in b on average.

    t = mean(d) / (sd(d) / sqrt(n)) with the sample sd (n - 1 denominator);
    a zero-variance positive difference yields an infinite t.
    """
    if len(a) != len(b):
        raise ValueError(f"score lists differ in length: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("paired t-test needs at least two folds")
    d = [x - y for x, y in zip(a, b)]
    n = len(d)
    mean = math.fsum(d) / n
    ss = math.fsum((x - mean) ** 2 for x in d)
    if ss == 0.0:
        t = math.inf if mean > 0 else (-math.inf if mean < 0 else 0.0)
    else:
        sd = math.sqrt(ss / (n - 1))
        t = mean / (sd / math.sqrt(n))
    df = n - 1
    return TestResult(
        t_statistic=t,
        degrees_of_freedom=df,
        significant_at_05=t > t_critical_value(df),
    )
