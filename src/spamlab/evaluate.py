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

import functools
import math
from dataclasses import dataclass
from random import Random
from typing import Sequence

import numpy as np

from .bayes import classify_nb_batch, is_zero_one, lambda_to_threshold, train_naive_bayes
from .corpus import Corpus, Incidence, Label
from .errors import ConfigError, DataError
from .features import class_counts, rank_tokens, split_presence
from .memory import build_instance_base, check_k, classify_mb_batch

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
    g = np.asarray(gold)
    p = np.asarray(predicted)
    if g.ndim != 1 or g.shape != p.shape or not is_zero_one(g) or not is_zero_one(p):
        raise ValueError("labels must be 1-D, equally long, and 0 (legitimate) or 1 (spam)")
    ll, ls, sl, ss = np.bincount((2 * g + p).astype(np.intp), minlength=4).tolist()
    return ConfusionCounts(
        n_legit_legit=ll, n_legit_spam=ls, n_spam_spam=ss, n_spam_legit=sl
    )


def weighted_accuracy(counts: ConfusionCounts, lam: float) -> tuple[float, float]:
    """(WAcc, WErr) with each legitimate message weighted as lambda messages.

    WErr is 1 - WAcc, checked against the weighted errors over the weighted
    total computed directly: when lambda makes the errors tiny beside the
    total, 1 - WAcc cancels to rounding noise (a no-op filter scored TCR=inf),
    so such a lambda is rejected; 1e-9 is far above a sound result's rounding.
    """
    lam = float(lam)
    lambda_to_threshold(lam)  # validates lambda
    if counts.total == 0:
        raise DataError("cannot score an empty split")
    total = lam * counts.n_legit + counts.n_spam
    wacc = (lam * counts.n_legit_legit + counts.n_spam_spam) / total
    errors = (lam * counts.n_legit_spam + counts.n_spam_legit) / total
    if abs(1.0 - wacc - errors) > 1e-9 * errors:
        raise ConfigError(
            f"lambda {lam:g} is out of range for this corpus: "
            "1 - WAcc loses the weighted errors to rounding"
        )
    return wacc, 1.0 - wacc


def baseline_metrics(n_legit: int, n_spam: int, lam: float) -> tuple[float, float]:
    """(WAcc, WErr) of the no-filter policy: every message passes."""
    return weighted_accuracy(ConfusionCounts(n_legit_legit=n_legit, n_spam_legit=n_spam), lam)


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

    def __post_init__(self) -> None:
        if self.k_folds < 2:
            raise ValueError(f"k_folds must be >= 2, got {self.k_folds}")
        folds = set(range(self.k_folds))
        outside = set(self.assignment) - folds
        if outside:
            raise ValueError(
                f"fold ids {sorted(outside)} are outside range({self.k_folds})"
            )
        empty = folds.difference(self.assignment)
        if empty:
            raise ValueError(f"folds {sorted(empty)} hold no documents")


def make_stratified_folds(corpus: Corpus, k_folds: int = 10, seed: int = 0) -> FoldPlan:
    """Shuffle each class independently, deal round-robin into folds.

    Per-fold class counts differ by at most one across folds for any seed.
    """
    if k_folds < 2:
        raise ValueError(f"k_folds must be >= 2, got {k_folds}")
    labels = np.frombuffer(corpus.labels, np.uint8)
    by_class = {label: np.flatnonzero(labels == label).tolist() for label in Label}
    for label, indices in by_class.items():
        if len(indices) < k_folds:
            raise DataError(
                f"need at least {k_folds} {label} documents, found {len(indices)}"
            )
    rng = Random(seed)
    assignment = np.empty(len(corpus), np.int64)
    for indices in by_class.values():  # LEGITIMATE, then SPAM
        rng.shuffle(indices)
        assignment[indices] = np.arange(len(indices)) % k_folds
    return FoldPlan(k_folds=k_folds, assignment=tuple(assignment.tolist()), seed=seed)


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
        if self.kind != "mb" and self.k is not None:
            raise ConfigError(f"only the memory-based classifier takes k, got k={self.k!r}")
        if self.kind == "mb":
            check_k(self.k)


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
    train: Incidence,
    x_test: np.ndarray,
    y_test: np.ndarray,
    lam: float,
    ms: range,
) -> np.ndarray:
    """uint8 decisions, 1 = spam: one row per m of ms, over the first m columns."""
    if config.kind == "nb":
        return classify_nb_batch(train_naive_bayes(train, train.labels), x_test, lam, ms)
    if config.kind == "mb":
        base = build_instance_base(train, train.labels)
        return classify_mb_batch(base, x_test, config.k, lam, ms)
    if config.kind == "oracle":
        return np.tile(y_test, (len(ms), 1))
    return np.zeros((len(ms), len(y_test)), dtype=np.uint8)


def cross_validate(
    corpus: Corpus,
    config: ClassifierConfig,
    lam: float,
    m: int,
    plan: FoldPlan,
) -> AggregateResult:
    """Run the full k-fold protocol for one configuration: a sweep over one m."""
    return sweep_attributes(corpus, config, lam, plan, m, m, 1)[0]


@functools.lru_cache(maxsize=1)
def _fold_rankings(incidence: Incidence, plan: FoldPlan) -> tuple[np.ndarray, ...]:
    """Each fold's candidate token ids, best first, in the narrowest type that
    holds len(vocabulary) (uint16 up to 65,535 tokens); the Incidence hashes by id."""
    return tuple(
        rank_tokens(stats)[0].astype(np.min_scalar_type(len(incidence.vocabulary)))
        for stats in class_counts(incidence, np.array(plan.assignment), plan.k_folds)
    )


def sweep_range(start: int, stop: int, step: int) -> range:
    """The m values start..stop by step; ConfigError unless 1 <= start <= stop, step > 0."""
    if start < 1 or stop < start or step < 1:
        raise ConfigError(f"invalid m range {start}:{stop}:{step}: need 1 <= FROM <= TO, STEP > 0")
    return range(start, stop + 1, step)


def sweep_attributes(
    corpus: Corpus,
    config: ClassifierConfig,
    lam: float,
    plan: FoldPlan,
    m_from: int = 50,
    m_to: int = 700,
    m_step: int = 50,
) -> list[AggregateResult]:
    """One AggregateResult per attribute-set size, ascending m: the CV engine.

    The incidence is built on the first call and kept on the corpus; the
    fold rankings, which depend on neither the classifier nor lambda nor m,
    are kept by ``_fold_rankings`` for the latest incidence and plan only (2
    bytes per candidate per fold), so only the first configuration on a plan
    counts and ranks.  One count pass gives every fold's counts, and each
    fold is ranked as its counts come, freeing the table before classifying.
    A fold gathers the postings of its top tokens at the largest m once, and
    splits them into the training rows as an Incidence and the test rows as
    a uint8 matrix, so no fold holds an (n, m) array; the smaller attribute
    sets are column prefixes, exactly what per-m selection would produce
    (top-m lists are nested).  Each classifier gets the whole range of a fold in one call, so
    each distance column and each class count is computed once.
    ms stays a lazy range and per-m state grows fold by fold, and every
    fold's candidate count is checked before any fold is classified, so an
    m range beyond the vocabulary fails at once, not in memory.
    """
    lam = float(lam)
    # validates lambda, its rounding on this corpus included, before any work
    baseline_wacc, baseline_werr = baseline_metrics(corpus.n_legit, corpus.n_spam, lam)
    if len(plan.assignment) != len(corpus):
        raise ValueError(
            f"fold plan covers {len(plan.assignment)} documents "
            f"but the corpus has {len(corpus)}"
        )
    ms = sweep_range(m_from, m_to, m_step)
    largest = ms[-1]
    incidence = corpus.incidence
    rankings = _fold_rankings(incidence, plan)
    for ids in rankings:
        if len(ids) < largest:
            raise DataError(
                f"requested {largest} attributes "
                f"but only {len(ids)} distinct tokens available"
            )
    assignment = np.array(plan.assignment)
    per_fold = []
    for fold, ids in enumerate(rankings):
        test = assignment == fold
        train, x_test = split_presence(incidence, ids[:largest], test)
        y_test = incidence.labels[test]
        decisions = _predict(config, train, x_test, y_test, lam, ms)
        del train, x_test  # freed before the next fold's gathers
        per_fold.append([confusion_counts(y_test, predicted) for predicted in decisions])
    results = []
    for m, fold_counts in zip(ms, zip(*per_fold)):
        fold_waccs = tuple(weighted_accuracy(c, lam)[0] for c in fold_counts)
        mean_wacc = math.fsum(fold_waccs) / len(fold_waccs)
        mean_werr = 1.0 - mean_wacc
        sr, sp = spam_recall_precision(sum(fold_counts, ConfusionCounts()))
        results.append(AggregateResult(
            classifier=config.kind,
            lam=lam,
            m=m,
            k=config.k,
            seed=plan.seed,
            fold_counts=fold_counts,
            fold_waccs=fold_waccs,
            mean_wacc=mean_wacc,
            mean_werr=mean_werr,
            baseline_wacc=baseline_wacc,
            baseline_werr=baseline_werr,
            tcr=baseline_werr / mean_werr if mean_werr > 0 else math.inf,
            spam_recall=sr,
            spam_precision=sp,
        ))
    return results


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
    df = n - 1
    if df not in _T_CRITICAL_05:
        raise ValueError(f"no embedded critical value for df={df} (supported: 1..30)")
    mean = math.fsum(d) / n
    ss = math.fsum((x - mean) ** 2 for x in d)
    if ss == 0.0:
        t = math.inf if mean > 0 else (-math.inf if mean < 0 else 0.0)
    else:
        sd = math.sqrt(ss / (n - 1))
        t = mean / (sd / math.sqrt(n))
    return TestResult(
        t_statistic=t,
        degrees_of_freedom=df,
        significant_at_05=t > _T_CRITICAL_05[df],
    )
