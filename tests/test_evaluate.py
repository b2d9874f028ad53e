from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats as scipy_stats

from conftest import fold_members, matrix_of, presence_matrix, top_features, traced
from oracles import cross_validate_direct, ranking_direct

from spamlab import (
    ClassifierConfig,
    ConfigError,
    ConfusionCounts,
    DataError,
    Document,
    FixtureParams,
    FoldPlan,
    Label,
    baseline_metrics,
    confusion_counts,
    cross_validate,
    generate_fixture_corpus,
    make_stratified_folds,
    paired_t_test,
    spam_recall_precision,
    sweep_attributes,
    weighted_accuracy,
)
from spamlab.cli import main
import spamlab.cli as cli_module
import spamlab.evaluate as evaluate_module
from spamlab.corpus import Corpus, Incidence, load_corpus, write_fixture_corpus
from spamlab.evaluate import _T_CRITICAL_05, _fold_rankings
from spamlab.features import class_counts, rank_tokens
from spamlab.bayes import NaiveBayesModel, classify_nb_batch, train_naive_bayes


def counts_of(ll, ls, ss, sl):
    return ConfusionCounts(
        n_legit_legit=ll, n_legit_spam=ls, n_spam_spam=ss, n_spam_legit=sl
    )


def tiny_corpus(n_legit, n_spam):
    docs = [
        Document(("alpha", "beta"), Label.LEGITIMATE, f"msg{i:05d}")
        for i in range(n_legit)
    ] + [
        Document(("gamma", "delta"), Label.SPAM, f"spmsg{i:05d}")
        for i in range(n_spam)
    ]
    return Corpus.from_documents(docs)


class TestConfusionCounts:
    def test_all_correct(self):
        counts = confusion_counts(
            [Label.SPAM, Label.LEGITIMATE], [Label.SPAM, Label.LEGITIMATE]
        )
        assert counts.n_legit_spam == 0 and counts.n_spam_legit == 0

    def test_both_wrong(self):
        counts = confusion_counts(
            [Label.SPAM, Label.LEGITIMATE], [Label.LEGITIMATE, Label.SPAM]
        )
        assert counts.n_spam_legit == 1 and counts.n_legit_spam == 1

    def test_everything_predicted_spam(self):
        gold = [Label.SPAM] * 3 + [Label.LEGITIMATE]
        counts = confusion_counts(gold, [Label.SPAM] * 4)
        assert counts.n_spam_spam == 3 and counts.n_legit_spam == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_counts([Label.SPAM], [])

    @pytest.mark.parametrize(
        "gold,predicted",
        [([2], [0]), ([0], [2]), ([1], [-1]), ([0.5], [1]), ([1], [1.7]), (["1"], [0]),
         (1, [1]), (1, 1), ([[0, 1]], [[1, 0]])],
    )
    def test_labels_outside_zero_one_rejected(self, gold, predicted):
        # also labels that are not one 1-D sequence each
        with pytest.raises(ValueError, match="0 .legitimate. or 1 .spam."):
            confusion_counts(gold, predicted)

    @given(pairs=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=60))
    def test_matches_brute_force_tally(self, pairs):
        tally = Counter(pairs)
        expected = counts_of(
            tally[False, False], tally[False, True], tally[True, True], tally[True, False]
        )
        gold = [Label(int(g)) for g, _ in pairs]
        predicted = [Label(int(p)) for _, p in pairs]
        assert confusion_counts(gold, predicted) == expected
        as_arrays = confusion_counts(
            np.array(gold, dtype=np.uint8), np.array(predicted, dtype=np.uint8)
        )
        assert as_arrays == expected
        assert all(type(getattr(as_arrays, f)) is int for f in (
            "n_legit_legit", "n_legit_spam", "n_spam_spam", "n_spam_legit"))

    def test_pooling_adds_cellwise(self):
        total = counts_of(1, 2, 3, 4) + counts_of(10, 20, 30, 40)
        assert total == counts_of(11, 22, 33, 44)

    def test_negative_cells_rejected(self):
        with pytest.raises(ValueError):
            counts_of(-1, 0, 0, 0)


class TestWeightedAccuracy:
    def test_lambda_one_is_plain_accuracy(self):
        counts = counts_of(8, 2, 3, 1)
        wacc, _ = weighted_accuracy(counts, 1.0)
        assert wacc == pytest.approx((8 + 3) / 14)

    def test_perfect_filter(self):
        wacc, werr = weighted_accuracy(counts_of(10, 0, 5, 0), 9.0)
        assert wacc == 1.0 and werr == 0.0

    def test_lambda_nine_hand_example(self):
        counts = counts_of(10, 0, 5, 5)
        wacc, _ = weighted_accuracy(counts, 9.0)
        assert wacc == pytest.approx(0.95)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            weighted_accuracy(counts_of(0, 0, 0, 0), 1.0)

    @pytest.mark.parametrize("lam", [1e9, 1e15, 8e15])
    def test_error_lost_to_rounding_rejected(self, lam):
        # one missed spam among 3 legit + 1 spam: WErr is 1 / (3 lambda + 1),
        # which 1 - WAcc cannot resolve once lambda is this large
        with pytest.raises(ConfigError, match="out of range for this corpus"):
            weighted_accuracy(counts_of(3, 0, 0, 1), lam)
        with pytest.raises(ConfigError, match="out of range for this corpus"):
            baseline_metrics(3, 1, lam)
        assert weighted_accuracy(counts_of(3, 0, 1, 0), lam) == (1.0, 0.0)

    def test_error_lost_to_rounding_at_tiny_lambda_rejected(self):
        # one blocked legit message weighs 1e-12 beside 40 spam
        with pytest.raises(ConfigError, match="out of range for this corpus"):
            weighted_accuracy(counts_of(3, 1, 40, 0), 1e-12)

    @given(
        ll=st.integers(0, 500), ls=st.integers(0, 500),
        ss=st.integers(0, 500), sl=st.integers(0, 500),
        lam=st.sampled_from([0.5, 1.0, 3.0, 9.0, 999.0]),
    )
    def test_duality_is_exact(self, ll, ls, ss, sl, lam):
        counts = counts_of(ll, ls, ss, sl)
        if counts.total == 0:
            return
        wacc, werr = weighted_accuracy(counts, lam)
        assert wacc + werr == 1.0


class TestBaseline:
    @pytest.mark.parametrize(
        "lam,expected_pct",
        [(1.0, "83.374"), (9.0, "97.832"), (999.0, "99.980")],
    )
    def test_published_baseline_rows(self, lam, expected_pct):
        wacc, werr = baseline_metrics(2412, 481, lam)
        assert f"{wacc * 100:.3f}" == expected_pct
        assert wacc + werr == 1.0

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            baseline_metrics(0, 0, 1.0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            baseline_metrics(10, 5, 0.0)


class TestNumpyLambda:
    """A numpy float32 lambda scores as the Python float of its value."""

    @pytest.mark.parametrize("lam", [1, 9, 999])
    def test_measures(self, lam):
        counts = counts_of(100, 1, 39, 9)
        scored = weighted_accuracy(counts, np.float32(lam))
        assert scored == weighted_accuracy(counts, lam)
        baseline = baseline_metrics(2412, 481, np.float32(lam))
        assert baseline == baseline_metrics(2412, 481, lam)
        assert {type(v) for v in (*scored, *baseline)} == {float}

    @pytest.mark.parametrize("lam", [1, 9, 999])
    def test_nb_thresholds_at_the_float_threshold(self, lam):
        # a posterior at t = lambda / (1 + lambda) itself, where float32 t
        # (0.89999998 for 0.9) sits below it
        t = lam / (1 + lam)
        model = NaiveBayesModel(t, 1 - t, np.empty(0), np.empty(0))
        x = np.zeros((1, 0), dtype=np.uint8)
        expected = classify_nb_batch(model, x, lam)
        assert classify_nb_batch(model, x, np.float32(lam)).tolist() == expected.tolist()

    @pytest.mark.parametrize("lam", [1, 9, 999])
    def test_sweep(self, hard_corpus, lam):
        plan = make_stratified_folds(hard_corpus, seed=0)
        config = ClassifierConfig(kind="nb")
        expected = sweep_attributes(hard_corpus, config, lam, plan, 10, 30, 10)
        swept = sweep_attributes(hard_corpus, config, np.float32(lam), plan, 10, 30, 10)
        assert swept == expected
        assert {type(v) for r in swept for v in (r.lam, r.tcr)} == {float}


class TestSpamRecallPrecision:
    def test_baseline_blocks_nothing(self):
        sr, sp = spam_recall_precision(counts_of(100, 0, 0, 48))
        assert sr == 0.0 and sp == math.inf

    def test_perfect_filter(self):
        sr, sp = spam_recall_precision(counts_of(100, 0, 48, 0))
        assert sr == 1.0 and sp == 1.0

    def test_hand_example(self):
        sr, sp = spam_recall_precision(counts_of(90, 2, 40, 8))
        assert sr == pytest.approx(0.8333, abs=5e-5)
        assert sp == pytest.approx(0.9524, abs=5e-5)

    def test_requires_spam(self):
        with pytest.raises(DataError):
            spam_recall_precision(counts_of(5, 0, 0, 0))


class TestFoldPlan:
    def test_exactly_divisible_classes(self):
        plan = make_stratified_folds(tiny_corpus(100, 20), seed=5)
        for fold in range(10):
            test_idx = fold_members(plan, fold)
            spam = sum(1 for i in test_idx if i >= 100)
            assert len(test_idx) == 12 and spam == 2

    def test_same_seed_reproduces_plan(self):
        corpus = tiny_corpus(40, 20)
        assert make_stratified_folds(corpus, seed=3) == make_stratified_folds(corpus, seed=3)

    def test_spam_fold_sizes_for_481(self):
        plan = make_stratified_folds(tiny_corpus(20, 481), seed=1)
        sizes = []
        for fold in range(10):
            sizes.append(sum(1 for i in fold_members(plan, fold) if i >= 20))
        assert sorted(sizes) == [48] * 9 + [49]

    def test_stratification_bound_over_seeds(self):
        corpus = tiny_corpus(73, 31)
        for seed in range(10):
            plan = make_stratified_folds(corpus, seed=seed)
            spam_counts = []
            legit_counts = []
            for fold in range(10):
                test_idx = fold_members(plan, fold)
                spam_counts.append(sum(1 for i in test_idx if i >= 73))
                legit_counts.append(len(test_idx) - spam_counts[-1])
            assert max(spam_counts) - min(spam_counts) <= 1
            assert max(legit_counts) - min(legit_counts) <= 1

    def test_insufficient_documents_rejected(self):
        with pytest.raises(DataError):
            make_stratified_folds(tiny_corpus(100, 9), k_folds=10)

    @pytest.mark.parametrize("k_folds", [1, 0])
    def test_fewer_than_two_folds_rejected_before_dealing(self, k_folds):
        # at 0 folds dealing would divide by zero before FoldPlan could check
        with pytest.raises(ValueError, match=f"k_folds must be >= 2, got {k_folds}"):
            make_stratified_folds(tiny_corpus(20, 20), k_folds=k_folds)

    def test_folds_partition_the_corpus(self):
        corpus = tiny_corpus(55, 25)
        plan = make_stratified_folds(corpus, seed=2)
        seen = sorted(i for fold in range(10) for i in fold_members(plan, fold))
        assert seen == list(range(len(corpus)))

    @pytest.mark.parametrize(
        "make_plan,message",
        [
            (
                lambda n: make_stratified_folds(tiny_corpus(60, 12), seed=0),
                "fold plan covers 72 documents but the corpus has 240",
            ),
            (
                lambda n: FoldPlan(10, tuple(i % 11 for i in range(n)), 0),
                r"fold ids \[10\] are outside range\(10\)",
            ),
            (
                lambda n: FoldPlan(10, (-1,) + (0,) * (n - 1), 0),
                r"fold ids \[-1\] are outside range\(10\)",
            ),
            (lambda n: FoldPlan(1, (0,) * n, 0), "k_folds must be >= 2, got 1"),
            (lambda n: FoldPlan(4, tuple(i % 3 for i in range(n)), 0), r"folds \[3\] hold no"),
            (lambda n: FoldPlan(2, (), 0), r"folds \[0, 1\] hold no documents"),
        ],
        ids=[
            "another corpus", "fold id at k_folds", "negative fold id", "one fold",
            "empty fold", "no documents",
        ],
    )
    def test_plan_that_does_not_fit_the_corpus_is_refused(self, hard_corpus, make_plan, message):
        with pytest.raises(ValueError, match=message):
            plan = make_plan(len(hard_corpus))
            cross_validate(hard_corpus, ClassifierConfig(kind="nb"), 1.0, 10, plan)


class TestClassifierConfig:
    @pytest.mark.parametrize("k", [1, 2, np.int64(2), 10**6])
    def test_mb_takes_an_integer_k(self, k):
        assert ClassifierConfig("mb", k=k).k == k

    @pytest.mark.parametrize("k", [
        None, 0, -1, np.int64(0), 1.5, 2.0, "2", np.float64(2), True, False, np.True_,
    ])
    def test_mb_rejects_anything_else(self, k):
        with pytest.raises(ConfigError, match="needs an integer k >= 1"):
            ClassifierConfig("mb", k=k)

    @pytest.mark.parametrize("kind", ["nb", "oracle", "always-legit"])
    @pytest.mark.parametrize("k", [0, 1, 5, 1.5])
    def test_other_kinds_take_no_k(self, kind, k):
        assert ClassifierConfig(kind).k is None
        with pytest.raises(ConfigError, match="only the memory-based classifier takes k"):
            ClassifierConfig(kind, k=k)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown classifier kind"):
            ClassifierConfig("svm")

    def test_result_reports_the_configured_k(self, hard_corpus):
        plan = make_stratified_folds(hard_corpus, seed=0)
        by_int = cross_validate(hard_corpus, ClassifierConfig("mb", k=2), 1.0, 10, plan)
        numpy_k = ClassifierConfig("mb", k=np.int64(2))
        by_numpy = cross_validate(hard_corpus, numpy_k, 1.0, 10, plan)
        assert by_int.k == by_numpy.k == 2 and by_int.fold_counts == by_numpy.fold_counts
        assert cross_validate(hard_corpus, ClassifierConfig("nb"), 1.0, 10, plan).k is None


class TestCrossValidate:
    def test_always_legitimate_reproduces_baseline_exactly(self, cv_corpus):
        plan = make_stratified_folds(cv_corpus, seed=0)
        for lam in (1.0, 9.0, 999.0):
            result = cross_validate(
                cv_corpus, ClassifierConfig(kind="always-legit"), lam, 10, plan
            )
            baseline_wacc, _ = baseline_metrics(cv_corpus.n_legit, cv_corpus.n_spam, lam)
            assert result.mean_wacc == baseline_wacc
            assert result.tcr == 1.0

    def test_oracle_scores_infinite_tcr(self, cv_corpus):
        plan = make_stratified_folds(cv_corpus, seed=0)
        result = cross_validate(cv_corpus, ClassifierConfig(kind="oracle"), 1.0, 10, plan)
        assert result.tcr == math.inf
        assert result.mean_wacc == 1.0

    def test_fixture_regression_pin(self, cv_corpus):
        # frozen from a pipeline run; the skewed fixture vocabulary makes
        # the classes fully separable at m=50, so the pin is an infinite TCR
        plan = make_stratified_folds(cv_corpus, seed=0)
        result = cross_validate(cv_corpus, ClassifierConfig(kind="nb"), 1.0, 50, plan)
        assert result.tcr > 1.0
        assert result.tcr == math.inf
        assert result.spam_recall == 1.0

    def test_result_echoes_configuration(self, cv_corpus):
        plan = make_stratified_folds(cv_corpus, seed=4)
        result = cross_validate(
            cv_corpus, ClassifierConfig(kind="mb", k=2), 9.0, 25, plan
        )
        assert result.classifier == "mb"
        assert result.k == 2
        assert result.lam == 9.0
        assert result.m == 25
        assert result.seed == 4
        assert len(result.fold_waccs) == 10
        assert len(result.fold_counts) == 10

    def test_fold_counts_cover_the_corpus(self, cv_corpus):
        plan = make_stratified_folds(cv_corpus, seed=0)
        result = cross_validate(cv_corpus, ClassifierConfig(kind="nb"), 1.0, 20, plan)
        pooled = ConfusionCounts()
        for c in result.fold_counts:
            pooled = pooled + c
        assert pooled.total == len(cv_corpus)
        assert pooled.n_spam == cv_corpus.n_spam

    def test_integer_labels_count_as_their_label(self, hard_corpus):
        as_ints = Corpus.from_documents(
            Document(d.tokens, int(d.label), d.source_id) for d in hard_corpus.documents
        )
        assert all(type(d.label) is Label for d in as_ints.documents)
        assert (as_ints.n_legit, as_ints.n_spam) == (hard_corpus.n_legit, hard_corpus.n_spam)
        assert (as_ints.n_legit, as_ints.n_spam) == (200, 40)
        plan = make_stratified_folds(hard_corpus, seed=0)
        config = ClassifierConfig(kind="nb")
        result = cross_validate(as_ints, config, 9.0, 20, plan)
        assert result == cross_validate(hard_corpus, config, 9.0, 20, plan)
        assert result.baseline_werr == pytest.approx(40 / (9 * 200 + 40))
        with pytest.raises(ValueError, match="2 is not a valid Label"):
            Document(("free",), 2, "msg00000")

    def test_no_leakage_from_test_documents(self, hard_corpus):
        plan = make_stratified_folds(hard_corpus, seed=0)
        fold = 3
        m = 15
        def split(corpus, plan):
            train = [d for d, f in zip(corpus.documents, plan.assignment) if f != fold]
            test = [d for d, f in zip(corpus.documents, plan.assignment) if f == fold]
            return train, test

        train_before, test_before = split(hard_corpus, plan)
        attrs_before = top_features(Corpus.from_documents(train_before), m)

        # drop one test-fold document and rebuild plan for the survivors
        victim = test_before[0]
        survivors = [d for d in hard_corpus.documents if d is not victim]
        reduced = Corpus.from_documents(survivors)
        kept_assignment = tuple(
            f for d, f in zip(hard_corpus.documents, plan.assignment) if d is not victim
        )
        reduced_plan = plan.__class__(
            k_folds=plan.k_folds, assignment=kept_assignment, seed=plan.seed
        )
        train_after, _ = split(reduced, reduced_plan)
        assert train_after == train_before
        attrs_after = top_features(Corpus.from_documents(train_after), m)
        assert attrs_after.tokens == attrs_before.tokens
        assert attrs_after.scores == attrs_before.scores
        model_before = train_naive_bayes(attrs_before.x, attrs_before.y)
        model_after = train_naive_bayes(attrs_after.x, attrs_after.y)
        assert model_before.prior_spam == model_after.prior_spam
        assert (model_before.p1_spam == model_after.p1_spam).all()

class TestFoldFeatures:
    """Per-fold features as the engine computes them: class_counts over the
    corpus incidence, rank_tokens (a fold's attributes are the top-m prefix
    of its ranking), then split_presence; and the engine's per-plan
    ranking cache."""

    @staticmethod
    def _fold_stats(corpus, plan):
        return class_counts(corpus.incidence, np.array(plan.assignment), plan.k_folds)

    @staticmethod
    def _train_docs(corpus, plan, fold):
        return [d for d, f in zip(corpus.documents, plan.assignment) if f != fold]

    @staticmethod
    def _assert_presence(corpus, ids):
        # set membership per document
        vocabulary = corpus.incidence.vocabulary
        matrix = presence_matrix(corpus.incidence, ids)
        assert matrix.shape == (len(corpus), len(ids))
        tokens = [vocabulary[i] for i in ids]
        for row, d in zip(matrix, corpus.documents):
            present = set(d.tokens)
            assert row.tolist() == [int(t in present) for t in tokens]

    def test_rankings_and_vectors_match_brute_force(self, hard_corpus):
        plan = make_stratified_folds(hard_corpus, seed=0)
        vocabulary = hard_corpus.incidence.vocabulary
        last = len(vocabulary) - 1
        for fold, stats in enumerate(self._fold_stats(hard_corpus, plan)):
            train = self._train_docs(hard_corpus, plan, fold)
            ranked = ranking_direct([(d.tokens, d.label is Label.SPAM) for d in train])
            ids, scores = rank_tokens(stats)
            assert [vocabulary[i] for i in ids] == [token for token, _ in ranked], fold
            assert scores.tolist() == pytest.approx([mi for _, mi in ranked], abs=1e-12)
            top = ids[:30].tolist()
            for ids in (top, [], [last, top[0], last], top[::-1]):
                self._assert_presence(hard_corpus, ids)
        assert fold == plan.k_folds - 1

    @pytest.mark.parametrize("k_folds", [2, 3, 10])
    def test_fold_counts_match_brute_force(self, hard_corpus, k_folds):
        plan = make_stratified_folds(hard_corpus, k_folds=k_folds, seed=0)
        folds = list(self._fold_stats(hard_corpus, plan))
        assert len(folds) == k_folds
        for fold, stats in enumerate(folds):
            train = self._train_docs(hard_corpus, plan, fold)
            spam = [set(d.tokens) for d in train if d.label is Label.SPAM]
            legit = [set(d.tokens) for d in train if d.label is Label.LEGITIMATE]
            assert (stats.n_spam, stats.n_legit) == (len(spam), len(legit)), fold
            for n1, docs in ((stats.n1_spam, spam), (stats.n1_legit, legit)):
                per_token = Counter(t for tokens in docs for t in tokens)
                vocabulary = hard_corpus.incidence.vocabulary
                assert n1.tolist() == [per_token[t] for t in vocabulary], fold

    def test_token_only_in_test_documents_is_no_candidate(self, hard_corpus):
        plan = make_stratified_folds(hard_corpus, seed=0)
        fold = 3
        # a perfect spam marker, planted only in fold 3's test spam
        planted = Corpus.from_documents(
            Document(d.tokens + ("leako",), d.label, d.source_id)
            if f == fold and d.label is Label.SPAM
            else d
            for d, f in zip(hard_corpus.documents, plan.assignment)
        )
        assert make_stratified_folds(planted, seed=0) == plan
        folds = list(self._fold_stats(planted, plan))
        stats = folds[fold]
        leako = planted.incidence.vocabulary.index("leako")
        assert stats.n1_spam[leako] == stats.n1_legit[leako] == 0
        assert leako not in rank_tokens(stats)[0]
        assert folds[0].n1_spam[leako] > 0  # visible wherever it is training data
        config = ClassifierConfig(kind="nb")
        before = cross_validate(hard_corpus, config, 1.0, 15, plan)
        after = cross_validate(planted, config, 1.0, 15, plan)
        assert after.fold_counts[fold] == before.fold_counts[fold]

    def test_m_at_the_distinct_token_count(self, hard_corpus, tmp_path, capsys):
        plan = make_stratified_folds(hard_corpus, seed=0)
        limit = min(
            len({t for d in self._train_docs(hard_corpus, plan, fold) for t in d.tokens})
            for fold in range(plan.k_folds)
        )
        config = ClassifierConfig(kind="nb")
        assert cross_validate(hard_corpus, config, 1.0, limit, plan).m == limit
        with pytest.raises(DataError, match=f"only {limit} distinct"):
            cross_validate(hard_corpus, config, 1.0, limit + 1, plan)
        root = tmp_path / "hard"
        from conftest import HARD_PARAMS

        write_fixture_corpus(generate_fixture_corpus(7, 200, 40, HARD_PARAMS), root)
        argv = ["evaluate", "--corpus", str(root), "--layout", "fixture", "--m"]
        assert main(argv + [str(limit)]) == 0
        assert main(argv + [str(limit + 1)]) == 2
        assert f"only {limit} distinct tokens" in capsys.readouterr().err

    def test_second_run_reuses_the_incidence(self, hard_corpus, monkeypatch):
        built = []
        build = Incidence.from_corpus

        def counting(corpus):
            built.append(len(corpus))
            return build(corpus)

        monkeypatch.setattr(Incidence, "from_corpus", staticmethod(counting))
        corpus = Corpus.from_documents(hard_corpus.documents)  # nothing cached
        plan = make_stratified_folds(corpus, seed=2)
        config = ClassifierConfig(kind="mb", k=2)
        first = cross_validate(corpus, config, 9.0, 20, plan)
        incidence = corpus.incidence
        second = cross_validate(corpus, config, 9.0, 20, plan)
        assert built == [len(corpus)]
        assert corpus.incidence is incidence
        assert second == first

    @staticmethod
    def _counting_class_counts(monkeypatch):
        calls = []

        def counting(incidence, folds, k_folds):
            calls.append(k_folds)
            return class_counts(incidence, folds, k_folds)

        monkeypatch.setattr("spamlab.evaluate.class_counts", counting)
        return calls

    def test_second_configuration_reuses_the_rankings(self, hard_corpus, monkeypatch):
        calls = self._counting_class_counts(monkeypatch)
        corpus = Corpus.from_documents(hard_corpus.documents)  # nothing cached
        plan = make_stratified_folds(corpus, seed=2)
        nb = cross_validate(corpus, ClassifierConfig(kind="nb"), 9.0, 20, plan)
        rankings = _fold_rankings(corpus.incidence, plan)
        assert len(rankings) == plan.k_folds and calls == [plan.k_folds]
        mb = cross_validate(corpus, ClassifierConfig(kind="mb", k=2), 1.0, 30, plan)
        assert calls == [plan.k_folds]
        assert _fold_rankings(corpus.incidence, plan) is rankings
        fresh = Corpus.from_documents(hard_corpus.documents)
        assert nb == cross_validate(fresh, ClassifierConfig(kind="nb"), 9.0, 20, plan)
        fresh = Corpus.from_documents(hard_corpus.documents)
        assert mb == cross_validate(fresh, ClassifierConfig(kind="mb", k=2), 1.0, 30, plan)
        for fold, stats in enumerate(self._fold_stats(corpus, plan)):
            assert rankings[fold].dtype == np.min_scalar_type(len(corpus.incidence.vocabulary))
            assert rankings[fold].tolist() == rank_tokens(stats)[0].tolist(), fold

    def test_new_plan_recounts_and_replaces_the_rankings(self, hard_corpus, monkeypatch):
        calls = self._counting_class_counts(monkeypatch)
        corpus = Corpus.from_documents(hard_corpus.documents)
        config = ClassifierConfig(kind="nb")
        first, second = (make_stratified_folds(corpus, k, seed) for k, seed in ((10, 0), (3, 1)))
        results = [cross_validate(corpus, config, 1.0, 15, p) for p in (first, second)]
        assert calls == [10, 3]
        assert _fold_rankings.cache_info().currsize == 1
        assert len(_fold_rankings(corpus.incidence, second)) == 3
        assert calls == [10, 3]  # the second plan's rankings were kept
        assert cross_validate(corpus, config, 1.0, 15, first) == results[0]
        assert calls == [10, 3, 10]  # the first plan's were replaced
        # an equal plan built again is the same key
        again = make_stratified_folds(corpus, 10, 0)
        assert again is not first
        assert cross_validate(corpus, config, 1.0, 15, again) == results[0]
        assert calls == [10, 3, 10]

    def test_m_checks_on_a_warm_cache(self, hard_corpus):
        plan = make_stratified_folds(hard_corpus, seed=0)
        limit = min(
            len({t for d in self._train_docs(hard_corpus, plan, fold) for t in d.tokens})
            for fold in range(plan.k_folds)
        )
        config = ClassifierConfig(kind="nb")
        errors = []
        for warm in (False, True):
            corpus = Corpus.from_documents(hard_corpus.documents)
            if warm:
                cross_validate(corpus, config, 1.0, 10, plan)
            misses = _fold_rankings.cache_info().misses
            with pytest.raises(DataError) as error:
                cross_validate(corpus, config, 1.0, limit + 1, plan)
            assert _fold_rankings.cache_info().misses == misses + (not warm)
            errors.append(str(error.value))
            with pytest.raises(ValueError, match="invalid m range 0:0:1"):
                cross_validate(corpus, config, 1.0, 0, plan)
        assert errors == 2 * [
            f"requested {limit + 1} attributes but only {limit} distinct tokens available"
        ]

    def test_equal_corpus_ranks_again(self, hard_corpus, monkeypatch):
        calls = self._counting_class_counts(monkeypatch)
        plan = make_stratified_folds(hard_corpus, seed=2)
        config = ClassifierConfig(kind="nb")
        first, second = (
            cross_validate(Corpus.from_documents(hard_corpus.documents), config, 9.0, 20, plan)
            for _ in range(2)
        )
        assert calls == [plan.k_folds, plan.k_folds]
        assert second == first

    def test_sweep_on_another_corpus_replaces_the_rankings(self, hard_corpus, monkeypatch):
        calls = self._counting_class_counts(monkeypatch)
        a, b = (Corpus.from_documents(hard_corpus.documents) for _ in range(2))
        plan = make_stratified_folds(a, seed=2)
        config = ClassifierConfig(kind="nb")
        first = cross_validate(a, config, 9.0, 20, plan)
        assert cross_validate(a, config, 9.0, 30, plan) == cross_validate(b, config, 9.0, 30, plan)
        assert calls == [plan.k_folds, plan.k_folds]
        assert cross_validate(a, config, 9.0, 20, plan) == first
        assert calls == [plan.k_folds] * 3

    def test_cross_validation_never_decodes_the_documents(self, tmp_path, monkeypatch):
        # folds, sweeps and the sweep command read the labels and the
        # incidence only: no Document is built
        write_fixture_corpus(generate_fixture_corpus(7, 60, 20), tmp_path)
        corpus = load_corpus(tmp_path, layout="fixture")
        plan = make_stratified_folds(corpus, seed=2)
        for config in (ClassifierConfig("nb"), ClassifierConfig("mb", k=2)):
            sweep_attributes(corpus, config, 9.0, plan, 10, 30, 10)
        assert "documents" not in corpus.__dict__ and "incidence" in corpus.__dict__
        loaded = []

        def loading(*args, **kwargs):
            loaded.append(load_corpus(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(cli_module, "load_corpus", loading)
        argv = ["sweep", "--corpus", str(tmp_path), "--layout", "fixture", "--m-range", "10:30:10"]
        assert main(argv) == 0 and len(loaded) == 1
        assert "documents" not in loaded[0].__dict__ and "incidence" in loaded[0].__dict__


ORACLE_WORDS = ("ab", "cd", "ef", "gh", "ij", "kl", "mn", "op")


def direct_protocol(corpus, plan, config, lam, ms):
    documents = [(d.tokens, d.label is Label.SPAM) for d in corpus.documents]
    return cross_validate_direct(
        documents, list(plan.assignment), config.kind, config.k, lam, list(ms)
    )


def assert_matches_direct(corpus, plan, config, lam, ms, expected):
    """sweep_attributes over ms against direct_protocol's results: equal
    fold counts, and fold WAccs and TCR within 1e-12 relative."""
    results = sweep_attributes(corpus, config, float(lam), plan, ms.start, ms.stop - 1, ms.step)
    assert [r.m for r in results] == list(ms)
    for result, (counts, waccs, tcr, _) in zip(results, expected):
        got = [(c.n_legit_legit, c.n_legit_spam, c.n_spam_spam, c.n_spam_legit)
               for c in result.fold_counts]
        assert got == counts, result.m
        for wacc, exact in zip(result.fold_waccs, waccs):
            assert math.isclose(wacc, exact, rel_tol=1e-12, abs_tol=0.0), result.m
        assert result.tcr == tcr or math.isclose(result.tcr, tcr, rel_tol=1e-12), result.m


class TestDirectOracle:
    """The whole protocol (fold split, training-only ranking, top-m prefix,
    presence, classification, pooling, WAcc and TCR) against
    oracles.cross_validate_direct, which shares no library code."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        k_folds=st.integers(2, 4),
        n_words=st.integers(3, 8),
        lam=st.sampled_from([1, 9, 999]),
        k=st.sampled_from([1, 2, 10]),
        seed=st.integers(0, 2**16),
    )
    def test_sweeps_match_the_direct_protocol(self, data, k_folds, n_words, lam, k, seed):
        message = st.lists(st.sampled_from(ORACLE_WORDS[:n_words]), min_size=1, max_size=6)
        docs = [
            Document(tuple(tokens), label, f"{label}{i:02d}")
            for label in (Label.LEGITIMATE, Label.SPAM)
            for i, tokens in enumerate(data.draw(st.lists(message, min_size=k_folds, max_size=12)))
        ]
        corpus = Corpus.from_documents(docs)
        smallest = min(corpus.n_legit, corpus.n_spam)
        folds_b = data.draw(st.integers(2, min(4, smallest)))
        plan_a = make_stratified_folds(corpus, k_folds=k_folds, seed=seed)
        plan_b = make_stratified_folds(corpus, k_folds=folds_b, seed=seed + 1)
        # A, then B replaces it, then A again: misses, replacements, and a
        # hit for each plan's second configuration
        for plan in (plan_a, plan_b, plan_a):
            misses = _fold_rankings.cache_info().misses
            limit = min(
                len({t for d, f in zip(corpus.documents, plan.assignment) if f != fold
                     for t in d.tokens})
                for fold in range(plan.k_folds)
            )
            for config in (ClassifierConfig(kind="nb"), ClassifierConfig(kind="mb", k=k)):
                m_from = data.draw(st.integers(1, limit))
                m_to = data.draw(st.integers(m_from, limit))
                ms = range(m_from, m_to + 1, data.draw(st.integers(1, 3)))
                expected = direct_protocol(corpus, plan, config, lam, ms)
                # float posteriors this close to t may round to either side
                near_ties = sum(gap <= 1e-9 for *_, gaps in expected for gap in gaps)
                assume(near_ties == 0)
                assert_matches_direct(corpus, plan, config, lam, ms, expected)
                assert _fold_rankings.cache_info().misses == misses + 1

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 7, WErr from the counts: mean WErr is 1 - mean WAcc, so it "
               "keeps the rounding of a mean WAcc whose complement is 8.3e-5",
    )
    def test_tcr_of_a_mean_wacc_near_one(self):
        # a case that the sweep property drew: TCR 3.272652838422932 against
        # the exact 11991/3664 = 3.2726528384279474, 1.5e-12 relative
        messages = {Label.LEGITIMATE: [("ab",)] * 11,
                    Label.SPAM: [("ab",), ("ab", "cd"), ("ab", "cd")]}
        docs = [Document(tokens, label, f"{label}{i:02d}")
                for label, texts in messages.items() for i, tokens in enumerate(texts)]
        corpus = Corpus.from_documents(docs)
        plan = make_stratified_folds(corpus, k_folds=3, seed=0)
        config = ClassifierConfig(kind="mb", k=1)
        expected = direct_protocol(corpus, plan, config, 999, range(1, 2))
        assert expected[0][2] == Fraction(11991, 3664)
        assert_matches_direct(corpus, plan, config, 999, range(1, 2), expected)

    def test_nb_exact_ties_go_to_legitimate(self):
        # every fold trains on 2 + 2 identical messages: equal priors and
        # equal conditionals give every posterior exactly 1/2 = t at lambda 1
        docs = [Document(("ab", "cd"), label, f"{label}{i}") for label in Label for i in range(4)]
        corpus = Corpus.from_documents(docs)
        plan = make_stratified_folds(corpus, k_folds=2, seed=0)
        for config in (ClassifierConfig(kind="nb"), ClassifierConfig(kind="mb", k=1)):
            expected = direct_protocol(corpus, plan, config, 1, range(1, 3))
            assert all(gap == 0 for *_, gaps in expected for gap in gaps)
            assert_matches_direct(corpus, plan, config, 1, range(1, 3), expected)
        result = cross_validate(corpus, ClassifierConfig(kind="nb"), 1.0, 2, plan)
        assert result.spam_recall == 0.0


SWEPT_CONFIGS = [
    pytest.param(ClassifierConfig(kind="nb"), id="nb"),
    pytest.param(ClassifierConfig(kind="mb", k=1), id="mb-k1"),
    pytest.param(ClassifierConfig(kind="mb", k=2), id="mb-k2"),
    pytest.param(ClassifierConfig(kind="mb", k=10), id="mb-k10"),
]


class TestSweep:
    def test_default_range_yields_14_points(self):
        corpus = generate_fixture_corpus(
            19, 700, 140, params=FixtureParams(vocab_size=900)
        )
        plan = make_stratified_folds(corpus, seed=0)
        results = sweep_attributes(corpus, ClassifierConfig(kind="nb"), 1.0, plan)
        assert len(results) == 14
        assert [r.m for r in results] == list(range(50, 701, 50))

    @pytest.mark.parametrize("config", SWEPT_CONFIGS)
    def test_single_point_range(self, cv_corpus, config):
        plan = make_stratified_folds(cv_corpus, seed=0)
        results = sweep_attributes(
            cv_corpus, config, 1.0, plan, m_from=30, m_to=30, m_step=50,
        )
        assert len(results) == 1 and results[0].m == 30

    @pytest.mark.parametrize("config", SWEPT_CONFIGS)
    def test_sweep_matches_individual_runs(self, hard_corpus, config):
        plan = make_stratified_folds(hard_corpus, seed=0)
        swept = sweep_attributes(
            hard_corpus, config, 1.0, plan, m_from=10, m_to=30, m_step=10
        )
        for result in swept:
            alone = cross_validate(hard_corpus, config, 1.0, result.m, plan)
            assert alone.fold_counts == result.fold_counts
            assert alone.fold_waccs == result.fold_waccs
            assert alone.tcr == result.tcr

    def test_invalid_lambda_rejected_before_any_work(self):
        corpus = generate_fixture_corpus(7, 40, 20)
        plan = make_stratified_folds(corpus, seed=0)
        with pytest.raises(ConfigError, match="lambda must be positive"):
            sweep_attributes(corpus, ClassifierConfig(kind="nb"), 0.0, plan, 1, 5, 1)
        assert "incidence" not in corpus.__dict__

    def test_lambda_lost_to_rounding_rejected_before_the_incidence(self, monkeypatch):
        built = []
        build = Incidence.from_corpus

        def counting(corpus):
            built.append(len(corpus))
            return build(corpus)

        monkeypatch.setattr(Incidence, "from_corpus", staticmethod(counting))
        corpus = generate_fixture_corpus(7, 40, 20)
        plan = make_stratified_folds(corpus, seed=0)
        with pytest.raises(ConfigError, match="out of range for this corpus"):
            sweep_attributes(corpus, ClassifierConfig(kind="nb"), 1e15, plan, 1, 5, 1)
        assert built == [] and "incidence" not in corpus.__dict__
        sweep_attributes(corpus, ClassifierConfig(kind="nb"), 999.0, plan, 1, 5, 1)
        assert built == [len(corpus)]

    def test_invalid_range_rejected(self, cv_corpus):
        plan = make_stratified_folds(cv_corpus, seed=0)
        with pytest.raises(ValueError):
            sweep_attributes(
                cv_corpus, ClassifierConfig(kind="nb"), 1.0, plan,
                m_from=50, m_to=10, m_step=10,
            )


class TestMemoryBudget:
    """A sweep holds no (n, m) array for a fold: the training rows reach the
    classifiers as an Incidence of their postings, and only the test rows
    are gathered into a matrix."""

    @pytest.fixture(scope="class")
    def corpus(self):
        params = FixtureParams(vocab_size=3000, doc_len_min=100, doc_len_max=300)
        return generate_fixture_corpus(7, 1000, 200, params)

    @pytest.mark.parametrize(
        "config, budget", [(ClassifierConfig("mb", k=1), 3.8), (ClassifierConfig("nb"), 1.5)],
        ids=["mb", "nb"],
    )
    def test_sweep_peaks_under_budget_per_document_and_attribute(self, corpus, config, budget):
        # With the rankings cached, the peak is a fold's test rows (1 byte
        # per test document and attribute at m = 300), its training postings
        # and its classifier's transients: mb's distances and mask (1 byte
        # each per test and training document), nb's per-block sums.  A
        # fold matrix of every document (1 byte per cell), an nb buffer of
        # every column (8 bytes per test cell), a dense instance base or a
        # gather whose row map is int64 (8 bytes per posting looked up)
        # breaks the budget.
        plan, cells = make_stratified_folds(corpus, seed=0), len(corpus) * 300
        sweep_attributes(corpus, config, 1.0, plan, 50, 300, 50)
        _, _, peak = traced(lambda: sweep_attributes(corpus, config, 1.0, plan, 50, 300, 50))
        assert peak < budget * cells, peak / cells

    @pytest.mark.parametrize("kind", ["nb", "mb"])
    def test_no_training_matrix_reaches_the_classifiers(self, monkeypatch, kind):
        corpus = generate_fixture_corpus(5, 60, 20)
        plan = make_stratified_folds(corpus, k_folds=3, seed=0)
        config = ClassifierConfig(kind, k=1 if kind == "mb" else None)
        calls, arrays = [], []

        def spy(name):
            function = getattr(evaluate_module, name)

            def called(*args, **kwargs):
                calls.append((name, args))
                for value in (*args, *kwargs.values()):
                    fields = vars(value).values() if hasattr(value, "__dict__") else (value,)
                    arrays.extend(v for v in fields if isinstance(v, np.ndarray))
                return function(*args, **kwargs)

            monkeypatch.setattr(evaluate_module, name, called)

        expected = sweep_attributes(corpus, config, 1.0, plan, 5, 20, 5)
        for name in ("_predict", "train_naive_bayes", "build_instance_base",
                     "classify_nb_batch", "classify_mb_batch"):
            spy(name)
        assert sweep_attributes(corpus, config, 1.0, plan, 5, 20, 5) == expected
        n_test = {np.count_nonzero(np.array(plan.assignment) == f) for f in range(plan.k_folds)}
        assert arrays and all(a.ndim < 2 or a.shape[0] in n_test for a in arrays)
        folds = [args for name, args in calls if name == "_predict"]
        assert len(folds) == plan.k_folds
        for fold, (_, train, x_test, y_test, _, _) in enumerate(folds):
            test = np.array(plan.assignment) == fold
            ids = _fold_rankings(corpus.incidence, plan)[fold][:20]
            matrix = presence_matrix(corpus.incidence, ids)
            assert isinstance(train, Incidence) and x_test.shape == (np.count_nonzero(test), 20)
            assert (matrix_of(train) == matrix[~test]).all()
            assert train.indices.dtype == corpus.incidence.indices.dtype
            for j in range(20):  # each token's training rows, ascending
                held = train.indices[train.indptr[j] : train.indptr[j + 1]]
                assert held.tolist() == np.flatnonzero(matrix[~test][:, j]).tolist()
            assert (x_test == matrix[test]).all()
            assert (train.labels == corpus.incidence.labels[~test]).all()
            assert (y_test == corpus.incidence.labels[test]).all()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n_spam=st.integers(3, 12), m=st.integers(1, 40))
    def test_count_trained_model_is_the_dense_model(self, seed, n_spam, m):
        # the engine trains nb from each fold's training postings; the same
        # rows as a dense matrix give the same priors and conditional bytes
        corpus = generate_fixture_corpus(seed, 30, n_spam)
        plan = make_stratified_folds(corpus, k_folds=3, seed=seed)
        assume(all(len(ids) >= m for ids in _fold_rankings(corpus.incidence, plan)))
        models = []

        def train(vectors, labels):
            models.append(train_naive_bayes(vectors, labels))
            return models[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluate_module, "train_naive_bayes", train)
            sweep_attributes(corpus, ClassifierConfig("nb"), 1.0, plan, 1, m, 1)
        assert len(models) == plan.k_folds
        for fold, model in enumerate(models):
            train_rows = np.array(plan.assignment) != fold
            ids = _fold_rankings(corpus.incidence, plan)[fold][:m]
            dense = train_naive_bayes(
                presence_matrix(corpus.incidence, ids)[train_rows],
                corpus.incidence.labels[train_rows],
            )
            assert (model.prior_spam, model.prior_legit) == (dense.prior_spam, dense.prior_legit)
            assert model.p1_spam.tobytes() == dense.p1_spam.tobytes()
            assert model.p1_legit.tobytes() == dense.p1_legit.tobytes()


class TestPairedTTest:
    def test_identical_scores_not_significant(self):
        scores = [0.9, 0.91, 0.92, 0.93]
        outcome = paired_t_test(scores, scores)
        assert outcome.t_statistic == 0.0
        assert not outcome.significant_at_05

    def test_constant_positive_difference_is_infinite(self):
        b = [0.5, 0.6, 0.7, 0.8, 0.9]
        a = [x + 0.01 for x in b]
        outcome = paired_t_test(a, b)
        assert outcome.t_statistic == math.inf
        assert outcome.significant_at_05

    def test_constant_negative_difference(self):
        b = [0.5, 0.6, 0.7]
        a = [x - 0.01 for x in b]
        outcome = paired_t_test(a, b)
        assert outcome.t_statistic == -math.inf
        assert not outcome.significant_at_05

    def test_reference_d_vector(self):
        # expected value computed with the hand formula and confirmed by
        # scipy.stats.ttest_1samp on the differences: t = 3.6742, df = 9
        d = [0.02, 0.00, 0.01, 0.03, 0.00, 0.02, 0.01, 0.00, 0.02, 0.01]
        b = [0.9] * 10
        a = [x + delta for x, delta in zip(b, d)]
        outcome = paired_t_test(a, b)
        reference = scipy_stats.ttest_1samp(d, 0.0, alternative="greater")
        assert outcome.t_statistic == pytest.approx(reference.statistic, abs=1e-9)
        assert outcome.t_statistic == pytest.approx(3.6742, abs=1e-3)
        assert outcome.degrees_of_freedom == 9
        assert outcome.significant_at_05

    def test_antisymmetric(self):
        rng = random.Random(73)
        a = [rng.uniform(0.8, 1.0) for _ in range(10)]
        b = [rng.uniform(0.8, 1.0) for _ in range(10)]
        assert paired_t_test(a, b).t_statistic == pytest.approx(
            -paired_t_test(b, a).t_statistic
        )

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([0.5], [0.4])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([0.5, 0.6], [0.4])

    def test_critical_values_match_reference(self):
        assert sorted(_T_CRITICAL_05) == list(range(1, 31))
        for df, critical in _T_CRITICAL_05.items():
            reference = scipy_stats.t.ppf(0.95, df)
            assert critical == pytest.approx(reference, abs=1.5e-3)

    def test_unsupported_df_rejected(self):
        a = [0.9 + 0.001 * i for i in range(32)]
        b = [0.8] * 32
        assert paired_t_test(a[:31], b[:31]).degrees_of_freedom == 30
        with pytest.raises(ValueError, match="no embedded critical value for df=31"):
            paired_t_test(a, b)
