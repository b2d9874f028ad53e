from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as scipy_stats

from oracles import ranking_direct

from spamlab import (
    ClassifierConfig,
    ConfigError,
    ConfusionCounts,
    DataError,
    Document,
    FixtureParams,
    Label,
    baseline_metrics,
    confusion_counts,
    cross_validate,
    generate_fixture_corpus,
    make_stratified_folds,
    paired_t_test,
    spam_recall_precision,
    sweep_attributes,
    total_cost_ratio,
    weighted_accuracy,
)
from spamlab.cli import main
from spamlab.corpus import Corpus, Incidence
from spamlab.evaluate import t_critical_value
from spamlab.features import (
    class_counts,
    presence_matrix,
    select_attributes,
    token_class_counts,
    vectorize_documents,
)
from spamlab.bayes import train_naive_bayes


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

    @pytest.mark.parametrize("gold,predicted", [([2], [0]), ([0], [2]), ([1], [-1])])
    def test_labels_outside_zero_one_rejected(self, gold, predicted):
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


class TestTotalCostRatio:
    def test_baseline_counts_score_one(self):
        counts = counts_of(100, 0, 0, 48)  # nothing blocked
        assert total_cost_ratio(counts, 1.0) == pytest.approx(1.0)

    def test_hand_example(self):
        counts = counts_of(100, 1, 39, 9)
        assert total_cost_ratio(counts, 1.0) == pytest.approx(4.8)

    def test_lambda_one_denominator_is_the_error_count(self):
        counts = counts_of(80, 7, 30, 3)
        errors = counts.n_legit_spam + counts.n_spam_legit
        assert total_cost_ratio(counts, 1.0) == pytest.approx(counts.n_spam / errors)

    def test_perfect_filter_is_infinite(self):
        assert total_cost_ratio(counts_of(10, 0, 8, 0), 9.0) == math.inf

    @given(
        ll=st.integers(0, 300), ls=st.integers(0, 300),
        ss=st.integers(0, 300), sl=st.integers(0, 300),
        lam=st.sampled_from([1.0, 3.0, 9.0, 999.0]),
    )
    def test_below_one_iff_worse_than_baseline(self, ll, ls, ss, sl, lam):
        counts = counts_of(ll, ls, ss, sl)
        if counts.total == 0 or counts.n_spam == 0:
            return
        tcr = total_cost_ratio(counts, lam)
        _, werr = weighted_accuracy(counts, lam)
        _, baseline_werr = baseline_metrics(counts.n_legit, counts.n_spam, lam)
        assert (tcr < 1.0) == (werr > baseline_werr)


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
            test_idx = plan.test_indices(fold)
            spam = sum(1 for i in test_idx if i >= 100)
            assert len(test_idx) == 12 and spam == 2

    def test_same_seed_reproduces_plan(self):
        corpus = tiny_corpus(40, 20)
        assert make_stratified_folds(corpus, seed=3) == make_stratified_folds(corpus, seed=3)

    def test_spam_fold_sizes_for_481(self):
        plan = make_stratified_folds(tiny_corpus(20, 481), seed=1)
        sizes = []
        for fold in range(10):
            sizes.append(sum(1 for i in plan.test_indices(fold) if i >= 20))
        assert sorted(sizes) == [48] * 9 + [49]

    def test_stratification_bound_over_seeds(self):
        corpus = tiny_corpus(73, 31)
        for seed in range(10):
            plan = make_stratified_folds(corpus, seed=seed)
            spam_counts = []
            legit_counts = []
            for fold in range(10):
                test_idx = plan.test_indices(fold)
                spam_counts.append(sum(1 for i in test_idx if i >= 73))
                legit_counts.append(len(test_idx) - spam_counts[-1])
            assert max(spam_counts) - min(spam_counts) <= 1
            assert max(legit_counts) - min(legit_counts) <= 1

    def test_insufficient_documents_rejected(self):
        with pytest.raises(DataError):
            make_stratified_folds(tiny_corpus(100, 9), k_folds=10)

    def test_folds_partition_the_corpus(self):
        corpus = tiny_corpus(55, 25)
        plan = make_stratified_folds(corpus, seed=2)
        seen = sorted(i for fold in range(10) for i in plan.test_indices(fold))
        assert seen == list(range(len(corpus)))


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

    def test_no_leakage_from_test_documents(self, hard_corpus):
        plan = make_stratified_folds(hard_corpus, seed=0)
        fold = 3
        m = 15
        def split(corpus, plan):
            train = [d for d, f in zip(corpus.documents, plan.assignment) if f != fold]
            test = [d for d, f in zip(corpus.documents, plan.assignment) if f == fold]
            return train, test

        train_before, test_before = split(hard_corpus, plan)
        attrs_before = select_attributes(token_class_counts(train_before), m)

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
        attrs_after = select_attributes(token_class_counts(train_after), m)
        assert attrs_after == attrs_before
        x_before, y_before = vectorize_documents(train_before, attrs_before)
        x_after, y_after = vectorize_documents(train_after, attrs_after)
        model_before = train_naive_bayes(x_before, y_before)
        model_after = train_naive_bayes(x_after, y_after)
        assert model_before.prior_spam == model_after.prior_spam
        assert (model_before.p1_spam == model_after.p1_spam).all()

class TestFoldFeatures:
    """Per-fold features as the engine computes them: class_counts over the
    corpus incidence, select_attributes, then presence_matrix."""

    @staticmethod
    def _train_mask(plan, fold):
        return np.array(plan.assignment) != fold

    @staticmethod
    def _train_docs(corpus, plan, fold):
        return [d for d, f in zip(corpus.documents, plan.assignment) if f != fold]

    def test_rankings_and_vectors_match_brute_force(self, hard_corpus):
        plan = make_stratified_folds(hard_corpus, seed=0)
        incidence = hard_corpus.incidence
        for fold in range(plan.k_folds):
            train = self._train_docs(hard_corpus, plan, fold)
            ranked = ranking_direct([(d.tokens, d.label is Label.SPAM) for d in train])
            stats = class_counts(incidence, self._train_mask(plan, fold))
            attrs = select_attributes(stats, len(ranked))
            assert attrs.scores == pytest.approx([mi for _, mi in ranked], abs=1e-12)
            # Scores equal in exact arithmetic (a token and its complement,
            # tokens independent of the class) differ in float rounding, so
            # top-m lists are compared at every m that splits no such tie.
            clean_cuts = [
                m for m in range(1, len(ranked) + 1)
                if m == len(ranked) or ranked[m - 1][1] - ranked[m][1] > 1e-12
            ]
            assert len(clean_cuts) > len(ranked) // 3
            for m in clean_cuts:
                expected = {token for token, _ in ranked[:m]}
                assert set(attrs.tokens[:m]) == expected, (fold, m)
            matrix = presence_matrix(incidence, attrs.ids[:30])
            for row, d in zip(matrix, hard_corpus.documents):
                present = set(d.tokens)
                assert row.tolist() == [int(t in present) for t in attrs.tokens[:30]]

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
        stats = class_counts(planted.incidence, self._train_mask(plan, fold))
        assert "leako" in planted.incidence.vocabulary
        assert "leako" not in stats.counts
        assert "leako" not in select_attributes(stats, len(stats.counts)).tokens
        other = class_counts(planted.incidence, self._train_mask(plan, 0))
        assert other.counts["leako"][0] > 0  # visible wherever it is training data
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

        generate_fixture_corpus(7, 200, 40, HARD_PARAMS, out_dir=root)
        argv = ["evaluate", "--corpus", str(root), "--layout", "fixture", "--m"]
        assert main(argv + [str(limit)]) == 0
        assert main(argv + [str(limit + 1)]) == 2
        assert f"only {limit} distinct tokens" in capsys.readouterr().err

    def test_second_run_reuses_the_incidence(self, hard_corpus, monkeypatch):
        built = []
        build = Incidence.from_documents

        def counting(documents):
            built.append(len(documents))
            return build(documents)

        monkeypatch.setattr(Incidence, "from_documents", staticmethod(counting))
        corpus = Corpus.from_documents(hard_corpus.documents)  # nothing cached
        plan = make_stratified_folds(corpus, seed=2)
        config = ClassifierConfig(kind="mb", k=2)
        first = cross_validate(corpus, config, 9.0, 20, plan)
        incidence = corpus.incidence
        second = cross_validate(corpus, config, 9.0, 20, plan)
        assert built == [len(corpus)]
        assert corpus.incidence is incidence
        assert second == first


class TestSweep:
    def test_default_range_yields_14_points(self):
        corpus = generate_fixture_corpus(
            19, 700, 140, params=FixtureParams(vocab_size=900)
        )
        plan = make_stratified_folds(corpus, seed=0)
        results = sweep_attributes(corpus, ClassifierConfig(kind="nb"), 1.0, plan)
        assert len(results) == 14
        assert [r.m for r in results] == list(range(50, 701, 50))

    def test_single_point_range(self, cv_corpus):
        plan = make_stratified_folds(cv_corpus, seed=0)
        results = sweep_attributes(
            cv_corpus, ClassifierConfig(kind="nb"), 1.0, plan,
            m_from=30, m_to=30, m_step=50,
        )
        assert len(results) == 1 and results[0].m == 30

    def test_sweep_matches_individual_runs(self, hard_corpus):
        plan = make_stratified_folds(hard_corpus, seed=0)
        config = ClassifierConfig(kind="nb")
        swept = sweep_attributes(
            hard_corpus, config, 1.0, plan, m_from=10, m_to=30, m_step=10
        )
        for result in swept:
            alone = cross_validate(hard_corpus, config, 1.0, result.m, plan)
            assert alone.fold_waccs == result.fold_waccs
            assert alone.tcr == result.tcr

    def test_invalid_range_rejected(self, cv_corpus):
        plan = make_stratified_folds(cv_corpus, seed=0)
        with pytest.raises(ValueError):
            sweep_attributes(
                cv_corpus, ClassifierConfig(kind="nb"), 1.0, plan,
                m_from=50, m_to=10, m_step=10,
            )


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
        for df in range(1, 31):
            reference = scipy_stats.t.ppf(0.95, df)
            assert t_critical_value(df) == pytest.approx(reference, abs=1.5e-3)

    def test_unsupported_df_rejected(self):
        with pytest.raises(ValueError):
            t_critical_value(31)
