from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import posterior_legit_direct, posterior_spam_direct
from spamlab import (
    DataError,
    DecisionPolicy,
    Label,
    NaiveBayesModel,
    classify_nb,
    lambda_to_threshold,
    posterior_spam,
    train_naive_bayes,
)
from spamlab.bayes import classify_nb_batch, posterior_spam_batch


def model_of(prior_spam, p1_spam, p1_legit):
    return NaiveBayesModel(
        prior_spam=prior_spam,
        prior_legit=1.0 - prior_spam,
        p1_spam=np.array(p1_spam, dtype=float),
        p1_legit=np.array(p1_legit, dtype=float),
    )


def random_model(rng, m):
    return model_of(
        rng.uniform(0.05, 0.95),
        [rng.uniform(0.01, 0.99) for _ in range(m)],
        [rng.uniform(0.01, 0.99) for _ in range(m)],
    )


class TestTraining:
    def test_priors_are_frequency_ratios(self):
        vectors = np.array([[1], [0], [1], [0]], dtype=np.uint8)
        labels = [Label.SPAM, Label.SPAM, Label.LEGITIMATE, Label.LEGITIMATE]
        model = train_naive_bayes(vectors, labels)
        assert model.prior_spam == 0.5

    def test_laplace_smoothing_on_present_attribute(self):
        vectors = np.array([[1], [1]], dtype=np.uint8)
        model = train_naive_bayes(
            np.vstack([vectors, [[0], [0]]]),
            [Label.SPAM, Label.SPAM, Label.LEGITIMATE, Label.LEGITIMATE],
        )
        assert model.p1_spam[0] == pytest.approx((2 + 1) / (2 + 2))

    def test_laplace_smoothing_on_absent_attribute(self):
        vectors = np.zeros((4, 1), dtype=np.uint8)
        vectors[3, 0] = 1
        labels = [Label.LEGITIMATE] * 3 + [Label.SPAM]
        model = train_naive_bayes(vectors, labels)
        assert model.p1_legit[0] == pytest.approx((0 + 1) / (3 + 2))

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="degenerate"):
            train_naive_bayes(np.array([[1], [0]], dtype=np.uint8), [Label.SPAM] * 2)

    def test_mixed_lengths_rejected(self):
        ragged = [np.array([1, 0]), np.array([1])]
        with pytest.raises(DataError):
            train_naive_bayes(ragged, [Label.SPAM, Label.LEGITIMATE])

    def test_smoothed_conditionals_strictly_inside_unit_interval(self, hard_corpus):
        from spamlab import select_attributes, token_class_counts, vectorize_documents

        attrs = select_attributes(token_class_counts(hard_corpus), 40)
        matrix, labels = vectorize_documents(hard_corpus.documents, attrs)
        model = train_naive_bayes(matrix, labels)
        for table in (model.p1_spam, model.p1_legit):
            assert np.all(table > 0.0) and np.all(table < 1.0)


class TestThreshold:
    @pytest.mark.parametrize("lam,expected", [(1.0, 0.5), (9.0, 0.9), (999.0, 0.999)])
    def test_published_pairs(self, lam, expected):
        assert lambda_to_threshold(lam) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive(self, lam):
        with pytest.raises(ValueError):
            lambda_to_threshold(lam)

    @pytest.mark.parametrize("lam", [9.1e15, 1e16, 1e308])
    def test_rejects_lambda_whose_threshold_rounds_to_one(self, lam):
        assert lambda_to_threshold(9.0e15) < 1.0
        with pytest.raises(ValueError, match="below about 9.0e15"):
            lambda_to_threshold(lam)

    @given(st.floats(min_value=1e-6, max_value=1e3, allow_nan=False))
    def test_round_trip(self, lam):
        # recovering lambda from t divides by 1 - t, which loses one digit
        # of precision per decade of lambda; 1e-12 holds through lambda=999
        t = lambda_to_threshold(lam)
        assert 0.0 < t < 1.0
        assert t / (1.0 - t) == pytest.approx(lam, rel=1e-12)

    def test_policy_carries_consistent_pair(self):
        policy = DecisionPolicy.from_lambda(9.0)
        assert policy.threshold == pytest.approx(0.9, abs=1e-12)
        assert policy.lam == 9.0


class TestPosterior:
    def test_empty_attribute_set_returns_prior(self):
        model = model_of(0.3, [], [])
        assert posterior_spam(model, np.zeros(0, dtype=np.uint8)) == pytest.approx(0.3)

    def test_single_attribute_present(self):
        model = model_of(0.5, [0.8], [0.2])
        assert posterior_spam(model, np.array([1])) == pytest.approx(0.8, abs=1e-12)

    def test_single_attribute_absent(self):
        model = model_of(0.5, [0.8], [0.2])
        assert posterior_spam(model, np.array([0])) == pytest.approx(0.2, abs=1e-12)

    def test_length_mismatch_rejected(self):
        model = model_of(0.5, [0.8], [0.2])
        with pytest.raises(ValueError):
            posterior_spam(model, np.array([1, 0]))

    def test_matches_non_log_brute_force(self):
        rng = random.Random(29)
        for _ in range(200):
            m = rng.randint(0, 10)
            model = random_model(rng, m)
            bits = [rng.randint(0, 1) for _ in range(m)]
            expected = posterior_spam_direct(
                model.prior_spam,
                model.prior_legit,
                list(model.p1_spam),
                list(model.p1_legit),
                bits,
            )
            actual = posterior_spam(model, np.array(bits, dtype=np.uint8))
            assert actual == pytest.approx(expected, abs=1e-9)

    def test_two_class_normalization(self):
        rng = random.Random(31)
        for _ in range(200):
            m = rng.randint(0, 25)
            model = random_model(rng, m)
            bits = [rng.randint(0, 1) for _ in range(m)]
            legit = posterior_legit_direct(
                model.prior_spam,
                model.prior_legit,
                list(model.p1_spam),
                list(model.p1_legit),
                bits,
            )
            total = posterior_spam(model, np.array(bits, dtype=np.uint8)) + legit
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_smoothed_model_never_saturates(self, hard_corpus):
        from spamlab import select_attributes, token_class_counts, vectorize_documents

        attrs = select_attributes(token_class_counts(hard_corpus), 30)
        matrix, labels = vectorize_documents(hard_corpus.documents, attrs)
        model = train_naive_bayes(matrix, labels)
        posteriors = posterior_spam_batch(model, matrix)
        assert np.all(posteriors > 0.0) and np.all(posteriors < 1.0)

    def test_unsmoothed_zero_in_one_class(self):
        model = model_of(0.5, [1.0], [0.0])
        assert posterior_spam(model, np.array([1])) == 1.0
        assert posterior_spam(model, np.array([0])) == 0.0

    def test_unsmoothed_impossible_under_both_falls_back_to_prior(self):
        # bit 0 rules out spam, bit 1 rules out legit
        model = model_of(0.25, [0.0, 0.5], [0.5, 0.0])
        posterior = posterior_spam(model, np.array([1, 1]))
        assert posterior == pytest.approx(0.25)

    def test_batch_matches_scalar(self):
        # the scalar reference is the non-log brute force, row by row
        rng = random.Random(37)
        model = random_model(rng, 12)
        matrix = np.array(
            [[rng.randint(0, 1) for _ in range(12)] for _ in range(50)],
            dtype=np.uint8,
        )
        batch = posterior_spam_batch(model, matrix)
        for row, actual in zip(matrix, batch):
            expected = posterior_spam_direct(
                model.prior_spam,
                model.prior_legit,
                list(model.p1_spam),
                list(model.p1_legit),
                row.tolist(),
            )
            assert actual == pytest.approx(expected, abs=1e-9)


class TestClassify:
    MODEL = model_of(0.5, [0.95, 0.9], [0.05, 0.4])

    def test_spam_above_threshold(self):
        model = model_of(0.5, [0.95], [0.05])
        vector = np.array([1])
        assert posterior_spam(model, vector) == pytest.approx(0.95)
        assert classify_nb(model, vector, DecisionPolicy.from_lambda(9.0)) is Label.SPAM

    def test_legitimate_when_threshold_not_exceeded(self):
        model = model_of(0.5, [0.95], [0.05])
        vector = np.array([1])
        policy = DecisionPolicy.from_lambda(999.0)
        assert classify_nb(model, vector, policy) is Label.LEGITIMATE

    def test_exact_tie_goes_legitimate(self):
        model = model_of(0.5, [], [])
        vector = np.zeros(0, dtype=np.uint8)
        assert posterior_spam(model, vector) == 0.5
        policy = DecisionPolicy.from_lambda(1.0)
        assert classify_nb(model, vector, policy) is Label.LEGITIMATE

    def test_lambda_monotone_spam_sets(self):
        rng = random.Random(41)
        model = random_model(rng, 8)
        vectors = np.array(
            [[rng.randint(0, 1) for _ in range(8)] for _ in range(100)],
            dtype=np.uint8,
        )
        lambdas = [1.0, 3.0, 9.0, 99.0, 999.0]
        spam_sets = []
        for lam in lambdas:
            policy = DecisionPolicy.from_lambda(lam)
            labels = classify_nb_batch(model, vectors, policy)
            assert labels.dtype == np.uint8
            spam_sets.append(set(np.flatnonzero(labels == 1).tolist()))
        assert spam_sets[0]
        for smaller_lam, larger_lam in zip(spam_sets, spam_sets[1:]):
            assert larger_lam <= smaller_lam
