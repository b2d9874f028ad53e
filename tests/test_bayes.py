from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import top_features, traced
from oracles import posterior_legit_direct, posterior_spam_direct
from spamlab import (
    ConfigError,
    DataError,
    Label,
    NaiveBayesModel,
    build_instance_base,
    classify_mb_batch,
    classify_nb_batch,
    lambda_to_threshold,
    neighborhood_votes,
    train_naive_bayes,
)
from spamlab.bayes import _log_odds, query_sweep


# a prior or conditional that no model may hold
OUTSIDE = (0.0, 1.0, math.nan, -0.5, 1.5)


def model_of(prior_spam, p1_spam, p1_legit):
    return NaiveBayesModel(
        prior_spam=prior_spam,
        prior_legit=1.0 - prior_spam,
        p1_spam=np.array(p1_spam, dtype=float),
        p1_legit=np.array(p1_legit, dtype=float),
    )


def log_odds(model, matrix, ms=None):
    return _log_odds(model, *query_sweep(matrix, ms, model.m, 0))


def direct_log_odds(model, bits):
    """log(P(spam | bits) / P(legit | bits)) from the two oracles."""
    args = (model.prior_spam, model.prior_legit, list(model.p1_spam), list(model.p1_legit), bits)
    return math.log(posterior_spam_direct(*args) / posterior_legit_direct(*args))


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

    @pytest.mark.parametrize("build", [train_naive_bayes, build_instance_base])
    @pytest.mark.parametrize(
        "vectors",
        [np.array([[0, 1], [1, 0]], dtype=object), np.array([0, 1], dtype=np.uint8)],
        ids=["object dtype", "one-dimensional"],
    )
    def test_matrix_of_other_shape_or_type_rejected(self, build, vectors):
        with pytest.raises(DataError, match="training vectors must all have the same length"):
            build(vectors, [1, 0])

    @pytest.mark.parametrize("build", [train_naive_bayes, build_instance_base])
    def test_label_count_other_than_vector_count_rejected(self, build):
        with pytest.raises(DataError, match="vector and label counts differ"):
            build(np.array([[0, 1], [1, 0]], dtype=np.uint8), [1, 0, 1])

    @pytest.mark.parametrize("build", [train_naive_bayes, build_instance_base])
    @pytest.mark.parametrize("labels", [[2, 0], [-1, 0], [0.5, 1]])
    def test_labels_other_than_0_or_1_rejected(self, build, labels):
        with pytest.raises(DataError, match="labels must be 0"):
            build(np.array([[0, 1], [1, 1]], dtype=np.uint8), labels)

    @pytest.mark.parametrize("build", [train_naive_bayes, build_instance_base])
    @pytest.mark.parametrize("vectors", [
        [[2, 1], [0, 1]],
        [[256, 1], [0, 1]],
        [[-1, 0], [0, 1]],
        [[0.5, 1], [0, 1]],
        [[float("nan"), 1], [0, 1]],
    ])
    def test_vectors_other_than_0_or_1_rejected(self, build, vectors):
        with pytest.raises(DataError, match="training vectors must hold only 0 and 1"):
            build(np.array(vectors), [1, 0])

    def test_counts_copy_no_legitimate_rows(self):
        # A benchmark fold's training set at m = 700, one message in ten
        # spam: the legitimate counts are the column totals less the spam
        # counts, so training copies the spam rows (a tenth of the matrix)
        # and reduction buffers, never the legitimate rows (nine tenths).
        rng = np.random.default_rng(7)
        matrix = (rng.random((2600, 700)) < 0.01).astype(np.uint8)
        labels = (np.arange(2600) % 10 == 0).astype(np.uint8)
        train_naive_bayes(matrix, labels)
        model, _, peak = traced(lambda: train_naive_bayes(matrix, labels))
        assert peak <= matrix.nbytes // 4
        legit = matrix[labels == 0]
        assert model.p1_legit.tolist() == ((legit.sum(axis=0) + 1.0) / (len(legit) + 2.0)).tolist()

    def test_smoothed_conditionals_strictly_inside_unit_interval(self, hard_corpus):
        attrs = top_features(hard_corpus, 40)
        model = train_naive_bayes(attrs.x, attrs.y)
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

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf"), 1e16])
    @pytest.mark.parametrize("classify", [
        lambda x, lam: classify_nb_batch(model_of(0.5, [0.8], [0.2]), x, lam),
        lambda x, lam: classify_mb_batch(build_instance_base(x, [1, 0]), x, 1, lam),
    ], ids=["classify_nb_batch", "classify_mb_batch"])
    def test_classifiers_reject_invalid_lambda(self, classify, lam):
        with pytest.raises(ConfigError, match="lambda must be positive"):
            classify(np.array([[1], [0]], dtype=np.uint8), lam)


class TestPosterior:
    def test_empty_attribute_set_returns_prior(self):
        model = model_of(0.3, [], [])
        odds = log_odds(model, np.zeros((1, 0), dtype=np.uint8))[0]
        assert odds.tolist() == pytest.approx([math.log(0.3 / 0.7)], abs=1e-12)

    def test_single_attribute_present(self):
        model = model_of(0.5, [0.8], [0.2])
        assert log_odds(model, [[1]])[0].tolist() == pytest.approx([math.log(4.0)], abs=1e-12)

    def test_single_attribute_absent(self):
        model = model_of(0.5, [0.8], [0.2])
        assert log_odds(model, [[0]])[0].tolist() == pytest.approx([-math.log(4.0)], abs=1e-12)

    def test_length_mismatch_rejected(self):
        model = model_of(0.5, [0.8], [0.2])
        with pytest.raises(ValueError):
            classify_nb_batch(model, np.array([[1, 0]]), 1.0)

    @pytest.mark.parametrize("query", [[2, 0], [-1, 0], [0.5, 0], [float("nan"), 0]])
    @pytest.mark.parametrize("kernel", [
        lambda model, x: classify_nb_batch(model, x, 1.0),
    ], ids=["classify_nb_batch"])
    def test_query_other_than_0_or_1_rejected(self, kernel, query):
        model = model_of(0.5, [0.8, 0.3], [0.2, 0.6])
        with pytest.raises(ValueError, match="query vectors must hold only 0 and 1"):
            kernel(model, np.array([[0, 0], query]))

    def test_matches_non_log_brute_force(self):
        rng = random.Random(29)
        for _ in range(200):
            m = rng.randint(0, 10)
            model = random_model(rng, m)
            bits = [rng.randint(0, 1) for _ in range(m)]
            actual = log_odds(model, np.array([bits], dtype=np.uint8))[0, 0]
            assert actual == pytest.approx(direct_log_odds(model, bits), abs=1e-9)

    def test_two_class_normalization(self):
        # the posterior the log odds imply, plus the mirrored legitimate one
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
            odds = log_odds(model, np.array([bits], dtype=np.uint8))[0, 0]
            assert 1.0 / (1.0 + math.exp(-odds)) + legit == pytest.approx(1.0, abs=1e-12)

    def test_smoothed_model_never_saturates(self, hard_corpus):
        attrs = top_features(hard_corpus, 30)
        model = train_naive_bayes(attrs.x, attrs.y)
        assert np.all(np.isfinite(log_odds(model, attrs.x)))

    @pytest.mark.parametrize("changes", [
        *({prior: value} for prior in ("prior_spam", "prior_legit") for value in OUTSIDE),
        *({table: [0.5, value]} for table in ("p1_spam", "p1_legit") for value in OUTSIDE),
        {"p1_spam": [0.5]}, {"p1_legit": []},  # tables of two lengths
        {"p1_spam": [[0.8, 0.3]], "p1_legit": [[0.2, 0.6]]}, {"p1_spam": [[0.8], [0.3]]},
        {"p1_spam": 0.8, "p1_legit": 0.2},  # tables that are not 1-D
    ], ids=str)
    def test_model_unlike_any_trained_one_is_refused(self, changes):
        fields = {"prior_spam": 0.5, "prior_legit": 0.5, "p1_spam": [0.8, 0.3],
                  "p1_legit": [0.2, 0.6], **changes}
        with pytest.raises(ValueError, match=r"equal-length tables, all values inside \(0, 1\)"):
            NaiveBayesModel(**{name: np.array(value) for name, value in fields.items()})

    def test_list_tables_decide_like_array_tables(self):
        rng = random.Random(41)
        model = random_model(rng, 6)
        listed = NaiveBayesModel(
            model.prior_spam, model.prior_legit, model.p1_spam.tolist(), model.p1_legit.tolist()
        )
        for name in ("p1_spam", "p1_legit"):
            table = getattr(listed, name)
            assert table.dtype == np.float64 and table.tolist() == getattr(model, name).tolist()
        matrix = np.array([[rng.randint(0, 1) for _ in range(6)] for _ in range(40)], np.uint8)
        for lam in (1.0, 9.0, 999.0):
            expected = classify_nb_batch(model, matrix, lam)
            actual = classify_nb_batch(listed, matrix, lam)
            assert actual[0].tolist() == expected[0].tolist()
        one = NaiveBayesModel(0.5, 0.5, [0.8], [0.2])
        assert classify_nb_batch(one, np.array([[1], [0]]), 1.0).tolist() == [[1, 0]]

    def test_batch_matches_scalar(self):
        # the scalar reference is the non-log brute force, row by row
        rng = random.Random(37)
        model = random_model(rng, 12)
        matrix = np.array(
            [[rng.randint(0, 1) for _ in range(12)] for _ in range(50)],
            dtype=np.uint8,
        )
        batch = log_odds(model, matrix)[0]
        for row, actual in zip(matrix, batch):
            assert actual == pytest.approx(direct_log_odds(model, row.tolist()), abs=1e-9)

    @given(st.data(), st.one_of(st.sampled_from([1.0, 9.0, 999.0]), st.floats(1e-3, 1e6)))
    def test_decisions_follow_the_exact_posterior(self, data, lam):
        # any probabilities a model may hold: strictly inside (0, 1), and
        # for the prior its complement too
        probability = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        m = data.draw(st.integers(0, 6))
        model = model_of(
            data.draw(probability.filter(lambda p: 1 - p < 1)),
            data.draw(st.lists(probability, min_size=m, max_size=m)),
            data.draw(st.lists(probability, min_size=m, max_size=m)),
        )
        rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                                  min_size=1, max_size=8))
        decisions = classify_nb_batch(model, np.array(rows, dtype=np.uint8), lam)
        t = Fraction(lam) / (1 + Fraction(lam))
        exact = [Fraction(v) for v in (model.prior_spam, model.prior_legit)]
        p1 = [[Fraction(v) for v in p.tolist()] for p in (model.p1_spam, model.p1_legit)]
        for bits, decision in zip(rows, decisions[0].tolist()):
            posterior = posterior_spam_direct(*exact, *p1, bits)
            if abs(posterior - t) > Fraction(1, 10**9):
                assert decision == int(posterior > t)


class TestSweep:
    def test_every_m_is_the_prefix_model(self):
        rng = random.Random(43)
        model = random_model(rng, 9)
        matrix = np.array(
            [[rng.randint(0, 1) for _ in range(9)] for _ in range(30)], dtype=np.uint8
        )
        ms = [0, 1, 4, 5, 9]
        swept = log_odds(model, matrix, ms)
        assert swept.shape == (len(ms), len(matrix))
        for m, row in zip(ms, swept):
            prefix = model_of(model.prior_spam, model.p1_spam[:m], model.p1_legit[:m])
            assert row.tolist() == log_odds(prefix, matrix[:, :m])[0].tolist()
            for bits, actual in zip(matrix, row):
                assert actual == pytest.approx(direct_log_odds(prefix, bits[:m].tolist()), abs=1e-9)

    @given(st.data())
    def test_blockwise_sums_are_the_bytes_of_one_cumulative_sum(self, data):
        # _log_odds adds each m's new columns in a buffer of their own; the
        # reference takes every term at once and sums them in one cumsum.
        m = data.draw(st.integers(2, 9))
        ms = sorted(data.draw(st.sets(st.integers(0, m), min_size=1)))
        probability = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        p1 = [data.draw(st.lists(probability, min_size=m, max_size=m)) for _ in range(2)]
        model = model_of(data.draw(st.floats(0.01, 0.99)), *p1)
        matrix = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                                             min_size=1, max_size=6)), dtype=np.uint8)

        def logs(values):
            return [math.log(v) for v in values], [math.log1p(-v) for v in values]

        (on_spam, off_spam), (on_legit, off_legit) = logs(p1[0]), logs(p1[1])
        terms = np.where(matrix == 1, np.subtract(on_spam, on_legit),
                         np.subtract(off_spam, off_legit))
        prior = math.log(model.prior_spam) - math.log(model.prior_legit)
        whole = np.cumsum(np.column_stack([np.full(len(matrix), prior), terms]), axis=1)
        expected = np.ascontiguousarray(whole[:, ms].T)
        assert log_odds(model, matrix, ms).tobytes() == expected.tobytes()

    def test_decisions_per_m(self):
        model = model_of(0.5, [0.95, 0.05], [0.05, 0.95])
        decisions = classify_nb_batch(model, np.array([[1, 1], [1, 0]]), 1.0, [1, 2])
        assert decisions.dtype == np.uint8
        assert decisions.tolist() == [[1, 1], [0, 1]]

    @pytest.mark.parametrize("ms", [[], [3], [-1, 1], [1, 1], [2, 1]])
    def test_m_range_off_the_model_rejected(self, ms):
        model = model_of(0.5, [0.8, 0.3], [0.2, 0.6])
        with pytest.raises(ValueError, match="m range"):
            classify_nb_batch(model, np.zeros((1, 2), dtype=np.uint8), 1.0, ms)


SHAPE_X = np.random.default_rng(5).integers(0, 2, size=(12, 6), dtype=np.uint8)
SHAPE_Y = np.arange(12) % 2
SHAPE_NB = train_naive_bayes(SHAPE_X, SHAPE_Y)
SHAPE_BASE = build_instance_base(SHAPE_X, SHAPE_Y)
# each classifier kernel on SHAPE_X as ms -> its result arrays
KERNELS = {
    "classify_nb_batch": lambda ms: [classify_nb_batch(SHAPE_NB, SHAPE_X, 1.0, ms)],
    "neighborhood_votes": lambda ms: list(neighborhood_votes(SHAPE_BASE, SHAPE_X, 2, ms)),
    "classify_mb_batch": lambda ms: [classify_mb_batch(SHAPE_BASE, SHAPE_X, 2, 1.0, ms)],
}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_kernels_return_one_row_per_m(kernel):
    ms = [2, 5]
    default, swept, alone = kernel(None), kernel(ms), [kernel([m]) for m in ms]
    for j, result in enumerate(swept):
        assert default[j].shape == (1, 12) and result.shape == (2, 12)
        for i in range(len(ms)):
            assert result[i].tolist() == alone[i][j][0].tolist()


class TestClassify:
    MODEL = model_of(0.5, [0.95, 0.9], [0.05, 0.4])

    def test_spam_above_threshold(self):
        model = model_of(0.5, [0.95], [0.05])
        vector = np.array([[1]])
        assert classify_nb_batch(model, vector, 9.0)[0].tolist() == [Label.SPAM]

    def test_legitimate_when_threshold_not_exceeded(self):
        model = model_of(0.5, [0.95], [0.05])
        vector = np.array([[1]])
        assert classify_nb_batch(model, vector, 999.0)[0].tolist() == [Label.LEGITIMATE]

    def test_exact_tie_goes_legitimate(self):
        model = model_of(0.5, [], [])
        vector = np.zeros((1, 0), dtype=np.uint8)
        assert classify_nb_batch(model, vector, 1.0)[0].tolist() == [Label.LEGITIMATE]

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
            labels = classify_nb_batch(model, vectors, lam)
            assert labels.dtype == np.uint8
            spam_sets.append(set(np.flatnonzero(labels == 1).tolist()))
        assert spam_sets[0]
        for smaller_lam, larger_lam in zip(spam_sets, spam_sets[1:]):
            assert larger_lam <= smaller_lam
