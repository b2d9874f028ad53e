from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from oracles import neighborhood_direct
from spamlab import (
    DataError,
    DecisionPolicy,
    Label,
    build_instance_base,
    classify_mb,
    k_distance_neighborhood,
    overlap_distance,
)
from spamlab.memory import classify_mb_batch


def base_of(rows, labels):
    return build_instance_base(
        np.array(rows, dtype=np.uint8), [Label(v) for v in labels]
    )


def random_base(rng, n, m):
    rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
    labels = [rng.randint(0, 1) for _ in range(n)]
    if len(set(labels)) == 1:
        labels[0] = 1 - labels[0]
    return rows, labels


class TestBuildInstanceBase:
    def test_stores_everything(self):
        base = base_of([[1, 0]] * 5, [1, 0, 1, 0, 1])
        assert base.size == 5

    def test_conflicting_duplicates_kept(self):
        base = base_of([[1, 1], [1, 1]], [1, 0])
        assert base.size == 2
        assert base.labels.tolist() == [1, 0]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_instance_base(np.zeros((0, 3), dtype=np.uint8), [])

    def test_mixed_lengths_rejected(self):
        ragged = [np.array([1, 0]), np.array([1])]
        with pytest.raises(DataError):
            build_instance_base(ragged, [Label.SPAM, Label.LEGITIMATE])


class TestOverlapDistance:
    def test_identical(self):
        assert overlap_distance(np.array([1, 0, 1]), np.array([1, 0, 1])) == 0

    def test_full_complement(self):
        assert overlap_distance(np.array([1, 1, 0]), np.array([0, 0, 1])) == 3

    def test_partial(self):
        assert overlap_distance(np.array([1, 0, 1, 0]), np.array([1, 1, 1, 1])) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            overlap_distance(np.array([1, 0]), np.array([1, 0, 1]))


class TestNeighborhood:
    def test_ties_expand_the_neighborhood(self):
        # distances from the query: 0, 0, 1, 2, 2
        query = np.array([0, 0, 0], dtype=np.uint8)
        base = base_of(
            [[0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1]],
            [1, 0, 1, 0, 0],
        )
        hood = k_distance_neighborhood(base, query, 2)
        assert hood.distinct_distances == {0, 1}
        assert len(hood.members) == 3

    def test_k_beyond_distinct_distances_covers_base(self):
        base = base_of([[0, 0], [1, 0], [1, 1]], [0, 1, 0])
        hood = k_distance_neighborhood(base, np.array([0, 0]), 10)
        assert len(hood.members) == base.size

    def test_k1_unique_nearest(self):
        base = base_of([[0, 0, 0], [1, 1, 1]], [1, 0])
        hood = k_distance_neighborhood(base, np.array([0, 0, 1]), 1)
        assert hood.members == ((1, Label.SPAM),)

    def test_invalid_k_rejected(self):
        base = base_of([[0]], [0])
        with pytest.raises(ValueError):
            k_distance_neighborhood(base, np.array([0]), 0)

    def test_monotone_in_k(self):
        rng = random.Random(53)
        rows, labels = random_base(rng, 30, 6)
        base = base_of(rows, labels)
        query = np.array([rng.randint(0, 1) for _ in range(6)], dtype=np.uint8)
        previous: Counter = Counter()
        for k in range(1, 8):
            current = Counter(k_distance_neighborhood(base, query, k).members)
            assert all(current[key] >= count for key, count in previous.items())
            previous = current

    def test_matches_sort_based_brute_force(self):
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randint(1, 50)
            m = rng.randint(1, 12)
            rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            labels = [rng.randint(0, 1) for _ in range(n)]
            base = base_of(rows, labels)
            query = np.array([rng.randint(0, 1) for _ in range(m)], dtype=np.uint8)
            k = rng.randint(1, 6)
            hood = k_distance_neighborhood(base, query, k)
            expected_members, expected_distinct = neighborhood_direct(
                rows, labels, list(query), k
            )
            assert hood.distinct_distances == expected_distinct
            assert sorted((d, int(l)) for d, l in hood.members) == sorted(
                expected_members
            )


class TestClassify:
    @staticmethod
    def _neighborhood_base():
        # all at distance 0 from the zero query: 3 spam, 2 legit
        rows = [[0, 0]] * 5
        return base_of(rows, [1, 1, 1, 0, 0])

    def test_majority_spam_at_lambda_one(self):
        base = self._neighborhood_base()
        label = classify_mb(base, np.array([0, 0]), 1, DecisionPolicy.from_lambda(1.0))
        assert label is Label.SPAM

    def test_lambda_scales_legitimate_votes(self):
        base = self._neighborhood_base()
        label = classify_mb(base, np.array([0, 0]), 1, DecisionPolicy.from_lambda(9.0))
        assert label is Label.LEGITIMATE

    def test_exact_tie_goes_legitimate(self):
        base = base_of([[0, 0]] * 4, [1, 1, 0, 0])
        label = classify_mb(base, np.array([0, 0]), 1, DecisionPolicy.from_lambda(1.0))
        assert label is Label.LEGITIMATE

    def test_no_spam_neighbors_means_legitimate(self):
        base = base_of([[0, 0]] * 3, [0, 0, 0])
        label = classify_mb(base, np.array([0, 0]), 2, DecisionPolicy.from_lambda(1.0))
        assert label is Label.LEGITIMATE

    def test_pure_spam_neighborhood_beats_any_lambda(self):
        base = base_of([[0, 0]] * 3, [1, 1, 1])
        policy = DecisionPolicy.from_lambda(999.0)
        assert classify_mb(base, np.array([0, 0]), 2, policy) is Label.SPAM

    def test_self_classification(self):
        rows = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 1]]
        base = base_of(rows, [1, 0, 0])
        policy = DecisionPolicy.from_lambda(1.0)
        query = np.array(rows[0], dtype=np.uint8)
        hood = k_distance_neighborhood(base, query, 1)
        assert hood.members == ((0, Label.SPAM),)
        assert classify_mb(base, query, 1, policy) is Label.SPAM

    def test_lambda_monotone_decisions(self):
        rng = random.Random(61)
        rows, labels = random_base(rng, 60, 8)
        base = base_of(rows, labels)
        queries = np.array(
            [[rng.randint(0, 1) for _ in range(8)] for _ in range(40)], dtype=np.uint8
        )
        spam_sets = []
        for lam in (1.0, 3.0, 9.0, 99.0, 999.0):
            predicted = classify_mb_batch(base, queries, 3, DecisionPolicy.from_lambda(lam))
            spam_sets.append(set(np.flatnonzero(predicted == 1).tolist()))
        assert spam_sets[0]
        for looser, stricter in zip(spam_sets, spam_sets[1:]):
            assert stricter <= looser

    def test_batch_matches_scalar(self):
        # the scalar reference is a vote over the sort-based neighborhood
        rng = random.Random(67)
        rows, labels = random_base(rng, 45, 7)
        base = base_of(rows, labels)
        queries = np.array(
            [[rng.randint(0, 1) for _ in range(7)] for _ in range(25)], dtype=np.uint8
        )
        for k in (1, 2, 5):
            for lam in (1.0, 9.0):
                policy = DecisionPolicy.from_lambda(lam)
                batch = classify_mb_batch(base, queries, k, policy)
                scalar = []
                for q in queries:
                    members, _ = neighborhood_direct(rows, labels, q.tolist(), k)
                    spam = sum(1 for _, label in members if label == 1)
                    legit = len(members) - spam
                    scalar.append(int(spam > lam * legit))
                assert batch.dtype == np.uint8 and batch.tolist() == scalar


class TestLargeKDegeneracy:
    def test_k_covering_all_distances_acts_like_majority_rule(self, hard_corpus):
        from spamlab import select_attributes, token_class_counts, vectorize_documents

        attrs = select_attributes(token_class_counts(hard_corpus), 10)
        matrix, labels = vectorize_documents(hard_corpus.documents, attrs)
        base = build_instance_base(matrix, labels)
        policy = DecisionPolicy.from_lambda(1.0)
        # k > m means every distance value is inside the neighborhood
        predicted = classify_mb_batch(base, matrix, attrs.m + 1, policy)
        assert predicted.tolist() == [0] * len(matrix)

    def test_k10_on_few_attributes_approaches_the_baseline(self, hard_corpus):
        from spamlab import select_attributes, token_class_counts, vectorize_documents

        attrs = select_attributes(token_class_counts(hard_corpus), 10)
        matrix, labels = vectorize_documents(hard_corpus.documents, attrs)
        base = build_instance_base(matrix, labels)
        policy = DecisionPolicy.from_lambda(1.0)
        predicted = classify_mb_batch(base, matrix, 10, policy)
        legit_fraction = np.count_nonzero(predicted == 0) / len(predicted)
        baseline = hard_corpus.n_legit / len(hard_corpus)
        # ties at 10 distinct distances flood the neighborhood with most of
        # the base, so predictions collapse toward the majority class
        assert legit_fraction >= baseline - 0.02
