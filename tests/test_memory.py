from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import neighborhood_direct
from spamlab import (
    DataError,
    DecisionPolicy,
    Label,
    build_instance_base,
    classify_mb_batch,
    neighborhood_votes,
)
import spamlab.memory as memory_module


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


def direct_votes(rows, labels, queries, k):
    """(spam, legit) label counts of oracles.neighborhood_direct per query."""
    spam, legit = [], []
    for query in queries:
        members, _ = neighborhood_direct(rows, labels, list(query), k)
        spam.append(sum(label for _, label in members))
        legit.append(len(members) - spam[-1])
    return spam, legit


def votes(base, queries, k, ms=None):
    spam, legit = neighborhood_votes(base, np.array(queries, dtype=np.uint8), k, ms)
    return spam.tolist(), legit.tolist()


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


class TestNeighborhood:
    def test_ties_expand_the_neighborhood(self):
        # distances from the query: 0, 0, 1, 2, 2
        base = base_of(
            [[0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1]],
            [1, 0, 1, 0, 0],
        )
        assert votes(base, [[0, 0, 0]], 2) == ([2], [1])

    def test_k_beyond_distinct_distances_covers_base(self):
        base = base_of([[0, 0], [1, 0], [1, 1]], [0, 1, 0])
        assert votes(base, [[0, 0]], 10) == ([1], [2])

    def test_k1_unique_nearest(self):
        base = base_of([[0, 0, 0], [1, 1, 1]], [1, 0])
        assert votes(base, [[0, 0, 1]], 1) == ([1], [0])

    @pytest.mark.parametrize("query", [[2, 2], [-1, 0], [0.5, 0], [float("nan"), 0]])
    def test_query_other_than_0_or_1_rejected(self, query):
        base = base_of([[0, 1], [1, 0]], [1, 0])
        with pytest.raises(ValueError, match="query vectors must hold only 0 and 1"):
            neighborhood_votes(base, np.array([[0, 0], query]), 1)

    def test_invalid_k_rejected(self):
        base = base_of([[0]], [0])
        with pytest.raises(ValueError):
            votes(base, [[0]], 0)

    def test_monotone_in_k(self):
        rng = random.Random(53)
        rows, labels = random_base(rng, 30, 6)
        base = base_of(rows, labels)
        queries = [[rng.randint(0, 1) for _ in range(6)] for _ in range(10)]
        previous = np.zeros((2, len(queries)))
        for k in range(1, 8):
            current = np.array(votes(base, queries, k))
            assert (current >= previous).all()
            previous = current

    def test_matches_sort_based_brute_force(self):
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randint(1, 50)
            m = rng.randint(1, 12)
            rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            labels = [rng.randint(0, 1) for _ in range(n)]
            base = base_of(rows, labels)
            queries = [[rng.randint(0, 1) for _ in range(m)] for _ in range(5)]
            k = rng.randint(1, 6)
            assert votes(base, queries, k) == direct_votes(rows, labels, queries, k)


class TestClassify:
    @staticmethod
    def _neighborhood_base():
        # all at distance 0 from the zero query: 3 spam, 2 legit
        rows = [[0, 0]] * 5
        return base_of(rows, [1, 1, 1, 0, 0])

    ZERO = np.zeros((1, 2), dtype=np.uint8)

    def test_majority_spam_at_lambda_one(self):
        base = self._neighborhood_base()
        policy = DecisionPolicy.from_lambda(1.0)
        assert classify_mb_batch(base, self.ZERO, 1, policy).tolist() == [Label.SPAM]

    def test_lambda_scales_legitimate_votes(self):
        base = self._neighborhood_base()
        policy = DecisionPolicy.from_lambda(9.0)
        assert classify_mb_batch(base, self.ZERO, 1, policy).tolist() == [Label.LEGITIMATE]

    def test_exact_tie_goes_legitimate(self):
        base = base_of([[0, 0]] * 4, [1, 1, 0, 0])
        policy = DecisionPolicy.from_lambda(1.0)
        assert classify_mb_batch(base, self.ZERO, 1, policy).tolist() == [Label.LEGITIMATE]

    def test_no_spam_neighbors_means_legitimate(self):
        base = base_of([[0, 0]] * 3, [0, 0, 0])
        policy = DecisionPolicy.from_lambda(1.0)
        assert classify_mb_batch(base, self.ZERO, 2, policy).tolist() == [Label.LEGITIMATE]

    def test_pure_spam_neighborhood_beats_any_lambda(self):
        base = base_of([[0, 0]] * 3, [1, 1, 1])
        policy = DecisionPolicy.from_lambda(999.0)
        assert classify_mb_batch(base, self.ZERO, 2, policy).tolist() == [Label.SPAM]

    def test_self_classification(self):
        rows = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 1]]
        base = base_of(rows, [1, 0, 0])
        policy = DecisionPolicy.from_lambda(1.0)
        query = np.array(rows[:1], dtype=np.uint8)
        assert votes(base, query, 1) == ([1], [0])
        assert classify_mb_batch(base, query, 1, policy).tolist() == [Label.SPAM]

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
                spam, legit = direct_votes(rows, labels, queries, k)
                scalar = [int(s > lam * l) for s, l in zip(spam, legit)]
                assert batch.dtype == np.uint8 and batch.tolist() == scalar


@st.composite
def tied_sweeps(draw):
    """A few columns and rows drawn from a small pool: many distance ties."""
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 1), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    train = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(train), max_size=len(train)))
    queries = draw(st.lists(st.one_of(st.sampled_from(pool), row), min_size=1, max_size=6))
    ms = sorted(draw(st.sets(st.integers(1, width), min_size=1)))
    k = draw(st.integers(1, width + 2))
    lam = draw(st.sampled_from([1.0, 9.0, 999.0]))
    return train, labels, queries, ms, k, lam


class TestSweep:
    @settings(max_examples=200, deadline=None)
    @given(case=tied_sweeps())
    def test_every_m_matches_vote_over_direct_neighborhood(self, case):
        train, labels, queries, ms, k, lam = case
        base = base_of(train, labels)
        swept = classify_mb_batch(
            base, np.array(queries, dtype=np.uint8), k, DecisionPolicy.from_lambda(lam), ms
        )
        assert swept.shape == (len(ms), len(queries)) and swept.dtype == np.uint8
        spam_votes, legit_votes = votes(base, queries, k, ms)
        for m, decisions, spam, legit in zip(ms, swept, spam_votes, legit_votes):
            expected = direct_votes(
                [r[:m] for r in train], labels, [q[:m] for q in queries], k
            )
            assert (spam, legit) == expected
            assert decisions.tolist() == [int(s > lam * l) for s, l in zip(*expected)]

    @pytest.mark.parametrize("train,labels,queries", [
        # all-ones query against all-zero rows: a distance of exactly m
        ([[1] * 5, [0] * 5, [0] * 5, [1] * 5], [1, 0, 1, 0], [[1] * 5, [0] * 5]),
        # zeros only: every distance is 0, one distinct distance
        ([[0] * 4] * 3, [1, 0, 1], [[0] * 4] * 2),
        # disjoint supports: the largest distance is |x| + |y| < m
        ([[0, 0, 1, 1, 0, 0], [0] * 6, [0, 0, 1, 0, 0, 0]], [1, 0, 0],
         [[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]),
    ])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_histogram_width_edges(self, train, labels, queries, k):
        base = base_of(train, labels)
        ms = list(range(1, base.m + 1))
        spam_votes, legit_votes = votes(base, queries, k, ms)
        for m, spam, legit in zip(ms, spam_votes, legit_votes):
            expected = direct_votes(
                [r[:m] for r in train], labels, [q[:m] for q in queries], k
            )
            assert (spam, legit) == expected

    @pytest.mark.parametrize("width,ms", [
        (2, None),
        (3, [4]),
        (3, [0, 2]),
        (3, [2, 2]),
        (3, [3, 1]),
        (3, []),
    ])
    def test_query_or_m_range_off_the_base_rejected(self, width, ms):
        base = base_of([[0, 1, 1], [1, 0, 0]], [1, 0])
        queries = np.zeros((2, width), dtype=np.uint8)
        with pytest.raises(ValueError):
            classify_mb_batch(base, queries, 1, DecisionPolicy.from_lambda(1.0), ms)

    def test_block_wider_than_exact_float32_sums_rejected(self, monkeypatch):
        monkeypatch.setattr(memory_module, "_EXACT_FLOAT32_WIDTH", 2)
        base = base_of([[0, 1, 1], [1, 0, 0]], [1, 0])
        queries = np.zeros((1, 3), dtype=np.uint8)
        policy = DecisionPolicy.from_lambda(1.0)
        assert classify_mb_batch(base, queries, 1, policy, [2, 3]).shape == (2, 1)
        with pytest.raises(ValueError, match="too wide"):
            classify_mb_batch(base, queries, 1, policy)


    def test_exact_float32_width_is_tight(self):
        # a block product sums up to width terms of magnitude 2; float32
        # holds every integer up to 2**24 and not 2**24 + 1
        width = memory_module._EXACT_FLOAT32_WIDTH
        assert int(np.float32(2 * width - 1)) == 2 * width - 1
        assert int(np.float32(2 * (width + 1) - 1)) != 2 * (width + 1) - 1


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
