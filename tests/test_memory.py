from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import top_features
from oracles import neighborhood_direct
from spamlab import (
    ConfigError,
    DataError,
    Document,
    Label,
    build_instance_base,
    classify_mb_batch,
    neighborhood_votes,
)
from spamlab.corpus import Corpus
from spamlab.features import split_presence


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
    """neighborhood_votes as one (spam, legit) pair of count lists per m."""
    spam, legit = neighborhood_votes(base, np.array(queries, dtype=np.uint8), k, ms)
    return list(zip(spam.tolist(), legit.tolist()))


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
        assert votes(base, [[0, 0, 0]], 2)[0] == ([2], [1])

    def test_k_beyond_distinct_distances_covers_base(self):
        base = base_of([[0, 0], [1, 0], [1, 1]], [0, 1, 0])
        assert votes(base, [[0, 0]], 10)[0] == ([1], [2])

    def test_k1_unique_nearest(self):
        base = base_of([[0, 0, 0], [1, 1, 1]], [1, 0])
        assert votes(base, [[0, 0, 1]], 1)[0] == ([1], [0])

    @pytest.mark.parametrize("query", [[2, 2], [-1, 0], [0.5, 0], [float("nan"), 0]])
    def test_query_other_than_0_or_1_rejected(self, query):
        base = base_of([[0, 1], [1, 0]], [1, 0])
        with pytest.raises(ValueError, match="query vectors must hold only 0 and 1"):
            neighborhood_votes(base, np.array([[0, 0], query]), 1)

    @pytest.mark.parametrize("k", [0, True, 1.5, 2.0, "2", None])
    def test_invalid_k_rejected(self, k):
        base = base_of([[0]], [0])
        with pytest.raises(ConfigError, match="needs an integer k >= 1"):
            votes(base, [[0]], k)

    def test_monotone_in_k(self):
        rng = random.Random(53)
        rows, labels = random_base(rng, 30, 6)
        base = base_of(rows, labels)
        queries = [[rng.randint(0, 1) for _ in range(6)] for _ in range(10)]
        previous = np.zeros((2, len(queries)))
        for k in range(1, 8):
            current = np.array(votes(base, queries, k)[0])
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
            assert votes(base, queries, k)[0] == direct_votes(rows, labels, queries, k)


class TestClassify:
    @staticmethod
    def _neighborhood_base():
        # all at distance 0 from the zero query: 3 spam, 2 legit
        rows = [[0, 0]] * 5
        return base_of(rows, [1, 1, 1, 0, 0])

    ZERO = np.zeros((1, 2), dtype=np.uint8)

    def test_majority_spam_at_lambda_one(self):
        base = self._neighborhood_base()
        assert classify_mb_batch(base, self.ZERO, 1, 1.0)[0].tolist() == [Label.SPAM]

    def test_lambda_scales_legitimate_votes(self):
        base = self._neighborhood_base()
        assert classify_mb_batch(base, self.ZERO, 1, 9.0)[0].tolist() == [Label.LEGITIMATE]

    def test_exact_tie_goes_legitimate(self):
        base = base_of([[0, 0]] * 4, [1, 1, 0, 0])
        assert classify_mb_batch(base, self.ZERO, 1, 1.0)[0].tolist() == [Label.LEGITIMATE]

    def test_no_spam_neighbors_means_legitimate(self):
        base = base_of([[0, 0]] * 3, [0, 0, 0])
        assert classify_mb_batch(base, self.ZERO, 2, 1.0)[0].tolist() == [Label.LEGITIMATE]

    def test_pure_spam_neighborhood_beats_any_lambda(self):
        base = base_of([[0, 0]] * 3, [1, 1, 1])
        assert classify_mb_batch(base, self.ZERO, 2, 999.0)[0].tolist() == [Label.SPAM]

    def test_self_classification(self):
        rows = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 1]]
        base = base_of(rows, [1, 0, 0])
        query = np.array(rows[:1], dtype=np.uint8)
        assert votes(base, query, 1)[0] == ([1], [0])
        assert classify_mb_batch(base, query, 1, 1.0)[0].tolist() == [Label.SPAM]

    def test_lambda_monotone_decisions(self):
        rng = random.Random(61)
        rows, labels = random_base(rng, 60, 8)
        base = base_of(rows, labels)
        queries = np.array(
            [[rng.randint(0, 1) for _ in range(8)] for _ in range(40)], dtype=np.uint8
        )
        spam_sets = []
        for lam in (1.0, 3.0, 9.0, 99.0, 999.0):
            predicted = classify_mb_batch(base, queries, 3, lam)
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
                batch = classify_mb_batch(base, queries, k, lam)[0]
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


@st.composite
def sparse_sweeps(draw):
    """Rows with at most two ones over a few columns, and two or more blocks:
    a query with no one in a block gets only that block's |y|."""
    width = draw(st.integers(2, 10))
    row = st.sets(st.integers(0, width - 1), max_size=2).map(
        lambda ones: [int(c in ones) for c in range(width)]
    )
    train = draw(st.lists(row, min_size=1, max_size=12))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(train), max_size=len(train)))
    queries = draw(st.lists(row, min_size=1, max_size=6))
    ms = sorted(draw(st.sets(st.integers(1, width), min_size=2)))
    k = draw(st.sampled_from([1, 2, 3]))
    return train, labels, queries, ms, k


@st.composite
def dense_block_sweeps(draw):
    """Rows mostly ones over a few columns: a query row holds many ones in
    a block, so the block is added in many layers."""
    width = draw(st.integers(1, 12))
    row = st.lists(st.sampled_from([1, 1, 1, 0]), min_size=width, max_size=width)
    train = draw(st.lists(row, min_size=1, max_size=10))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(train), max_size=len(train)))
    queries = draw(st.lists(row, min_size=1, max_size=6))
    ms = sorted(draw(st.sets(st.integers(1, width), min_size=1)))
    k = draw(st.sampled_from([1, 2, 3]))
    return train, labels, queries, ms, k


def tall_layer(n_rows, k):
    """n_rows queries that all hold a one in both blocks of ms = [3, 6], so
    the first layer of each block holds n_rows rows: one 64-row add below 65
    rows, more from 65 on.  Five patterns in turn make neighbouring rows
    differ, so a row left out of an add changes its votes."""
    patterns = [[1, 0, 0, 1, 0, 0], [0, 1, 1, 0, 1, 0], [1, 1, 1, 0, 0, 1],
                [0, 0, 1, 1, 1, 1], [1, 0, 1, 0, 1, 0]]
    train = [[0] * 6, [1] * 6, [1, 0, 0, 1, 0, 0], [0, 1, 1, 0, 1, 1],
             [1, 1, 0, 0, 0, 1], [0, 0, 1, 1, 1, 0]]
    queries = [patterns[i % len(patterns)] for i in range(n_rows)]
    return train, [1, 0, 1, 0, 0, 1], queries, [3, 6], k


def with_tall_layers(test):
    """One example per layer of 63, 64, 65 and 129 rows, at k = 1, 2, 3."""
    for n_rows in (63, 64, 65, 129):
        for k in (1, 2, 3):
            test = example(case=tall_layer(n_rows, k))(test)
    return test


class TestSweep:
    @settings(max_examples=200, deadline=None)
    @given(case=tied_sweeps())
    def test_every_m_matches_vote_over_direct_neighborhood(self, case):
        train, labels, queries, ms, k, lam = case
        base = base_of(train, labels)
        swept = classify_mb_batch(base, np.array(queries, dtype=np.uint8), k, lam, ms)
        assert swept.shape == (len(ms), len(queries)) and swept.dtype == np.uint8
        for m, decisions, (spam, legit) in zip(ms, swept, votes(base, queries, k, ms)):
            expected = direct_votes(
                [r[:m] for r in train], labels, [q[:m] for q in queries], k
            )
            assert (spam, legit) == expected
            assert decisions.tolist() == [int(s > lam * l) for s, l in zip(*expected)]

    @settings(max_examples=100, deadline=None)
    @given(case=tied_sweeps(), data=st.data())
    def test_permuting_the_base_leaves_the_votes(self, case, data):
        train, labels, queries, ms, k, _ = case
        order = data.draw(st.permutations(range(len(train))))
        shuffled = base_of([train[i] for i in order], [labels[i] for i in order])
        assert votes(shuffled, queries, k, ms) == votes(base_of(train, labels), queries, k, ms)

    @settings(max_examples=200, deadline=None)
    @given(case=sparse_sweeps())
    # every query is zero in the block [2, 4): that block has no layer
    @example(case=([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], [1, 0, 0],
                   [[1, 0, 0, 0], [0, 1, 0, 0]], [2, 4], 2))
    # no query is zero in any block
    @example(case=([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0]], [1, 0, 1],
                   [[1, 0, 1, 0], [0, 1, 0, 1]], [2, 4], 1))
    # one query row is all zero
    @example(case=([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], [0, 1, 1],
                   [[0, 0, 0, 0], [1, 0, 0, 1]], [1, 3, 4], 3))
    # duplicate stored rows
    @example(case=([[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0]], [1, 0, 0, 1],
                   [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]], [2, 3, 4], 2))
    def test_sparse_queries_match_direct_votes(self, case):
        train, labels, queries, ms, k = case
        for m, (spam, legit) in zip(ms, votes(base_of(train, labels), queries, k, ms)):
            expected = direct_votes(
                [r[:m] for r in train], labels, [q[:m] for q in queries], k
            )
            assert (spam, legit) == expected

    @settings(max_examples=200, deadline=None)
    @given(case=dense_block_sweeps())
    # every column of the block [2, 5) set in the first query row
    @example(case=([[1, 1, 1, 0, 1, 0], [0, 0, 1, 1, 1, 1], [1, 0, 0, 0, 0, 1]], [1, 0, 0],
                   [[0, 0, 1, 1, 1, 0], [1, 1, 0, 1, 0, 1]], [2, 5, 6], 2))
    # the block [3, 4) is one column wide
    @example(case=([[1, 1, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]], [0, 1, 1],
                   [[1, 1, 1, 1], [0, 1, 1, 0]], [3, 4], 1))
    # one block spans all of m
    @example(case=([[1, 1, 1, 0, 1], [0, 1, 1, 1, 1], [1, 1, 1, 1, 1]], [1, 0, 1],
                   [[1, 1, 1, 1, 0], [1, 0, 1, 1, 1]], [5], 3))
    # two query rows with the same ones
    @example(case=([[1, 1, 0, 1, 1], [1, 0, 1, 1, 1], [0, 1, 1, 1, 0]], [1, 1, 0],
                   [[1, 1, 1, 0, 1], [1, 1, 1, 0, 1]], [2, 4, 5], 2))
    # an all-zero query among rows of ones
    @example(case=([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0]], [0, 1, 0],
                   [[0, 0, 0, 0], [1, 1, 1, 1]], [1, 3, 4], 3))
    # more rows in one layer than one 64-row add takes
    @with_tall_layers
    def test_many_ones_per_block_match_direct_votes(self, case):
        train, labels, queries, ms, k = case
        for m, (spam, legit) in zip(ms, votes(base_of(train, labels), queries, k, ms)):
            expected = direct_votes(
                [r[:m] for r in train], labels, [q[:m] for q in queries], k
            )
            assert (spam, legit) == expected

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
    def test_full_width_sweep_matches_direct_votes(self, train, labels, queries, k):
        base = base_of(train, labels)
        ms = list(range(1, base.m + 1))
        for m, (spam, legit) in zip(ms, votes(base, queries, k, ms)):
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
            classify_mb_batch(base, queries, 1, 1.0, ms)


def spread_rows(width):
    """Six base rows at six distinct distances, 0 to width, from a query of
    width // 2 leading ones, and three queries: that one, zeros and ones."""
    a = width // 2
    query = [1] * a + [0] * (width - a)
    rows = [
        query,
        [0] * width,
        [0] * a + [1] * (width - a),
        [1] * (a - 1) + [0] * (width - a + 1),
        [1] * (width - 1) + [0],
        [1] * width,
    ]
    return rows, [1, 0, 1, 0, 1, 0], [query, [0] * width, [1] * width]


class TestDistanceType:
    """The distances live in the narrowest signed integer type holding
    widest + 1, widest = min(m, max|x| + max|y|); these widths sit where
    that type changes."""

    @pytest.mark.parametrize("width", [125, 126, 127, 128])
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_int8_to_int16(self, width, k):
        # The first and zero queries have no one after width // 2, so those
        # blocks add only |y|_block to their rows; the ones query adds a
        # layer per column of every block.  Every add stays in the distance
        # type: a row holds its distance over [0, done) plus |y|_block, then
        # gains +1 or -1 per query one, staying between d + |y|_block - x.y
        # >= 0 and d + |x or y|_block <= min(m, |x| + |y|) <= widest.  The
        # first query reaches widest = width, through the |y|-only add, at
        # the row of ones after width // 2, and the ones query walks from
        # |y|_block down to 0 at the all-ones row and up from 0 at the zero row.
        rows, labels, queries = spread_rows(width)
        base = base_of(rows, labels)
        for ms in ([width], [width // 2, width], [1, width // 2, width - 1, width]):
            for m, (spam, legit) in zip(ms, votes(base, queries, k, ms)):
                expected = direct_votes(
                    [r[:m] for r in rows], labels, [q[:m] for q in queries], k
                )
                assert (spam, legit) == expected

    @pytest.mark.parametrize("width", [125, 126, 127])
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_int8_edge_with_every_query_one_in_one_block(self, width, k):
        # widest = width (int8 up to 126, int16 at 127).  The query holds all
        # of its width - 1 ones in the block [1, width), so one block adds
        # them in width - 1 layers: the zero row walks up from 0 to width - 1,
        # the row with only column 0 up from 1 to widest = width, and the
        # row of ones down from width to 1.
        query = [0] + [1] * (width - 1)
        half = width // 2
        rows = [[0] * width, [1] + [0] * (width - 1), [1] * width, query,
                [1] * half + [0] * (width - half)]
        labels = [1, 0, 1, 0, 1]
        base = base_of(rows, labels)
        for ms in ([width], [1, width]):
            for m, (spam, legit) in zip(ms, votes(base, [query, [1] * width], k, ms)):
                expected = direct_votes(
                    [r[:m] for r in rows], labels, [query[:m], [1] * m], k
                )
                assert (spam, legit) == expected

    @pytest.mark.parametrize("width", [32766, 32767, 32768])
    def test_int16_to_int32(self, width):
        rows, labels, queries = spread_rows(width)
        base = base_of(rows, labels)
        for k in (2, 6):
            assert votes(base, queries, k)[0] == direct_votes(rows, labels, queries, k)

    @pytest.mark.parametrize("width", [110, 200])
    def test_overlap_beyond_int8_as_minus_two_xy(self, width):
        # x.y = 100 in one block: -2 x.y = -200 fits no int8, the distances do;
        # the query's layer adds take the row of ones from |y| down by 100
        query = [1] * 100 + [0] * (width - 100)
        rows = [query, [1] * width, [0] * width, [1] * 50 + [0] * (width - 50)]
        labels = [0, 1, 1, 0]
        base = base_of(rows, labels)
        for k in (1, 2, 4):
            assert votes(base, [query], k)[0] == direct_votes(rows, labels, [query], k)


class TestVoteRuns:
    """The d <= cut mask and its class sums are formed 64 query rows at a
    time; these query counts sit on either side of a run's edge."""

    @pytest.mark.parametrize("n_queries", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_run_votes_as_the_direct_neighborhood(self, n_queries, k):
        rng = random.Random(1000 * k + n_queries)
        rows, labels = random_base(rng, 40, 10)
        queries = [[rng.randint(0, 1) for _ in range(10)] for _ in range(n_queries)]
        ms = [3, 10]
        for m, (spam, legit) in zip(ms, votes(base_of(rows, labels), queries, k, ms)):
            expected = direct_votes([r[:m] for r in rows], labels, [q[:m] for q in queries], k)
            assert (spam, legit) == expected


@st.composite
def postings_cases(draw):
    """A training set drawn from a few row patterns (so stored rows repeat),
    one column with no training one, queries with an all-zero row, and the
    same rows as documents: a last document holds every token, so each
    column is a token of the incidence but only the first n rows train."""
    width = draw(st.integers(1, 8))
    pattern = st.lists(st.integers(0, 1), min_size=width, max_size=width)
    pool = draw(st.lists(pattern, min_size=1, max_size=4))
    train = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))
    train[:, draw(st.integers(0, width - 1))] = 0
    labels = draw(st.lists(st.integers(0, 1), min_size=len(train), max_size=len(train)))
    queries = [[0] * width] + draw(st.lists(st.sampled_from(pool), max_size=5))
    ms = sorted(draw(st.sets(st.integers(1, width), min_size=1)))
    return train, labels, queries, ms, draw(st.sampled_from([1, 2, 10]))


class TestPostingsBase:
    """A base built from an Incidence's postings, as the fold loop builds
    it, against one built from the same rows as a dense matrix."""

    @settings(max_examples=200, deadline=None)
    @given(case=postings_cases())
    def test_postings_base_votes_as_the_dense_base(self, case):
        train, labels, queries, ms, k = case
        documents = [  # named in document order
            Document(tuple(f"t{j}" for j in np.flatnonzero(row)), label, f"d{i:04d}")
            for i, (row, label) in enumerate(zip(train, labels))
        ] + [Document(tuple(f"t{j}" for j in range(train.shape[1])), 0, "every")]
        incidence = Corpus.from_documents(documents).incidence
        ids = [incidence.vocabulary.index(f"t{j}") for j in range(train.shape[1])]
        sub = split_presence(incidence, ids, np.arange(len(documents)) == len(train))[0]
        from_postings = build_instance_base(sub, sub.labels)
        from_dense = build_instance_base(train, labels)
        assert from_postings.labels.tolist() == sorted(labels, reverse=True)
        assert votes(from_postings, queries, k, ms) == votes(from_dense, queries, k, ms)


class TestMemoryBudget:
    def test_base_stores_each_columns_ones_with_the_spam_rows_first(self):
        vectors = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        base = build_instance_base(vectors, [0, 1, 0])
        assert base.labels.tolist() == [1, 0, 0]  # row 1 is stored first
        assert base.indptr.tolist() == [0, 2, 4]
        assert sorted(base.rows[0:2].tolist()) == [0, 2]  # column 0: rows 1 and 2
        assert sorted(base.rows[2:4].tolist()) == [1, 2]  # column 1: rows 0 and 2
        for same in (vectors.astype(bool), vectors.tolist(), vectors.astype(float)):
            other = build_instance_base(same, [0, 1, 0])
            assert other.indptr.tolist() == base.indptr.tolist()
            assert other.rows.tolist() == base.rows.tolist()
            assert other.labels.tolist() == base.labels.tolist()

    def test_fold_sized_sweep_peaks_under_5_bytes_per_distance_cell(self):
        # About one benchmark fold: 300 queries against 2600 stored rows,
        # word-presence rows with 2.3 ones in the first 50 columns and 0.35
        # in each later block of 50.  The distances (1 byte a cell here),
        # 64-row runs of the d <= cut mask and one layer's gathered rows fit
        # 5 bytes per cell; a float32 product buffer (4 bytes a cell) would not.
        rng = np.random.default_rng(7)
        n_queries, n_stored, m = 300, 2600, 700
        density = np.where(np.arange(m) < 50, 0.046, 0.007)
        base = build_instance_base(
            (rng.random((n_stored, m)) < density).astype(np.uint8),
            rng.integers(0, 2, n_stored),
        )
        queries = (rng.random((n_queries, m)) < density).astype(np.uint8)
        ms = range(50, m + 1, 50)
        neighborhood_votes(base, queries, 1, ms)
        tracemalloc.start()
        try:
            neighborhood_votes(base, queries, 1, ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n_queries * n_stored

    def test_a_300_row_layer_is_added_64_rows_at_a_time(self):
        # Every query holds a one in the one block, so the block's first
        # layer has 300 rows.  Beside the int8 distances (one byte a cell),
        # an add copies at most 64 rows of the distances and 64 rows of y;
        # adding the whole layer at once would copy 300 of each.
        rng = np.random.default_rng(7)
        n_queries, n_stored, m = 300, 2600, 4
        base = build_instance_base(
            rng.integers(0, 2, (n_stored, m), dtype=np.uint8), rng.integers(0, 2, n_stored)
        )
        queries = rng.integers(0, 2, (n_queries, m), dtype=np.uint8)
        queries[:, 0] = 1
        neighborhood_votes(base, queries, 1)
        tracemalloc.start()
        try:
            neighborhood_votes(base, queries, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (n_queries * n_stored + 2 * 64 * n_stored)

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_the_vote_masks_64_query_rows_at_a_time(self, k):
        # 300 queries against 2000 stored rows.  Beside the int8 distances
        # (one byte a cell), a vote holds at most two 64-row runs of the
        # d <= cut mask while a run's mask replaces the last, as many rows
        # as a layer add copies; a mask of every query row would add 300.
        # At k >= 2 each cut pass shifts one 64-row run, not every row.
        rng = np.random.default_rng(7)
        n_queries, n_stored, m = 300, 2000, 8
        base = build_instance_base(
            (rng.random((n_stored, m)) < 0.1).astype(np.uint8), rng.integers(0, 2, n_stored)
        )
        queries = (rng.random((n_queries, m)) < 0.3).astype(np.uint8)
        neighborhood_votes(base, queries, k)
        tracemalloc.start()
        try:
            neighborhood_votes(base, queries, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (n_queries + 2 * 64) * n_stored, peak


class TestLargeKDegeneracy:
    def test_k_covering_all_distances_acts_like_majority_rule(self, hard_corpus):
        attrs = top_features(hard_corpus, 10)
        matrix, labels = attrs.x, attrs.y
        base = build_instance_base(matrix, labels)
        # k > m means every distance value is inside the neighborhood
        predicted = classify_mb_batch(base, matrix, len(attrs.tokens) + 1, 1.0)[0]
        assert predicted.tolist() == [0] * len(matrix)

    def test_huge_k_stops_at_the_distinct_distances(self, hard_corpus):
        # one pass per distinct distance at most, so this returns at once
        attrs = top_features(hard_corpus, 10)
        base = build_instance_base(attrs.x, attrs.y)
        (spam,), (legit,) = neighborhood_votes(base, attrs.x, 10**9)
        n_spam = int(np.count_nonzero(attrs.y))
        assert spam.tolist() == [n_spam] * len(attrs.x)
        assert legit.tolist() == [len(attrs.x) - n_spam] * len(attrs.x)
        majority = int(n_spam > len(attrs.x) - n_spam)
        predicted = classify_mb_batch(base, attrs.x, 10**9, 1.0)[0]
        assert predicted.tolist() == [majority] * len(attrs.x)

    def test_k10_on_few_attributes_approaches_the_baseline(self, hard_corpus):
        attrs = top_features(hard_corpus, 10)
        matrix, labels = attrs.x, attrs.y
        base = build_instance_base(matrix, labels)
        predicted = classify_mb_batch(base, matrix, 10, 1.0)[0]
        legit_fraction = np.count_nonzero(predicted == 0) / len(predicted)
        baseline = hard_corpus.n_legit / len(hard_corpus)
        # ties at 10 distinct distances flood the neighborhood with most of
        # the base, so predictions collapse toward the majority class
        assert legit_fraction >= baseline - 0.02
