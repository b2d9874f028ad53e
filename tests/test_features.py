from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import presence_matrix, top_features, traced
from oracles import mi_direct, mi_exact, ranking_direct
from spamlab import (
    ClassifierConfig,
    DataError,
    Document,
    FoldPlan,
    Label,
    cross_validate,
    make_stratified_folds,
    mutual_information_batch,
)
from spamlab.corpus import Corpus, Incidence
import spamlab.features as features_module
from spamlab.features import (
    TokenStats,
    class_counts,
    rank_tokens,
    split_presence,
)


def doc(tokens, label, source_id):
    return Document(tuple(tokens), label, source_id)


def corpus_of(*docs):
    return Corpus.from_documents(docs)


def counts(corpus):
    """Whole-corpus class counts: token -> (n docs with token | spam, | legit)."""
    stats = top_features(corpus, 0).stats
    pairs = zip(stats.n1_spam.tolist(), stats.n1_legit.tolist())
    return dict(zip(corpus.incidence.vocabulary, pairs)), stats


class TestTokenClassCounts:
    def test_both_spam_docs_contain_token(self):
        per_token, stats = counts(
            corpus_of(
                doc(["free", "cash"], Label.SPAM, "spmsg1"),
                doc(["free"], Label.SPAM, "spmsg2"),
            )
        )
        assert per_token["free"] == (2, 0)
        assert stats.n_spam == 2 and stats.n_legit == 0

    def test_repeated_token_counts_once_per_document(self):
        per_token, _ = counts(corpus_of(doc(["echo", "echo", "echo"], Label.SPAM, "spmsg1")))
        assert per_token["echo"] == (1, 0)

    def test_four_document_enumeration(self):
        per_token, stats = counts(
            corpus_of(
                doc(["cash"], Label.SPAM, "spmsg1"),
                doc(["cash", "now"], Label.SPAM, "spmsg2"),
                doc(["meeting"], Label.LEGITIMATE, "msg1"),
                doc(["agenda"], Label.LEGITIMATE, "msg2"),
            )
        )
        assert per_token["cash"] == (2, 0)
        assert stats.n_spam == 2 and stats.n_legit == 2


class TestMutualInformation:
    def test_independent_attribute_scores_zero(self):
        # present in exactly half of each class
        mi = mutual_information_batch(np.array([1]), np.array([1]), 2, 2)
        assert mi.tolist() == pytest.approx([0.0], abs=1e-12)

    def test_perfect_class_marker_is_one_bit(self):
        mi = mutual_information_batch(np.array([2]), np.array([0]), 2, 2)
        assert mi.tolist() == pytest.approx([1.0], abs=1e-12)

    def test_ubiquitous_token_scores_zero(self):
        mi = mutual_information_batch(np.array([3]), np.array([5]), 3, 5)
        assert mi.tolist() == pytest.approx([0.0], abs=1e-12)

    @given(
        n_spam=st.integers(1, 50),
        n_legit=st.integers(1, 50),
        data=st.data(),
    )
    def test_non_negative(self, n_spam, n_legit, data):
        n1_spam = data.draw(st.integers(0, n_spam))
        n1_legit = data.draw(st.integers(0, n_legit))
        spam, legit = np.array([n1_spam]), np.array([n1_legit])
        assert mutual_information_batch(spam, legit, n_spam, n_legit)[0] >= -1e-12

    @given(
        n_spam=st.integers(1, 50),
        n_legit=st.integers(1, 50),
        data=st.data(),
    )
    def test_class_relabeling_symmetry(self, n_spam, n_legit, data):
        n1_spam = data.draw(st.integers(0, n_spam))
        n1_legit = data.draw(st.integers(0, n_legit))
        spam, legit = np.array([n1_spam]), np.array([n1_legit])
        forward = mutual_information_batch(spam, legit, n_spam, n_legit)
        swapped = mutual_information_batch(legit, spam, n_legit, n_spam)
        assert forward.tolist() == pytest.approx(swapped.tolist(), abs=1e-12)

    def test_matches_brute_force_on_small_corpora(self):
        rng = random.Random(23)
        vocabulary = [f"tok{i}" for i in range(20)]
        for trial in range(30):
            docs = []
            for i in range(rng.randint(2, 24)):
                label = Label.SPAM if rng.random() < 0.4 else Label.LEGITIMATE
                tokens = rng.sample(vocabulary, rng.randint(1, 8))
                prefix = "spmsg" if label is Label.SPAM else "msg"
                docs.append(doc(tokens, label, f"{prefix}{trial:02d}{i:03d}"))
            per_token, stats = counts(Corpus.from_documents(docs))
            if stats.n_spam == 0 or stats.n_legit == 0:
                continue
            mine = mutual_information_batch(
                stats.n1_spam, stats.n1_legit, stats.n_spam, stats.n_legit
            )
            for score, (token, (n1s, n1l)) in zip(mine, per_token.items()):
                reference = mi_direct(n1s, n1l, stats.n_spam, stats.n_legit)
                assert score == pytest.approx(reference, abs=1e-12), token


class TestMutualInformationBatch:
    @given(
        n_spam=st.integers(0, 40),
        n_legit=st.integers(0, 40),
        data=st.data(),
    )
    def test_matches_direct_summation(self, n_spam, n_legit, data):
        assume(n_spam + n_legit >= 1)
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n_spam), st.integers(0, n_legit)))
        )
        # zero cells, a token in every document, and a class with no hits
        pairs += [(0, 0), (n_spam, n_legit), (n_spam, 0), (0, n_legit)]
        n1_spam = np.array([a for a, _ in pairs])
        n1_legit = np.array([b for _, b in pairs])
        mi = mutual_information_batch(n1_spam, n1_legit, n_spam, n_legit)
        expected = [mi_direct(a, b, n_spam, n_legit) for a, b in pairs]
        assert mi.tolist() == pytest.approx(expected, abs=1e-12)

    def test_no_documents_rejected(self):
        with pytest.raises(ValueError, match="totals must cover at least one document"):
            mutual_information_batch(np.array([0]), np.array([0]), 0, 0)

    def test_equal_counts_rank_lexicographically(self):
        # four perfect one-bit markers: three with counts (1, 0), one (0, 1)
        docs = [
            doc(["zeta", "alpha", "mid", "zeta"], Label.SPAM, "spmsg1"),
            doc(["beta"], Label.LEGITIMATE, "msg1"),
        ]
        attrs = top_features(Corpus.from_documents(docs), 4)
        assert attrs.tokens == ("alpha", "beta", "mid", "zeta")
        assert attrs.scores == (1.0, 1.0, 1.0, 1.0)


class TestSelectAttributes:
    """The top m of rank_tokens, and the engine's check of m against the
    candidates of every fold."""

    @staticmethod
    def _ranked(per_token, n_spam, n_legit):
        vocabulary = sorted(per_token)
        n1_spam = np.array([per_token[t][0] for t in vocabulary])
        n1_legit = np.array([per_token[t][1] for t in vocabulary])
        ids, scores = rank_tokens(TokenStats(n1_spam, n1_legit, n_spam, n_legit))
        return [vocabulary[i] for i in ids], scores.tolist()

    @staticmethod
    def _cross_validate(corpus, m):
        plan = make_stratified_folds(corpus, k_folds=2, seed=0)
        return cross_validate(corpus, ClassifierConfig(kind="nb"), 1.0, m, plan)

    def test_orders_by_score(self):
        # b is a perfect marker, a partial, c carries nothing
        tokens, scores = self._ranked(
            {"a": (3, 1), "b": (4, 0), "c": (2, 2)}, n_spam=4, n_legit=4
        )
        assert tokens[:2] == ["b", "a"]
        assert scores[0] >= scores[1]

    def test_lexicographic_tie_break(self):
        tokens, _ = self._ranked({"b": (2, 0), "a": (2, 0)}, n_spam=2, n_legit=2)
        assert tokens[:1] == ["a"]

    @pytest.mark.parametrize("n_spam,n_legit", [(6, 8), (7, 3), (7, 7), (8, 8), (4, 9)])
    def test_every_count_pair_ranks_in_exact_order(self, n_spam, n_legit):
        # exact MI ties beyond complements: the class swap at n_spam ==
        # n_legit, and coincidences such as (0, 2) ~ (4, 2) at 6 / 8
        pairs = [(a, b) for a in range(n_spam + 1) for b in range(n_legit + 1) if a + b]
        stats = TokenStats(
            np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]), n_spam, n_legit
        )
        exact = [mi_exact(a, b, n_spam, n_legit) for a, b in pairs]
        ids, scores = rank_tokens(stats)
        assert ids.tolist() == sorted(range(len(pairs)), key=lambda i: (-exact[i], i))
        # equal exact scores, and only those, are equal floats
        ties = [exact[i] == exact[j] for i, j in zip(ids.tolist(), ids[1:].tolist())]
        assert ties == (scores[:-1] == scores[1:]).tolist()

    @pytest.mark.parametrize("n_spam,n_legit", [(40, 200), (6, 8), (7, 7), (8, 8), (12, 30)])
    def test_class_independent_pairs_score_exactly_zero(self, n_spam, n_legit):
        # a * n_legit == b * n_spam: every ratio is 1, so no rounding residue
        # such as the 1.7e-17 that (39, 195) at 40 / 200 sums to
        pairs = [(a, b) for a in range(n_spam + 1) for b in range(n_legit + 1) if a + b]
        stats = TokenStats(
            np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]), n_spam, n_legit
        )
        score_of = dict(zip(*(v.tolist() for v in rank_tokens(stats))))
        independent = [i for i, (a, b) in enumerate(pairs) if a * n_legit == b * n_spam]
        assert len(independent) >= 2 and {score_of[i] for i in independent} == {0.0}

    def test_error_reports_available_count(self):
        # every training set holds the one token "a"
        corpus = corpus_of(
            *(doc(["a"], Label.SPAM, f"spmsg{i}") for i in range(2)),
            *(doc(["a", "a"], Label.LEGITIMATE, f"msg{i}") for i in range(2)),
        )
        assert self._cross_validate(corpus, 1).m == 1
        with pytest.raises(DataError, match="only 1"):
            self._cross_validate(corpus, 2)

    def test_no_documents_reports_zero_available(self):
        # documents without tokens leave no candidates
        corpus = corpus_of(
            *(doc([], label, f"{label}{i}") for label in Label for i in range(2))
        )
        with pytest.raises(DataError, match="only 0"):
            self._cross_validate(corpus, 1)

    def test_requested_cardinality(self, small_corpus):
        attrs = top_features(small_corpus, 100)
        assert len(attrs.tokens) == len(attrs.scores) == 100
        assert attrs.x.shape == (len(small_corpus), 100)

    def test_prefix_property(self, small_corpus):
        bigger = top_features(small_corpus, 60)
        for m in (1, 7, 30, 59):
            smaller = top_features(small_corpus, m)
            assert smaller.tokens == bigger.tokens[:m]
            assert np.array_equal(smaller.x, bigger.x[:, :m])

    def test_scores_non_increasing(self, small_corpus):
        scores = top_features(small_corpus, 80).scores
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_rank_covers_every_candidate(self, small_corpus):
        stats = top_features(small_corpus, 0).stats
        tokens, scores = rank_tokens(stats)
        candidates = np.flatnonzero(stats.n1_spam + stats.n1_legit)
        assert sorted(tokens.tolist()) == candidates.tolist()
        assert len(scores) == len(candidates) == len(small_corpus.incidence.vocabulary)


class TestVectorize:
    """split_presence: column j of either part marks the documents
    containing ids[j]."""

    DOCS = (  # named in document order
        doc(["free", "cash"], Label.SPAM, "d0"),
        doc([], Label.LEGITIMATE, "d1"),
        doc(["earn", "free"], Label.SPAM, "d2"),
    )

    def _rows(self):
        incidence = corpus_of(*self.DOCS).incidence
        ids = [incidence.vocabulary.index(t) for t in ("free", "earn")]
        return presence_matrix(incidence, ids).tolist()

    def test_presence_bits(self):
        assert self._rows()[0] == [1, 0]

    def test_empty_document_all_zero(self):
        assert self._rows()[1] == [0, 0]

    def test_full_document_all_one(self):
        assert self._rows()[2] == [1, 1]

    def test_pure_function(self):
        assert self._rows() == self._rows()

    @pytest.mark.parametrize("ids", [[-2], [2.7], [-1], [3]], ids=["-2", "2.7", "-1", "len"])
    def test_ids_outside_the_vocabulary_rejected(self, ids):
        incidence = corpus_of(*self.DOCS).incidence
        assert len(incidence.vocabulary) == 3
        with pytest.raises(ValueError, match=r"integers in range\(3\)"):
            split_presence(incidence, ids, np.zeros(3, bool))

    def test_batch_matches_scalar(self, small_corpus):
        # the scalar reference is plain set membership, document by document
        incidence = small_corpus.incidence
        index = {t: i for i, t in enumerate(incidence.vocabulary)}
        top = top_features(small_corpus, 25).tokens
        last = incidence.vocabulary[-1]  # the largest id
        for tokens in (top, (), (last, top[0], last), top[::-1]):
            matrix = presence_matrix(incidence, [index[t] for t in tokens])
            assert matrix.shape == (len(small_corpus), len(tokens))
            for row, d in zip(matrix, small_corpus.documents):
                present = set(d.tokens)
                assert row.tolist() == [int(t in present) for t in tokens]

    @pytest.mark.parametrize("rows", [[0, 2], [1], []], ids=["two", "one", "none"])
    def test_rows_may_list_part_of_the_documents(self, rows):
        # the training rows are the documents outside the test mask, any
        # part of them, in document order
        test = np.ones(len(self.DOCS), bool)
        test[rows] = False
        self._assert_split(self.DOCS, [2, 1], test)

    @given(st.data())
    def test_postings_hold_the_presence_bits_of_the_listed_documents(self, data):
        # the training postings, which the fold loop trains from, against set
        # membership: token j is ids[j] (repeats allowed), row i is the i-th
        # document outside the test mask, and each token's rows ascend
        docs = data.draw(st.lists(st.sets(st.sampled_from("abcdef")), min_size=1, max_size=8))
        documents = [doc(sorted(d), Label(i % 2), f"d{i}") for i, d in enumerate(docs)]
        assume(any(docs))
        incidence = corpus_of(*documents).incidence  # d0..d7: sorted as listed
        size, n = len(incidence.vocabulary), len(documents)
        ids = data.draw(st.lists(st.integers(0, size - 1), max_size=6))
        test = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        sub = split_presence(incidence, ids, test)[0]
        rows = np.flatnonzero(~test).tolist()
        assert sub.vocabulary == tuple(incidence.vocabulary[i] for i in ids)
        assert sub.labels.tolist() == [int(documents[r].label) for r in rows]
        assert len(sub.indptr) == len(ids) + 1
        assert sub.indices.dtype == incidence.indices.dtype
        for j, token in enumerate(sub.vocabulary):
            held = sub.indices[sub.indptr[j] : sub.indptr[j + 1]].tolist()
            assert held == [i for i, r in enumerate(rows) if token in documents[r].tokens]

    @given(st.data())
    def test_split_is_the_two_gathers_it_replaces(self, data):
        # one lookup split by the test mask: the training rows as postings
        # and the test rows as a matrix, each as set membership has them
        docs = data.draw(st.lists(st.sets(st.sampled_from("abcdef")), min_size=1, max_size=12))
        documents = [doc(sorted(d), Label(i % 2), f"d{i:02d}") for i, d in enumerate(docs)]
        assume(any(docs))
        size = len(corpus_of(*documents).incidence.vocabulary)
        ids = data.draw(st.lists(st.integers(0, size - 1), max_size=6))
        test = np.array(data.draw(st.lists(st.booleans(), min_size=len(docs), max_size=len(docs))))
        self._assert_split(documents, ids, test)

    @pytest.mark.parametrize("tested", [[], [255], range(256)], ids=["none", "last", "all"])
    def test_split_at_the_one_byte_row_edge(self, tested):
        # 256 documents: rows are uint8, and a part may hold all of them
        documents = [doc(["a", "b"][: i % 3], Label(i % 2), f"d{i:03d}") for i in range(256)]
        assert corpus_of(*documents).incidence.indices.dtype == np.uint8
        test = np.zeros(256, bool)
        test[list(tested)] = True
        self._assert_split(documents, [1, 0], test)

    @staticmethod
    def _assert_split(documents, ids, test):
        """split_presence against set membership, documents named in order:
        the training part's rows number the documents outside test in
        order, in the incidence's row type; x_test is uint8."""
        incidence = corpus_of(*documents).incidence
        train, x_test = split_presence(incidence, ids, test)
        tokens = [incidence.vocabulary[i] for i in ids]
        outside = [d for d, t in zip(documents, test) if not t]
        inside = [d for d, t in zip(documents, test) if t]
        postings = [[i for i, d in enumerate(outside) if t in d.tokens] for t in tokens]
        assert train.vocabulary == tuple(tokens)
        assert train.indptr.tolist() == [0, *np.cumsum([len(p) for p in postings], dtype=int)]
        assert train.indices.dtype == incidence.indices.dtype
        assert train.indices.tolist() == [i for p in postings for i in p]
        assert train.labels.tolist() == [int(d.label) for d in outside]
        assert x_test.dtype == np.uint8 and x_test.shape == (len(inside), len(tokens))
        assert x_test.tolist() == [[int(t in d.tokens) for t in tokens] for d in inside]


# the documents holding each token: postings aaa 3, bbb 4, ccc 7, ddd 1,
# eee 8, so at k_folds = 3 (6 counters a token) key slots 9, 10, 13, 7 and
# 14: at 19 slots a block, aaa + bbb fill a block exactly and ccc stops
# short of ddd; at 20, ccc + ddd fill one; at 7 or fewer, each block
# holds one token.  Listed out of lexicographic order, so first-seen ids
# differ from token ids.
BLOCK_EDGE_ROWS = {
    "eee": range(2, 10), "ccc": range(7), "aaa": range(3), "bbb": range(2, 6), "ddd": (9,)
}


class TestCountBlocks:
    """class_counts adds block after block of whole tokens into its table."""

    DOCS = tuple(  # every token twice, counted once; d10 holds no token
        doc([t for t, rows in BLOCK_EDGE_ROWS.items() if i in rows] * 2, Label(i % 2), f"d{i:02d}")
        for i in range(11)
    )

    @staticmethod
    def _assert_direct(corpus, plan):
        """Each fold's counts equal a count of the training documents' token sets."""
        folds = np.array(plan.assignment)
        vocabulary = corpus.incidence.vocabulary
        stats = list(class_counts(corpus.incidence, folds, plan.k_folds))
        assert len(stats) == plan.k_folds
        for fold, fold_stats in enumerate(stats):
            train = [d for d, f in zip(corpus.documents, plan.assignment) if f != fold]
            for label, n1, n in (
                (Label.SPAM, fold_stats.n1_spam, fold_stats.n_spam),
                (Label.LEGITIMATE, fold_stats.n1_legit, fold_stats.n_legit),
            ):
                sets = [set(d.tokens) for d in train if d.label is label]
                assert n == len(sets), fold
                assert n1.tolist() == [sum(t in s for s in sets) for t in vocabulary], fold

    @pytest.mark.parametrize("block", [1, 2, 7, 19, 20])
    def test_blocks_of_any_size_count_as_a_direct_count(self, monkeypatch, block, hard_corpus):
        monkeypatch.setattr(features_module, "_BLOCK", block)
        corpus = corpus_of(*self.DOCS)
        indptr = corpus.incidence.indptr.tolist()
        assert corpus.incidence.vocabulary == ("aaa", "bbb", "ccc", "ddd", "eee")
        assert indptr == [0, 3, 7, 14, 15, 23]
        self._assert_direct(corpus, FoldPlan(3, tuple(i % 3 for i in range(11)), 0))
        self._assert_direct(hard_corpus, make_stratified_folds(hard_corpus, k_folds=3, seed=0))

    @pytest.mark.parametrize("block", [1, 7])
    def test_incidence_of_no_documents(self, monkeypatch, block):
        monkeypatch.setattr(features_module, "_BLOCK", block)
        incidence = corpus_of().incidence
        stats = list(class_counts(incidence, np.array([], np.int64), 2))
        assert [(len(s.n1_spam), len(s.n1_legit), s.n_spam, s.n_legit) for s in stats] == [
            (0, 0, 0, 0), (0, 0, 0, 0)
        ]

    @staticmethod
    def _assert_first_fold_peak(indptr, rows, n, rng):
        # The table holds 2 * k_folds * V counts in the narrowest type that
        # holds the document count (uint16 here), a block of 2^14 key slots
        # takes under 24 bytes a slot, and the first fold's int64 counts,
        # which the caller keeps, 16 bytes a token.
        k_folds, size = 10, len(indptr) - 1
        incidence = Incidence(
            tuple(f"t{i:05d}" for i in range(size)), indptr,
            rows.astype(np.uint16), rng.integers(0, 2, n).astype(np.uint8),
        )
        folds = rng.integers(0, k_folds, n)
        table = 2 * k_folds * size * np.min_scalar_type(n).itemsize
        _, _, peak = traced(lambda: next(class_counts(incidence, folds, k_folds)))
        assert peak < table + 24 * 2**14 + 16 * size, (peak, table)

    def test_first_count_pass_peaks_under_the_table_plus_one_block(self):
        # 2000 documents x 3000 tokens at 5% density: about 300,000
        # postings, in many blocks
        rng = np.random.default_rng(7)
        present = rng.random((3000, 2000)) < 0.05
        indptr, rows = np.r_[0, np.cumsum(present.sum(axis=1))], np.nonzero(present)[1]
        del present
        assert indptr[-1] >= 16 * 2**14
        self._assert_first_fold_peak(indptr, rows, 2000, rng)

    def test_blocks_of_rare_tokens_are_cut_by_their_counters(self):
        # 20,000 tokens of one posting each: cut by postings alone, one
        # block would hold every token, and its counts alone would take 8
        # bytes a counter, 2 * k_folds counters a token: 3.2 MB
        rng = np.random.default_rng(7)
        self._assert_first_fold_peak(np.arange(20_001), rng.integers(0, 2000, 20_000), 2000, rng)


@pytest.fixture(scope="module")
def balanced_corpus():
    """300 spam and 300 legitimate messages: a training set's pair codes
    n1_spam * (n_legit + 1) + n1_legit run past 65,535.  Each token has
    the (spam, legit) document counts below, among them class swaps and
    complements (equal MI), a class-independent token and perfect markers."""
    pairs = [(300, 0), (0, 300), (250, 10), (10, 250), (50, 290), (150, 150),
             (299, 1), (1, 299), (200, 180), (100, 120), (30, 3), (270, 297)]
    rng = np.random.default_rng(31)
    tokens = [[] for _ in range(600)]  # spam messages first
    for t, (a, b) in enumerate(pairs):
        for i in np.r_[rng.permutation(300)[:a], 300 + rng.permutation(300)[:b]].tolist():
            tokens[i].append(f"w{t:02d}")
    return corpus_of(*(
        doc(words, Label.SPAM if i < 300 else Label.LEGITIMATE, f"m{i:03d}")
        for i, words in enumerate(tokens)
    ))


class TestCountTableType:
    """The count table takes the narrowest type that holds the document
    count; the counts it yields, and the ranking's arithmetic, stay int64."""

    @pytest.mark.parametrize("n", [65_535, 65_536])  # uint16's last count, uint32's first
    @pytest.mark.parametrize("spam_share", [1.0, 0.5])
    def test_counts_at_the_edge_of_the_table_type(self, n, spam_share):
        # token 0 is in every document: with every document spam, its spam
        # total is n, which a uint16 total would wrap at n = 65,536
        rng = np.random.default_rng(n)
        present = np.ones((5, n), bool)
        present[1:] = rng.random((4, n)) < np.array([[0.5], [0.9], [0.001], [0.0]])
        labels = (rng.random(n) < spam_share).astype(np.uint8)
        incidence = Incidence(
            tuple(f"t{i}" for i in range(5)), np.r_[0, np.cumsum(present.sum(axis=1))],
            np.nonzero(present)[1].astype(np.min_scalar_type(n - 1)), labels,
        )
        folds = rng.integers(0, 3, n)
        for fold, stats in enumerate(class_counts(incidence, folds, 3)):
            train = folds != fold
            for label, n1, n_class in (
                (1, stats.n1_spam, stats.n_spam), (0, stats.n1_legit, stats.n_legit)
            ):
                members = train & (labels == label)
                assert n_class == np.count_nonzero(members), fold
                assert n1.dtype == np.int64, fold
                assert n1.tolist() == present[:, members].sum(axis=1).tolist(), fold

    def test_balanced_ranking_matches_the_oracle(self, balanced_corpus):
        # each training set holds 270 spam and 270 legitimate messages, so
        # the pair codes of rank_tokens reach 270 * 271 + 270 = 73,440
        plan = make_stratified_folds(balanced_corpus, seed=0)
        vocabulary = balanced_corpus.incidence.vocabulary
        stats = class_counts(balanced_corpus.incidence, np.array(plan.assignment), plan.k_folds)
        for fold, fold_stats in enumerate(stats):
            assert fold_stats.n_spam * (fold_stats.n_legit + 1) > 65_535, fold
            train = [d for d, f in zip(balanced_corpus.documents, plan.assignment) if f != fold]
            ranked = ranking_direct([(d.tokens, d.label is Label.SPAM) for d in train])
            ids, scores = rank_tokens(fold_stats)
            assert [vocabulary[i] for i in ids] == [token for token, _ in ranked], fold
            assert scores.tolist() == pytest.approx([mi for _, mi in ranked], abs=1e-12), fold
        assert fold == 9
