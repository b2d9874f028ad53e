from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from oracles import mi_direct, mi_exact
from spamlab import (
    DataError,
    Document,
    Label,
    mutual_information_batch,
    select_attributes,
    token_class_counts,
    vectorize_documents,
)
from spamlab.corpus import Corpus
from spamlab.features import AttributeSet, TokenStats, rank_tokens


def doc(tokens, label, source_id):
    return Document(tuple(tokens), label, source_id)


def corpus_of(*docs):
    return Corpus.from_documents(docs)


class TestTokenClassCounts:
    def test_both_spam_docs_contain_token(self):
        stats = token_class_counts(
            corpus_of(
                doc(["free", "cash"], Label.SPAM, "spmsg1"),
                doc(["free"], Label.SPAM, "spmsg2"),
            )
        )
        assert stats.counts["free"] == (2, 0)
        assert stats.n_spam == 2 and stats.n_legit == 0

    def test_repeated_token_counts_once_per_document(self):
        stats = token_class_counts(
            corpus_of(doc(["echo", "echo", "echo"], Label.SPAM, "spmsg1"))
        )
        assert stats.counts["echo"] == (1, 0)

    def test_four_document_enumeration(self):
        stats = token_class_counts(
            corpus_of(
                doc(["cash"], Label.SPAM, "spmsg1"),
                doc(["cash", "now"], Label.SPAM, "spmsg2"),
                doc(["meeting"], Label.LEGITIMATE, "msg1"),
                doc(["agenda"], Label.LEGITIMATE, "msg2"),
            )
        )
        assert stats.counts["cash"] == (2, 0)
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
            stats = token_class_counts(docs)
            if stats.n_spam == 0 or stats.n_legit == 0:
                continue
            mine = mutual_information_batch(
                stats.n1_spam, stats.n1_legit, stats.n_spam, stats.n_legit
            )
            for token, (n1s, n1l) in stats.counts.items():
                reference = mi_direct(n1s, n1l, stats.n_spam, stats.n_legit)
                index = stats.vocabulary.index(token)
                assert mine[index] == pytest.approx(reference, abs=1e-12), token


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

    def test_equal_counts_rank_lexicographically(self):
        # four perfect one-bit markers: three with counts (1, 0), one (0, 1)
        docs = [
            doc(["zeta", "alpha", "mid", "zeta"], Label.SPAM, "spmsg1"),
            doc(["beta"], Label.LEGITIMATE, "msg1"),
        ]
        attrs = select_attributes(token_class_counts(docs), 4)
        assert attrs.tokens == ("alpha", "beta", "mid", "zeta")
        assert attrs.scores == (1.0, 1.0, 1.0, 1.0)


class TestSelectAttributes:
    @staticmethod
    def _stats(counts, n_spam, n_legit):
        vocabulary = tuple(sorted(counts))
        n1_spam = np.array([counts[t][0] for t in vocabulary])
        n1_legit = np.array([counts[t][1] for t in vocabulary])
        return TokenStats(vocabulary, n1_spam, n1_legit, n_spam, n_legit)

    def test_orders_by_score(self):
        # b is a perfect marker, a partial, c carries nothing
        stats = self._stats(
            {"a": (3, 1), "b": (4, 0), "c": (2, 2)}, n_spam=4, n_legit=4
        )
        selected = select_attributes(stats, 2)
        assert selected.tokens == ("b", "a")
        assert selected.scores[0] >= selected.scores[1]

    def test_lexicographic_tie_break(self):
        stats = self._stats({"b": (2, 0), "a": (2, 0)}, n_spam=2, n_legit=2)
        assert select_attributes(stats, 1).tokens == ("a",)

    @pytest.mark.parametrize("n_spam,n_legit", [(6, 8), (7, 3), (7, 7), (8, 8), (4, 9)])
    def test_every_count_pair_ranks_in_exact_order(self, n_spam, n_legit):
        # exact MI ties beyond complements: the class swap at n_spam ==
        # n_legit, and coincidences such as (0, 2) ~ (4, 2) at 6 / 8
        pairs = [(a, b) for a in range(n_spam + 1) for b in range(n_legit + 1) if a + b]
        stats = TokenStats(
            tuple(f"t{i:03d}" for i in range(len(pairs))),
            np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]), n_spam, n_legit,
        )
        exact = [mi_exact(a, b, n_spam, n_legit) for a, b in pairs]
        ids, scores = rank_tokens(stats)
        assert ids.tolist() == sorted(range(len(pairs)), key=lambda i: (-exact[i], i))
        # equal exact scores, and only those, are equal floats
        ties = [exact[i] == exact[j] for i, j in zip(ids.tolist(), ids[1:].tolist())]
        assert ties == (scores[:-1] == scores[1:]).tolist()

    def test_error_reports_available_count(self):
        stats = self._stats({"a": (1, 0)}, n_spam=1, n_legit=1)
        with pytest.raises(DataError, match="only 1"):
            select_attributes(stats, 2)

    def test_no_documents_reports_zero_available(self):
        with pytest.raises(DataError, match="only 0"):
            select_attributes(token_class_counts([]), 1)

    def test_requested_cardinality(self, small_corpus):
        stats = token_class_counts(small_corpus)
        assert select_attributes(stats, 100).m == 100

    def test_prefix_property(self, small_corpus):
        stats = token_class_counts(small_corpus)
        bigger = select_attributes(stats, 60)
        for m in (1, 7, 30, 59):
            smaller = select_attributes(stats, m)
            assert smaller.tokens == bigger.tokens[:m]

    def test_scores_non_increasing(self, small_corpus):
        stats = token_class_counts(small_corpus)
        scores = select_attributes(stats, 80).scores
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_rank_covers_every_candidate(self, small_corpus):
        stats = token_class_counts(small_corpus)
        tokens, scores = rank_tokens(stats)
        assert len(tokens) == len(stats.counts) == len(scores)


def vectorize(d, attributes):
    return vectorize_documents([d], attributes)[0][0]


class TestVectorize:
    # ids index the vocabulary ("earn", "free") the set was selected from
    ATTRS = AttributeSet(tokens=("free", "earn"), scores=(0.5, 0.25), ids=(1, 0))

    def test_presence_bits(self):
        vector = vectorize(doc(["free", "cash"], Label.SPAM, "s1"), self.ATTRS)
        assert vector.tolist() == [1, 0]

    def test_empty_document_all_zero(self):
        vector = vectorize(doc([], Label.LEGITIMATE, "m1"), self.ATTRS)
        assert vector.tolist() == [0, 0]

    def test_full_document_all_one(self):
        vector = vectorize(doc(["earn", "free"], Label.SPAM, "s1"), self.ATTRS)
        assert vector.tolist() == [1, 1]

    def test_pure_function(self):
        d = doc(["free"], Label.SPAM, "s1")
        assert np.array_equal(vectorize(d, self.ATTRS), vectorize(d, self.ATTRS))

    def test_batch_matches_scalar(self, small_corpus):
        # the scalar reference is plain set membership, document by document
        stats = token_class_counts(small_corpus)
        top = select_attributes(stats, 25).tokens
        docs = small_corpus.documents[:40]
        last = max(t for d in docs for t in d.tokens)  # the batch's largest id
        index = {t: i for i, t in enumerate(stats.vocabulary)}
        for tokens in (
            top,
            ("nonesuch", *top[:3], "absent", "unseen", top[3]),  # unknown: id -1
            (),
            (last, top[0], last),
        ):
            ids = tuple(index.get(t, -1) for t in tokens)
            attrs = AttributeSet(tokens, (0.0,) * len(tokens), ids)
            matrix, labels = vectorize_documents(docs, attrs)
            assert matrix.shape == (len(docs), len(tokens))
            for row, d in zip(matrix, docs):
                present = set(d.tokens)
                assert row.tolist() == [int(t in present) for t in tokens]
        assert labels.tolist() == [int(d.label) for d in docs]
