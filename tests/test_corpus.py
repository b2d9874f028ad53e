from __future__ import annotations

import dataclasses
import os
import random
import re
import tempfile
from array import array
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import traced
from oracles import subject_body_words

from spamlab import (
    ClassifierConfig,
    CorpusError,
    Document,
    FixtureParams,
    Label,
    baseline_metrics,
    cross_validate,
    generate_fixture_corpus,
    load_corpus,
    make_stratified_folds,
    normalize_token,
    tokenize,
)
import spamlab.corpus as corpus_module
from spamlab.corpus import STEMMING, Corpus, Incidence, _Encoder, write_fixture_corpus

LIGHT = "light"
PLAIN = "none"


class TestParseMessage:
    """One message file's bytes to its document tokens, through load_corpus."""

    @staticmethod
    def _tokens(tmp_path, raw: bytes) -> tuple[str, ...]:
        (tmp_path / "msg1.txt").write_bytes(raw)
        return load_corpus(tmp_path, stemming=PLAIN).documents[0].tokens

    def test_subject_and_body(self, tmp_path):
        assert self._tokens(tmp_path, b"Subject: hello\n\nworld") == ("hello", "world")

    def test_no_header_whole_text_is_body(self, tmp_path):
        assert self._tokens(tmp_path, b"no header at all") == ("no", "header", "at", "all")

    def test_only_first_blank_line_splits(self, tmp_path):
        assert self._tokens(tmp_path, b"Subject: A\n\nB\n\nC") == ("a", "b", "c")

    def test_blank_line_without_subject_keeps_whole_text(self, tmp_path):
        assert self._tokens(tmp_path, b"hello\n\nworld") == ("hello", "world")

    def test_subject_without_body(self, tmp_path):
        assert self._tokens(tmp_path, b"Subject: hi") == ("hi",)

    def test_empty_message_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="empty message"):
            self._tokens(tmp_path, b"")

    def test_invalid_bytes_decoded_lossily(self, tmp_path):
        raw = b"Subject: ok\n\nbad \xff\xfe bytes"
        assert self._tokens(tmp_path, raw) == ("ok", "bad", "bytes")

    @settings(max_examples=150, deadline=None)
    @given(
        pieces=st.lists(
            st.one_of(
                st.sampled_from([
                    b"Subject:", b"Subject: Free Cash", b"Subject", b"subject:",
                    b"\n", b"\r\n",
                    b" ", b"\t", b" \t\n", b"\n\n", b"Earnings", b"flies",
                    b"e-mail", b"21", b":", b"\xff\xfe", b"\xc3\xa9",
                ]),
                st.binary(max_size=4),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_tokens_match_subject_body_oracle(self, pieces):
        raw = b"".join(pieces)
        assume(raw)
        words = subject_body_words(raw.decode("utf-8", errors="replace"))
        with tempfile.TemporaryDirectory() as root:
            Path(root, "msg1.txt").write_bytes(raw)
            for stemming in STEMMING:
                tokens = load_corpus(root, stemming=stemming).documents[0].tokens
                assert list(tokens) == [normalize_token(w, stemming) for w in words]


class TestTokenize:
    def test_digits_and_punctuation_separate(self):
        assert tokenize("Be over 21!") == ["Be", "over"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphen_separates(self):
        assert tokenize("e-mail filter") == ["e", "mail", "filter"]

    def test_bytes_and_text_agree(self):
        assert tokenize(b"Be over 21!\xff\xc3\xa9t\xe9") == ["Be", "over", "t"]
        assert tokenize("Be over 21!�ét\udce9") == ["Be", "over", "t"]

    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary())
    def test_bytes_match_their_lossy_decoding(self, raw):
        # a replacement character never swallows a byte below 0x80, so the
        # letter runs of the bytes are those of the decoded text
        assert tokenize(raw) == tokenize(raw.decode("utf-8", errors="replace"))

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet=st.one_of(
        st.characters(exclude_categories=()),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
    )))
    def test_text_matches_ascii_letter_runs(self, text):
        # lone surrogates (category Cs) are drawn often enough to matter
        assert tokenize(text) == re.findall("[A-Za-z]+", text)


class TestNormalizeToken:
    def test_earning_becomes_earn(self):
        assert normalize_token("EARNING", LIGHT) == "earn"

    def test_identity_without_stemming(self):
        assert normalize_token("earn", PLAIN) == "earn"

    def test_flies_loses_es(self):
        assert normalize_token("flies", LIGHT) == "fli"

    def test_short_stems_are_protected(self):
        # stripping "s" would leave "le" (< 3 chars)
        assert normalize_token("les", LIGHT) == "les"

    def test_short_token_kept_and_lowercased(self):
        assert normalize_token("A", PLAIN) == "a"

    def test_idempotent_on_random_words(self):
        rng = random.Random(13)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        for _ in range(500):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            once = normalize_token(word, LIGHT)
            assert normalize_token(once, LIGHT) == once

    @pytest.mark.parametrize("mode", ["heavy", "", "Light", None])
    def test_unknown_stemming_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown stemming mode"):
            normalize_token("earnings", mode)

    def test_idempotent_on_suffix_stacks(self):
        # stacked suffixes collapse in one call (down to the 3-char stem
        # floor), so re-normalizing any output is stable
        assert normalize_token("crossings", LIGHT) == "cro"
        assert normalize_token("cro", LIGHT) == "cro"
        assert normalize_token("earnings", LIGHT) == "earn"


class TestLoadCorpus:
    @staticmethod
    def _write(tmp_path, name, text):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def test_spmsg_prefix_marks_spam(self, tmp_path):
        self._write(tmp_path, "spmsg001.txt", "Subject: buy\n\ncash now")
        corpus = load_corpus(tmp_path, layout="lingspam")
        assert corpus.n_spam == 1 and corpus.n_legit == 0
        assert corpus.documents[0].label is Label.SPAM

    def test_counts_and_recursion(self, tmp_path):
        self._write(tmp_path, "part1/msg1.txt", "Subject: a\n\nhello there")
        self._write(tmp_path, "part2/msg2.txt", "Subject: b\n\nmore text")
        self._write(tmp_path, "part2/spmsg9.txt", "Subject: c\n\nfree cash")
        corpus = load_corpus(tmp_path)
        assert corpus.n_legit == 2 and corpus.n_spam == 1
        assert [d.source_id for d in corpus.documents] == [
            "part1/msg1.txt", "part2/msg2.txt", "part2/spmsg9.txt",
        ]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="empty corpus"):
            load_corpus(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        # the walk's listing of the root reports it
        root = tmp_path / "nope"
        message = f"^unreadable directory: {re.escape(str(root))}: No such file or directory$"
        with pytest.raises(CorpusError, match=message):
            load_corpus(root)

    def test_message_that_vanishes_after_the_walk_rejected(self, tmp_path, monkeypatch):
        write_fixture_corpus(generate_fixture_corpus(7, 3, 1), tmp_path / "part")
        walk = corpus_module._message_files

        def walk_then_remove(root):
            files = walk(root)
            os.remove(files[1][1])
            return files

        monkeypatch.setattr(corpus_module, "_message_files", walk_then_remove)
        with pytest.raises(
            CorpusError, match=r"^unreadable message file part/msg0001\.txt: .*No such file"
        ):
            load_corpus(tmp_path)

    def test_unknown_layout_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="layout"):
            load_corpus(tmp_path, layout="mbox")

    def test_unknown_stemming_rejected_before_any_io(self, tmp_path):
        # the root does not exist: reading anything would raise CorpusError
        with pytest.raises(ValueError, match="unknown stemming mode: 'heavy'"):
            load_corpus(tmp_path / "nope", stemming="heavy")

    def test_empty_file_names_the_culprit(self, tmp_path):
        self._write(tmp_path, "msg1.txt", "")
        with pytest.raises(CorpusError, match="empty message: msg1.txt"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("name,text", [
        (".DS_Store", ""),
        (".notes", "Subject: x\n\nnot a message"),
        (".git/msg2.txt", "Subject: y\n\nnor this"),
        ("part/.hidden/msg2.txt", "Subject: z\n\nnor this nested one"),
    ])
    def test_dot_paths_skipped(self, tmp_path, name, text):
        # the root itself sits under a dot-directory, which must not count
        root = tmp_path / ".work" / "corpus"
        self._write(root, "msg1.txt", "Subject: a\n\nhello")
        self._write(root, name, text)
        corpus = load_corpus(root)
        assert [d.source_id for d in corpus.documents] == ["msg1.txt"]

    def test_symlinked_file_loaded(self, tmp_path):
        root = tmp_path / "corpus"
        self._write(root, "msg1.txt", "Subject: a\n\nhello")
        self._write(tmp_path, "elsewhere/spmsg1.txt", "Subject: b\n\nfree cash")
        (root / "spmsg1.txt").symlink_to(tmp_path / "elsewhere" / "spmsg1.txt")
        corpus = load_corpus(root)
        assert [d.source_id for d in corpus.documents] == ["msg1.txt", "spmsg1.txt"]
        assert corpus.documents[1].tokens == ("b", "free", "cash")

    def test_symlinked_directory_not_entered(self, tmp_path):
        root = tmp_path / "corpus"
        self._write(root, "msg1.txt", "Subject: a\n\nhello")
        self._write(tmp_path, "elsewhere/msg2.txt", "Subject: b\n\nworld")
        (root / "linked").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
        assert [d.source_id for d in load_corpus(root).documents] == ["msg1.txt"]

    def test_broken_and_looping_symlinks_skipped(self, tmp_path):
        self._write(tmp_path, "msg1.txt", "Subject: a\n\nhello")
        (tmp_path / "msg2.txt").symlink_to(tmp_path / "missing.txt")
        (tmp_path / "msg3.txt").symlink_to(tmp_path / "msg3.txt")
        assert [d.source_id for d in load_corpus(tmp_path).documents] == ["msg1.txt"]

    def test_fifo_skipped(self, tmp_path):
        self._write(tmp_path, "msg1.txt", "Subject: a\n\nhello")
        os.mkfifo(tmp_path / "msg2.txt")
        assert [d.source_id for d in load_corpus(tmp_path).documents] == ["msg1.txt"]

    def test_source_id_order_not_directory_order(self, tmp_path):
        # "a-c" < "a/b" as strings ("-" < "/"), but a walk that finishes each
        # directory before its next sibling would reach a/b first
        self._write(tmp_path, "a/b", "Subject: x\n\none")
        self._write(tmp_path, "a-c", "Subject: y\n\ntwo")
        self._write(tmp_path, "a/a", "Subject: z\n\nthree")
        ids = [d.source_id for d in load_corpus(tmp_path).documents]
        assert ids == ["a-c", "a/a", "a/b"]

    def test_unreadable_subdirectory_rejected(self, tmp_path, deny_scandir):
        self._write(tmp_path, "part1/msg1.txt", "Subject: a\n\nhello")
        self._write(tmp_path, "part2/sub/msg2.txt", "Subject: b\n\nworld")
        deny_scandir(tmp_path / "part2" / "sub")
        message = r"^unreadable directory: part2/sub: Permission denied$"
        with pytest.raises(CorpusError, match=message):
            load_corpus(tmp_path)

    def test_deterministic_reload(self, tmp_path):
        self._write(tmp_path, "msg1.txt", "Subject: a\n\nSome Earnings Here")
        self._write(tmp_path, "spmsg1.txt", "Subject: b\n\nBuy Now")
        assert load_corpus(tmp_path) == load_corpus(tmp_path)

    def test_tokens_match_normalize_of_tokenize(self, tmp_path):
        text = "Subject: Earnings Report\n\nThe flies were flying; 21 e-mails."
        self._write(tmp_path, "msg1.txt", text)
        self._write(tmp_path, "spmsg1.txt", "Subject: x\n\ny")
        corpus = load_corpus(tmp_path, stemming=LIGHT)
        doc = corpus.documents[0]
        expected = [normalize_token(t, LIGHT) for t in tokenize(text)[1:]]
        assert list(doc.tokens) == expected == [
            "earn", "report", "the", "fli", "were", "fly", "e", "mail",
        ]

    def test_each_distinct_word_normalized_once(self, tmp_path, monkeypatch):
        self._write(tmp_path, "msg1.txt", "Subject: Flies\n\nflies Flies walked walked")
        self._write(tmp_path, "spmsg1.txt", "Subject: Walked\n\nwalked FLIES flies")
        calls = []

        def counting(word, stemming):
            calls.append(word)
            return normalize_token(word, stemming)

        monkeypatch.setattr(corpus_module, "normalize_token", counting)
        corpus = load_corpus(tmp_path, stemming=LIGHT)
        # "" is the mode check that precedes any read
        assert sorted(calls) == ["", "FLIES", "Flies", "Walked", "flies", "walked"]
        assert [d.tokens for d in corpus.documents] == [
            ("fli", "fli", "fli", "walk", "walk"),
            ("walk", "walk", "fli", "fli"),
        ]

    def test_a_word_in_normal_form_is_its_own_token(self):
        # a word built at run time is a str that no literal shares: the
        # token numbered for it is that very object, where an equal copy
        # from normalizing would hold the word twice
        encoder = _Encoder(partial(normalize_token, stemming=LIGHT))
        word = "".join(["wa", "lk"])
        encoder.add([word, "Walked", "Jumped", "jump"])
        walk, jump = encoder.tokens
        assert walk is word and (walk, jump) == ("walk", "jump")
        assert encoder.ids.tolist() == [0, 0, 1, 1]
        assert encoder == {"walk": 0, "Walked": 0, "Jumped": 1, "jump": 1}

    def test_label_tally_matches_counts(self, small_corpus):
        spam = sum(1 for d in small_corpus.documents if d.label is Label.SPAM)
        assert spam == small_corpus.n_spam
        assert len(small_corpus) == small_corpus.n_legit + small_corpus.n_spam


    def test_direct_corpus_tallies_its_unsorted_documents(self):
        # 20 spam then 60 legit, built without from_documents: no sorting,
        # and nothing to set the tallies but the labels
        names = [f"spmsg{i:02d}" for i in range(20)] + [f"msg{i:02d}" for i in range(60)]
        labels = bytes([Label.SPAM] * 20 + [Label.LEGITIMATE] * 60)
        token_ids = array("H", [i % 3 for i in range(120)])
        offsets = array("q", [*range(41), *range(42, 121, 2)])  # 40 of one token, 40 of two
        corpus = Corpus(tuple(names), labels, ("cash", "free", "word"), token_ids, offsets)
        assert [field.name for field in dataclasses.fields(Corpus)] == [
            "source_ids", "labels", "vocabulary", "token_ids", "offsets"
        ]
        assert (corpus.n_legit, corpus.n_spam) == (60, 20)
        assert corpus.n_spam == sum(1 for d in corpus.documents if d.label is Label.SPAM)
        assert [d.source_id for d in corpus.documents] == names
        assert corpus.documents[0].tokens == ("cash",)
        assert corpus.documents[79].tokens == ("free", "word")
        plan = make_stratified_folds(corpus, k_folds=10, seed=0)
        result = cross_validate(corpus, ClassifierConfig("always-legit"), 9.0, 3, plan)
        _, baseline_werr = baseline_metrics(60, 20, 9.0)
        assert result.baseline_werr == baseline_werr
        assert result.tcr == pytest.approx(1.0)


class TestFixtureCorpus:
    def test_same_seed_identical(self):
        a = generate_fixture_corpus(7, 90, 10)
        b = generate_fixture_corpus(7, 90, 10)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_fixture_corpus(7, 30, 5)
        b = generate_fixture_corpus(8, 30, 5)
        assert a != b

    def test_spam_only(self):
        corpus = generate_fixture_corpus(7, 0, 5)
        assert corpus.n_legit == 0 and corpus.n_spam == 5

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            generate_fixture_corpus(7, 0, 0)

    def test_persist_round_trip(self, tmp_path):
        corpus = generate_fixture_corpus(11, 25, 8)
        write_fixture_corpus(corpus, tmp_path)
        reloaded = load_corpus(tmp_path, layout="fixture", stemming=LIGHT)
        assert reloaded == corpus
        # and the same corpus reloads identically without stemming too,
        # because fixture words are normalization fixed points
        assert load_corpus(tmp_path, layout="fixture", stemming=PLAIN) == corpus

    def test_write_requires_same_convention(self, tmp_path):
        corpus = generate_fixture_corpus(3, 2, 2)
        write_fixture_corpus(corpus, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["msg0000.txt", "msg0001.txt", "spmsg0000.txt", "spmsg0001.txt"]
        labels = [d.label for d in load_corpus(tmp_path, layout="fixture").documents]
        assert labels == [Label.LEGITIMATE, Label.LEGITIMATE, Label.SPAM, Label.SPAM]

    @pytest.mark.parametrize("field, value, message", [
        ("vocab_size", 2, r"vocab_size must be in \[3, 17576\]"),
        ("vocab_size", 26**3 + 1, r"vocab_size must be in \[3, 17576\]"),
        ("shared_fraction", -0.1, r"shared_fraction must be in \[0, 1\)"),
        ("shared_fraction", 1.0, r"shared_fraction must be in \[0, 1\)"),
        ("overlap", -0.1, r"overlap must be in \[0, 1\]"),
        ("overlap", 1.1, r"overlap must be in \[0, 1\]"),
        ("doc_len_min", 0, "need 1 <= doc_len_min <= doc_len_max"),
        ("doc_len_max", 19, "need 1 <= doc_len_min <= doc_len_max"),  # below the default min 20
    ])
    def test_params_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FixtureParams(**{field: value})

    def test_params_at_the_range_edges_accepted(self):
        for edges in ({"vocab_size": 3, "shared_fraction": 0.0, "overlap": 0.0},
                      {"vocab_size": 26**3, "overlap": 1.0, "doc_len_min": 1, "doc_len_max": 1}):
            FixtureParams(**edges)

    def test_doc_lengths_respect_params(self):
        params = FixtureParams(doc_len_min=5, doc_len_max=9)
        corpus = generate_fixture_corpus(5, 20, 20, params)
        assert all(5 <= len(d.tokens) <= 9 for d in corpus.documents)

    def test_document_order_sorted_by_source_id(self, small_corpus):
        ids = [d.source_id for d in small_corpus.documents]
        assert ids == sorted(ids)


def assert_incidence_matches(inc, documents):
    """Set oracle: the sorted distinct tokens, and for each token's column,
    in ascending order, exactly the rows of the documents containing it."""
    rows_of = {}  # token -> rows of the documents whose token set holds it
    for r, d in enumerate(documents):
        for token in set(d.tokens):
            rows_of.setdefault(token, []).append(r)
    vocabulary = sorted(rows_of)
    assert list(inc.vocabulary) == vocabulary
    assert inc.labels.tolist() == [int(d.label) for d in documents]
    assert len(inc.indptr) == len(vocabulary) + 1
    assert inc.indptr[-1] == len(inc.indices)
    for t, token in enumerate(vocabulary):
        assert inc.indices[inc.indptr[t] : inc.indptr[t + 1]].tolist() == rows_of[token]


INCIDENCE_WORDS = ("ant", "bee", "cat", "dog", "eel", "fly")
# a loaded corpus shares one str object per token; an in-memory one may not
INCIDENCE_TOKENS = st.sampled_from(INCIDENCE_WORDS) | st.sampled_from(INCIDENCE_WORDS).map(
    lambda word: "".join(list(word))
)


class TestDocumentHelpers:
    def test_incidence_columns_match_tokens(self, small_corpus):
        assert_incidence_matches(small_corpus.incidence, small_corpus.documents)

    @given(
        st.lists(
            st.tuples(st.lists(INCIDENCE_TOKENS, max_size=8), st.booleans()),
            min_size=1,
            max_size=8,
        ),
        st.booleans(),
        st.integers(1, 9) | st.just(corpus_module._BLOCK),  # occurrences a block
    )
    @example([(["cat", "ant", "cat"], True)], False, 9)  # a single document
    @example([(["dog", "bee"], False), (["bee"], True)], True, 9)  # one repeated
    # equal tokens that are distinct str objects
    @example([(["cat", "".join(["c", "at"])], False), (["".join(["ca", "t"])], True)], False, 9)
    # first seen in reverse lexicographic order
    @example([(["fly", "eel"], False), (["dog", "cat", "bee", "ant"], True)], False, 9)
    # documents without tokens between non-empty ones
    @example([(["bee"], False), ([], True), ([], False), (["ant", "bee"], True)], False, 9)
    # a document longer than a block, its repeats on both sides of a block edge
    @example([(["cat", "ant", "cat", "ant", "cat"], True), (["ant"], False)], False, 2)
    # the same tokens in every block: the blocks' keys interleave
    @example([(["bee", "ant", "bee"], False)] * 4 + [([], True), (["ant", "ant"], True)], False, 3)
    def test_incidence_matches_set_oracle(self, drawn, repeat_first, block):
        docs = [
            Document(tuple(tokens), Label(spam), f"m{i}")
            for i, (tokens, spam) in enumerate(drawn)
        ]
        if repeat_first:
            docs.insert(len(docs) // 2 + 1, docs[0])
        with mock.patch.object(corpus_module, "_BLOCK", block):
            inc = Corpus.from_documents(docs).incidence
        assert_incidence_matches(inc, sorted(docs, key=lambda d: d.source_id))

    def test_incidence_over_many_blocks_matches_set_oracle(self):
        # a 60-word vocabulary, so every document repeats tokens and every
        # block shares its tokens with its neighbours
        params = FixtureParams(vocab_size=60, doc_len_min=40, doc_len_max=100)
        documents = generate_fixture_corpus(3, 600, 100, params).documents
        assert sum(len(d.tokens) for d in documents) > 2 * corpus_module._BLOCK
        assert_incidence_matches(Corpus.from_documents(documents).incidence, documents)

    def test_incidence_keys_widen_past_four_bytes(self):
        # 2**16 documents of one distinct token each: len(vocabulary) * n is
        # 2**32, one past what a uint32 key holds
        docs = [
            Document((f"w{i:05x}",), Label(i % 2), f"m{i:05x}") for i in range(2**16)
        ]
        inc = Corpus.from_documents(docs).incidence
        assert len(inc.vocabulary) * len(docs) == 2**32
        assert inc.indices.dtype == np.uint16
        assert_incidence_matches(inc, docs)

    def test_incidence_built_once_and_not_by_loading(self, tmp_path):
        write_fixture_corpus(generate_fixture_corpus(5, 12, 4), tmp_path)
        corpus = load_corpus(tmp_path, layout="fixture")
        assert "incidence" not in corpus.__dict__
        assert "rankings" not in corpus.__dict__
        assert (corpus.n_legit, corpus.n_spam) == (12, 4)
        assert "incidence" not in corpus.__dict__
        distinct = {t for d in corpus.documents for t in d.tokens}
        assert len(corpus.incidence.vocabulary) == len(distinct)
        assert "rankings" not in corpus.__dict__
        assert corpus.incidence is corpus.incidence

    def test_incidence_of_no_documents(self):
        inc = Corpus.from_documents([]).incidence
        assert inc.vocabulary == () and inc.indptr.tolist() == [0]
        assert len(inc.indices) == 0 and len(inc.labels) == 0

    # len(vocabulary) * n at and just past the largest uint8 and uint16 key,
    # and more documents than uint8 counts with no token at all
    @pytest.mark.parametrize(
        "n_tokens,n_docs", [(15, 17), (16, 16), (255, 257), (256, 256), (0, 300)]
    )
    def test_incidence_at_key_type_edges(self, n_tokens, n_docs):
        words = [f"w{j:03d}" for j in range(n_tokens)]
        docs = [
            Document(
                tuple(dict.fromkeys([words[-1 - i % n_tokens], words[3 * i % n_tokens]]))
                if words else (),
                Label(i % 2), f"m{i:03d}",
            )
            for i in range(n_docs)
        ]
        inc = Corpus.from_documents(docs).incidence
        assert inc.indptr.dtype == np.intp
        assert inc.indices.dtype == np.min_scalar_type(max(n_docs - 1, 0))
        assert inc.labels.dtype == np.uint8
        assert_incidence_matches(inc, docs)

    def test_incidence_rows_take_two_bytes_from_257_documents(self):
        corpus = generate_fixture_corpus(7, 200, 57)
        indices = corpus.incidence.indices
        assert len(corpus) == 257 and len(indices) > 0
        assert indices.nbytes == 2 * len(indices)

    def test_incidence_build_peaks_under_8_bytes_per_occurrence(self):
        # 100 to 300 tokens a message over a 2000-word vocabulary, as in
        # Ling-Spam: built from the corpus's ids, the keys (4 bytes, uint32
        # here) and one block's transients fit; 8-byte keys, or a second
        # occurrence-sized array beside the keys (even of 2-byte row
        # numbers), would not
        params = FixtureParams(vocab_size=2000, doc_len_min=100, doc_len_max=300)
        corpus = generate_fixture_corpus(7, 400, 100, params)
        occurrences = len(corpus.token_ids)
        assert occurrences >= 100_000 and "documents" not in corpus.__dict__
        _, _, peak = traced(lambda: Incidence.from_corpus(corpus))
        assert peak <= 8 * occurrences, peak / occurrences


class TestTokenIds:
    """A Corpus keeps every occurrence as a token id: encoded once, by
    from_documents and load_corpus alike, and decoded back on demand."""

    @given(st.lists(st.tuples(st.lists(INCIDENCE_TOKENS, max_size=8), st.booleans()), max_size=8))
    # first seen in reverse lexicographic order
    @example([(["fly", "eel"], False), (["dog", "cat", "bee", "ant"], True)])
    # documents without tokens between non-empty ones
    @example([(["bee"], False), ([], True), ([], False), (["ant", "bee"], True)])
    # equal tokens that are distinct str objects
    @example([(["cat", "".join(["c", "at"])], False), (["".join(["ca", "t"])], True)])
    def test_documents_round_trip_through_the_ids(self, drawn):
        docs = [
            Document(tuple(tokens), Label(spam), f"{'spmsg' if spam else 'msg'}{i}")
            for i, (tokens, spam) in enumerate(drawn)
        ]
        corpus = Corpus.from_documents(docs)
        ordered = sorted(docs, key=lambda d: d.source_id)
        assert corpus.documents == tuple(ordered)
        assert corpus.vocabulary == tuple(dict.fromkeys(t for d in ordered for t in d.tokens))
        assert Corpus.from_documents(corpus.documents) == corpus
        assert_incidence_matches(corpus.incidence, ordered)
        if docs:
            with tempfile.TemporaryDirectory() as root:
                write_fixture_corpus(corpus, root)
                assert load_corpus(root, layout="fixture", stemming=PLAIN) == corpus

    def test_ids_widen_past_65536_tokens(self):
        # 65,536 tokens fit 2-byte ids; the 65,537th, met in a later
        # document, widens the ids already stored to 4 bytes, values unchanged
        words = tuple(f"w{i:05x}" for i in range(2**16 + 1))
        fits = Corpus.from_documents([Document(words[:-1], Label.SPAM, "a")])
        wide = Corpus.from_documents([*fits.documents, Document(words[-2:], 0, "b")])
        assert (fits.token_ids.itemsize, wide.token_ids.itemsize) == (2, 4)
        assert wide.token_ids[: 2**16] == fits.token_ids
        assert wide.token_ids[2**16 :].tolist() == [2**16 - 1, 2**16]
        assert wide.documents[1].tokens == words[-2:] and wide.vocabulary == words
        assert_incidence_matches(wide.incidence, wide.documents)

    def test_loaded_corpus_keeps_under_5_bytes_per_occurrence(self, tmp_path):
        # 100 to 300 tokens a message over a 2000-word vocabulary: the ids
        # take 2 bytes an occurrence; a tuple of str per document would
        # take 8 for its pointers alone
        params = FixtureParams(vocab_size=2000, doc_len_min=100, doc_len_max=300)
        write_fixture_corpus(generate_fixture_corpus(7, 400, 100, params), tmp_path)
        corpus, kept, _ = traced(lambda: load_corpus(tmp_path, layout="fixture"))
        occurrences = len(corpus.token_ids)
        assert occurrences >= 100_000 and corpus.token_ids.itemsize == 2
        assert kept <= 5 * occurrences, kept / occurrences

    def test_load_holds_under_128_bytes_a_token_beside_what_it_keeps(self, tmp_path):
        # the same shape: beside the kept corpus, the load holds its word
        # dict and one message's words; a second str for every word
        # already in normal form (all of them here) would not fit
        params = FixtureParams(vocab_size=2000, doc_len_min=100, doc_len_max=300)
        write_fixture_corpus(generate_fixture_corpus(7, 400, 100, params), tmp_path)
        corpus, kept, peak = traced(lambda: load_corpus(tmp_path, layout="fixture"))
        size = len(corpus.vocabulary)
        assert size >= 1000 and peak - kept <= 128 * size, (peak - kept) / size
