from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import subject_body_words

from spamlab import (
    CorpusError,
    Document,
    FixtureParams,
    Label,
    NormalizerConfig,
    corpus_stats,
    generate_fixture_corpus,
    load_corpus,
    normalize_token,
    tokenize,
)
from spamlab.corpus import Corpus, label_for_filename, write_fixture_corpus

LIGHT = NormalizerConfig(stemming="light")
PLAIN = NormalizerConfig(stemming="none")


class TestParseMessage:
    """One message file's bytes to its document tokens, through load_corpus."""

    @staticmethod
    def _tokens(tmp_path, raw: bytes) -> tuple[str, ...]:
        (tmp_path / "msg1.txt").write_bytes(raw)
        return load_corpus(tmp_path, config=PLAIN).documents[0].tokens

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
            for config in (LIGHT, PLAIN):
                tokens = load_corpus(root, config=config).documents[0].tokens
                assert list(tokens) == [normalize_token(w, config) for w in words]


class TestTokenize:
    def test_digits_and_punctuation_separate(self):
        assert tokenize("Be over 21!") == ["Be", "over"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphen_separates(self):
        assert tokenize("e-mail filter") == ["e", "mail", "filter"]


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
        with pytest.raises(CorpusError, match="unreadable directory"):
            load_corpus(tmp_path / "nope")

    def test_unknown_layout_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="layout"):
            load_corpus(tmp_path, layout="mbox")

    def test_empty_file_names_the_culprit(self, tmp_path):
        self._write(tmp_path, "msg1.txt", "")
        with pytest.raises(CorpusError, match="empty message: msg1.txt"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("name,text", [
        (".DS_Store", ""),
        (".notes", "Subject: x\n\nnot a message"),
        (".git/msg2.txt", "Subject: y\n\nnor this"),
    ])
    def test_dot_paths_skipped(self, tmp_path, name, text):
        # the root itself sits under a dot-directory, which must not count
        root = tmp_path / ".work" / "corpus"
        self._write(root, "msg1.txt", "Subject: a\n\nhello")
        self._write(root, name, text)
        corpus = load_corpus(root)
        assert [d.source_id for d in corpus.documents] == ["msg1.txt"]

    def test_deterministic_reload(self, tmp_path):
        self._write(tmp_path, "msg1.txt", "Subject: a\n\nSome Earnings Here")
        self._write(tmp_path, "spmsg1.txt", "Subject: b\n\nBuy Now")
        assert load_corpus(tmp_path) == load_corpus(tmp_path)

    def test_tokens_match_normalize_of_tokenize(self, tmp_path):
        text = "Subject: Earnings Report\n\nThe flies were flying; 21 e-mails."
        self._write(tmp_path, "msg1.txt", text)
        self._write(tmp_path, "spmsg1.txt", "Subject: x\n\ny")
        corpus = load_corpus(tmp_path, config=LIGHT)
        doc = corpus.documents[0]
        expected = [normalize_token(t, LIGHT) for t in tokenize(text)[1:]]
        assert list(doc.tokens) == expected == [
            "earn", "report", "the", "fli", "were", "fly", "e", "mail",
        ]

    def test_label_tally_matches_counts(self, small_corpus):
        spam = sum(1 for d in small_corpus.documents if d.label is Label.SPAM)
        assert spam == small_corpus.n_spam
        assert len(small_corpus) == small_corpus.n_legit + small_corpus.n_spam


class TestCorpusStats:
    @staticmethod
    def _corpus(n_legit, n_spam):
        docs = [
            Document(("word",), Label.LEGITIMATE, f"msg{i:05d}") for i in range(n_legit)
        ] + [
            Document(("word",), Label.SPAM, f"spmsg{i:05d}") for i in range(n_spam)
        ]
        return Corpus.from_documents(docs)

    def test_lingspam_composition_rate(self):
        stats = corpus_stats(self._corpus(2412, 481))
        assert stats.spam_rate == pytest.approx(0.166263, abs=1e-6)
        assert f"{stats.spam_rate * 100:.1f}%" == "16.6%"

    def test_no_spam(self):
        assert corpus_stats(self._corpus(1, 0)).spam_rate == 0.0

    def test_quarter(self):
        assert corpus_stats(self._corpus(3, 1)).spam_rate == 0.25

    def test_vocabulary_size(self, small_corpus):
        stats = corpus_stats(small_corpus)
        distinct = {t for d in small_corpus.documents for t in d.tokens}
        assert stats.vocabulary_size == len(distinct)


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
        corpus = generate_fixture_corpus(11, 25, 8, out_dir=tmp_path)
        reloaded = load_corpus(tmp_path, layout="fixture", config=LIGHT)
        assert reloaded == corpus
        # and the same corpus reloads identically without stemming too,
        # because fixture words are normalization fixed points
        assert load_corpus(tmp_path, layout="fixture", config=PLAIN) == corpus

    def test_write_requires_same_convention(self, tmp_path):
        corpus = generate_fixture_corpus(3, 2, 2)
        write_fixture_corpus(corpus, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["msg0000.txt", "msg0001.txt", "spmsg0000.txt", "spmsg0001.txt"]
        assert label_for_filename("spmsg0000.txt") is Label.SPAM

    def test_doc_lengths_respect_params(self):
        params = FixtureParams(doc_len_min=5, doc_len_max=9)
        corpus = generate_fixture_corpus(5, 20, 20, params)
        assert all(5 <= len(d.tokens) <= 9 for d in corpus.documents)

    def test_document_order_sorted_by_source_id(self, small_corpus):
        ids = [d.source_id for d in small_corpus.documents]
        assert ids == sorted(ids)


class TestDocumentHelpers:
    def test_incidence_rows_match_tokens(self, small_corpus):
        inc = small_corpus.incidence
        assert list(inc.vocabulary) == sorted(set(inc.vocabulary))
        assert inc.labels.tolist() == [int(d.label) for d in small_corpus.documents]
        for r, doc in enumerate(small_corpus.documents):
            ids = inc.indices[inc.indptr[r] : inc.indptr[r + 1]].tolist()
            assert ids == sorted(set(ids))
            assert {inc.vocabulary[i] for i in ids} == set(doc.tokens)

    def test_incidence_built_once_and_not_by_loading(self, tmp_path):
        generate_fixture_corpus(5, 12, 4, out_dir=tmp_path)
        corpus = load_corpus(tmp_path, layout="fixture")
        assert "incidence" not in corpus.__dict__
        assert corpus.incidence is corpus.incidence

    def test_incidence_of_no_documents(self):
        inc = Corpus.from_documents([]).incidence
        assert inc.vocabulary == () and inc.indptr.tolist() == [0]
        assert len(inc.indices) == 0 and len(inc.labels) == 0
