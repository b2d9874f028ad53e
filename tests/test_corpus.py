from __future__ import annotations

import random

import pytest

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
    parse_message,
    tokenize,
)
from spamlab.corpus import (
    Corpus,
    document_from_message,
    label_for_filename,
    normalize_tokens,
    write_fixture_corpus,
)

LIGHT = NormalizerConfig(stemming="light")
PLAIN = NormalizerConfig(stemming="none")


class TestParseMessage:
    def test_subject_and_body(self):
        msg = parse_message(b"Subject: hello\n\nworld")
        assert msg.subject == "hello"
        assert msg.body == "world"

    def test_no_header_whole_text_is_body(self):
        msg = parse_message(b"no header at all")
        assert msg.subject == ""
        assert msg.body == "no header at all"

    def test_only_first_blank_line_splits(self):
        msg = parse_message(b"Subject: A\n\nB\n\nC")
        assert msg.subject == "A"
        assert msg.body == "B\n\nC"

    def test_blank_line_without_subject_keeps_whole_text(self):
        msg = parse_message(b"hello\n\nworld")
        assert msg.subject == ""
        assert msg.body == "hello\n\nworld"

    def test_subject_without_body(self):
        msg = parse_message(b"Subject: hi")
        assert msg.subject == "hi"
        assert msg.body == ""

    def test_empty_message_rejected(self):
        with pytest.raises(CorpusError, match="empty message"):
            parse_message(b"")

    def test_invalid_bytes_decoded_lossily(self):
        msg = parse_message(b"Subject: ok\n\nbad \xff\xfe bytes")
        assert "bad" in msg.body and "bytes" in msg.body


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
        msg = parse_message(text.encode())
        expected = normalize_tokens(tokenize(msg.subject + " " + msg.body), LIGHT)
        assert list(doc.tokens) == expected

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
        assert stats.vocabulary_size == len(small_corpus.vocabulary())


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
    def test_document_from_message_concatenates_subject_and_body(self):
        msg = parse_message(b"Subject: Free Cash\n\nearn money now")
        doc = document_from_message(msg, Label.SPAM, LIGHT)
        assert doc.tokens == ("free", "cash", "earn", "money", "now")

    def test_token_set_matches_tokens(self, small_corpus):
        for doc in small_corpus.documents[:10]:
            assert doc.token_set == frozenset(doc.tokens)
