"""The benchmark's generator gives the library generator's corpus."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import corpusgen  # noqa: E402
from spamlab import Corpus, Document, FixtureParams, Label, generate_fixture_corpus, load_corpus  # noqa: E402
from spamlab.corpus import write_fixture_corpus  # noqa: E402

HARD = corpusgen.Params(
    n_legit=200, n_spam=40, vocab_size=120, shared_fraction=0.5, overlap=0.85,
    doc_len_min=20, doc_len_max=60,
)
FULL_SLICE = replace(corpusgen.LINGSPAM_SHAPE, n_legit=30, n_spam=6)


def _as_corpus(messages) -> Corpus:
    return Corpus.from_documents(
        Document(tokens=tokens, label=Label.SPAM if spam else Label.LEGITIMATE, source_id=name)
        for name, spam, tokens in messages
    )


def _library(seed: int, params: corpusgen.Params) -> Corpus:
    fixture = FixtureParams(
        vocab_size=params.vocab_size,
        shared_fraction=params.shared_fraction,
        overlap=params.overlap,
        doc_len_min=params.doc_len_min,
        doc_len_max=params.doc_len_max,
    )
    return generate_fixture_corpus(seed, params.n_legit, params.n_spam, fixture)


@pytest.mark.parametrize("seed, params", [(7, HARD), (3, HARD), (7, FULL_SLICE)])
def test_same_corpus_as_library(seed, params):
    assert _as_corpus(corpusgen.generate(seed, params)) == _library(seed, params)


def test_written_files_match_library_writer_and_reload(tmp_path):
    messages = corpusgen.generate(7, HARD)
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    corpusgen.write(messages, ours)
    write_fixture_corpus(_as_corpus(messages), theirs)
    names = sorted(p.name for p in theirs.iterdir())
    assert sorted(p.name for p in ours.iterdir()) == names
    assert all((ours / n).read_bytes() == (theirs / n).read_bytes() for n in names)
    assert load_corpus(ours, layout="fixture") == _as_corpus(messages)
    assert corpusgen.read_all(ours) == sum((ours / n).stat().st_size for n in names)


def test_digest_depends_on_seed(tmp_path):
    first = corpusgen.write(corpusgen.generate(1, HARD), tmp_path / "a")
    again = corpusgen.write(corpusgen.generate(1, HARD), tmp_path / "b")
    other = corpusgen.write(corpusgen.generate(2, HARD), tmp_path / "c")
    assert first == again != other
