"""Loading, tokenizing and normalizing labeled e-mail corpora.

Two on-disk layouts are supported, both the same directory convention:
any nesting of subdirectories, every regular file one message (paths
with a dot-prefixed component skipped), basename prefix ``spmsg``
(case-sensitive) marking spam.  A message's tokens are the words of its
whole lossily decoded text, without the header word when the text starts
with ``Subject:``: subject and body form one bag of words.
A deterministic synthetic fixture generator produces corpora in the same
shape for tests and demos that must run without the real Ling-Spam data.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .errors import CorpusError

_WORD_RE = re.compile(r"[A-Za-z]+")

# Light suffix stripping: longest applicable suffix first, repeated until no
# rule applies, never leaving a stem shorter than 3 characters.  A cheap,
# reproducible stand-in for a real lemmatizer.
_SUFFIXES = ("ing", "ed", "es", "ly", "s")
_MIN_STEM = 3


class Label(enum.IntEnum):
    """Message class; LEGITIMATE < SPAM gives the deterministic tie order."""

    LEGITIMATE = 0
    SPAM = 1

    def __str__(self) -> str:
        return "spam" if self is Label.SPAM else "legitimate"


@dataclass(frozen=True)
class NormalizerConfig:
    """Token normalization: stemming is "none" or "light".

    Tokens are always lowercased and never dropped.
    """

    stemming: str = "light"

    def __post_init__(self) -> None:
        if self.stemming not in ("none", "light"):
            raise ValueError(f"unknown stemming mode: {self.stemming!r}")


@dataclass(frozen=True)
class Document:
    """An ordered list of normalized tokens plus the gold label."""

    tokens: tuple[str, ...]
    label: Label
    source_id: str


@dataclass(frozen=True, eq=False)
class Incidence:
    """Which documents contain which tokens: a CSR document x token-id matrix.

    Token ids number ``vocabulary`` in lexicographic order, so id order is
    the attribute-ranking tie-break.  Document r contains exactly the token
    ids ``indices[indptr[r]:indptr[r + 1]]``, ascending; ``labels[r]`` is
    its Label.  Only presence is kept, never a dense document x vocabulary
    matrix.
    """

    vocabulary: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_documents(cls, documents: Sequence[Document]) -> "Incidence":
        vocabulary = tuple(sorted(set().union(*(d.tokens for d in documents))))
        index = {token: i for i, token in enumerate(vocabulary)}.__getitem__
        rows = [np.unique(np.fromiter(map(index, d.tokens), np.int32)) for d in documents]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)
        labels = np.fromiter((d.label for d in documents), np.uint8, len(documents))
        return cls(vocabulary, indptr, indices, labels)


@dataclass(frozen=True)
class Corpus:
    """Documents in deterministic order (sorted by source_id) plus label tallies."""

    documents: tuple[Document, ...]
    n_legit: int
    n_spam: int

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> "Corpus":
        docs = tuple(sorted(documents, key=lambda d: d.source_id))
        n_spam = sum(1 for d in docs if d.label is Label.SPAM)
        return cls(documents=docs, n_legit=len(docs) - n_spam, n_spam=n_spam)

    def __len__(self) -> int:
        return len(self.documents)

    @cached_property
    def incidence(self) -> Incidence:
        """Built on first use (cross-validation, stats), then kept."""
        return Incidence.from_documents(self.documents)


@dataclass(frozen=True)
class CorpusStats:
    n_legit: int
    n_spam: int
    spam_rate: float
    vocabulary_size: int


def tokenize(text: str) -> list[str]:
    """Maximal runs of ASCII letters, in order; everything else separates."""
    return _WORD_RE.findall(text)


def _strip_suffixes(token: str) -> str:
    while True:
        for suffix in _SUFFIXES:
            if token.endswith(suffix) and len(token) - len(suffix) >= _MIN_STEM:
                token = token[: -len(suffix)]
                break
        else:
            return token


def normalize_token(token: str, config: NormalizerConfig) -> str:
    """Lowercase one token, then strip suffixes under light stemming."""
    token = token.lower()
    if config.stemming == "light":
        token = _strip_suffixes(token)
    return token


def label_for_filename(name: str) -> Label:
    return Label.SPAM if name.startswith("spmsg") else Label.LEGITIMATE


LAYOUTS = ("lingspam", "fixture")


def load_corpus(
    directory: str | Path,
    layout: str = "lingspam",
    config: NormalizerConfig | None = None,
) -> Corpus:
    """Load every regular file under a corpus root, recursively.

    Both layouts share the directory convention; the id is validated only.
    A file is skipped when any component of its path relative to the root
    starts with "." (.DS_Store, .git/...); the root's own path may.
    Documents come back sorted by their path relative to the root.
    """
    if layout not in LAYOUTS:
        raise CorpusError(f"unknown corpus layout: {layout!r}")
    config = config or NormalizerConfig()
    root = Path(directory)
    if not root.is_dir():
        raise CorpusError(f"unreadable directory: {root}")

    documents = []
    for path in sorted(root.rglob("*")):
        relative = path.relative_to(root)
        if any(part.startswith(".") for part in relative.parts) or not path.is_file():
            continue
        source_id = relative.as_posix()
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise CorpusError(f"unreadable message file {source_id}: {exc}")
        text = raw.decode("utf-8", errors="replace")
        if not text:
            raise CorpusError(f"empty message: {source_id}")
        words = tokenize(text)[1 if text.startswith("Subject:") else 0 :]
        tokens = [normalize_token(word, config) for word in words]
        documents.append(Document(tuple(tokens), label_for_filename(path.name), source_id))
    if not documents:
        raise CorpusError(f"empty corpus: {root}")
    return Corpus.from_documents(documents)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    total = corpus.n_legit + corpus.n_spam
    return CorpusStats(
        n_legit=corpus.n_legit,
        n_spam=corpus.n_spam,
        spam_rate=corpus.n_spam / total if total else 0.0,
        vocabulary_size=len(corpus.incidence.vocabulary),
    )


@dataclass(frozen=True)
class FixtureParams:
    """Shape of the synthetic corpus.

    The vocabulary is split into a legit-typical pool, a shared pool and a
    spam-typical pool; ``overlap`` is the probability that a token is drawn
    from the shared pool instead of the class pool.  Within a pool, word
    probabilities fall off harmonically, so the two class distributions are
    skewed multinomials over the same vocabulary.
    """

    vocab_size: int = 120
    shared_fraction: float = 0.2
    overlap: float = 0.3
    doc_len_min: int = 20
    doc_len_max: int = 60

    def __post_init__(self) -> None:
        if not 3 <= self.vocab_size <= 26**3:
            raise ValueError("vocab_size must be in [3, 17576]")
        if not 0.0 <= self.shared_fraction < 1.0:
            raise ValueError("shared_fraction must be in [0, 1)")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must be in [0, 1]")
        if not 1 <= self.doc_len_min <= self.doc_len_max:
            raise ValueError("need 1 <= doc_len_min <= doc_len_max")


def _fixture_word(index: int) -> str:
    # Base-26 letters with a fixed final "o" so no stemming rule ever
    # applies; fixture tokens survive write + reload byte-identically.
    letters = []
    i = index
    for _ in range(3):
        letters.append(chr(ord("a") + i % 26))
        i //= 26
    return "".join(reversed(letters)) + "o"


def _fixture_pools(params: FixtureParams) -> tuple[list[str], list[str], list[str]]:
    words = [_fixture_word(i) for i in range(params.vocab_size)]
    n_shared = round(params.vocab_size * params.shared_fraction)
    n_class = (params.vocab_size - n_shared) // 2
    legit_pool = words[:n_class]
    shared_pool = words[n_class : n_class + n_shared]
    spam_pool = words[n_class + n_shared : n_class + n_shared + n_class]
    return legit_pool, shared_pool, spam_pool


def _harmonic_cum_weights(n: int) -> list[float]:
    # Accumulated once per pool: rng.choices(pool, weights) would rebuild
    # this list on every draw, and with cum_weights it draws the same words.
    return list(accumulate(1.0 / (rank + 1) for rank in range(n)))


def generate_fixture_corpus(
    seed: int,
    n_legit: int,
    n_spam: int,
    params: FixtureParams | None = None,
    out_dir: str | Path | None = None,
) -> Corpus:
    """Deterministic synthetic corpus; same seed, same corpus, byte for byte.

    With ``out_dir`` the corpus is also persisted in the standard directory
    convention (legit files ``msgNNNN.txt``, spam files ``spmsgNNNN.txt``)
    and reloading it reproduces the returned corpus exactly.
    """
    if n_legit < 0 or n_spam < 0 or n_legit + n_spam < 1:
        raise CorpusError("fixture corpus needs at least one document")
    params = params or FixtureParams()
    rng = Random(seed)
    legit_pool, shared_pool, spam_pool = _fixture_pools(params)

    shared_cum = _harmonic_cum_weights(len(shared_pool))
    documents = []
    for label, count, pool in (
        (Label.LEGITIMATE, n_legit, legit_pool),
        (Label.SPAM, n_spam, spam_pool),
    ):
        own = pool if pool else shared_pool
        own_cum = _harmonic_cum_weights(len(own))
        for i in range(count):
            length = rng.randint(params.doc_len_min, params.doc_len_max)
            tokens = []
            for _ in range(length):
                if shared_pool and rng.random() < params.overlap:
                    tokens.append(rng.choices(shared_pool, cum_weights=shared_cum)[0])
                else:
                    tokens.append(rng.choices(own, cum_weights=own_cum)[0])
            name = f"spmsg{i:04d}.txt" if label is Label.SPAM else f"msg{i:04d}.txt"
            documents.append(Document(tokens=tuple(tokens), label=label, source_id=name))

    corpus = Corpus.from_documents(documents)
    if out_dir is not None:
        write_fixture_corpus(corpus, out_dir)
    return corpus


def write_fixture_corpus(corpus: Corpus, out_dir: str | Path) -> None:
    """Persist a corpus in the standard layout, one file per document.

    The first tokens go on the Subject line and the rest into the body, so
    loading the files reproduces the document token list.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    for doc in corpus.documents:
        head = " ".join(doc.tokens[:3])
        rest = doc.tokens[3:]
        body_lines = [" ".join(rest[i : i + 12]) for i in range(0, len(rest), 12)]
        (root / doc.source_id).write_text(
            f"Subject: {head}\n\n" + "\n".join(body_lines) + "\n", encoding="ascii"
        )
