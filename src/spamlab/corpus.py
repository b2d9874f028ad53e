"""Loading, tokenizing and normalizing labeled e-mail corpora.

Two on-disk layouts are supported, both the same directory convention:
any nesting of subdirectories, every regular file one message (entries
whose name starts with "." skipped, symlinked directories not entered),
basename prefix ``spmsg`` (case-sensitive) marking spam.  A message's
tokens are the words of its whole lossily decoded text, without the header
word when the text starts with ``Subject:``: subject and body form one bag
of words.  Words are maximal runs of ASCII letters, found in the raw bytes:
lossy UTF-8 decoding turns every byte below 0x80 into itself, never into
part of a replacement character, and no other character is an ASCII
letter, so the bytes and their decoded text have the same words.
A deterministic synthetic fixture generator produces corpora in the same
shape for tests and demos that must run without the real Ling-Spam data.
"""

from __future__ import annotations

import enum
import os
import string
from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CorpusError

# Keeps the ASCII letters of a byte string and turns every other byte into
# a space.
_LETTERS_ONLY = bytes(c if chr(c) in string.ascii_letters else 0x20 for c in range(256))

# Light suffix stripping: longest applicable suffix first, repeated until no
# rule applies, never leaving a stem shorter than 3 characters.  A cheap,
# reproducible stand-in for a real lemmatizer.
_SUFFIXES = ("ing", "ed", "es", "ly", "s")
_MIN_STEM = 3

_BLOCK = 2**14  # token occurrences per block of the incidence build


class Label(enum.IntEnum):
    """Message class; LEGITIMATE < SPAM gives the deterministic tie order."""

    LEGITIMATE = 0
    SPAM = 1

    def __str__(self) -> str:
        return "spam" if self is Label.SPAM else "legitimate"


@dataclass(frozen=True)
class Document:
    """An ordered list of normalized tokens plus the gold label; a label of
    0 or 1 is stored as its Label, any other value raises ValueError."""

    tokens: tuple[str, ...]
    label: Label
    source_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", Label(self.label))


@dataclass(frozen=True, eq=False)
class Incidence:
    """Which documents contain which tokens: a CSC document x token-id matrix.

    Token id t occurs in exactly the document rows ``indices[indptr[t]:
    indptr[t + 1]]``, ascending, and ``labels[r]`` is row r's Label.  Built from
    a corpus, ids number ``vocabulary`` in lexicographic order, the ranking
    tie-break (in split_presence's training part, a fold's top m by rank), and
    rows take the narrowest unsigned type that holds n - 1 (2 bytes per
    document-token pair for 257 to 65,536 documents).  Only presence is kept,
    never a dense document x vocabulary matrix.  The build reads the corpus's
    token ids, with no dict, and holds one occurrence-sized array, of uint32
    keys (uint64 when len(vocabulary) * n needs it): blocks of whole documents,
    of at most _BLOCK occurrences unless one document is longer, are keyed,
    deduplicated and packed to its front, which is then sorted in place.
    """

    vocabulary: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "Incidence":
        n = max(len(corpus), 1)
        ids, bounds = np.asarray(corpus.token_ids), np.asarray(corpus.offsets)
        lengths = np.diff(bounds)
        order = sorted(range(len(corpus.vocabulary)), key=corpus.vocabulary.__getitem__)
        vocabulary = tuple(map(corpus.vocabulary.__getitem__, order))
        key = np.empty(len(ids), np.uint32 if len(order) * n <= 2**32 - 1 else np.uint64)
        scaled = np.argsort(order).astype(key.dtype) * n  # first-seen id -> lexicographic id * n
        del order
        # one key token * n + row per occurrence, token the lexicographic id,
        # distinct within each block of whole documents and packed to the
        # front: sorted, they list each token's rows in ascending order,
        # token after token
        kept = row = 0
        while row < len(corpus):  # the most whole documents in _BLOCK, one at least
            stop = max(np.searchsorted(bounds, bounds[row] + _BLOCK, "right") - 1, row + 1)
            block = scaled[ids[bounds[row] : bounds[stop]]]
            block += np.repeat(np.arange(row, stop, dtype=key.dtype), lengths[row:stop])
            block.sort()
            fresh = np.ones(len(block), bool)
            np.not_equal(block[1:], block[:-1], out=fresh[1:])
            block = block[fresh]
            key[kept : kept + len(block)] = block
            kept, row = kept + len(block), stop
        key = key[:kept]
        key.sort()
        indptr = np.searchsorted(key, np.arange(len(vocabulary) + 1, dtype=key.dtype) * n)
        key %= n
        labels = np.frombuffer(corpus.labels, np.uint8)
        return cls(vocabulary, indptr, key.astype(np.min_scalar_type(n - 1)), labels)


@dataclass(frozen=True)
class Corpus:
    """Documents as token ids, sorted by source_id when built by from_documents
    or load_corpus: document i is ``source_ids[i]``, labeled ``labels[i]``, with
    the tokens ``vocabulary[t]`` for t in ``token_ids[offsets[i] : offsets[i + 1]]``."""

    source_ids: tuple[str, ...]
    labels: bytes
    vocabulary: tuple[str, ...]
    token_ids: array
    offsets: array

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> "Corpus":
        documents = sorted(documents, key=lambda d: d.source_id)
        encoder = _Encoder(str)  # the tokens as they are
        for d in documents:
            encoder.add(d.tokens)
        labels = bytes(d.label for d in documents)
        source_ids = tuple(d.source_id for d in documents)
        return cls(source_ids, labels, tuple(encoder.tokens), encoder.ids, encoder.offsets)

    def __len__(self) -> int:
        return len(self.source_ids)

    @property
    def n_spam(self) -> int:
        return self.labels.count(Label.SPAM)

    @property
    def n_legit(self) -> int:
        return len(self) - self.n_spam

    @cached_property
    def documents(self) -> tuple[Document, ...]:
        """Decoded on first use, then kept; cross-validation never needs them."""
        tokens = tuple(map(self.vocabulary.__getitem__, self.token_ids))
        spans = zip(self.offsets, self.offsets[1:], self.labels, self.source_ids)
        return tuple(Document(tokens[a:b], label, source) for a, b, label, source in spans)

    @cached_property
    def incidence(self) -> Incidence:
        """Built on first use (cross-validation), then kept."""
        return Incidence.from_corpus(self)


def tokenize(text: str | bytes) -> list[str]:
    """Maximal runs of ASCII letters, in order; everything else separates.

    Text is matched through its UTF-8 bytes (lone surrogates included), in
    which every non-ASCII character is bytes 0x80 and above.
    """
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    return text.translate(_LETTERS_ONLY).decode("ascii").split()


def normalize_token(token: str, stemming: str) -> str:
    """Lowercase one token, then strip suffixes under light stemming; tokens
    are never dropped.  ValueError for a mode outside STEMMING."""
    if stemming not in STEMMING:
        raise ValueError(f"unknown stemming mode: {stemming!r}")
    token = token.lower()
    while stemming == "light":
        for suffix in _SUFFIXES:
            if token.endswith(suffix) and len(token) - len(suffix) >= _MIN_STEM:
                token = token[: -len(suffix)]
                break
        else:
            break
    return token


LAYOUTS = ("lingspam", "fixture")
STEMMING = ("none", "light")


class _Encoder(dict):
    """Word -> token id for one corpus, its documents added in order: each distinct word
    normalized once, on its first lookup (a word in normal form is its own token, stored once),
    and each token numbered on its first sight, into one flat id array, uint16 until needed."""

    def __init__(self, normalize: Callable[[str], str]) -> None:
        super().__init__()
        self.normalize, self.tokens = normalize, {}  # tokens: token -> id
        self.ids, self.offsets = array("H"), array("q", [0])

    def __missing__(self, word: str) -> int:
        token = word if (token := self.normalize(word)) == word else token
        token_id = self[word] = self.tokens.setdefault(token, len(self.tokens))
        return token_id

    def add(self, words: Sequence[str]) -> None:
        try:
            ids = np.fromiter(map(self.__getitem__, words), self.ids.typecode, len(words))
        except OverflowError:  # a 65,537th token: widen, and look the words up again
            self.ids = array("I", self.ids)
            ids = np.fromiter(map(self.__getitem__, words), self.ids.typecode, len(words))
        self.ids.frombytes(ids.view(np.uint8))
        self.offsets.append(len(self.ids))


def _message_files(root: Path) -> list[tuple[str, str]]:
    """(source_id, path) of every regular file under root, by source_id.

    One scandir per directory.  Entries whose name starts with "." are
    skipped, symlinked directories are not entered, and a symlinked file
    counts as its target; an entry whose kind cannot be read (a dangling or
    looping link) is no file, as for Path.is_file.  A directory that cannot
    be listed, root included, raises CorpusError instead of dropping its
    messages.
    """
    files = []
    pending = [("", root)]
    while pending:
        prefix, directory = pending.pop()
        try:
            with os.scandir(directory) as listing:
                entries = list(listing)
        except OSError as exc:
            raise CorpusError(f"unreadable directory: {prefix.rstrip('/') or root}: {exc.strerror}")
        for entry in entries:
            if entry.name.startswith("."):
                continue
            source_id = prefix + entry.name
            try:
                if entry.is_file():
                    files.append((source_id, entry.path))
                elif entry.is_dir(follow_symlinks=False):
                    pending.append((source_id + "/", entry.path))
            except OSError:
                pass
    return sorted(files)


def load_corpus(
    directory: str | Path,
    layout: str = "lingspam",
    stemming: str = "light",
) -> Corpus:
    """Load every regular file under a corpus root, recursively.

    Both layouts share the directory convention; the id is validated only.
    An entry whose name starts with "." (.DS_Store, .git/) is skipped; the
    root's own path may have such components.  Documents come back sorted
    by their path relative to the root, and files are read in that order.
    Each file is tokenized from its raw bytes, which gives the words of its
    lossily decoded text without decoding it (see the module docstring).
    CorpusError names the first unlistable directory, unreadable file or
    empty message, or an empty corpus; an unknown layout or stemming mode
    fails before anything is read.
    """
    if layout not in LAYOUTS:
        raise CorpusError(f"unknown corpus layout: {layout!r}")
    normalize_token("", stemming)  # validates the mode
    root = Path(directory)
    source_ids = []
    encoder = _Encoder(partial(normalize_token, stemming=stemming))
    for source_id, path in _message_files(root):
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise CorpusError(f"unreadable message file {source_id}: {exc}")
        if not raw:
            raise CorpusError(f"empty message: {source_id}")
        encoder.add(tokenize(raw)[1 if raw.startswith(b"Subject:") else 0 :])
        source_ids.append(source_id)
    if not source_ids:
        raise CorpusError(f"empty corpus: {root}")
    labels = bytes(s.rpartition("/")[2].startswith("spmsg") for s in source_ids)
    return Corpus(tuple(source_ids), labels, tuple(encoder.tokens), encoder.ids, encoder.offsets)


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


def _harmonic_cum_weights(n: int) -> list[float]:
    # Accumulated once per pool: rng.choices(pool, weights) would rebuild
    # this list on every draw, and with cum_weights it draws the same words.
    return list(accumulate(1.0 / (rank + 1) for rank in range(n)))


def generate_fixture_corpus(
    seed: int,
    n_legit: int,
    n_spam: int,
    params: FixtureParams | None = None,
) -> Corpus:
    """Deterministic synthetic corpus; same seed, same corpus, byte for byte.
    Legit documents are named ``msgNNNN.txt``, spam ``spmsgNNNN.txt``."""
    if n_legit < 0 or n_spam < 0 or n_legit + n_spam < 1:
        raise CorpusError("fixture corpus needs at least one document")
    params = params or FixtureParams()
    rng = Random(seed)
    # base-26 letters with a fixed final "o", so no stemming rule ever
    # applies: fixture tokens survive write + reload byte-identically
    words = [
        "".join(chr(ord("a") + i // 26**place % 26) for place in (2, 1, 0)) + "o"
        for i in range(params.vocab_size)
    ]
    n_shared = round(params.vocab_size * params.shared_fraction)
    n_class = (params.vocab_size - n_shared) // 2
    legit_pool = words[:n_class]
    shared_pool = words[n_class : n_class + n_shared]
    spam_pool = words[n_class + n_shared : n_class + n_shared + n_class]

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

    return Corpus.from_documents(documents)


def write_fixture_corpus(corpus: Corpus, out_dir: str | Path) -> None:
    """Persist a corpus in the standard layout, one file per document.

    The first tokens go on the Subject line and the rest into the body, so
    loading the files reproduces the document token list; reloading a
    fixture corpus reproduces it exactly, under either stemming mode.
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
