"""Seeded Ling-Spam-shaped corpus for the benchmark, written to disk.

This is the draw of ``spamlab.corpus.generate_fixture_corpus`` with the
cumulative weights computed once per pool instead of once per token, so a
full-size corpus takes about a second instead of minutes.  It imports
nothing from the library on purpose: the benchmark's inputs must not
change when the library does.  ``benchmarks/tests`` checks that both
generators give the same corpus.
"""

from __future__ import annotations

import hashlib
import os
from bisect import bisect
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path
from random import Random


@dataclass(frozen=True)
class Params:
    """The fields of ``spamlab.FixtureParams`` plus the class sizes."""

    n_legit: int = 2412
    n_spam: int = 481
    vocab_size: int = 17576
    shared_fraction: float = 0.8
    overlap: float = 0.98
    doc_len_min: int = 100
    doc_len_max: int = 600

    def as_dict(self) -> dict:
        return asdict(self)


# Ling-Spam's class sizes and message lengths.  overlap and shared_fraction
# are set so that the filters make mistakes (finite TCR at every lambda the
# battery uses) and mb with k=10 collapses to TCR about 1, as on Ling-Spam.
LINGSPAM_SHAPE = Params()


def _word(index: int) -> str:
    letters = []
    for _ in range(3):
        letters.append(chr(ord("a") + index % 26))
        index //= 26
    return "".join(reversed(letters)) + "o"


def _pools(params: Params) -> tuple[list[str], list[str], list[str]]:
    words = [_word(i) for i in range(params.vocab_size)]
    n_shared = round(params.vocab_size * params.shared_fraction)
    n_class = (params.vocab_size - n_shared) // 2
    return (
        words[:n_class],
        words[n_class : n_class + n_shared],
        words[n_class + n_shared : n_class + n_shared + n_class],
    )


def _sampler(rng: Random, pool: list[str]):
    """``lambda: rng.choices(pool, weights)[0]`` with harmonic weights.

    This is the draw ``Random.choices`` makes, with the cumulative weights
    built once instead of on every call.
    """
    cum = list(accumulate(1.0 / (rank + 1) for rank in range(len(pool))))
    total, hi, random = cum[-1] + 0.0, len(pool) - 1, rng.random
    return lambda: pool[bisect(cum, random() * total, 0, hi)]


def generate(seed: int, params: Params) -> list[tuple[str, bool, tuple[str, ...]]]:
    """(file name, is_spam, tokens) per message, sorted by file name."""
    rng = Random(seed)
    legit_pool, shared_pool, spam_pool = _pools(params)
    shared = _sampler(rng, shared_pool) if shared_pool else None
    messages = []
    for is_spam, count, pool in (
        (False, params.n_legit, legit_pool),
        (True, params.n_spam, spam_pool),
    ):
        own = _sampler(rng, pool if pool else shared_pool)
        for i in range(count):
            length = rng.randint(params.doc_len_min, params.doc_len_max)
            tokens = []
            for _ in range(length):
                if shared and rng.random() < params.overlap:
                    tokens.append(shared())
                else:
                    tokens.append(own())
            name = f"spmsg{i:04d}.txt" if is_spam else f"msg{i:04d}.txt"
            messages.append((name, is_spam, tuple(tokens)))
    messages.sort(key=lambda message: message[0])
    return messages


def render(tokens: tuple[str, ...]) -> str:
    """File text in the layout of ``spamlab.corpus.write_fixture_corpus``."""
    rest = tokens[3:]
    body = [" ".join(rest[i : i + 12]) for i in range(0, len(rest), 12)]
    return f"Subject: {' '.join(tokens[:3])}\n\n" + "\n".join(body) + "\n"


def write(messages, out_dir: Path) -> str:
    """Write one file per message into an empty directory; sha256 of the bytes."""
    out_dir.mkdir(parents=True)
    digest = hashlib.sha256()
    for name, _, tokens in messages:
        data = render(tokens).encode("ascii")
        (out_dir / name).write_bytes(data)
        digest.update(name.encode("ascii") + b"\0" + data)
    return digest.hexdigest()


def read_all(directory: Path) -> int:
    """Read every file once so that timed loads find them in the page cache."""
    total = 0
    for entry in os.scandir(directory):
        with open(entry.path, "rb") as handle:
            total += len(handle.read())
    return total
