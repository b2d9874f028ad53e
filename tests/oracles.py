"""Independent brute-force reference implementations used to pin expected
values.  These deliberately avoid the library's code paths: a subject/body
split of message text instead of tokenizing the whole text, exact rational
probabilities instead of float ratios, per-token set membership instead of
the incidence matrix, plain probability products (or,
for the mirrored legitimate posterior, scalar per-term logs) instead of
vectorized log space, and sort-based neighborhood construction instead of
the cutoff mask.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_WORD = re.compile(r"[a-zA-Z]+")


def subject_body_words(text: str) -> list[str]:
    """Words of a message file under the subject/body rule.

    The head runs up to the first whitespace-only line.  When it starts with
    "Subject:", the rest of the head is the subject and the text after that
    line the body; otherwise the whole text is the body.  Words are the
    maximal runs of ASCII letters in subject + " " + body.
    """
    lines = text.split("\n")
    blank = next((i for i, line in enumerate(lines) if not line.strip()), len(lines))
    head = "\n".join(lines[:blank])
    if head.startswith("Subject:"):
        subject = head[len("Subject:"):].strip()
        body = "\n".join(lines[blank + 1:])
    else:
        subject, body = "", text
    return _WORD.findall(subject + " " + body)


def mi_direct(n1_spam: int, n1_legit: int, n_spam: int, n_legit: int) -> float:
    """Direct four-term summation with exact rational probabilities."""
    n = n_spam + n_legit
    n1 = n1_spam + n1_legit
    total = 0.0
    cells = [
        (n1_spam, n1, n_spam),
        (n1_legit, n1, n_legit),
        (n_spam - n1_spam, n - n1, n_spam),
        (n_legit - n1_legit, n - n1, n_legit),
    ]
    for joint_count, x_count, c_count in cells:
        if joint_count == 0:
            continue
        p_joint = Fraction(joint_count, n)
        ratio = p_joint / (Fraction(x_count, n) * Fraction(c_count, n))
        total += float(p_joint) * math.log2(float(ratio))
    return total


def ranking_direct(
    train: list[tuple[tuple[str, ...], bool]]
) -> list[tuple[str, float]]:
    """(token, MI) for every token of the training documents, best first.

    train holds (tokens, is_spam) per document.  Per-token class counts come
    from plain set membership, scores from mi_direct, and the order from a
    sort on (-mi, token).
    """
    present = [(set(tokens), is_spam) for tokens, is_spam in train]
    n_spam = sum(1 for _, is_spam in present if is_spam)
    n_legit = len(present) - n_spam
    scored = []
    for token in set().union(*(tokens for tokens, _ in present)):
        n1_spam = sum(1 for tokens, is_spam in present if is_spam and token in tokens)
        n1_legit = sum(1 for tokens, is_spam in present if not is_spam and token in tokens)
        scored.append((-mi_direct(n1_spam, n1_legit, n_spam, n_legit), token))
    return [(token, -neg_mi) for neg_mi, token in sorted(scored)]


def posterior_spam_direct(
    prior_spam: float,
    prior_legit: float,
    p1_spam: list[float],
    p1_legit: list[float],
    bits: list[int],
) -> float:
    """Raw probability products, no logs; safe for small m only."""
    joint_spam = prior_spam
    joint_legit = prior_legit
    for x, ps, pl in zip(bits, p1_spam, p1_legit):
        joint_spam *= ps if x else 1.0 - ps
        joint_legit *= pl if x else 1.0 - pl
    return joint_spam / (joint_spam + joint_legit)


def posterior_legit_direct(
    prior_spam: float,
    prior_legit: float,
    p1_spam: list[float],
    p1_legit: list[float],
    bits: list[int],
) -> float:
    """Mirrored log-space normalization: 1 / (1 + exp(L_spam - L_legit)).

    Sums scalar per-term logs; conditionals must lie strictly inside (0, 1)
    and m must be small enough that the log-joint gap stays below ~700.
    """
    log_spam = math.log(prior_spam)
    log_legit = math.log(prior_legit)
    for x, ps, pl in zip(bits, p1_spam, p1_legit):
        log_spam += math.log(ps if x else 1.0 - ps)
        log_legit += math.log(pl if x else 1.0 - pl)
    return 1.0 / (1.0 + math.exp(log_spam - log_legit))


def neighborhood_direct(
    vectors: list[list[int]], labels: list[int], query: list[int], k: int
) -> tuple[list[tuple[int, int]], set[int]]:
    """All-pairs distances, sorted, first k distinct values kept.

    Returns (members as (distance, label) sorted by (distance, index),
    distinct distance values).
    """
    scored = []
    for index, (vector, label) in enumerate(zip(vectors, labels)):
        distance = sum(1 for a, b in zip(vector, query) if a != b)
        scored.append((distance, index, label))
    scored.sort()
    kept = sorted({distance for distance, _, _ in scored})[:k]
    kept_set = set(kept)
    members = [(d, label) for d, _, label in scored if d in kept_set]
    return members, kept_set
