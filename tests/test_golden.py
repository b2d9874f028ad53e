"""Result files pinned byte for byte against committed goldens.

Results must stay identical across commits unless a change announces a
format change.  Each case writes a fixture corpus with ``spamlab fixture``
and runs the CLI from the corpus's parent directory with a relative
``--corpus``, so the ``# config`` echo does not depend on where it runs.

After an announced format change, rewrite the goldens with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from spamlab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

HARD = ["--shared-fraction", "0.5", "--overlap", "0.85"]  # conftest.HARD_PARAMS

# corpus name -> (fixture flags, evaluate --m, sweep --m-range); the m
# values stay below the fewest distinct tokens of any training fold
# (119 for "hard", 298 for "large").
CORPORA = {
    "hard": (["--n-legit", "200", "--n-spam", "40", *HARD], "50", "10:110:20"),
    "large": (
        ["--n-legit", "900", "--n-spam", "180", "--vocab-size", "300", *HARD],
        "150",
        "25:275:25",
    ),
}

RUNS = {
    "evaluate-nb-lambda9": ["evaluate", "--classifier", "nb", "--lambda", "9"],
    "evaluate-mb-k2": ["evaluate", "--classifier", "mb", "--k", "2"],
    "sweep-nb-lambda999": ["sweep", "--classifier", "nb", "--lambda", "999"],
    "sweep-mb-k1": ["sweep", "--classifier", "mb", "--k", "1"],
}

CASES = [(corpus, run) for corpus in CORPORA for run in RUNS]


def write_corpus(parent: Path, corpus: str) -> None:
    flags = CORPORA[corpus][0]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["fixture", "--out", str(parent / corpus), "--seed", "7", *flags])
    assert code == 0


def render(parent: Path, corpus: str, run: str, out: Path) -> None:
    """Run one case with ``parent`` as the working directory."""
    _, m, m_range = CORPORA[corpus]
    argv = RUNS[run] + ["--corpus", corpus, "--layout", "fixture", "--out", str(out)]
    argv += ["--m", m] if argv[0] == "evaluate" else ["--m-range", m_range]
    previous = os.getcwd()
    os.chdir(parent)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(previous)
    assert code == 0


@pytest.fixture(scope="module")
def corpus_parent(tmp_path_factory):
    parent = tmp_path_factory.mktemp("golden")
    for corpus in CORPORA:
        write_corpus(parent, corpus)
    return parent


@pytest.mark.parametrize("corpus,run", CASES)
def test_result_file_matches_golden(corpus_parent, tmp_path, corpus, run):
    out = tmp_path / "result.csv"
    render(corpus_parent, corpus, run, out)
    assert out.read_bytes() == (GOLDEN_DIR / f"{corpus}-{run}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        parent = Path(scratch)
        for corpus in CORPORA:
            write_corpus(parent, corpus)
        for corpus, run in CASES:
            render(parent, corpus, run, GOLDEN_DIR / f"{corpus}-{run}.csv")
            print(f"wrote {corpus}-{run}.csv", file=sys.stderr)
