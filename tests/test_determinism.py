"""Result bytes and nb log odds do not depend on the process environment.

Each case runs the four ``hard-*`` golden commands in one child process
under one setting and compares the result files with the goldens.  The
child also writes the nb log odds of a seeded fixture fold, which must
equal this process's bytes: the logs come from ``math``, not from numpy's
SIMD-dispatched ufuncs, so the hash seed and the CPU's dispatch level
change no bit of them.  It prints a digest of the loaded corpus's
vocabulary and token ids too, which must equal this process's: tokens are
numbered by first sight, never in a hash order.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import spamlab
from conftest import fold_members, top_features
from spamlab import load_corpus, make_stratified_folds, train_naive_bayes
from spamlab.bayes import _log_odds
from test_golden import GOLDEN_DIR, RUNS, render, write_corpus

SETTINGS = {
    "hash-seed-0": {"PYTHONHASHSEED": "0"},
    "hash-seed-1": {"PYTHONHASHSEED": "1"},
    "x86-v4-off": {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
    "x86-v3-v4-off": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"},
}
SETTINGS_KEYS = {key for setting in SETTINGS.values() for key in setting}


def fold_log_odds(parent: Path) -> bytes:
    """nb log odds of fold 0 of the hard fixture, m = 10..110 step 20,
    trained on the other folds over the top 110 attributes."""
    corpus = load_corpus(parent / "hard", layout="fixture")
    attrs = top_features(corpus, 110)
    test = fold_members(make_stratified_folds(corpus, seed=0), 0)
    train = np.ones(len(corpus), bool)
    train[test] = False
    model = train_naive_bayes(attrs.x[train], attrs.y[train])
    return _log_odds(model, attrs.x[test], tuple(range(10, 111, 20))).tobytes()


def corpus_digest(parent: Path) -> str:
    """sha256 of the hard fixture's vocabulary and token id bytes, as loaded."""
    corpus = load_corpus(parent / "hard", layout="fixture")
    digest = hashlib.sha256("\n".join(corpus.vocabulary).encode())
    digest.update(corpus.token_ids.tobytes())
    return digest.hexdigest()


def child(parent: str, out: str) -> None:
    """The child process: the hard golden runs, the fold's log odds and the
    corpus digest."""
    for run in RUNS:
        render(Path(parent), "hard", run, Path(out) / f"hard-{run}.csv")
    (Path(out) / "log-odds.bin").write_bytes(fold_log_odds(Path(parent)))
    report = {level: __cpu_features__.get(level) for level in ("X86_V3", "X86_V4")}
    print(json.dumps({**report, "corpus": corpus_digest(Path(parent))}))


@pytest.fixture(scope="module")
def corpus_parent(tmp_path_factory):
    parent = tmp_path_factory.mktemp("determinism")
    write_corpus(parent, "hard")
    return parent


@pytest.mark.parametrize("setting", SETTINGS.values(), ids=SETTINGS.keys())
def test_goldens_and_log_odds_hold_across_settings(corpus_parent, tmp_path, setting):
    levels = setting.get("NPY_DISABLE_CPU_FEATURES", "").split()
    if not all(__cpu_features__.get(level) for level in levels):
        pytest.skip(f"the host lacks a dispatch level of {levels} to turn off")
    env = {k: v for k, v in os.environ.items() if k not in SETTINGS_KEYS}
    tests, src = Path(__file__).parent, Path(spamlab.__file__).parents[1]
    env["PYTHONPATH"] = os.pathsep.join([str(tests), str(src)])
    code = "import sys; from test_determinism import child; child(*sys.argv[1:])"
    run = subprocess.run(
        [sys.executable, "-c", code, str(corpus_parent), str(tmp_path)],
        env={**env, **setting}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    dispatch = json.loads(run.stdout.splitlines()[-1])
    assert not any(dispatch[level] for level in levels)
    for name in RUNS:
        result = f"hard-{name}.csv"
        assert (tmp_path / result).read_bytes() == (GOLDEN_DIR / result).read_bytes(), result
    assert (tmp_path / "log-odds.bin").read_bytes() == fold_log_odds(corpus_parent)
    assert dispatch["corpus"] == corpus_digest(corpus_parent)
