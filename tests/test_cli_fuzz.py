"""Random command lines and damaged result files against the CLI.

Every run must end in a documented exit code (0, 2 or 3) and, when it
fails, say so in one ``error:`` line; an uncaught exception fails the test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from spamlab import AggregateResult, FixtureParams, generate_fixture_corpus
from spamlab.cli import CSV_COLUMNS, _echo, _read_result_file, _render_csv, main
from spamlab.corpus import write_fixture_corpus

FUZZ = settings(max_examples=60, deadline=None)

# Free-form numeric text: signs, exponents, ranges and junk.
NUMERIC = st.text(alphabet="0123456789:.-e", min_size=1, max_size=8)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    params = FixtureParams(vocab_size=60, doc_len_min=5, doc_len_max=15)
    write_fixture_corpus(generate_fixture_corpus(7, 20, 10, params), corpus)
    (root / "empty").mkdir()
    (root / "afile").write_text("not a directory")
    good = root / "good.csv"
    mb = root / "mb.csv"
    sweep = root / "sweep.csv"
    common = ["--corpus", str(corpus), "--layout", "fixture"]
    assert _run(["evaluate", *common, "--m", "10", "--out", str(good)])[0] == 0
    mb_flags = ["--classifier", "mb", "--k", "2", "--lambda", "9"]
    assert _run(["evaluate", *common, "--m", "10", *mb_flags, "--out", str(mb)])[0] == 0
    assert _run(["sweep", *common, "--m-range", "5:15:5", "--out", str(sweep)])[0] == 0
    return {
        "root": root,
        "corpus": str(corpus),
        "good": str(good),
        "mb": str(mb),
        "sweep": str(sweep),
        "missing": str(root / "missing"),
        "empty": str(root / "empty"),
        "afile": str(root / "afile"),
        "under_file": str(root / "afile" / "x"),
    }


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean(code: int, err: str) -> None:
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def _pick(good: list[str], bad: list[str], numeric: bool = False):
    """A flag's (valid values, mostly invalid values) strategies."""
    others = st.sampled_from(bad)
    return st.sampled_from(good), (others | NUMERIC) if numeric else others


def _run_flags(p: dict, command: str) -> dict:
    flags = {
        "--corpus": _pick([p["corpus"]], [p["missing"], p["empty"], p["afile"]]),
        "--layout": _pick(["lingspam", "fixture"], ["mbox"]),
        "--stemming": _pick(["none", "light"], ["porter"]),
    }
    if command == "stats":
        return flags
    return flags | {
        "--classifier": _pick(["nb", "mb"], ["svm"]),
        "--lambda": _pick(["1", "9", "999", "1e-300"], ["0", "nan", "inf", "1e16"], True),
        "--k": _pick(["1", "2", "99999"], ["0", "-1"], True),
        "--seed": _pick(["0", "-5", str(10**20)], ["x"], True),
        "--out": _pick(["-", str(p["root"] / "out.csv")], [p["under_file"], p["empty"]]),
        "--m": _pick(["1", "5", "40"], ["0", "500", str(10**15)], True),
        "--m-range": _pick(["1:20:5", "3:40:1"], ["10:1:1", f"1:{10**15}:1"], True),
    }


def _fixture_flags(p: dict) -> dict:
    # Counts and lengths come from short lists only: a random large value
    # would be a valid request for a huge corpus, not a fault.
    return {
        "--out": _pick([str(p["root"] / "fix")], [p["afile"], p["under_file"]]),
        "--seed": _pick(["0", "7", "-1"], ["x"]),
        "--n-legit": _pick(["0", "1", "4"], ["-1", "x"]),
        "--n-spam": _pick(["1", "2"], ["-1", "1.5"]),
        "--vocab-size": _pick(["3", "50", "17576"], ["2", "17577", "x"]),
        "--shared-fraction": _pick(["0", "0.5", "0.99"], ["1", "nan", "-1"]),
        "--overlap": _pick(["0", "0.3", "1"], ["1.5", "nan"]),
        "--doc-len": _pick(["1:3", "2:4"], ["5:2", "0:2", "3", "a:b"]),
    }


def _argv(data, flags: dict) -> list[str]:
    """Some of the flags; in about half the runs every value is valid."""
    clean = data.draw(st.booleans())
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=6, unique=True))
    argv = []
    for flag in chosen:
        good, bad = flags[flag]
        value = data.draw(good if clean or data.draw(st.booleans()) else bad)
        argv += [flag, value]
    if not clean and data.draw(st.booleans()):
        argv += data.draw(st.sampled_from([["--bogus"], ["stray"], ["--m"], ["--oracle"]]))
    return argv


@settings(FUZZ, max_examples=120)
@given(data=st.data())
def test_random_argv_exits_cleanly(paths, data):
    commands = ["evaluate", "sweep", "stats", "compare", "fixture"]
    command = data.draw(st.sampled_from(commands))
    if command == "fixture":
        argv = _argv(data, _fixture_flags(paths))
    elif command == "compare":
        files = [paths["good"], paths["sweep"], paths["missing"], paths["empty"]]
        argv = data.draw(st.lists(st.sampled_from(files), max_size=3))
    else:
        flags = _run_flags(paths, command)
        flags.pop("--m-range" if command == "evaluate" else "--m", None)
        # --corpus is required, so it is given first unless the draw drops it
        argv = ["--corpus", paths["corpus"], "--layout", "fixture"]
        argv = argv if data.draw(st.integers(0, 9)) else []
        argv += _argv(data, flags)
    code, err = _run([command, *argv])
    event(f"{command} exit {code}")
    _assert_clean(code, err)


@FUZZ
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["replace", "insert", "delete"]),
            st.floats(0.0, 1.0),
            st.sampled_from(b'\n\r,;:"{}[]0123456789.-e\xff') | st.integers(0, 255),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_mutated_result_file_exits_cleanly(paths, edits):
    raw = bytearray(open(paths["good"], "rb").read())
    for op, where, byte in edits:
        pos = min(int(where * len(raw)), len(raw) - 1)
        if op == "replace":
            raw[pos] = byte
        elif op == "insert":
            raw.insert(pos, byte)
        else:
            del raw[pos]
    bad = paths["root"] / "mutated.csv"
    bad.write_bytes(bytes(raw))
    for pair in ([str(bad), paths["good"]], [paths["good"], str(bad)]):
        code, err = _run(["compare", *pair])
        event(f"exit {code}")
        _assert_clean(code, err)


def _result(**fields) -> AggregateResult:
    # baseline_wacc and fold_counts are not written to the CSV
    wacc = 1.0 - fields["baseline_werr"]
    return AggregateResult(fold_counts=(), baseline_wacc=wacc, **fields)


def _with_fold_mean(fold_waccs: tuple, **fields) -> AggregateResult:
    """The mean WAcc, WErr and TCR from the fold WAccs and the baseline WErr,
    as the engine derives them: TCR is inf where the mean WErr is 0."""
    mean = math.fsum(fold_waccs) / 10
    werr = 1.0 - mean
    tcr = fields["baseline_werr"] / werr if werr > 0 else math.inf
    return _result(fold_waccs=fold_waccs, mean_wacc=mean, mean_werr=werr, tcr=tcr, **fields)


UNIT = st.floats(0.0, 1.0)


def _results(args: argparse.Namespace, k: int | None):
    """Results that agree with the echo of args, as every CLI run writes them:
    its classifier, k, lambda and seed, and a mean WAcc, WErr and TCR that
    follow from the fold WAccs."""
    return st.builds(
        _with_fold_mean,
        st.lists(UNIT, min_size=10, max_size=10).map(tuple),
        classifier=st.just(args.classifier),
        lam=st.just(args.lam),
        m=st.integers(1, 10**6),
        k=st.just(k),
        seed=st.just(args.seed),
        spam_recall=UNIT,
        spam_precision=UNIT | st.just(math.inf),
        baseline_werr=UNIT,
    )


ARGS = st.builds(
    argparse.Namespace,
    corpus=st.text(alphabet=' a/"\\\n\té€\u2028,:;{}', max_size=12),
    layout=st.sampled_from(["lingspam", "fixture"]),
    stemming=st.sampled_from(["none", "light"]),
    classifier=st.sampled_from(["nb", "mb"]),
    lam=st.floats(1e-300, 9.0e15),
    k=st.integers(1, 10**4),
    seed=st.integers(-(10**20), 10**20),
)


@FUZZ
@given(args=ARGS, m_spec=NUMERIC, data=st.data())
def test_render_read_render_is_byte_identical(paths, args, m_spec, data):
    k = args.k if args.classifier == "mb" else None
    results = data.draw(st.lists(_results(args, k), min_size=1, max_size=3))
    first = _render_csv(_echo(args, m_spec, k), results)
    path = paths["root"] / "round_trip.csv"
    path.write_text(first, encoding="utf-8")
    echo, rows = _read_result_file(str(path))
    assert _render_csv(echo, [_result(**row) for row in rows]) == first


# Text of the characters valid fields hold, and characters none holds.
FIELD_TEXT = st.text(alphabet="0123456789.-+e;infnan", max_size=6)
JUNK = st.builds(
    lambda before, char, after: before + char + after,
    FIELD_TEXT,
    st.sampled_from(list(' "#$%&()*/<=>?@[]^_`{|}~xyzé\t,\n\r\u2028')),
    FIELD_TEXT,
)


@FUZZ
@given(name=st.sampled_from(["good", "mb"]), column=st.sampled_from(CSV_COLUMNS.split(",")),
       junk=JUNK)
def test_a_junk_field_exits_3(paths, name, column, junk):
    lines = Path(paths[name]).read_text(encoding="utf-8").splitlines()
    row = dict(zip(CSV_COLUMNS.split(","), lines[3].split(",")))
    lines[3] = ",".join({**row, column: junk}.values())
    bad = paths["root"] / "junk.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = _run(["compare", str(bad), paths[name]])
    assert code == 3
    _assert_clean(code, err)
