"""One repetition of one workload in a fresh interpreter.

Usage: child.py WORKLOAD CORPUS_DIR RESULT_JSON TRACE SETUP_ONLY

Run by ``run.py`` with the repository's ``src`` on PYTHONPATH and the
checkout root as working directory.  Writes monotonic-clock timestamps,
one digest per configuration result and, with TRACE=1, the layer spans to
RESULT_JSON.  With SETUP_ONLY=1 it stops where the first configuration
would start.
"""

import time

T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

FOLD_SEED = 0
M_RANGE = (50, 700, 50)
CLI_CSV = ".bench_work/sweep.csv"

# (label, classifier, k, lambda, m); m=None is the 14-point sweep over M_RANGE.
WORKLOADS = {
    "battery": (
        ("nb l=1 m=100", "nb", None, 1.0, 100),
        ("mb k=1 l=1 m=50", "mb", 1, 1.0, 50),
        ("mb k=2 l=1 m=50", "mb", 2, 1.0, 50),
        ("nb l=9 m=100", "nb", None, 9.0, 100),
        ("mb k=10 l=1 m=100", "mb", 10, 1.0, 100),
        ("nb l=999", "nb", None, 999.0, None),
    ),
    "mb-sweep": (("mb k=1 l=1", "mb", 1, 1.0, None),),
}


def labels(name: str) -> list[str]:
    """Configuration labels of one workload, in result order."""
    sweep = range(M_RANGE[0], M_RANGE[1] + 1, M_RANGE[2])
    if name == "cli-sweep":
        return [f"nb l=999 m={m}" for m in sweep]
    out = []
    for label, _, _, _, m in WORKLOADS[name]:
        out.extend([label] if m is not None else [f"{label} m={v}" for v in sweep])
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result_key(result) -> str:
    """Exact repr of the fold counts, fold WAccs and TCR of one result."""
    counts = tuple(
        (c.n_legit_legit, c.n_legit_spam, c.n_spam_spam, c.n_spam_legit)
        for c in result.fold_counts
    )
    return repr((counts, tuple(result.fold_waccs), result.tcr))


def run_library(name: str, corpus_dir: str, out: dict, setup_only: bool) -> None:
    t0 = time.monotonic()
    import spamlab

    out["t_import"] = [t0, time.monotonic()]
    out["module"] = spamlab.__file__
    if out["trace"]:
        _install_trace(out)
    corpus = spamlab.load_corpus(corpus_dir, layout="fixture")
    plan = spamlab.make_stratified_folds(corpus, seed=FOLD_SEED)
    out["t_run"] = time.monotonic()
    if setup_only:
        return
    results = []
    for label, kind, k, lam, m in WORKLOADS[name]:
        config = spamlab.ClassifierConfig(kind, k=k)
        if m is None:
            sweep = spamlab.sweep_attributes(corpus, config, lam, plan, *M_RANGE)
            results.extend((f"{label} m={r.m}", r) for r in sweep)
        else:
            results.append((label, spamlab.cross_validate(corpus, config, lam, m, plan)))
    out["t_end"] = time.monotonic()
    out["items"] = {label: _sha(_result_key(r)) for label, r in results}
    out["tcr"] = {label: r.tcr for label, r in results}


def run_cli(corpus_dir: str, out: dict, setup_only: bool) -> None:
    t0 = time.monotonic()
    import spamlab.cli

    out["t_import"] = [t0, time.monotonic()]
    out["module"] = spamlab.cli.__file__
    if out["trace"]:
        _install_trace(out)
    argv = [
        "sweep", "--corpus", corpus_dir, "--layout", "fixture",
        "--classifier", "nb", "--lambda", "999",
        "--m-range", ":".join(str(v) for v in M_RANGE),
        "--seed", str(FOLD_SEED), "--out", CLI_CSV,
    ]
    out["t_run"] = time.monotonic()
    if setup_only:
        return
    out["exit"] = spamlab.cli.main(argv)
    out["t_end"] = time.monotonic()
    lines = Path(CLI_CSV).read_text(encoding="utf-8").splitlines(keepends=True)
    header, rows = "".join(lines[:3]), lines[3:]
    columns = lines[2].strip().split(",")
    m_col, tcr_col = columns.index("m"), columns.index("tcr")
    out["items"], out["tcr"] = {}, {}
    for row in rows:
        fields = row.strip().split(",")
        label = f"nb l=999 m={fields[m_col]}"
        out["items"][label] = _sha(header + row)
        out["tcr"][label] = float(fields[tcr_col])


def _install_trace(out: dict) -> None:
    import spans

    recorder = spans.Recorder()
    out["wrapped"] = spans.install(recorder)
    out["recorder"] = recorder


def main() -> int:
    name, corpus_dir, result_path, trace, setup_only = sys.argv[1:6]
    out = {"t_start": T_START, "trace": trace == "1"}
    if name == "cli-sweep":
        run_cli(corpus_dir, out, setup_only == "1")
    else:
        run_library(name, corpus_dir, out, setup_only == "1")
    recorder = out.pop("recorder", None)
    if recorder is not None:
        out["spans"] = recorder.spans
        out["counters"] = recorder.counters
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return int(out.get("exit", 0))


if __name__ == "__main__":
    sys.exit(main())
