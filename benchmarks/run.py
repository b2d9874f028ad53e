"""spamlab benchmark: one workload, timed end to end or layer by layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload battery --seed 7 --seconds 20 --trace 0

It writes a seeded Ling-Spam-shaped corpus under ``.bench_work/``, reads it
once so that every repetition finds it in the page cache, then starts
repetitions of the workload, each in a fresh interpreter (``child.py``),
until ``--seconds`` have passed.  Every repetition's results are checked
against the digests recorded in ``digests.json`` for that seed, or, for an
unrecorded seed, against the first repetition.  The last line of standard
output is one JSON object: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``--record``
stores this run's digests for its seed after the repetitions agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import child
import corpusgen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".bench_work"
CORPUS = f"{WORK}/corpus"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 7
WORKLOADS = ("battery", "mb-sweep", "cli-sweep")
MIN_REPS = 2
# Set-up-only children run until there are this many set-up samples and
# they have taken this long: a short set-up is noisy, so it gets more.
SETUP_SAMPLES = 5
SETUP_SECONDS = 1.0
CHILD_TIMEOUT_S = 150.0
# No repetition starts when the longest one so far would end after this.
RUN_LIMIT_S = 160.0
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_PINS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def check_program(env: dict) -> None:
    """The library must come from this checkout's src/, not from elsewhere."""
    if not (ROOT / "src" / "spamlab" / "__init__.py").is_file():
        raise BenchError(f"no spamlab sources under {ROOT / 'src'}")
    probe = subprocess.run(
        [sys.executable, "-c", "import spamlab.cli; print(spamlab.cli.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import spamlab: {probe.stderr.strip()[-500:]}")
    _check_module(probe.stdout.strip())


def _check_module(path: str) -> None:
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"spamlab imported from {path}, outside {ROOT / 'src'}")


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": git_commit(),
        "corpus_seed": seed,
        "fold_seed": child.FOLD_SEED,
        "corpus": corpusgen.LINGSPAM_SHAPE.as_dict(),
        "pins": {name: "1" for name in THREAD_PINS} | {"PYTHONHASHSEED": "0"},
    }


def git_commit() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, index: int, trace: bool, setup_only: bool, env: dict) -> dict:
    """Run one child to completion; its result plus wall time and peak RSS."""
    result = ROOT / WORK / f"child-{index}.json"
    result.unlink(missing_ok=True)
    (ROOT / child.CLI_CSV).unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "child.py"), workload, CORPUS, str(result),
        "1" if trace else "0", "1" if setup_only else "0",
    ]
    with open(ROOT / WORK / f"child-{index}.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {"exit": proc.returncode, "trace": trace, "setup_only": setup_only}
    rep["ok"] = proc.returncode == 0 and result.is_file()
    if rep["ok"]:
        rep.update(json.loads(result.read_text(encoding="utf-8")))
        _check_module(rep["module"])
        rep["wall_s"] = ended - spawned
        rep["setup_s"] = rep["t_run"] - spawned
        rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        rep["cpu_s"] = usage.ru_utime + usage.ru_stime
        if not setup_only:
            rep["run_s"] = rep["t_end"] - rep["t_run"]
    return rep


def run_reps(workload: str, seconds: float, trace: bool, env: dict) -> list[dict]:
    """Full repetitions until ``seconds`` pass; traced runs alternate with untraced."""
    reps: list[dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        begun = time.monotonic()
        reps.append(spawn(workload, len(reps), trace and len(reps) % 2 == 1, False, env))
        longest = max(longest, time.monotonic() - begun)
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPS and elapsed >= seconds:
            break
        if elapsed + longest > RUN_LIMIT_S:
            break
    if not trace:
        setup_started = time.monotonic()
        while (
            len(reps) < SETUP_SAMPLES or time.monotonic() - setup_started < SETUP_SECONDS
        ) and time.monotonic() - started + longest < RUN_LIMIT_S:
            reps.append(spawn(workload, len(reps), False, True, env))
    return reps


def check_results(workload: str, reps: list[dict], recorded: dict | None) -> tuple[int, int]:
    """(attempted, failed) configuration results over the full repetitions.

    Each repetition must give the recorded digests or, on a seed without a
    record, the digests of the first repetition that completed.
    """
    labels = child.labels(workload)
    reference = recorded
    attempted = failed = 0
    for rep in reps:
        if rep["setup_only"]:
            # A crashed set-up child counts as one failed attempt.
            attempted += 1
            failed += 0 if rep["ok"] else 1
            continue
        attempted += len(labels)
        items = rep.get("items")
        if not rep["ok"] or items is None or set(items) != set(labels):
            failed += len(labels)
            continue
        if reference is None:
            reference = items
        failed += sum(1 for label in labels if items[label] != reference[label])
    return attempted, failed


# Per-run figures are low medians (the lower middle value of an even
# count): host noise only ever adds time, and with two repetitions of the
# battery the low median keeps one slowed repetition from moving the figure.


def end_to_end(reps: list[dict]) -> dict:
    full = [r for r in reps if not r["setup_only"] and "run_s" in r]
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    if not full or not setups:
        return {}
    return {
        "wall_s": statistics.median_low([r["wall_s"] for r in full]),
        "setup_s": statistics.median_low(setups),
        "run_s": statistics.median_low([r["run_s"] for r in full]),
        "peak_rss_mb": statistics.median_low([r["peak_rss_mb"] for r in full]),
    }


def per_layer(reps: list[dict], corpus_bytes: int) -> dict:
    traced = [r for r in reps if r["trace"] and "run_s" in r]
    plain = [r for r in reps if not r["trace"] and "run_s" in r]
    if not traced or not plain:
        return {}
    rows = []
    for rep in traced:
        row = spans.summarize(rep["spans"], rep["counters"], rep["t_end"] - rep["t_import"][1])
        row["cli.import_s"] = rep["t_import"][1] - rep["t_import"][0]
        rows.append(row)
    out = {name: statistics.median_low([row[name] for row in rows]) for name in rows[0]}
    out["corpus.bytes"] = corpus_bytes
    out["trace.overhead_ratio"] = statistics.median_low(
        [r["run_s"] for r in traced]
    ) / statistics.median_low([r["run_s"] for r in plain])
    return out


def report(workload: str, seed: int, reps: list[dict], values: dict, spec: list) -> None:
    full = [r for r in reps if not r["setup_only"] and "run_s" in r]
    print(f"workload={workload} seed={seed} reps={len(full)} children={len(reps)}")
    for metric in spec:
        name = metric["name"]
        samples = [r[name] for r in reps if name in r and (name == "setup_s" or not r["setup_only"])]
        spread = f"min={min(samples):.4f} max={max(samples):.4f} n={len(samples)}" if samples else ""
        print(f"  {name:28s} {values[name]:14.6f} {metric['unit']:6s} {spread}")
    if full:
        tcrs = ", ".join(f"{k}: {v:.4g}" for k, v in full[0]["tcr"].items())
        print(f"  TCR {tcrs}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="corpus seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's result digests for its seed")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env()
    check_program(env)

    work = ROOT / WORK
    work.mkdir(exist_ok=True)
    shutil.rmtree(ROOT / CORPUS, ignore_errors=True)
    corpus_digest = corpusgen.write(
        corpusgen.generate(args.seed, corpusgen.LINGSPAM_SHAPE), ROOT / CORPUS
    )
    corpus_bytes = corpusgen.read_all(ROOT / CORPUS)

    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    record = digests.get(str(args.seed), {})
    corpus_ok = record.get("corpus", corpus_digest) == corpus_digest
    reps = run_reps(args.workload, args.seconds, bool(args.trace), env)
    attempted, failed = check_results(args.workload, reps, record.get(args.workload))

    if args.record:
        if failed or not corpus_ok:
            raise BenchError(f"not recorded: {failed} failed, corpus_ok={corpus_ok}")
        full = next(r for r in reps if not r["setup_only"])
        record.update({"corpus": corpus_digest, args.workload: full["items"]})
        digests[str(args.seed)] = record
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(reps, corpus_bytes) if args.trace else end_to_end(reps)
    if not values:
        raise BenchError("no repetition completed; see .bench_work/child-*.log")
    env_record = environment(args.seed)
    print("# env " + json.dumps(env_record, sort_keys=True))
    report(args.workload, args.seed, reps, values, metrics_spec)
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.6f}"
          f"  corpus={'ok' if corpus_ok else 'CHANGED'} recorded={args.workload in record}")
    (work / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env_record, "values": values, "reps": [
            {k: v for k, v in r.items() if k not in ("spans", "counters")} for r in reps
        ]}, indent=1),
        encoding="utf-8",
    )
    result = {
        "correct": corpus_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
