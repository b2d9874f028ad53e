"""Command-line surface: corpus stats, evaluations, sweeps, comparisons.

Result files are CSV with two leading comment lines (format version and a
JSON config echo).  Identical configuration and seed produce byte-identical
files; nothing time- or host-dependent is written.

Exit codes: 0 success, 1 internal error, 2 input/corpus error (also a
failed write to standard output), 3 configuration/compatibility error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bayes import lambda_to_threshold
from .corpus import (
    LAYOUTS,
    STEMMING,
    FixtureParams,
    generate_fixture_corpus,
    load_corpus,
    write_fixture_corpus,
)
from .errors import ConfigError, CorpusError, DataError, SpamlabError
from .evaluate import (
    AggregateResult,
    ClassifierConfig,
    make_stratified_folds,
    paired_t_test,
    sweep_attributes,
    sweep_range,
)

FORMAT_VERSION = "spamlab results v1"
K_FOLDS = 10
_RATE = "{:.6f}".format  # inf renders as "inf"

# One entry per result-file column, in file order: its name, the
# AggregateResult field it holds, how a value renders and how text parses.
_ROW = (
    ("classifier", "classifier", str, str),
    ("lambda", "lam", "{:g}".format, float),
    ("m", "m", str, int),
    ("k", "k", lambda k: "" if k is None else str(k), lambda text: int(text) if text else None),
    ("seed", "seed", str, int),
    ("sr", "spam_recall", _RATE, float),
    ("sp", "spam_precision", _RATE, float),
    ("wacc_mean", "mean_wacc", _RATE, float),
    ("werr_mean", "mean_werr", _RATE, float),
    ("baseline_werr", "baseline_werr", _RATE, float),
    ("tcr", "tcr", _RATE, float),
    ("fold_waccs", "fold_waccs", lambda waccs: ";".join(map(_RATE, waccs)),
     lambda text: tuple(map(float, text.split(";")))),
)
CSV_COLUMNS = ",".join(name for name, *_ in _ROW)

# Echo keys that must match between two result files for a fair comparison.
_COMPAT_KEYS = ("corpus", "stemming", "seed", "lambda")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _fmt_pct(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value * 100:.3f}%"


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="corpus root directory")
    parser.add_argument("--layout", choices=LAYOUTS, default="lingspam")
    parser.add_argument("--stemming", choices=STEMMING, default="light")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_corpus_flags(parser)
    parser.add_argument("--classifier", choices=("nb", "mb"), default="nb")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="cost of a blocked legitimate message, in passed-spam units")
    parser.add_argument("--k", type=int, default=1, help="neighborhood size (mb only)")
    parser.add_argument("--seed", type=int, default=0, help="fold-plan seed")
    parser.add_argument("--oracle", action="store_true",
                        help="test hook: classify with the gold labels")
    parser.add_argument("--out", default="-", help="result CSV path, - for stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="spamlab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="corpus composition summary")
    _add_corpus_flags(p_stats)

    p_eval = sub.add_parser("evaluate", help="10-fold CV for one configuration")
    _add_run_flags(p_eval)
    p_eval.add_argument("--m", type=int, default=100, help="attribute-set size")

    p_sweep = sub.add_parser("sweep", help="10-fold CV over a range of attribute sizes")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--m-range", default="50:700:50", help="FROM:TO:STEP")

    p_cmp = sub.add_parser("compare", help="paired t-test between two result files")
    p_cmp.add_argument("file_a")
    p_cmp.add_argument("file_b")

    p_fix = sub.add_parser("fixture", help="write a deterministic synthetic corpus")
    p_fix.add_argument("--out", required=True, help="output directory")
    p_fix.add_argument("--seed", type=int, default=7)
    p_fix.add_argument("--n-legit", type=int, default=90)
    p_fix.add_argument("--n-spam", type=int, default=10)
    p_fix.add_argument("--vocab-size", type=int, default=120)
    p_fix.add_argument("--shared-fraction", type=float, default=0.2)
    p_fix.add_argument("--overlap", type=float, default=0.3)
    p_fix.add_argument("--doc-len", default="20:60", help="MIN:MAX tokens per message")
    return parser


def _parse_ints(flag: str, text: str, fields: str) -> tuple[int, ...]:
    """The integers of a colon-separated flag value shaped like fields."""
    parts = text.split(":")
    if len(parts) != fields.count(":") + 1:
        raise ConfigError(f"{flag} must be {fields}, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{flag} must be integers {fields}, got {text!r}")


def _result_row(values: dict) -> str:
    """The row of values keyed by AggregateResult field, rendered through _ROW."""
    return ",".join(render(values[field]) for _, field, render, _ in _ROW)


def _echo(args: argparse.Namespace, m_spec: str, k: int | None) -> dict:
    """The run's # config line.  lowercase, min_token_length, k_folds and
    fold_strategy are format constants, kept so the bytes stay the same."""
    return {
        "corpus": args.corpus,
        "layout": args.layout,
        "lowercase": True,
        "stemming": args.stemming,
        "min_token_length": 1,
        "classifier": args.classifier,
        "lambda": args.lam,
        "m": m_spec,
        "k": k,
        "seed": args.seed,
        "oracle": args.oracle,
        "k_folds": K_FOLDS,
        "fold_strategy": "stratified",
    }


def _render_csv(echo: dict, results: list[AggregateResult]) -> str:
    echo_json = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    lines = [f"# {FORMAT_VERSION}", f"# config {echo_json}", CSV_COLUMNS]
    lines.extend(_result_row(vars(r)) for r in results)
    return "\n".join(lines) + "\n"


def _emit(echo: dict, results: list[AggregateResult], out: str) -> None:
    text = _render_csv(echo, results)
    summary_stream = sys.stdout
    if out == "-":
        sys.stdout.write(text)
        summary_stream = sys.stderr
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CorpusError(f"cannot write result file: {exc}")
    for r in results:
        k_part = f" k={r.k}" if r.k is not None else ""
        print(
            f"{r.classifier} lambda={r.lam:g} m={r.m}{k_part} seed={r.seed}: "
            f"SR={_fmt_pct(r.spam_recall)} SP={_fmt_pct(r.spam_precision)} "
            f"WAcc={_fmt_pct(r.mean_wacc)} baseline={_fmt_pct(r.baseline_wacc)} "
            f"TCR={r.tcr:.2f}",
            file=summary_stream,
        )


def cmd_stats(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus, layout=args.layout, stemming=args.stemming)
    print(
        f"legit={corpus.n_legit} spam={corpus.n_spam} "
        f"rate={corpus.n_spam / len(corpus) * 100:.1f}% "
        f"vocab={len(corpus.vocabulary)}"
    )
    return 0


def _cross_validate(args: argparse.Namespace, m_spec: str, ms: range) -> int:
    """The evaluate and sweep commands: CV at each m of ms, then output."""
    lambda_to_threshold(args.lam)  # ConfigError before the corpus is read, as for ms and k
    k = args.k if args.classifier == "mb" else None
    classifier = ClassifierConfig(args.classifier, k=k)
    if args.oracle:
        classifier = ClassifierConfig("oracle")
    corpus = load_corpus(args.corpus, layout=args.layout, stemming=args.stemming)
    plan = make_stratified_folds(corpus, k_folds=K_FOLDS, seed=args.seed)
    results = sweep_attributes(corpus, classifier, args.lam, plan, ms.start, ms[-1], ms.step)
    _emit(_echo(args, m_spec, k), results, args.out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    return _cross_validate(args, str(args.m), sweep_range(args.m, args.m, 1))


def cmd_sweep(args: argparse.Namespace) -> int:
    ms = sweep_range(*_parse_ints("--m-range", args.m_range, "FROM:TO:STEP"))
    return _cross_validate(args, args.m_range, ms)


def _read_result_file(path: str) -> tuple[dict, list[dict]]:
    """Config echo and data rows, each row parsed through _ROW to a dict keyed
    by AggregateResult field; ConfigError unless every field checks out."""
    malformed = ConfigError(f"not a {FORMAT_VERSION} file: {path}")
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CorpusError(f"cannot read result file: {exc}")
    except UnicodeDecodeError:
        raise malformed
    if len(lines) < 4 or lines[0] != f"# {FORMAT_VERSION}" or lines[2] != CSV_COLUMNS:
        raise malformed
    try:
        echo = json.loads(lines[1].removeprefix("# config "))
    except ValueError:  # not JSON, or an integer beyond int's digit limit
        raise malformed
    if not isinstance(echo, dict) or echo.get("k_folds") != K_FOLDS:
        raise malformed
    oracle = echo.get("oracle") is True  # an oracle row has no k
    echoed = {"classifier": "oracle" if oracle else echo.get("classifier"),
              "lam": echo.get("lambda"), "k": None if oracle else echo.get("k"),
              "seed": echo.get("seed")}
    rows = []
    for line in lines[3:]:
        try:  # each field renders back to its text, and so do the echo's settings
            texts = zip(_ROW, line.split(","), strict=True)
            row = {field: parse(text) for (_, field, _, parse), text in texts}
            same = _result_row(row) == line == _result_row(row | echoed)
        except (ValueError, TypeError, OverflowError):
            raise malformed
        sp, waccs, mean = row["spam_precision"], row["fold_waccs"], row["mean_wacc"]
        unit = (row["spam_recall"], mean, row["mean_werr"], row["baseline_werr"], *waccs)
        # last, in range: two 6-decimal roundings part the mean from the folds'
        # by 1e-6 at most, a gap that is a multiple of 1e-7 up to float error
        if not (same and all(0 <= r <= 1 for r in unit) and len(waccs) == K_FOLDS
                and (0 <= sp <= 1 or sp == math.inf) and row["tcr"] >= 0
                and row["m"] >= 1 and (row["k"] is None or row["k"] >= 1)
                and round(abs(mean - math.fsum(waccs) / K_FOLDS), 9) <= 1e-6):
            raise malformed
        rows.append(row)
    return echo, rows


def cmd_compare(args: argparse.Namespace) -> int:
    echo_a, rows_a = _read_result_file(args.file_a)
    echo_b, rows_b = _read_result_file(args.file_b)
    mismatched = [k for k in _COMPAT_KEYS if echo_a.get(k) != echo_b.get(k)]
    if mismatched:
        raise ConfigError(f"fold plans differ: mismatched {', '.join(mismatched)}")
    if len(rows_a) != 1 or len(rows_b) != 1:
        raise ConfigError("compare expects single-configuration result files")
    outcome = paired_t_test(rows_a[0]["fold_waccs"], rows_b[0]["fold_waccs"])
    for side, row in (("A", rows_a[0]), ("B", rows_b[0])):
        text = {name: render(row[field]) for name, field, render, _ in _ROW}
        k_part = f" k={text['k']}" if text["k"] else ""
        ident = f"{text['classifier']} lambda={text['lambda']} m={text['m']}{k_part}"
        print(f"{side}: {ident} wacc_mean={text['wacc_mean']}")
    verdict = "significant" if outcome.significant_at_05 else "not significant"
    print(
        f"t={outcome.t_statistic:.3f} df={outcome.degrees_of_freedom} "
        f"{verdict} at 0.05 (one-tailed, A > B)"
    )
    return 0


def cmd_fixture(args: argparse.Namespace) -> int:
    doc_len_min, doc_len_max = _parse_ints("--doc-len", args.doc_len, "MIN:MAX")
    try:
        params = FixtureParams(
            vocab_size=args.vocab_size,
            shared_fraction=args.shared_fraction,
            overlap=args.overlap,
            doc_len_min=doc_len_min,
            doc_len_max=doc_len_max,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid fixture parameters: {exc}")
    corpus = generate_fixture_corpus(args.seed, args.n_legit, args.n_spam, params)
    try:
        write_fixture_corpus(corpus, args.out)
    except OSError as exc:
        raise CorpusError(f"cannot write fixture corpus: {exc}")
    print(f"wrote {len(corpus)} messages to {args.out}")
    return 0


_COMMANDS = {
    "stats": cmd_stats,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "fixture": cmd_fixture,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a full or closed stdout fails here, not at exit
        return code
    except OSError as exc:  # stdout; the commands map the file errors they expect
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        sys.stdout = None  # its unwritten bytes would fail again at exit
        return 2
    except (SpamlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (CorpusError, DataError)):
            return 2
        return 3 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
