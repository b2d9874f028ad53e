"""Command-line surface: corpus stats, evaluations, sweeps, comparisons.

Result files are CSV with two leading comment lines (format version and a
JSON config echo).  Identical configuration and seed produce byte-identical
files; nothing time- or host-dependent is written.

Exit codes: 0 success, 1 internal error, 2 input/corpus error (also a
failed write to standard output), 3 configuration/compatibility error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from .bayes import lambda_to_threshold
from .corpus import (
    FixtureParams,
    NormalizerConfig,
    corpus_stats,
    generate_fixture_corpus,
    load_corpus,
)
from .errors import ConfigError, CorpusError, DataError, SpamlabError
from .evaluate import (
    AggregateResult,
    ClassifierConfig,
    make_stratified_folds,
    paired_t_test,
    sweep_attributes,
)

FORMAT_VERSION = "spamlab results v1"
CSV_COLUMNS = (
    "classifier,lambda,m,k,seed,sr,sp,wacc_mean,werr_mean,baseline_werr,tcr,fold_waccs"
)
K_FOLDS = 10

# Echo keys that must match between two result files for a fair comparison.
_COMPAT_KEYS = (
    "corpus",
    "layout",
    "lowercase",
    "stemming",
    "min_token_length",
    "seed",
    "k_folds",
    "fold_strategy",
    "lambda",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _fmt_g(value: float) -> str:
    return f"{value:g}"


def _fmt_frac(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6f}"


def _fmt_pct(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value * 100:.3f}%"


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="corpus root directory")
    parser.add_argument("--layout", choices=("lingspam", "fixture"), default="lingspam")
    parser.add_argument("--stemming", choices=("none", "light"), default="light")


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


def _parse_m_range(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--m-range must be FROM:TO:STEP, got {text!r}")
    try:
        m_from, m_to, m_step = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--m-range must be integers FROM:TO:STEP, got {text!r}")
    return m_from, m_to, m_step


def _result_row(result: AggregateResult) -> str:
    k = "" if result.k is None else str(result.k)
    fold_waccs = ";".join(f"{w:.6f}" for w in result.fold_waccs)
    return ",".join(
        (
            result.classifier,
            _fmt_g(result.lam),
            str(result.m),
            k,
            str(result.seed),
            _fmt_frac(result.spam_recall),
            _fmt_frac(result.spam_precision),
            _fmt_frac(result.mean_wacc),
            _fmt_frac(result.mean_werr),
            _fmt_frac(result.baseline_werr),
            _fmt_frac(result.tcr),
            fold_waccs,
        )
    )


def _echo(args: argparse.Namespace, m_spec: str) -> dict:
    """The run's # config line.  lowercase, min_token_length, k_folds and
    fold_strategy are format constants, kept so files stay comparable."""
    return {
        "corpus": args.corpus,
        "layout": args.layout,
        "lowercase": True,
        "stemming": args.stemming,
        "min_token_length": 1,
        "classifier": args.classifier,
        "lambda": args.lam,
        "m": m_spec,
        "k": args.k if args.classifier == "mb" else None,
        "seed": args.seed,
        "oracle": args.oracle,
        "k_folds": K_FOLDS,
        "fold_strategy": "stratified",
    }


def _render_csv(echo: dict, results: list[AggregateResult]) -> str:
    echo_json = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    lines = [f"# {FORMAT_VERSION}", f"# config {echo_json}", CSV_COLUMNS]
    lines.extend(_result_row(r) for r in results)
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
            f"{r.classifier} lambda={_fmt_g(r.lam)} m={r.m}{k_part} seed={r.seed}: "
            f"SR={_fmt_pct(r.spam_recall)} SP={_fmt_pct(r.spam_precision)} "
            f"WAcc={_fmt_pct(r.mean_wacc)} baseline={_fmt_pct(r.baseline_wacc)} "
            f"TCR={'inf' if math.isinf(r.tcr) else f'{r.tcr:.2f}'}",
            file=summary_stream,
        )


def cmd_stats(args: argparse.Namespace) -> int:
    config = NormalizerConfig(stemming=args.stemming)
    corpus = load_corpus(args.corpus, layout=args.layout, config=config)
    stats = corpus_stats(corpus)
    print(
        f"legit={stats.n_legit} spam={stats.n_spam} "
        f"rate={stats.spam_rate * 100:.1f}% vocab={stats.vocabulary_size}"
    )
    return 0


def _cross_validate(
    args: argparse.Namespace, m_spec: str, m_from: int, m_to: int, m_step: int
) -> int:
    """The evaluate and sweep commands: CV at m = m_from..m_to, then output."""
    if m_from < 1 or m_to < m_from or m_step < 1:
        raise ConfigError(f"invalid m {m_spec!r}: need m >= 1, FROM <= TO, STEP >= 1")
    # Both validators raise ConfigError before the corpus is touched.
    lambda_to_threshold(args.lam)
    k = args.k if args.classifier == "mb" else None
    classifier = ClassifierConfig(args.classifier, k=k)
    if args.oracle:
        classifier = ClassifierConfig("oracle")
    config = NormalizerConfig(stemming=args.stemming)
    corpus = load_corpus(args.corpus, layout=args.layout, config=config)
    plan = make_stratified_folds(corpus, k_folds=K_FOLDS, seed=args.seed)
    results = sweep_attributes(
        corpus, classifier, args.lam, plan, m_from=m_from, m_to=m_to, m_step=m_step
    )
    _emit(_echo(args, m_spec), results, args.out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    return _cross_validate(args, str(args.m), args.m, args.m, 1)


def cmd_sweep(args: argparse.Namespace) -> int:
    m_from, m_to, m_step = _parse_m_range(args.m_range)
    return _cross_validate(args, args.m_range, m_from, m_to, m_step)


def _read_result_file(path: str) -> tuple[dict, list[dict]]:
    """Config echo and data rows, each row's fold_waccs parsed to floats."""
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
    except json.JSONDecodeError:
        raise malformed
    if not isinstance(echo, dict):
        raise malformed
    try:
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[2:]))))
    except csv.Error:  # a field above the csv module's size limit
        raise malformed
    for row in rows:
        try:  # a short row leaves fold_waccs None
            waccs = [float(w) for w in (row["fold_waccs"] or "").split(";")]
        except ValueError:
            raise malformed
        in_range = all(0.0 <= w <= 1.0 for w in waccs)
        if not (in_range and len(waccs) == echo.get("k_folds") == K_FOLDS):
            raise malformed
        row["fold_waccs"] = waccs
    return echo, rows


def cmd_compare(args: argparse.Namespace) -> int:
    echo_a, rows_a = _read_result_file(args.file_a)
    echo_b, rows_b = _read_result_file(args.file_b)
    mismatched = [k for k in _COMPAT_KEYS if echo_a.get(k) != echo_b.get(k)]
    if mismatched:
        raise ConfigError(f"fold plans differ: mismatched {', '.join(mismatched)}")
    if len(rows_a) != 1 or len(rows_b) != 1:
        raise ConfigError("compare expects single-configuration result files")
    row_a, row_b = rows_a[0], rows_b[0]
    outcome = paired_t_test(row_a["fold_waccs"], row_b["fold_waccs"])

    def _ident(row: dict) -> str:
        k_part = f" k={row['k']}" if row["k"] else ""
        return f"{row['classifier']} lambda={row['lambda']} m={row['m']}{k_part}"

    print(f"A: {_ident(row_a)} wacc_mean={row_a['wacc_mean']}")
    print(f"B: {_ident(row_b)} wacc_mean={row_b['wacc_mean']}")
    t = outcome.t_statistic
    t_text = "inf" if t == math.inf else ("-inf" if t == -math.inf else f"{t:.3f}")
    verdict = "significant" if outcome.significant_at_05 else "not significant"
    print(
        f"t={t_text} df={outcome.degrees_of_freedom} "
        f"{verdict} at 0.05 (one-tailed, A > B)"
    )
    return 0


def cmd_fixture(args: argparse.Namespace) -> int:
    parts = args.doc_len.split(":")
    if len(parts) != 2:
        raise ConfigError(f"--doc-len must be MIN:MAX, got {args.doc_len!r}")
    try:
        params = FixtureParams(
            vocab_size=args.vocab_size,
            shared_fraction=args.shared_fraction,
            overlap=args.overlap,
            doc_len_min=int(parts[0]),
            doc_len_max=int(parts[1]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid fixture parameters: {exc}")
    try:
        corpus = generate_fixture_corpus(
            args.seed, args.n_legit, args.n_spam, params, out_dir=args.out
        )
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
        return 2
    except (CorpusError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpamlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
