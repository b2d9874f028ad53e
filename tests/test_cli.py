from __future__ import annotations

import argparse
import errno
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spamlab.cli
from spamlab import Corpus, Document, Label, SpamlabError, generate_fixture_corpus
from spamlab.cli import CSV_COLUMNS, build_parser, main
from spamlab.corpus import write_fixture_corpus


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "corpus"
    write_fixture_corpus(generate_fixture_corpus(7, 90, 10), root)
    return root


@pytest.fixture(scope="session")
def hard_dir(tmp_path_factory, hard_corpus):
    root = tmp_path_factory.mktemp("cli-hard") / "corpus"
    write_fixture_corpus(hard_corpus, root)
    return root


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_fixture_composition(self, capsys, fixture_dir):
        code, out, _ = run(capsys, ["stats", "--corpus", str(fixture_dir),
                                    "--layout", "fixture"])
        assert code == 0
        assert "legit=90 spam=10 rate=10.0%" in out
        assert "vocab=" in out

    @staticmethod
    def _stats_of(capsys, monkeypatch, corpus, argv=()):
        """The stats line for a corpus handed to the command as loaded."""
        calls = []

        def loaded(*args, **kwargs):
            calls.append((args, kwargs))
            return corpus

        monkeypatch.setattr(spamlab.cli, "load_corpus", loaded)
        code, out, err = run(capsys, ["stats", "--corpus", "anywhere", *argv])
        assert code == 0 and err == "" and len(calls) == 1
        return out, calls[0]

    @pytest.mark.parametrize("n_legit,n_spam,line", [
        (2412, 481, "legit=2412 spam=481 rate=16.6% vocab=2"),
        (1, 0, "legit=1 spam=0 rate=0.0% vocab=1"),
        (3, 1, "legit=3 spam=1 rate=25.0% vocab=2"),
    ], ids=["lingspam", "no-spam", "quarter"])
    def test_composition_line(self, capsys, monkeypatch, n_legit, n_spam, line):
        docs = [Document(("word",), Label.LEGITIMATE, f"msg{i:05d}") for i in range(n_legit)]
        docs += [Document(("word", "cash"), Label.SPAM, f"spmsg{i:05d}") for i in range(n_spam)]
        out, _ = self._stats_of(capsys, monkeypatch, Corpus.from_documents(docs))
        assert out == line + "\n"

    def test_vocab_counts_distinct_tokens(self, capsys, monkeypatch, small_corpus):
        out, _ = self._stats_of(capsys, monkeypatch, small_corpus)
        distinct = {t for d in small_corpus.documents for t in d.tokens}
        assert out.endswith(f" vocab={len(distinct)}\n")

    def test_leaves_the_incidence_unbuilt(self, capsys, monkeypatch, small_corpus):
        corpus = Corpus.from_documents(small_corpus.documents)  # nothing cached yet
        self._stats_of(capsys, monkeypatch, corpus)
        assert "incidence" not in corpus.__dict__ and "documents" not in corpus.__dict__

    @pytest.mark.parametrize("stemming", ["none", "light"])
    def test_loads_with_the_layout_and_stemming_flags(self, capsys, monkeypatch, small_corpus,
                                                       stemming):
        argv = ["--layout", "fixture", "--stemming", stemming]
        _, call = self._stats_of(capsys, monkeypatch, small_corpus, argv)
        assert call == (("anywhere",), {"layout": "fixture", "stemming": stemming})

    def test_empty_directory_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, ["stats", "--corpus", str(empty)])
        assert code == 2
        assert "empty corpus" in err

    def test_missing_directory_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope"
        code, _, err = run(capsys, ["stats", "--corpus", str(missing)])
        assert code == 2
        assert err == f"error: unreadable directory: {missing}: No such file or directory\n"

    def test_unreadable_subdirectory_exits_2(self, capsys, tmp_path, deny_scandir):
        write_fixture_corpus(generate_fixture_corpus(7, 9, 1), tmp_path / "part1")
        write_fixture_corpus(generate_fixture_corpus(8, 9, 1), tmp_path / "part2")
        deny_scandir(tmp_path / "part2")
        code, out, err = run(capsys, ["stats", "--corpus", str(tmp_path)])
        assert code == 2 and out == ""
        assert err == "error: unreadable directory: part2: Permission denied\n"


class TestEvaluate:
    def test_writes_csv_and_summary(self, capsys, fixture_dir, tmp_path):
        out_file = tmp_path / "nb.csv"
        code, out, _ = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--classifier", "nb", "--lambda", "1", "--m", "20",
            "--seed", "0", "--out", str(out_file),
        ])
        assert code == 0
        assert "SR=" in out and "TCR=" in out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "# spamlab results v1"
        assert lines[1].startswith("# config {")
        assert lines[2].startswith("classifier,lambda,m,k,seed,")
        row = lines[3].split(",")
        assert row[0] == "nb" and row[1] == "1" and row[2] == "20"
        assert row[3] == ""  # k empty for nb
        assert len(row[-1].split(";")) == 10  # fold_waccs

    def test_stdout_when_no_out_file(self, capsys, fixture_dir):
        code, out, err = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m", "15",
        ])
        assert code == 0
        assert out.startswith("# spamlab results v1")
        assert "TCR=" in err  # summary moves to stderr

    def test_perfect_filter_reports_infinite_tcr(self, capsys, fixture_dir, tmp_path):
        # the fixture corpus is separable: nb at lambda 9 blocks no
        # legitimate message and passes no spam, so WErr is 0
        out_file = tmp_path / "perfect.csv"
        code, out, _ = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--classifier", "nb", "--lambda", "9", "--m", "15", "--out", str(out_file),
        ])
        assert code == 0
        row = dict(zip(CSV_COLUMNS.split(","), out_file.read_text().splitlines()[3].split(",")))
        assert (row["wacc_mean"], row["werr_mean"], row["tcr"]) == ("1.000000", "0.000000", "inf")
        assert out.rstrip().endswith(" TCR=inf")

    def test_oracle_flag_is_a_usage_error(self, capsys, fixture_dir):
        code, out, err = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m", "15", "--oracle",
        ])
        assert (code, out) == (3, "")
        assert err == "error: unrecognized arguments: --oracle\n"

    def test_mb_k_recorded(self, capsys, fixture_dir, tmp_path):
        out_file = tmp_path / "mb.csv"
        code, _, _ = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--classifier", "mb", "--k", "2", "--m", "15", "--out", str(out_file),
        ])
        assert code == 0
        row = out_file.read_text().splitlines()[3].split(",")
        assert row[0] == "mb" and row[3] == "2"

    def test_bad_lambda_exits_3_before_loading(self, capsys, tmp_path):
        # corpus path does not even exist; config must fail first
        code, _, err = run(capsys, [
            "evaluate", "--corpus", str(tmp_path / "absent"), "--lambda", "-1",
        ])
        assert code == 3
        assert "lambda" in err

    def test_bad_k_exits_3_before_loading(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "evaluate", "--corpus", str(tmp_path / "absent"),
            "--classifier", "mb", "--k", "0",
        ])
        assert code == 3
        assert "k >= 1" in err

    def test_unwritable_out_exits_2(self, capsys, fixture_dir, tmp_path):
        code, _, err = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m", "15", "--out", str(tmp_path / "missing" / "x.csv"),
        ])
        assert code == 2
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["1e308", "1e16"])
    def test_lambda_whose_threshold_rounds_to_one_exits_3(self, capsys, fixture_dir, lam):
        code, out, err = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m", "15", "--lambda", lam,
        ])
        assert code == 3
        assert out == ""
        assert err.startswith("error: lambda") and err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["1e15", "8e15"])
    def test_lambda_beyond_float_precision_exits_3(self, capsys, tmp_path, lam):
        # at 8e15 nothing is blocked and 1 - WAcc read 0 (TCR=inf); at 1e15
        # TCR read 0.67 for an exact 1.00
        root = tmp_path / "fx"
        write_fixture_corpus(generate_fixture_corpus(7, 30, 10), root)
        code, out, err = run(capsys, [
            "evaluate", "--corpus", str(root), "--layout", "fixture",
            "--m", "5", "--lambda", lam,
        ])
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: lambda {float(lam):g} is out of range")
        assert err.count("\n") == 1

    def test_m_beyond_vocabulary_exits_2(self, capsys, fixture_dir):
        code, _, err = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m", "500",
        ])
        assert code == 2
        assert "available" in err

    def test_m_below_one_exits_3(self, capsys, fixture_dir):
        code, _, err = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--m", "0",
        ])
        assert code == 3
        assert "invalid m range 0:0:1" in err

    def test_unknown_flag_exits_3(self, capsys, fixture_dir):
        code, _, _ = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--m-range", "10:20:10",
        ])
        assert code == 3

    def test_bad_classifier_exits_3(self, capsys, fixture_dir):
        code, _, _ = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--classifier", "svm",
        ])
        assert code == 3


class TestSweep:
    def test_rows_ascend_in_m(self, capsys, fixture_dir, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, [
            "sweep", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m-range", "10:50:10", "--out", str(out_file),
        ])
        assert code == 0
        rows = out_file.read_text().splitlines()[3:]
        assert [int(r.split(",")[2]) for r in rows] == [10, 20, 30, 40, 50]

    def test_single_point_range(self, capsys, fixture_dir, tmp_path):
        out_file = tmp_path / "one.csv"
        code, _, _ = run(capsys, [
            "sweep", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m-range", "25:25:50", "--out", str(out_file),
        ])
        assert code == 0
        assert len(out_file.read_text().splitlines()) == 4

    def test_malformed_range_exits_3(self, capsys, fixture_dir):
        code, _, err = run(capsys, [
            "sweep", "--corpus", str(fixture_dir), "--m-range", "10-50",
        ])
        assert code == 3
        assert "m-range" in err

    def test_non_integer_range_exits_3(self, capsys, fixture_dir):
        code, out, err = run(capsys, [
            "sweep", "--corpus", str(fixture_dir), "--m-range", "1:x:2",
        ])
        assert code == 3 and out == ""
        assert err == "error: --m-range must be integers FROM:TO:STEP, got '1:x:2'\n"

    def test_m_beyond_vocabulary_exits_2(self, capsys, fixture_dir):
        # the 90/10 fixture has ~118 distinct tokens
        code, _, err = run(capsys, [
            "sweep", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m-range", "500:500:1",
        ])
        assert code == 2
        assert "available" in err

    def test_huge_m_range_exits_2_before_allocating(self, capsys, fixture_dir):
        # per-m state for 10**15 points cannot be allocated at all
        code, _, err = run(capsys, [
            "sweep", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m-range", f"1:{10**15}:1",
        ])
        assert code == 2
        assert "available" in err

    def test_byte_identical_reruns(self, capsys, fixture_dir, tmp_path):
        args = [
            "sweep", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m-range", "10:40:10", "--seed", "3",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestCompare:
    @staticmethod
    def _evaluate(fixture_dir, out_file, extra):
        argv = [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m", "15", "--out", str(out_file),
        ] + extra
        assert main(argv) == 0

    @staticmethod
    def _edit_row(good, bad, fields: dict) -> None:
        """Copy good to bad with the named fields of its one row replaced."""
        lines = good.read_text().splitlines()
        row = dict(zip(CSV_COLUMNS.split(","), lines[3].split(",")))
        lines[3] = ",".join({**row, **fields}.values())
        bad.write_text("\n".join(lines) + "\n")

    @staticmethod
    def _mean_fields(good, mean: str) -> dict:
        """wacc_mean with the werr_mean and tcr that the writer derives from it
        and from good's baseline_werr."""
        row = dict(zip(CSV_COLUMNS.split(","), good.read_text().splitlines()[3].split(",")))
        werr = 1.0 - float(mean)
        tcr = float(row["baseline_werr"]) / werr if werr > 0 else math.inf
        return {"wacc_mean": mean, "werr_mean": f"{werr:.6f}", "tcr": f"{tcr:.6f}"}

    def test_file_against_itself(self, capsys, fixture_dir, tmp_path):
        out_file = tmp_path / "self.csv"
        self._evaluate(fixture_dir, out_file, [])
        code, out, _ = run(capsys, ["compare", str(out_file), str(out_file)])
        assert code == 0
        assert "t=0.000" in out
        assert "not significant" in out

    def test_files_with_finite_tcr_compare(self, capsys, hard_dir, tmp_path):
        # the classes overlap, so both filters err and each file's tcr must
        # agree with its baseline_werr / werr_mean as written
        runs = {"nb": ("6.666667", ["--m", "5"]),
                "mb": ("4.000000", ["--classifier", "mb", "--k", "2", "--m", "50"])}
        for name, (tcr, extra) in runs.items():
            out_file = tmp_path / f"{name}.csv"
            assert main(["evaluate", "--corpus", str(hard_dir), "--layout", "fixture",
                         "--lambda", "1", "--out", str(out_file), *extra]) == 0
            row = dict(zip(CSV_COLUMNS.split(","), out_file.read_text().splitlines()[3].split(",")))
            assert row["tcr"] == tcr
            self._edit_row(out_file, tmp_path / f"{name}-moved.csv",
                           {"tcr": f"{float(tcr) + 0.001:.6f}"})
        capsys.readouterr()
        nb, mb = tmp_path / "nb.csv", tmp_path / "mb.csv"
        code, out, err = run(capsys, ["compare", str(nb), str(mb)])
        assert (code, err) == (0, "")
        assert "df=9" in out
        for name in runs:
            moved = tmp_path / f"{name}-moved.csv"
            code, out, err = run(capsys, ["compare", str(moved), str(tmp_path / f"{name}.csv")])
            assert (code, out) == (3, "")
            assert err == f"error: not a spamlab results v1 file: {moved}\n"

    @pytest.mark.parametrize("wacc_a,wacc_b,expected", [
        ("0.900000", "0.800000", "t=inf df=9 significant"),
        ("0.800000", "0.900000", "t=-inf df=9 not significant"),
    ])
    def test_constant_fold_difference_gives_infinite_t(
        self, capsys, fixture_dir, tmp_path, wacc_a, wacc_b, expected
    ):
        base = tmp_path / "base.csv"
        self._evaluate(fixture_dir, base, [])
        paths = []
        for name, wacc in (("a.csv", wacc_a), ("b.csv", wacc_b)):
            paths.append(tmp_path / name)
            fields = {"fold_waccs": ";".join([wacc] * 10), **self._mean_fields(base, wacc)}
            self._edit_row(base, paths[-1], fields)
        code, out, _ = run(capsys, ["compare", str(paths[0]), str(paths[1])])
        assert code == 0
        assert expected in out

    def test_mismatched_seeds_exit_3(self, capsys, fixture_dir, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self._evaluate(fixture_dir, a, ["--seed", "0"])
        self._evaluate(fixture_dir, b, ["--seed", "1"])
        code, _, err = run(capsys, ["compare", str(a), str(b)])
        assert code == 3
        assert "fold plans differ" in err

    @pytest.mark.parametrize("flag,a_value,b_value", [
        ("--stemming", "light", "none"),
        ("--lambda", "1", "9"),
    ], ids=["stemming", "lambda"])
    def test_mismatched_run_setting_exits_3(
        self, capsys, fixture_dir, tmp_path, flag, a_value, b_value
    ):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self._evaluate(fixture_dir, a, [flag, a_value])
        self._evaluate(fixture_dir, b, [flag, b_value])
        code, _, err = run(capsys, ["compare", str(a), str(b)])
        assert code == 3
        assert err == f"error: fold plans differ: mismatched {flag[2:]}\n"

    def test_layouts_of_one_corpus_compare(self, capsys, fixture_dir, tmp_path):
        # both layout names read the same directory convention, so the folds
        # and their scores are the same: the t-test runs
        a = tmp_path / "lingspam.csv"
        b = tmp_path / "fixture.csv"
        self._evaluate(fixture_dir, a, ["--layout", "lingspam"])
        self._evaluate(fixture_dir, b, ["--layout", "fixture"])
        code, out, _ = run(capsys, ["compare", str(a), str(b)])
        assert code == 0
        assert "t=0.000 df=9 not significant" in out

    def test_nb_versus_mb(self, capsys, fixture_dir, tmp_path):
        a = tmp_path / "nb.csv"
        b = tmp_path / "mb.csv"
        self._evaluate(fixture_dir, a, [])
        self._evaluate(fixture_dir, b, ["--classifier", "mb", "--k", "10"])
        code, out, _ = run(capsys, ["compare", str(a), str(b)])
        assert code == 0
        assert "df=9" in out

    def test_non_result_file_exits_3(self, capsys, tmp_path):
        junk = tmp_path / "junk.csv"
        junk.write_text("hello\nworld\nfoo\nbar\n")
        code, _, _ = run(capsys, ["compare", str(junk), str(junk)])
        assert code == 3

    @pytest.mark.parametrize("line,text", [
        pytest.param(2, CSV_COLUMNS.removesuffix(",fold_waccs"), id="no-fold-waccs"),
        pytest.param(1, '# config {"seed":0', id="config-not-json"),
        pytest.param(1, "# config [0]", id="config-not-object"),
        pytest.param(1, '# config {"k_folds":10,"seed":%s}' % ("1" * 5000), id="config-huge-int"),
        pytest.param(1, '# config {"k_folds":10,"lambda":%s}' % ("1" * 400), id="huge-lambda"),
        pytest.param(3, "PREFIX,abc" + ";0.5" * 9, id="non-numeric-wacc"),
        pytest.param(3, "PREFIX,nan" + ";0.5" * 9, id="nan-wacc"),
        pytest.param(3, "PREFIX,1.5" + ";0.5" * 9, id="wacc-above-one"),
        pytest.param(3, "PREFIX,0.5" + ";0.5" * 8, id="nine-of-ten-folds"),
        pytest.param(3, "nb,1,15", id="short-row"),
        pytest.param(3, "PREFIX," + "0" * 200_000, id="oversized-field"),
    ])
    def test_malformed_result_file_exits_3(
        self, capsys, fixture_dir, tmp_path, line, text
    ):
        good = tmp_path / "good.csv"
        self._evaluate(fixture_dir, good, [])
        lines = good.read_text().splitlines()
        lines[line] = text.replace("PREFIX", lines[3].rsplit(",", 1)[0])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        for pair in ([bad, good], [good, bad]):
            code, _, err = run(capsys, ["compare", str(pair[0]), str(pair[1])])
            assert code == 3
            assert "not a spamlab results v1 file" in err

    @pytest.mark.parametrize("k_folds", [1, 40])
    def test_fold_count_other_than_ten_exits_3(
        self, capsys, fixture_dir, tmp_path, k_folds
    ):
        # consistent echo and rows, but the t table only covers 10 folds
        good = tmp_path / "good.csv"
        self._evaluate(fixture_dir, good, [])
        lines = good.read_text().splitlines()
        lines[1] = lines[1].replace('"k_folds":10', f'"k_folds":{k_folds}')
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + ";".join(["0.5"] * k_folds)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, ["compare", str(bad), str(bad)])
        assert code == 3
        assert "not a spamlab results v1 file" in err

    @pytest.mark.parametrize("column,text", [
        ("wacc_mean", 'hello"world'),
        ("m", "twenty"),
        ("lambda", "1e400"),  # under an echo of 9.0
        ("classifier", "svm"),
        ("k", "-3"),
        ("seed", "x"),
        ("tcr", "nan"),
        ("m", "0"),
        ("sr", "0.5"),  # parses, but the writer renders 0.500000
        ("sp", "-inf"),
        ("werr_mean", "1.000001"),
        ("werr_mean", "0.900000"),  # in range, but not 1 - wacc_mean
        ("tcr", "0.000000"),  # in range, but not baseline_werr / werr_mean
        ("baseline_werr", "0.500000"),  # nor tcr * werr_mean
    ])
    def test_bad_field_exits_3(self, capsys, fixture_dir, tmp_path, column, text):
        good = tmp_path / "good.csv"  # m = 1 errs: werr 0.012195 = baseline, tcr 1
        self._evaluate(fixture_dir, good, ["--lambda", "9", "--m", "1"])
        bad = tmp_path / "bad.csv"
        self._edit_row(good, bad, {column: text})
        capsys.readouterr()
        for pair in ([bad, good], [good, bad]):
            code, out, err = run(capsys, ["compare", str(pair[0]), str(pair[1])])
            assert (code, out) == (3, "")
            assert err == f"error: not a spamlab results v1 file: {bad}\n"

    @pytest.mark.parametrize("oracle", ["true", "0", "null"])
    def test_echo_of_an_oracle_run_exits_3(self, capsys, fixture_dir, tmp_path, oracle):
        # the writer's echo always holds "oracle":false; no run can write another
        good = tmp_path / "good.csv"
        self._evaluate(fixture_dir, good, [])
        lines = good.read_text().splitlines()
        assert '"oracle":false' in lines[1]
        lines[1] = lines[1].replace('"oracle":false', f'"oracle":{oracle}')
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for pair in ([bad, good], [good, bad]):
            code, out, err = run(capsys, ["compare", str(pair[0]), str(pair[1])])
            assert (code, out) == (3, "")
            assert err == f"error: not a spamlab results v1 file: {bad}\n"

    @pytest.mark.parametrize("extra", [
        ["--lambda", "1.23456789"],  # row lambda 1.23457
    ], ids=["lambda-beyond-6-digits"])
    def test_row_that_differs_from_its_echo_as_written_compares(
        self, capsys, fixture_dir, tmp_path, extra
    ):
        a = tmp_path / "a.csv"
        self._evaluate(fixture_dir, a, extra)
        code, out, err = run(capsys, ["compare", str(a), str(a)])
        assert (code, err) == (0, "")
        assert "t=0.000 df=9 not significant" in out

    @pytest.mark.parametrize("mean,code", [
        ("0.100001", 0), ("0.099999", 0), ("0.100002", 3), ("0.099998", 3),
    ])
    def test_wacc_mean_may_miss_the_fold_mean_by_two_roundings(
        self, capsys, fixture_dir, tmp_path, mean, code
    ):
        # each 6-decimal rounding moves a value by half a millionth at most
        good = tmp_path / "good.csv"
        self._evaluate(fixture_dir, good, [])
        edited = tmp_path / "edited.csv"
        fields = {"fold_waccs": ";".join(["0.100000"] * 10), **self._mean_fields(good, mean)}
        self._edit_row(good, edited, fields)
        assert run(capsys, ["compare", str(edited), str(edited)])[0] == code

    def test_undecodable_result_file_exits_3(self, capsys, fixture_dir, tmp_path):
        good = tmp_path / "good.csv"
        self._evaluate(fixture_dir, good, [])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe" + good.read_bytes())
        code, _, err = run(capsys, ["compare", str(bad), str(good)])
        assert code == 3
        assert "not a spamlab results v1 file" in err

    def test_sweep_file_rejected(self, capsys, fixture_dir, tmp_path):
        sweep_file = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m-range", "10:20:10", "--out", str(sweep_file),
        ]) == 0
        code, _, err = run(capsys, ["compare", str(sweep_file), str(sweep_file)])
        assert code == 3
        assert "single-configuration" in err


class TestFixtureCommand:
    def test_writes_requested_counts(self, capsys, tmp_path):
        root = tmp_path / "corpus"
        code, out, _ = run(capsys, [
            "fixture", "--out", str(root), "--seed", "3",
            "--n-legit", "12", "--n-spam", "4",
        ])
        assert code == 0
        assert "wrote 16 messages" in out
        assert len(list(root.iterdir())) == 16

    def test_deterministic_across_runs(self, capsys, tmp_path):
        args = ["fixture", "--seed", "5", "--n-legit", "6", "--n-spam", "3"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_doc_len_exits_3(self, capsys, tmp_path):
        for bad, message in (
            ("20", "--doc-len must be MIN:MAX, got '20'"),
            ("a:b", "--doc-len must be integers MIN:MAX, got 'a:b'"),
            ("9:x", "--doc-len must be integers MIN:MAX, got '9:x'"),
            ("9:5", "invalid fixture parameters: need 1 <= doc_len_min <= doc_len_max"),
        ):
            code, _, err = run(capsys, [
                "fixture", "--out", str(tmp_path / "x"), "--doc-len", bad,
            ])
            assert code == 3, bad
            assert err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, out):
        (tmp_path / "afile").write_text("not a directory")
        code, _, err = run(capsys, ["fixture", "--out", str(tmp_path / out)])
        assert code == 2
        assert err.startswith("error: cannot write") and err.count("\n") == 1


class TestInternalError:
    @pytest.mark.parametrize("error", [ValueError, SpamlabError])
    def test_exits_1_with_one_line(self, capsys, monkeypatch, error):
        def failing(args):
            raise error("bad value")

        monkeypatch.setitem(spamlab.cli._COMMANDS, "stats", failing)
        code, out, err = run(capsys, ["stats", "--corpus", "anywhere"])
        assert code == 1 and out == ""
        assert err == "error: bad value\n"


class _FullStream(io.StringIO):
    """A standard output on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestFailedStdout:
    @pytest.mark.parametrize("argv", [
        ["stats"],
        ["evaluate", "--m", "20", "--out", "-"],
        ["sweep", "--m-range", "10:30:10", "--out", "{tmp}/sweep.csv"],
    ], ids=["stats", "evaluate-csv", "sweep-summary"])
    def test_exits_2_with_one_line(self, capsys, monkeypatch, fixture_dir, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        argv[1:1] = ["--corpus", str(fixture_dir), "--layout", "fixture"]
        monkeypatch.setattr(sys, "stdout", _FullStream())
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: cannot write output: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
    @pytest.mark.parametrize("argv", [
        ["stats"],
        ["sweep", "--m-range", "10:30:10", "--out", "{tmp}/sweep.csv"],
    ], ids=["stats", "sweep-summary"])
    def test_buffered_stdout_exits_2_with_one_line(self, fixture_dir, tmp_path, argv, sink):
        # A block-buffered stdout fails at the flush in main; the bytes it
        # still holds must not fail a second time at interpreter exit.
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        argv[1:1] = ["--corpus", str(fixture_dir), "--layout", "fixture"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(spamlab.cli.__file__).parents[1])
        if sink == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            stdout = os.open("/dev/full", os.O_WRONLY)
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "spamlab", *argv],
                stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(stdout)
        assert child.returncode == 2, child.stderr
        assert child.stderr.startswith("error: cannot write output: ")
        assert child.stderr.count("\n") == 1, child.stderr


def test_readme_result_header_is_csv_columns():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Result file format\n\n```\n", 1)[1].split("```", 1)[0]
    assert block.splitlines()[2] == CSV_COLUMNS


def test_readme_flags_are_the_run_commands_flags():
    # the Flags: paragraph names every flag of evaluate and sweep, and no other
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)", paragraph))
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = {option for command in ("evaluate", "sweep")
             for action in commands[command]._actions for option in action.option_strings}
    assert documented == flags - {"-h", "--help"}


def test_readme_cli_example_reproduces(capsys, monkeypatch, tmp_path):
    # README's CLI block, run in process with /tmp/fix under tmp_path: each
    # "# " line right after a command is output that the command must print
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    output, shown = [], []
    for paragraph in block.split("\n\n"):
        after_command = False
        for line in paragraph.replace("\\\n", " ").splitlines():
            if line.startswith("spamlab "):
                argv = line.replace("/tmp/fix", str(tmp_path / "fix")).split()[1:]
                assert main(argv) == 0
                output += capsys.readouterr().out.splitlines()
                after_command = True
            elif after_command:
                assert line.startswith("# ")
                shown.append(line[2:])
    assert len(shown) == 5
    for line in shown:
        assert line in output
