from __future__ import annotations

import pytest

from spamlab import generate_fixture_corpus
from spamlab.cli import CSV_COLUMNS, main


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "corpus"
    generate_fixture_corpus(7, 90, 10, out_dir=root)
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

    def test_empty_directory_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, ["stats", "--corpus", str(empty)])
        assert code == 2
        assert "empty corpus" in err

    def test_missing_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["stats", "--corpus", str(tmp_path / "nope")])
        assert code == 2
        assert "unreadable directory" in err


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

    def test_oracle_hook_reports_infinite_tcr(self, capsys, fixture_dir, tmp_path):
        out_file = tmp_path / "oracle.csv"
        code, _, _ = run(capsys, [
            "evaluate", "--corpus", str(fixture_dir), "--layout", "fixture",
            "--m", "15", "--oracle", "--out", str(out_file),
        ])
        assert code == 0
        row = out_file.read_text().splitlines()[3].split(",")
        assert row[0] == "oracle"
        assert row[10] == "inf"

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
        assert "invalid m '0'" in err

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

    def test_file_against_itself(self, capsys, fixture_dir, tmp_path):
        out_file = tmp_path / "self.csv"
        self._evaluate(fixture_dir, out_file, [])
        code, out, _ = run(capsys, ["compare", str(out_file), str(out_file)])
        assert code == 0
        assert "t=0.000" in out
        assert "not significant" in out

    def test_mismatched_seeds_exit_3(self, capsys, fixture_dir, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self._evaluate(fixture_dir, a, ["--seed", "0"])
        self._evaluate(fixture_dir, b, ["--seed", "1"])
        code, _, err = run(capsys, ["compare", str(a), str(b)])
        assert code == 3
        assert "fold plans differ" in err

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
        pytest.param(3, "PREFIX,abc" + ";0.5" * 9, id="non-numeric-wacc"),
        pytest.param(3, "PREFIX,nan" + ";0.5" * 9, id="nan-wacc"),
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
        for bad in ("20", "a:b", "9:5"):
            code, _, _ = run(capsys, [
                "fixture", "--out", str(tmp_path / "x"), "--doc-len", bad,
            ])
            assert code == 3, bad

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, out):
        (tmp_path / "afile").write_text("not a directory")
        code, _, err = run(capsys, ["fixture", "--out", str(tmp_path / out)])
        assert code == 2
        assert err.startswith("error: cannot write") and err.count("\n") == 1
