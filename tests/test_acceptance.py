"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s to see them on success).

The Ling-Spam reproduction criteria need the real corpus; point
LINGSPAM_DIR at the corpus root (the directory variant whose messages are
plain text, e.g. .../lingspam_public/bare).  Without it those two
criteria skip with a notice and everything else still runs.
"""

from __future__ import annotations

import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from oracles import mi_direct, posterior_legit_direct, posterior_spam_direct
from spamlab import (
    ClassifierConfig,
    ConfusionCounts,
    DecisionPolicy,
    FixtureParams,
    Label,
    baseline_metrics,
    build_instance_base,
    classify_mb_batch,
    classify_nb_batch,
    cross_validate,
    generate_fixture_corpus,
    load_corpus,
    make_stratified_folds,
    mutual_information_batch,
    neighborhood_votes,
    paired_t_test,
    posterior_spam_batch,
    select_attributes,
    sweep_attributes,
    token_class_counts,
    total_cost_ratio,
    train_naive_bayes,
    vectorize_documents,
    weighted_accuracy,
)
from spamlab.cli import main as cli_main


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert passed, f"criterion {number} ({name}): {detail}"


def skip(number: int, name: str, reason: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): SKIP {reason}")
    pytest.skip(reason)


def _lingspam_root() -> Path | None:
    candidates = []
    env = os.environ.get("LINGSPAM_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "lingspam")
    for root in candidates:
        if not root.is_dir():
            continue
        for nested in (root / "bare", root / "lingspam_public" / "bare"):
            if nested.is_dir():
                return nested
        return root
    return None


@pytest.fixture(scope="module")
def lingspam_results():
    """Every Ling-Spam configuration the acceptance criteria need, or None."""
    root = _lingspam_root()
    if root is None:
        return None
    started = time.monotonic()
    corpus = load_corpus(root, layout="lingspam")
    plan = make_stratified_folds(corpus, seed=0)
    results = {
        "corpus": corpus,
        "nb_l1_m100": cross_validate(corpus, ClassifierConfig("nb"), 1.0, 100, plan),
        "mb1_l1_m50": cross_validate(corpus, ClassifierConfig("mb", k=1), 1.0, 50, plan),
        "mb2_l1_m50": cross_validate(corpus, ClassifierConfig("mb", k=2), 1.0, 50, plan),
        "nb_l9_m100": cross_validate(corpus, ClassifierConfig("nb"), 9.0, 100, plan),
        "mb10_l1_m100": cross_validate(corpus, ClassifierConfig("mb", k=10), 1.0, 100, plan),
        "nb_l999_sweep": sweep_attributes(corpus, ClassifierConfig("nb"), 999.0, plan),
    }
    results["elapsed"] = time.monotonic() - started
    return results


class TestCriterion1Baseline:
    def test_baseline_exactness(self):
        rendered = {
            lam: f"{baseline_metrics(2412, 481, lam)[0] * 100:.3f}"
            for lam in (1.0, 9.0, 999.0)
        }
        expected = {1.0: "83.374", 9.0: "97.832", 999.0: "99.980"}
        report(
            1,
            "baseline exactness",
            rendered == expected,
            f"rendered={rendered}",
        )


class TestCriterion2TableReproduction:
    def test_best_configurations(self, lingspam_results):
        if lingspam_results is None:
            skip(2, "Ling-Spam reproduction",
                 "Ling-Spam corpus not found; set LINGSPAM_DIR to the corpus "
                 "root (plain-text variant, e.g. .../lingspam_public/bare)")
        nb1 = lingspam_results["nb_l1_m100"]
        mb1 = lingspam_results["mb1_l1_m50"]
        nb9 = lingspam_results["nb_l9_m100"]
        elapsed = lingspam_results["elapsed"]
        checks = {
            "nb_l1_tcr": 4.3 <= nb1.tcr <= 6.5,
            "nb_l1_sr": abs(nb1.spam_recall * 100 - 82.35) <= 5.0,
            "nb_l1_sp": nb1.spam_precision >= 0.95,
            "mb1_l1_tcr": 4.2 <= mb1.tcr <= 6.5,
            "nb_l9_tcr": 2.8 <= nb9.tcr <= 4.8,
            "runtime": elapsed < 600.0,
        }
        detail = (
            f"nb(l=1,m=100): TCR={nb1.tcr:.2f} SR={nb1.spam_recall * 100:.2f}% "
            f"SP={nb1.spam_precision * 100:.2f}% | "
            f"mb(k=1,l=1,m=50): TCR={mb1.tcr:.2f} | "
            f"nb(l=9,m=100): TCR={nb9.tcr:.2f} | elapsed={elapsed:.0f}s | "
            f"failed={[k for k, ok in checks.items() if not ok]}"
        )
        report(2, "Ling-Spam reproduction", all(checks.values()), detail)


class TestCriterion3QualitativeShape:
    def test_large_k_collapse_and_high_lambda_difficulty(self, lingspam_results):
        if lingspam_results is None:
            skip(3, "Ling-Spam qualitative shape",
                 "Ling-Spam corpus not found; set LINGSPAM_DIR to the corpus "
                 "root (plain-text variant, e.g. .../lingspam_public/bare)")
        nb1 = lingspam_results["nb_l1_m100"]
        mb1 = lingspam_results["mb1_l1_m50"]
        mb2 = lingspam_results["mb2_l1_m50"]
        mb10 = lingspam_results["mb10_l1_m100"]
        sweep = lingspam_results["nb_l999_sweep"]
        competitors = min(nb1.tcr, mb1.tcr, mb2.tcr)
        near_or_below = sum(1 for r in sweep if r.tcr < 1.1)
        checks = {
            "mb10_far_below": mb10.tcr < 0.6 * competitors and mb10.tcr < 2.5,
            "lambda999_hard": near_or_below >= len(sweep) // 2,
        }
        detail = (
            f"mb(k=10): TCR={mb10.tcr:.2f} vs best-of-others={competitors:.2f} | "
            f"lambda=999 sweep TCRs="
            f"{[round(r.tcr, 2) for r in sweep]} ({near_or_below}/14 below 1.1) | "
            f"failed={[k for k, ok in checks.items() if not ok]}"
        )
        report(3, "Ling-Spam qualitative shape", all(checks.values()), detail)

    # A third of Ling-Spam's class sizes with the benchmark corpus's shape.
    # Fixed parameters and seeds: never retune them to make a change pass.
    SHAPE = FixtureParams(
        vocab_size=17576, shared_fraction=0.8, overlap=0.98,
        doc_len_min=100, doc_len_max=600,
    )

    @pytest.mark.parametrize("seed", [7, 1017])
    def test_shape_on_lingspam_shaped_fixture(self, seed):
        corpus = generate_fixture_corpus(seed, 804, 160, self.SHAPE)
        plan = make_stratified_folds(corpus, seed=0)
        nb_config = ClassifierConfig("nb")
        nb = {
            lam: [r.tcr for r in sweep_attributes(corpus, nb_config, lam, plan)]
            for lam in (1.0, 9.0, 999.0)
        }
        mb = [
            cross_validate(corpus, ClassifierConfig("mb", k=k), 1.0, 100, plan).tcr
            for k in (1, 2, 10)
        ]
        best_nb = [max(tcrs) for tcrs in nb.values()]
        checks = {
            "nb_best_falls_with_lambda": best_nb[0] > best_nb[1] > best_nb[2],
            "mb_falls_with_k": mb[0] > mb[1] > mb[2],
            "mb10_is_baseline": abs(mb[2] - 1.0) <= 0.01,
            "nb_beats_baseline": min(min(tcrs) for tcrs in nb.values()) > 1.0,
        }
        detail = (
            f"seed={seed} best nb TCR at lambda=1/9/999: "
            f"{[round(t, 2) for t in best_nb]} | mb(k=1/2/10, m=100) TCR: "
            f"{[round(t, 2) for t in mb]} | "
            f"failed={[k for k, ok in checks.items() if not ok]}"
        )
        report(3, "shape on a Ling-Spam-shaped fixture", all(checks.values()), detail)


class TestCriterion4OracleSuites:
    def test_mi_against_brute_force(self):
        from spamlab import Document
        from spamlab.corpus import Corpus

        rng = random.Random(101)
        vocabulary = [f"tok{i}" for i in range(20)]
        worst = 0.0
        scored = 0
        for trial in range(40):
            docs = []
            for i in range(rng.randint(2, 25)):
                spam = rng.random() < 0.4
                prefix = "spmsg" if spam else "msg"
                docs.append(
                    Document(
                        tuple(rng.sample(vocabulary, rng.randint(1, 10))),
                        Label.SPAM if spam else Label.LEGITIMATE,
                        f"{prefix}{trial:02d}{i:03d}",
                    )
                )
            stats = token_class_counts(Corpus.from_documents(docs))
            if stats.n_spam == 0 or stats.n_legit == 0:
                continue
            mine = mutual_information_batch(
                stats.n1_spam, stats.n1_legit, stats.n_spam, stats.n_legit
            )
            for n1_spam, n1_legit, score in zip(
                stats.n1_spam.tolist(), stats.n1_legit.tolist(), mine
            ):
                reference = mi_direct(n1_spam, n1_legit, stats.n_spam, stats.n_legit)
                worst = max(worst, abs(score - reference))
                scored += 1
        report(4, "MI vs direct summation", worst <= 1e-12 and scored > 100,
               f"max|diff|={worst:.2e} over {scored} token scores")

    def test_posterior_against_non_log_products(self):
        rng = random.Random(103)
        worst = 0.0
        for _ in range(300):
            m = rng.randint(0, 10)
            prior = rng.uniform(0.05, 0.95)
            p1s = [rng.uniform(0.01, 0.99) for _ in range(m)]
            p1l = [rng.uniform(0.01, 0.99) for _ in range(m)]
            bits = [rng.randint(0, 1) for _ in range(m)]
            from test_bayes import model_of

            model = model_of(prior, p1s, p1l)
            mine = posterior_spam_batch(model, np.array([bits], dtype=np.uint8))[0]
            reference = posterior_spam_direct(prior, 1.0 - prior, p1s, p1l, bits)
            worst = max(worst, abs(mine - reference))
        report(4, "posterior vs raw products", worst <= 1e-9, f"max|diff|={worst:.2e}")

    def test_neighborhood_against_sort_based(self):
        from test_memory import direct_votes

        rng = random.Random(107)
        mismatches = 0
        for _ in range(60):
            n = rng.randint(1, 50)
            m = rng.randint(1, 10)
            rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            labels = [rng.randint(0, 1) for _ in range(n)]
            base = build_instance_base(
                np.array(rows, dtype=np.uint8), [Label(v) for v in labels]
            )
            query = [rng.randint(0, 1) for _ in range(m)]
            k = rng.randint(1, 6)
            spam, legit = neighborhood_votes(base, np.array([query], dtype=np.uint8), k)
            mismatches += (spam.tolist(), legit.tolist()) != direct_votes(
                rows, labels, [query], k
            )
        report(4, "neighborhood vs sort-based", mismatches == 0,
               f"mismatches={mismatches}/60")


class TestCriterion5Properties:
    def test_posterior_two_class_normalization(self):
        rng = random.Random(109)
        from test_bayes import model_of

        worst = 0.0
        for _ in range(300):
            m = rng.randint(0, 30)
            model = model_of(
                rng.uniform(0.05, 0.95),
                [rng.uniform(0.01, 0.99) for _ in range(m)],
                [rng.uniform(0.01, 0.99) for _ in range(m)],
            )
            bits = [rng.randint(0, 1) for _ in range(m)]
            legit = posterior_legit_direct(
                model.prior_spam,
                model.prior_legit,
                list(model.p1_spam),
                list(model.p1_legit),
                bits,
            )
            total = posterior_spam_batch(model, np.array([bits], dtype=np.uint8))[0] + legit
            worst = max(worst, abs(total - 1.0))
        report(5, "two-class normalization", worst <= 1e-12, f"max|sum-1|={worst:.2e}")

    def test_lambda_monotone_spam_sets_both_classifiers(self):
        corpus = generate_fixture_corpus(
            7, 170, 30, FixtureParams(overlap=0.85, shared_fraction=0.5)
        )
        attrs = select_attributes(token_class_counts(corpus), 30)
        matrix, labels = vectorize_documents(corpus.documents, attrs)
        queries = matrix[:200]
        model = train_naive_bayes(matrix, labels)
        base = build_instance_base(matrix, labels)
        lambdas = (1.0, 3.0, 9.0, 99.0, 999.0)
        ok = True
        for classify in (
            lambda policy: classify_nb_batch(model, queries, policy),
            lambda policy: classify_mb_batch(base, queries, 3, policy),
        ):
            spam_sets = []
            for lam in lambdas:
                predicted = classify(DecisionPolicy.from_lambda(lam))
                spam_sets.append(set(np.flatnonzero(predicted == 1).tolist()))
            ok = ok and bool(spam_sets[0])
            ok = ok and all(b <= a for a, b in zip(spam_sets, spam_sets[1:]))
        report(5, "lambda-monotone decisions", ok, "nb and mb, 200 vectors")

    def test_mi_non_negative(self):
        rng = random.Random(113)
        lowest = math.inf
        for _ in range(500):
            n_spam = rng.randint(1, 40)
            n_legit = rng.randint(1, 40)
            n1_spam = np.array([rng.randint(0, n_spam)])
            n1_legit = np.array([rng.randint(0, n_legit)])
            score = mutual_information_batch(n1_spam, n1_legit, n_spam, n_legit)[0]
            lowest = min(lowest, score)
        report(5, "MI non-negativity", lowest >= -1e-12, f"min={lowest:.2e}")

    def test_top_m_prefix(self):
        corpus = generate_fixture_corpus(7, 90, 10)
        stats = token_class_counts(corpus)
        full = select_attributes(stats, 80)
        ok = all(
            select_attributes(stats, m).tokens == full.tokens[:m]
            for m in (1, 5, 20, 50, 79)
        )
        report(5, "top-m prefix property", ok)

    def test_wacc_werr_duality(self):
        rng = random.Random(127)
        ok = True
        for _ in range(500):
            counts = ConfusionCounts(
                n_legit_legit=rng.randint(0, 200),
                n_legit_spam=rng.randint(0, 200),
                n_spam_spam=rng.randint(0, 200),
                n_spam_legit=rng.randint(0, 200),
            )
            if counts.total == 0:
                continue
            lam = rng.choice([0.5, 1.0, 3.0, 9.0, 999.0])
            wacc, werr = weighted_accuracy(counts, lam)
            ok = ok and (wacc + werr == 1.0)
        report(5, "wacc + werr = 1", ok)

    def test_tcr_below_one_iff_worse_than_baseline(self):
        rng = random.Random(131)
        ok = True
        for _ in range(500):
            counts = ConfusionCounts(
                n_legit_legit=rng.randint(0, 100),
                n_legit_spam=rng.randint(0, 100),
                n_spam_spam=rng.randint(0, 100),
                n_spam_legit=rng.randint(0, 100),
            )
            if counts.total == 0 or counts.n_spam == 0:
                continue
            lam = rng.choice([1.0, 3.0, 9.0, 999.0])
            tcr = total_cost_ratio(counts, lam)
            _, werr = weighted_accuracy(counts, lam)
            _, baseline_werr = baseline_metrics(counts.n_legit, counts.n_spam, lam)
            ok = ok and ((tcr < 1.0) == (werr > baseline_werr))
        report(5, "TCR<1 iff werr>baseline", ok)

    def test_fold_stratification_bound(self):
        corpus = generate_fixture_corpus(7, 83, 29)
        ok = True
        for seed in range(12):
            plan = make_stratified_folds(corpus, seed=seed)
            for take_spam in (True, False):
                sizes = []
                for fold in range(plan.k_folds):
                    indices = plan.test_indices(fold)
                    spam = sum(
                        1
                        for i in indices
                        if (corpus.documents[i].label is Label.SPAM) == take_spam
                    )
                    sizes.append(spam)
                ok = ok and max(sizes) - min(sizes) <= 1
        report(5, "fold stratification bound", ok, "12 seeds")

    def test_always_legitimate_is_the_baseline(self):
        corpus = generate_fixture_corpus(7, 900, 180)
        plan = make_stratified_folds(corpus, seed=0)
        ok = True
        for lam in (1.0, 9.0, 999.0):
            result = cross_validate(
                corpus, ClassifierConfig(kind="always-legit"), lam, 10, plan
            )
            expected_wacc, _ = baseline_metrics(corpus.n_legit, corpus.n_spam, lam)
            ok = ok and result.mean_wacc == expected_wacc and result.tcr == 1.0
        report(5, "always-legit equals baseline exactly", ok, "lambda in {1,9,999}")


class TestCriterion6Statistics:
    def test_reference_d_vector(self):
        d = [0.02, 0.00, 0.01, 0.03, 0.00, 0.02, 0.01, 0.00, 0.02, 0.01]
        b = [0.95] * 10
        a = [x + delta for x, delta in zip(b, d)]
        outcome = paired_t_test(a, b)
        # independent references: hand formula and scipy agree on 3.6742
        reference = scipy_stats.ttest_1samp(d, 0.0, alternative="greater").statistic
        checks = {
            "matches_reference": abs(outcome.t_statistic - reference) <= 1e-9,
            "frozen_value": abs(outcome.t_statistic - 3.6742) <= 0.01,
            "significant": outcome.significant_at_05,
            "df": outcome.degrees_of_freedom == 9,
        }
        detail = (
            f"t={outcome.t_statistic:.4f} reference={reference:.4f} "
            f"failed={[k for k, ok in checks.items() if not ok]}"
        )
        report(6, "reference t-test value", all(checks.values()), detail)

    def test_identical_scores_not_significant(self):
        scores = [0.9, 0.92, 0.91, 0.95, 0.9, 0.93, 0.92, 0.9, 0.94, 0.91]
        outcome = paired_t_test(scores, scores)
        report(
            6,
            "identical scores not significant",
            outcome.t_statistic == 0.0 and not outcome.significant_at_05,
            f"t={outcome.t_statistic}",
        )


class TestCriterion7Determinism:
    def test_sweep_reruns_byte_identical(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        generate_fixture_corpus(7, 90, 10, out_dir=corpus_dir)
        args = [
            "sweep", "--corpus", str(corpus_dir), "--layout", "fixture",
            "--m-range", "10:40:10", "--seed", "5",
        ]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        capsys.readouterr()
        identical = first.read_bytes() == second.read_bytes()
        report(7, "byte-identical sweep reruns", identical,
               f"{first.stat().st_size} bytes each")
