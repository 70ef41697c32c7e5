"""Metric, correlation, and report tests with independent oracles."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import melbert
from melbert.bpe import train_bpe
from melbert.data import make_synthetic_corpus
from melbert.errors import ContractError
from melbert.evaluation import (
    MetricsReport,
    breakdown,
    evaluate_model,
    regression_scores,
    render_table,
    report_to_json,
    score_predictions,
    unknown_rates,
)
from melbert.model import Prediction
from melbert.rng import Rng


def loop_metrics(pred, gold):
    """Oracle: plain python counting loop."""
    tp = sum(1 for p, g in zip(pred, gold) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(pred, gold) if p == 1 and g == 0)
    fn = sum(1 for p, g in zip(pred, gold) if p == 0 and g == 1)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def slow_ranks(xs):
    """Oracle: average ranks by explicit tie-group walking."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


class ScriptedModel:
    """Plays back a fixed prediction sequence."""

    def __init__(self, labels):
        self._labels = list(labels)
        self._i = 0

    def predict(self, inst):
        lbl = self._labels[self._i % len(self._labels)]
        self._i += 1
        return Prediction(score=float(lbl), label=int(lbl))


class TestScorePredictions:
    """Confusion counts and derived metrics."""

    def test_hand_example(self):
        # tp=3 fp=1 fn=2 tn=4
        pred = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        gold = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        r = score_predictions(pred, gold)
        assert (r.tp, r.fp, r.fn, r.tn) == (3, 1, 2, 4)
        assert r.precision == pytest.approx(0.75)
        assert r.recall == pytest.approx(0.6)
        assert r.f1 == pytest.approx(2 / 3, abs=1e-4)
        assert r.flags == [] and r.n == 10

    def test_against_loop_oracle(self):
        rng = Rng(0, "metrics")
        for _ in range(200):
            n = int(rng.integers(1, 40))
            pred = rng.integers(0, 2, n).tolist()
            gold = rng.integers(0, 2, n).tolist()
            r = score_predictions(pred, gold)
            prec, rec, f1 = loop_metrics(pred, gold)
            assert r.precision == pytest.approx(prec, abs=1e-12)
            assert r.recall == pytest.approx(rec, abs=1e-12)
            assert r.f1 == pytest.approx(f1, abs=1e-12)

    def test_zero_denominator_flags(self):
        r = score_predictions([0, 0, 0], [1, 0, 1])
        assert r.precision == 0.0 and "no_positive_predictions" in r.flags
        r = score_predictions([0, 1], [0, 0])
        assert r.recall == 0.0 and "no_positive_gold" in r.flags
        r = score_predictions([0, 0], [0, 0])
        assert r.f1 == 0.0 and "f1_undefined" in r.flags

    def test_contracts(self):
        with pytest.raises(ContractError):
            score_predictions([1, 0], [1])
        with pytest.raises(ContractError):
            score_predictions([], [])
        with pytest.raises(ContractError):
            score_predictions([2, 0], [1, 0])


class TestBreakdown:
    """Per-group splits."""

    def test_groups_and_missing_keys(self):
        pred = [1, 0, 1, 1]
        gold = [1, 0, 0, 1]
        keys = ["news", "news", None, "fiction"]
        groups, skipped = breakdown(pred, gold, keys)
        assert set(groups) == {"news", "fiction"} and skipped == 1
        assert groups["news"].tp == 1 and groups["news"].tn == 1
        assert groups["fiction"].f1 == pytest.approx(1.0)

    def test_alignment_contract(self):
        with pytest.raises(ContractError):
            breakdown([1], [1, 0], ["a", "b"])


class TestRegression:
    """Correlations against scipy and a hand rank oracle."""

    def test_pearson_against_corrcoef(self):
        rng = Rng(2, "pearson")
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = rng.normal(n)
            y = 0.5 * x + rng.normal(n)
            r = regression_scores(x, y)
            assert r.pearson == pytest.approx(np.corrcoef(x, y)[0, 1], rel=1e-12)

    def test_spearman_with_ties_against_oracles(self):
        rng = Rng(3, "spearman")
        for _ in range(50):
            n = int(rng.integers(4, 25))
            # small integer support forces ties
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, 5, n).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            r = regression_scores(x, y)
            hand = np.corrcoef(slow_ranks(list(x)), slow_ranks(list(y)))[0, 1]
            assert r.spearman == pytest.approx(hand, rel=1e-10)
            ref = stats.spearmanr(x, y).statistic
            assert r.spearman == pytest.approx(ref, rel=1e-10)

    def test_perfect_monotone(self):
        r = regression_scores([0.1, 0.2, 0.7, 0.9], [0.0, 1.0, 2.0, 5.0])
        assert r.spearman == pytest.approx(1.0)

    def test_constant_series_flagged(self):
        r = regression_scores([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])
        assert r.flags == ["constant_series"]
        assert r.pearson == 0.0 and r.spearman == 0.0

    def test_too_short(self):
        with pytest.raises(ContractError):
            regression_scores([0.1, 0.2], [0.3, 0.4])

    def test_runs_without_scipy(self, monkeypatch):
        x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0]
        y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0, 2.0]
        monkeypatch.setitem(sys.modules, "scipy", None)  # any import of scipy now fails
        with pytest.raises(ImportError):
            import scipy  # noqa: F401
        r = regression_scores(x, y)
        monkeypatch.undo()
        assert r.spearman == pytest.approx(stats.spearmanr(x, y).statistic, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ContractError):
            regression_scores([0.1, bad, 0.3], [0.3, 0.4, 0.5])


class TestEvaluateModel:
    """Corpus-level aggregation."""

    CORPUS = make_synthetic_corpus(5, 20)

    def test_oracle_predictions_score_one(self):
        model = ScriptedModel([int(i.gold) for i in self.CORPUS])
        report = evaluate_model(model, self.CORPUS)
        assert report.overall.f1 == pytest.approx(1.0)
        assert set(report.by_pos) <= {"NOUN", "VERB"}
        for r in report.by_genre.values():
            assert r.f1 == pytest.approx(1.0)

    def test_missing_genre_counted(self):
        stripped = [dataclasses.replace(i, genre=None) for i in self.CORPUS[:4]]
        model = ScriptedModel([int(i.gold) for i in stripped])
        report = evaluate_model(model, stripped)
        assert report.skipped_genre == 4 and report.by_genre == {}

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            evaluate_model(ScriptedModel([0]), [])


def test_import_leaves_scipy_stats_unloaded():
    """Loading scipy.stats takes about a second; only the rank correlation
    needs it, so importing the package must not."""
    src = Path(melbert.__file__).resolve().parents[1]
    code = "import sys, melbert.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestZeroShot:
    """Transfer evaluation tracks unknown-token exposure."""

    def test_unk_rates(self):
        corpus = make_synthetic_corpus(6, 12)
        vocab = train_bpe((" ".join(i.tokens) for i in corpus), 220)
        alien = [
            dataclasses.replace(corpus[0], tokens=("qqq", "xxjz"), target_index=1,
                                sentence_id="alien-1"),
            corpus[1],
        ]
        rates = unknown_rates(vocab, alien)
        assert rates["unk_target_rate"] == pytest.approx(0.5)
        assert 0.0 < rates["unk_token_rate"] < 1.0

    def test_in_vocab_corpus_has_zero_rates(self):
        corpus = make_synthetic_corpus(6, 12)
        vocab = train_bpe((" ".join(i.tokens) for i in corpus), 220)
        rates = unknown_rates(vocab, corpus)
        assert rates["unk_target_rate"] == 0.0
        assert rates["unk_token_rate"] == 0.0


class TestRendering:
    """Tables and JSON documents."""

    def test_percent_row(self):
        row = MetricsReport(tp=0, fp=0, fn=0, tn=0, precision=0.801, recall=0.769,
                            f1=0.785, n=100)
        text = render_table({"verb": row})
        assert "80.1" in text and "76.9" in text and "78.5" in text
        assert text.splitlines()[0].startswith("group")

    def test_json_document_keys(self):
        corpus = make_synthetic_corpus(5, 8)
        model = ScriptedModel([int(i.gold) for i in corpus])
        report = evaluate_model(model, corpus)
        doc = json.loads(report_to_json(report, config={"variant": "melbert"},
                                        dataset_sha256="ab" * 32))
        assert set(doc) == {"config", "dataset_sha256", "overall", "by_genre",
                            "by_pos", "flags", "skipped_genre"}
        assert doc["config"]["variant"] == "melbert"
