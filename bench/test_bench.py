"""Fast checks of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import melbert.autodiff  # noqa: E402
import melbert.model  # noqa: E402
import melbert.rng  # noqa: E402
import melbert.training  # noqa: E402
from melbert.encoder import Encoder  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "synth-short": workloads.Sizes(corpus=48, fit=8, heldout=12, vocab=120),
    "long-mixed": workloads.Sizes(corpus=32, fit=8, heldout=16, vocab=120),
    "open-vocab": workloads.Sizes(corpus=48, fit=8, heldout=12, vocab=160),
}
TINY_BUDGET = harness.Budget(seconds=0.0, min_rounds=1, min_predict_calls=1, max_traced_rounds=1)


def fingerprint(wl: workloads.Workload):
    return [(i.tokens, i.target_index, i.label, i.pos_tag) for i in wl.corpus + wl.heldout]


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_generators_deterministic_per_seed_and_differ_across_seeds(name):
    a = workloads.generate(name, 3, TINY[name])
    b = workloads.generate(name, 3, TINY[name])
    c = workloads.generate(name, 4, TINY[name])
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)
    assert len(a.corpus) == TINY[name].corpus and len(a.heldout) == TINY[name].heldout


def test_open_vocab_targets_are_mostly_distinct():
    wl = workloads.generate("open-vocab", 5)
    distinct = len({i.target_word for i in wl.heldout}) / len(wl.heldout)
    assert 0.6 < distinct < 0.9


def test_benchmark_json_names_match_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SIZES) == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_every_metric_emitted_for_every_workload(name, trace, tmp_path):
    record, ledger = harness.run_benchmark(name, 2, TINY_BUDGET, trace, tmp_path, sizes=TINY[name])
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(record["metrics"]) == list(expected)
    for metric, m in record["metrics"].items():
        assert m["unit"] == expected[metric][0]
        assert isinstance(m["value"], float), metric
    assert ledger.failed == 0, ledger.problems
    assert ledger.attempted > 0
    assert not (tmp_path / ".bench_work").exists()


def test_wrappers_restore_the_original_functions():
    owners = [
        *[(melbert.autodiff, op) for op in tracing.AUTODIFF_OPS + ("backward",)],
        (Encoder, "encode"),
        *[(melbert.model, fn) for fn in tracing.HEAD_FUNCTIONS],
        (melbert.model, "build_sentence_input"),
        (melbert.model, "build_target_input"),
        (melbert.training, "bce_loss"),
        (melbert.training, "adam_step"),
        (melbert.rng.Rng, "uniform"),
    ]

    def current():
        return [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in owners]

    before = current()
    with tracing.Tracer() as tracer:
        during = current()
        melbert.autodiff.gelu(melbert.autodiff.Tensor([0.5]))
    after = current()
    assert all(x is not y for x, y in zip(before, during))
    assert all(x is y for x, y in zip(before, after))
    assert [s.name for s in tracer.spans] == ["autodiff.gelu"]


def test_self_time_excludes_child_spans():
    ns = types.SimpleNamespace()
    ns.inner = lambda: 1
    ns.outer = lambda: ns.inner() + 1
    tracer = tracing.Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    try:
        assert ns.outer() == 2
    finally:
        tracer.remove()
    inner_span, outer_span = tracer.spans
    assert inner_span.parent == outer_span.id
    assert outer_span.self_s == pytest.approx(outer_span.duration - inner_span.duration)


def test_compare_reports_ratio_against_earlier_results():
    metrics = {"train.inst_per_s": {"value": 100.0, "unit": "inst/s"}}
    old = {"results": {"synth-short": {"metrics": metrics}}}
    new = {"results": {"synth-short": {"metrics": {"train.inst_per_s": {"value": 150.0, "unit": "inst/s"}}}}}
    text = harness.compare(old, new)
    assert "synth-short" in text and "1.500x" in text and "better" in text


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
