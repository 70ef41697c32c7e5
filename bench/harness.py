"""Measurement rounds, correctness checks, result records and comparison.

One process, one caller, closed loop: every operation starts when the
previous one has returned. A run generates the workload, warms up
(reference results for the checks and one unrecorded round), then repeats
rounds of the user-facing operations until its time is spent:

1. ``train_bpe`` on the training corpus, and set-up (generating the
   workload plus building a model), both in a fresh worker process;
2. ``train_single`` on a fixed training subset (default desk encoder,
   variant ``melbert``, batch 32, one epoch);
3. ``save_train_checkpoint`` then ``load_model``;
4. ``evaluate_model`` on a freshly loaded model (cold target cache), then
   again on the same model (warm cache);
5. ``model.predict`` once per held-out instance, in order, on a freshly
   loaded model.

Every timing is the process's CPU time (``time.process_time``), taken
with one BLAS thread, so it is the single caller's busy time. On a shared
virtual machine, wall time also counts the periods the host runs other
guests; that made repeated wall-clock runs of the same loop spread by a
third, against a twentieth for CPU time. Nothing here waits on a device
(checkpoints are written to the page cache without fsync), so on an
unshared machine the two clocks agree. The round budget itself is wall
time.

Throughputs and set-up time are medians over repetitions; prediction
latency percentiles pool every call. The traced run replaces the rounds
by untraced and traced training runs plus a traced cold evaluation, and
reports per-layer figures from the spans.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import melbert
from melbert.bpe import Vocab, train_bpe
from melbert.encoder import EncoderConfig
from melbert.evaluation import evaluate_model
from melbert.model import MetaphorModel, ModelConfig, Variant
from melbert.rng import Rng
from melbert.training import AdamState, TrainConfig, load_model, save_train_checkpoint, train_single

import tracing
import workloads

# name -> (unit, better); the same names and units as BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "bpe.train_s": ("s", "lower"),
    "train.inst_per_s": ("inst/s", "higher"),
    "ckpt.save_ms": ("ms", "lower"),
    "ckpt.load_ms": ("ms", "lower"),
    "eval_cold.inst_per_s": ("inst/s", "higher"),
    "eval_warm.inst_per_s": ("inst/s", "higher"),
    "predict.p50_ms": ("ms", "lower"),
    "predict.p99_ms": ("ms", "lower"),
}
PER_LAYER = {
    "autodiff.tape_records_per_step": ("count", "lower"),
    "autodiff.op_calls_per_inst": ("count", "lower"),
    "autodiff.backward_ms_per_step": ("ms", "lower"),
    "autodiff.gelu_ms": ("ms", "lower"),
    "autodiff.softmax_ms": ("ms", "lower"),
    "autodiff.matmul_ms": ("ms", "lower"),
    "autodiff.layer_norm_ms": ("ms", "lower"),
    "autodiff.dropout_ms": ("ms", "lower"),
    "autodiff.transpose_ms": ("ms", "lower"),
    "autodiff.embedding_ms": ("ms", "lower"),
    "autodiff.other_ms": ("ms", "lower"),
    "encoder.sentence_ms_per_call": ("ms", "lower"),
    "encoder.target_ms_per_call": ("ms", "lower"),
    "encoder.ids_per_call": ("ids", "lower"),
    "model.sentence_passes": ("count", "lower"),
    "model.target_passes": ("count", "lower"),
    "model.cache_hit_ratio": ("ratio", "higher"),
    "heads.ms_per_inst": ("ms", "lower"),
    "heads.loss_ms_per_step": ("ms", "lower"),
    "training.adam_ms_per_step": ("ms", "lower"),
    "rng.ms_per_step": ("ms", "lower"),
    "inputs.build_ms_per_inst": ("ms", "lower"),
    "inputs.truncated_ratio": ("ratio", "lower"),
    "bpe.merges": ("count", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "trace.train_untraced_inst_per_s": ("inst/s", "higher"),
    "trace.train_traced_inst_per_s": ("inst/s", "higher"),
    "trace.overhead_ratio": ("ratio", "higher"),
}

SETUP_REPS_PER_WORKER = 2
BPE_SECONDS_PER_WORKER = 0.1  # a worker repeats tokenizer training up to this
BPE_SHARE = 0.3               # no worker in a round while tokenizer training has taken this share
CKPT_PAIRS_PER_ROUND = 5
PREDICT_CALLS_PER_ROUND = 250  # whole sweeps over the held-out set, each on a fresh model
CHECK_PREFIX = 64           # held-out instances scored by both the trained and the loaded model
HARD_LIMIT_S = 140.0        # no round starts this long after the run began, whatever its minimums
TRAIN_CFG = TrainConfig(epochs=1, batch_size=32)


@dataclass(frozen=True)
class Budget:
    seconds: float
    min_rounds: int = 4
    min_predict_calls: int = 1000
    max_traced_rounds: int = 5


@dataclass
class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)


class ScoreRecorder:
    """Passes ``predict`` through to the model and keeps every score."""

    def __init__(self, model: MetaphorModel):
        self.model = model
        self.scores: list[float] = []

    def predict(self, inst):
        p = self.model.predict(inst)
        self.scores.append(p.score)
        return p


def model_config(vocab: Vocab) -> ModelConfig:
    return ModelConfig(encoder=EncoderConfig(vocab_size=len(vocab)), variant=Variant.MELBERT)


def corpus_text(instances) -> list[str]:
    return [" ".join(i.tokens) for i in instances]


def params_digest(model: MetaphorModel) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(model.export_arrays().items()):
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def scores_ok(scores) -> bool:
    a = np.asarray(scores, dtype=np.float64)
    return bool(a.size) and bool(np.all(np.isfinite(a) & (a > 0.0) & (a < 1.0)))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def timed(fn, *args, **kwargs):
    """(result, CPU seconds) of one call, started from a collected heap."""
    gc.collect()
    t0 = time.process_time()
    result = fn(*args, **kwargs)
    return result, time.process_time() - t0


def vocab_digest(vocab: Vocab) -> str:
    blob = json.dumps([sorted(vocab.token_to_id.items()), vocab.merges, list(vocab.pos_tags)])
    return hashlib.sha256(blob.encode()).hexdigest()


def fresh_process_samples(name: str, seed: int, sizes) -> dict:
    """Worker body: tokenizer training, then set-up (generating the
    workload plus building a model), timed in this process.

    Garbage collection is off while set-up is timed: set-up builds no
    cyclic garbage, and a collection's cost there would depend on the
    heap this function happens to hold.
    """
    wl = workloads.generate(name, seed, sizes)
    text = corpus_text(wl.corpus)
    bpe_s: list[float] = []
    while not bpe_s or sum(bpe_s) < BPE_SECONDS_PER_WORKER:
        vocab, elapsed = timed(train_bpe, text, sizes.vocab)
        bpe_s.append(elapsed)
    cfg = model_config(vocab)
    setup_s = []
    for _ in range(SETUP_REPS_PER_WORKER):
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            workloads.generate(name, seed, sizes)
            MetaphorModel(cfg, vocab, seed)
            setup_s.append(time.process_time() - t0)
        finally:
            gc.enable()
    return {"bpe_s": bpe_s, "setup_s": setup_s, "vocab": vocab_digest(vocab)}


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (q in [0, 1]) of the raw samples."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(np.ceil(q * len(s))) - 1))]


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "platform": platform.platform(),
        "timer": "process CPU time",
        "load": "closed loop, 1 caller, 1 process",
    }


class Run:
    """State of one benchmark run over one workload."""

    def __init__(self, name: str, seed: int, budget: Budget, workdir: Path, sizes=None):
        self.name = name
        self.seed = seed
        self.budget = budget
        self.workdir = workdir
        self.sizes = sizes
        self.ledger = Ledger()
        self.samples: dict[str, list[float]] = {}
        self.recording = True
        self.created = self.start = time.perf_counter()

    def add(self, metric: str, value: float) -> None:
        if self.recording:
            self.samples.setdefault(metric, []).append(value)

    # -- set-up and warm-up ---------------------------------------------

    def setup(self) -> None:
        self.wl = workloads.generate(self.name, self.seed, self.sizes)
        self.text = corpus_text(self.wl.corpus)
        self.vocab = train_bpe(self.text, self.wl.sizes.vocab)
        self.ledger.op()
        self.cfg = model_config(self.vocab)
        self.ckpt = self.workdir / "train.ckpt"

    def warm_up(self) -> None:
        """Reference results for the checks, then one unrecorded round.

        The first repetitions of each operation run slow while the
        allocator settles. Objects alive after the warm-up are frozen out
        of garbage collection, so the harness's own data does not add to
        the program's collection pauses.
        """
        led = self.ledger
        roundtrip = all(self.vocab.decode(self.vocab.encode(s)) == s
                        for s in self.text + corpus_text(self.wl.heldout))
        led.check(roundtrip, "Vocab.decode(encode(s)) == s over the corpus")

        result, self.ref_log, _ = self.train_once()
        self.ref_digest = params_digest(result.model)
        self.save(result)
        loaded = load_model(self.ckpt, self.vocab)
        led.op(2)
        prefix = self.wl.heldout[:CHECK_PREFIX]
        trained = [result.model.predict(i).score for i in prefix]
        reloaded = [loaded.predict(i).score for i in prefix]
        led.op(2 * len(prefix))
        led.check(same_bits(trained, reloaded), "loaded checkpoint scores bitwise equal the trained model")
        led.check(scores_ok(trained), "trained-model scores finite and in (0, 1)")
        self.checkpoint_bytes = self.ckpt.stat().st_size
        self.recording = False
        self.round()
        self.recording = True
        gc.collect()
        gc.freeze()

    def fresh_process(self) -> dict:
        """Set-up and tokenizer-training samples from a new worker process.

        Each process has its own memory layout, which moved in-process
        medians of these allocation-heavy steps by up to a third from one
        run to the next; pooling several workers' samples averages that
        out. A fresh process is also how ``melbert tokenizer-train`` runs.
        """
        z = self.wl.sizes
        argv = [sys.executable, str(Path(__file__).with_name("worker.py")), self.name, str(self.seed),
                str(z.corpus), str(z.fit), str(z.heldout), str(z.vocab)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def train_once(self):
        log = io.StringIO()
        result, elapsed = timed(train_single, self.cfg, self.vocab, self.wl.fit_set, TRAIN_CFG,
                                seed=self.seed, log_fh=log)
        self.ledger.op()
        return result, log.getvalue(), elapsed

    def check_training(self, result, log: str) -> None:
        self.ledger.check(log == self.ref_log and params_digest(result.model) == self.ref_digest,
                          "same-seed training repeats the loss curve and parameters bitwise")

    def save(self, result) -> float:
        model = result.model
        adam = AdamState.init_like(model.parameters())
        train_rng = Rng(self.seed, "train")
        _, elapsed = timed(save_train_checkpoint, self.ckpt, model, TRAIN_CFG, adam, train_rng,
                           self.seed, 1, result.global_step, result.loss_curve)
        self.ledger.op()
        return elapsed

    def load(self) -> tuple[MetaphorModel, float]:
        model, elapsed = timed(load_model, self.ckpt, self.vocab)
        self.ledger.op()
        return model, elapsed

    def input_properties(self) -> dict:
        model = MetaphorModel(self.cfg, self.vocab, self.seed)
        sents = [model.build_inputs(i)[0] for i in self.wl.heldout]
        lengths = [len(s.ids) for s in sents]
        seen: set[str] = set()
        repeats = 0
        for inst in self.wl.heldout:
            repeats += inst.target_word in seen
            seen.add(inst.target_word)
        return {
            "train_instances": len(self.wl.fit_set),
            "heldout_instances": len(self.wl.heldout),
            "ids_p5": quantile(lengths, 0.05),
            "ids_p50": quantile(lengths, 0.50),
            "ids_p95": quantile(lengths, 0.95),
            "truncated_share": sum(s.truncated for s in sents) / len(sents),
            "target_repeat_share": repeats / len(self.wl.heldout),
            "vocab_size": len(self.vocab),
            "bpe_merges": len(self.vocab.merges),
            "param_count": model.param_count(),
            "checkpoint_bytes": self.checkpoint_bytes,
        }

    # -- untraced rounds -------------------------------------------------

    def over(self, rounds: int) -> bool:
        now = time.perf_counter()
        if now - self.created > HARD_LIMIT_S:
            return True
        enough = (rounds >= self.budget.min_rounds
                  and len(self.samples.get("predict_s", ())) >= self.budget.min_predict_calls)
        return enough and now - self.start >= self.budget.seconds

    def measure(self) -> None:
        self.start = time.perf_counter()
        rounds = 0
        while not self.over(rounds):
            self.round()
            rounds += 1
        self.rounds = rounds

    def round(self) -> None:
        led = self.ledger
        bpe_s = self.samples.get("bpe.train_s", [])
        if self.recording and (not bpe_s or sum(bpe_s) < BPE_SHARE * (time.perf_counter() - self.start)):
            out = self.fresh_process()
            for elapsed in out["bpe_s"]:
                self.add("bpe.train_s", elapsed)
            for elapsed in out["setup_s"]:
                self.add("setup_s", elapsed)
            led.op(len(out["bpe_s"]) + len(out["setup_s"]))
            led.check(out["vocab"] == vocab_digest(self.vocab), "tokenizer training is deterministic")

        result, log, elapsed = self.train_once()
        self.add("train.inst_per_s", len(self.wl.fit_set) / elapsed)
        self.check_training(result, log)

        for _ in range(CKPT_PAIRS_PER_ROUND):
            self.add("ckpt.save_ms", 1000.0 * self.save(result))
            _, elapsed = self.load()
            self.add("ckpt.load_ms", 1000.0 * elapsed)

        heldout = self.wl.heldout
        model, _ = self.load()
        rec = ScoreRecorder(model)
        _, elapsed = timed(evaluate_model, rec, heldout)
        self.add("eval_cold.inst_per_s", len(heldout) / elapsed)
        cold, rec.scores = rec.scores, []
        _, elapsed = timed(evaluate_model, rec, heldout)
        self.add("eval_warm.inst_per_s", len(heldout) / elapsed)
        led.op(2)
        led.check(scores_ok(cold), "evaluation scores finite and in (0, 1)")
        led.check(same_bits(cold, rec.scores), "warm-cache scores bitwise equal cold-cache scores")

        for _ in range(-(-PREDICT_CALLS_PER_ROUND // len(heldout))):
            model, _ = self.load()
            scores = []
            gc.collect()
            for inst in heldout:
                t0 = time.process_time()
                p = model.predict(inst)
                self.add("predict_s", time.process_time() - t0)
                scores.append(p.score)
            led.op(len(heldout))
            led.check(same_bits(scores, cold), "predict scores bitwise equal evaluation scores")

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        latencies = s["predict_s"]
        return {
            "setup_s": statistics.median(s["setup_s"]),
            "bpe.train_s": statistics.median(s["bpe.train_s"]),
            "train.inst_per_s": statistics.median(s["train.inst_per_s"]),
            "ckpt.save_ms": statistics.median(s["ckpt.save_ms"]),
            "ckpt.load_ms": statistics.median(s["ckpt.load_ms"]),
            "eval_cold.inst_per_s": statistics.median(s["eval_cold.inst_per_s"]),
            "eval_warm.inst_per_s": statistics.median(s["eval_warm.inst_per_s"]),
            "predict.p50_ms": 1000.0 * quantile(latencies, 0.50),
            "predict.p99_ms": 1000.0 * quantile(latencies, 0.99),
        }

    # -- traced run ------------------------------------------------------

    def measure_traced(self) -> tuple[dict[str, float], tracing.Tracer]:
        """Per-layer figures; wrappers are installed only around traced work."""
        self.start = time.perf_counter()
        tracer = tracing.Tracer()
        untraced, traced = [], []
        counters = []
        train_n = eval_n = 0
        rounds = 0
        while rounds < 1 or (rounds < self.budget.max_traced_rounds
                             and time.perf_counter() - self.start < self.budget.seconds):
            result, log, elapsed = self.train_once()
            untraced.append(len(self.wl.fit_set) / elapsed)
            self.check_training(result, log)

            tracer.phase = "train"
            with tracer:
                result, log, elapsed = self.train_once()
            traced.append(len(self.wl.fit_set) / elapsed)
            self.check_training(result, log)
            train_n += len(self.wl.fit_set)

            model, _ = self.load()
            rec = ScoreRecorder(model)
            tracer.phase = "eval_cold"
            with tracer:
                evaluate_model(rec, self.wl.heldout)
            self.ledger.op()
            self.ledger.check(scores_ok(rec.scores), "traced evaluation scores finite and in (0, 1)")
            eval_n += len(self.wl.heldout)
            counters.append(model.counters)
            rounds += 1
        self.rounds = rounds

        out = tracing.layer_metrics(tracer.spans, train_n, eval_n)
        c = counters[0]
        out["model.sentence_passes"] = float(c.sentence)
        out["model.target_passes"] = float(c.target)
        out["model.cache_hit_ratio"] = c.target_cache_hits / max(c.target + c.target_cache_hits, 1)
        out["bpe.merges"] = float(len(self.vocab.merges))
        out["checkpoint.bytes"] = float(self.checkpoint_bytes)
        out["trace.train_untraced_inst_per_s"] = statistics.median(untraced)
        out["trace.train_traced_inst_per_s"] = statistics.median(traced)
        out["trace.overhead_ratio"] = out["trace.train_traced_inst_per_s"] / out["trace.train_untraced_inst_per_s"]
        return out, tracer


def run_benchmark(name: str, seed: int, budget: Budget, trace: bool, root: Path,
                  sizes=None, spans_path: Path | None = None) -> tuple[dict, Ledger]:
    """Set up, warm up and measure one workload; returns (record, ledger).

    Scratch files live in ``root/.bench_work/<pid>`` and are removed on exit.
    """
    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(name, seed, budget, workdir, sizes)
        run.setup()
        run.warm_up()
        if trace:
            values, tracer = run.measure_traced()
            if spans_path is not None:
                tracer.write(spans_path)
            specs = PER_LAYER
        else:
            run.measure()
            values = run.end_to_end()
            specs = END_TO_END
        record = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "seconds": budget.seconds,
            "rounds": run.rounds,
            "melbert": melbert.__version__,
            "metrics": {k: {"value": values[k], "unit": specs[k][0]} for k in specs},
            "samples": {k: {"n": len(v), "q1": quantile(v, 0.25), "median": quantile(v, 0.5),
                            "q3": quantile(v, 0.75)} for k, v in run.samples.items()},
            "ops": {"attempted": run.ledger.attempted, "failed": run.ledger.failed,
                    "failed_frac": run.ledger.failed / max(run.ledger.attempted, 1)},
            "inputs": run.input_properties(),
            "machine": machine_info(),
        }
        return record, run.ledger
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


# -- reporting -----------------------------------------------------------


def render(record: dict) -> str:
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"rounds {record['rounds']}  ({record['machine']['load']})",
        "machine  " + "  ".join(f"{k}={v}" for k, v in record["machine"].items() if k != "load"),
        "inputs   " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                for k, v in record["inputs"].items()),
    ]
    samples = record["samples"]
    for name, m in record["metrics"].items():
        raw = samples.get("predict_s" if name.startswith("predict.") else name)
        n = f" n={raw['n']}" if raw else ""
        lines.append(f"  {name:34s} {m['value']:14.6g} {m['unit']:8s}{n}")
    ops = record["ops"]
    lines.append(f"  {'ops.failed_frac':34s} {ops['failed_frac']:14.6g} {'failed/attempted':8s}"
                 f" ({ops['failed']}/{ops['attempted']})")
    return "\n".join(lines)


def save_record(path: Path, record: dict) -> None:
    """Merge one record into a results file keyed by workload (and trace)."""
    data = json.loads(path.read_text()) if path.exists() else {"results": {}}
    key = record["workload"] + ("/trace" if record["trace"] else "")
    data["results"][key] = record
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def compare(old: dict, new: dict) -> str:
    """Per workload and metric: old value, new value, new/old, and which way it moved."""
    better = {k: v[1] for k, v in {**END_TO_END, **PER_LAYER}.items()}
    lines = []
    for key in sorted(set(old["results"]) & set(new["results"])):
        lines.append(key)
        a, b = old["results"][key]["metrics"], new["results"][key]["metrics"]
        for name in a:
            if name not in b:
                continue
            va, vb = a[name]["value"], b[name]["value"]
            if va == vb or not va:
                ratio, verdict = "", "same" if va == vb else ""
            else:
                ratio = f"{vb / va:.3f}x"
                verdict = "better" if (vb > va) == (better.get(name) == "higher") else "worse"
            lines.append(f"  {name:34s} {va:14.6g} -> {vb:<14.6g} {a[name]['unit']:8s} {ratio:>9s} {verdict}")
    if not lines:
        lines.append("no workload in common")
    return "\n".join(lines)
