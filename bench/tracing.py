"""Spans around melbert's public functions, installed only for a traced run.

The tracer replaces functions where the package looks them up (module
attributes such as ``melbert.autodiff.gelu``, class attributes such as
``Encoder.encode``) with timing wrappers, and puts the originals back on
exit. Each call records a span: id, parent id, name, phase, start, end and
self time (its duration minus the time its child spans cover). Times are
process CPU time, the clock of the end-to-end metrics. Spans stay in
memory until the caller writes or summarises them.
"""

from __future__ import annotations

import json
import time
from typing import Callable, NamedTuple, Optional

import melbert.autodiff
import melbert.model
import melbert.rng
import melbert.training
from melbert.encoder import Encoder
from melbert.inputs import SentenceInput

AUTODIFF_OPS = (
    "add", "sub", "neg", "mul", "div", "log", "exp", "clip", "reshape", "transpose",
    "concat", "getitem", "embedding", "tsum", "tmean", "matmul", "softmax",
    "layer_norm", "gelu", "sigmoid", "dropout",
)
HEAD_FUNCTIONS = ("interaction_head", "contrast_head", "combine_pair", "combine_single")


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    phase: str
    start: float
    end: float
    self_s: float
    info: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "none"
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def wrap(self, owner, attr: str, name, info: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is a string or a function of the call arguments; ``info``,
        when given, maps (args, result) to a value stored on the span.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.process_time()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.process_time()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            label = name(args) if callable(name) else name
            extra = info(args, result) if info is not None else None
            tracer.spans.append(Span(span_id, parent, label, tracer.phase, start, end,
                                     duration - frame[1], extra))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        ad = melbert.autodiff
        for op in AUTODIFF_OPS:
            self.wrap(ad, op, f"autodiff.{op}")
        self.wrap(ad, "backward", "autodiff.backward", info=lambda args, _: len(args[0].tape))
        self.wrap(Encoder, "encode", _encode_name, info=lambda args, _: len(args[1].ids))
        for fn in HEAD_FUNCTIONS:
            self.wrap(melbert.model, fn, f"heads.{fn}")
        self.wrap(melbert.model, "build_sentence_input", "inputs.sentence",
                  info=lambda _, result: result.truncated)
        self.wrap(melbert.model, "build_target_input", "inputs.target")
        self.wrap(melbert.training, "bce_loss", "heads.loss")
        self.wrap(melbert.training, "adam_step", "training.adam_step")
        self.wrap(melbert.rng.Rng, "uniform", "rng.uniform")
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.remove()
        return False

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _encode_name(args) -> str:
    return "encoder.sentence" if isinstance(args[1], SentenceInput) else "encoder.target"


def layer_metrics(spans: list[Span], train_instances: int, eval_instances: int) -> dict[str, float]:
    """Per-layer numbers from the spans of the ``train`` and ``eval_cold`` phases.

    Training figures are per trained instance or per optimizer step (one
    ``backward`` call); evaluation figures are per evaluated instance or
    per encoder call.
    """
    steps = 0
    tape_records = 0
    op_calls = 0
    op_self: dict[str, float] = {}
    train_total: dict[str, float] = {}
    eval_total: dict[str, float] = {}
    eval_calls: dict[str, int] = {}
    encoded_ids = 0
    sentences_built = truncated = 0
    for s in spans:
        if s.phase == "train":
            train_total[s.name] = train_total.get(s.name, 0.0) + s.duration
            if s.name == "autodiff.backward":
                steps += 1
                tape_records += s.info
            elif s.name.startswith("autodiff."):
                op_calls += 1
                op_self[s.name] = op_self.get(s.name, 0.0) + s.self_s
        elif s.phase == "eval_cold":
            eval_total[s.name] = eval_total.get(s.name, 0.0) + s.duration
            eval_calls[s.name] = eval_calls.get(s.name, 0) + 1
            if s.name.startswith("encoder."):
                encoded_ids += s.info
            elif s.name == "inputs.sentence":
                sentences_built += 1
                truncated += bool(s.info)
    if not steps or not train_instances or not eval_instances:
        raise ValueError("layer metrics need traced training steps and a traced evaluation")

    def per_inst_ms(seconds: float) -> float:
        return 1000.0 * seconds / train_instances

    def per_step_ms(seconds: float) -> float:
        return 1000.0 * seconds / steps

    def per_call_ms(name: str) -> float:
        return 1000.0 * eval_total.get(name, 0.0) / max(eval_calls.get(name, 0), 1)

    out = {
        "autodiff.tape_records_per_step": tape_records / steps,
        "autodiff.op_calls_per_inst": op_calls / train_instances,
        "autodiff.backward_ms_per_step": per_step_ms(train_total["autodiff.backward"]),
    }
    named = ("gelu", "softmax", "matmul", "layer_norm", "dropout", "transpose", "embedding")
    for op in named:
        out[f"autodiff.{op}_ms"] = per_inst_ms(op_self.get(f"autodiff.{op}", 0.0))
    out["autodiff.other_ms"] = per_inst_ms(
        sum(v for k, v in op_self.items() if k[len("autodiff."):] not in named))
    encoder_calls = eval_calls.get("encoder.sentence", 0) + eval_calls.get("encoder.target", 0)
    out.update({
        "encoder.sentence_ms_per_call": per_call_ms("encoder.sentence"),
        "encoder.target_ms_per_call": per_call_ms("encoder.target"),
        "encoder.ids_per_call": encoded_ids / max(encoder_calls, 1),
        "heads.ms_per_inst": per_inst_ms(sum(train_total.get(f"heads.{f}", 0.0) for f in HEAD_FUNCTIONS)),
        "heads.loss_ms_per_step": per_step_ms(train_total.get("heads.loss", 0.0)),
        "training.adam_ms_per_step": per_step_ms(train_total.get("training.adam_step", 0.0)),
        "rng.ms_per_step": per_step_ms(train_total.get("rng.uniform", 0.0)),
        "inputs.build_ms_per_inst": 1000.0 * (
            eval_total.get("inputs.sentence", 0.0) + eval_total.get("inputs.target", 0.0)
        ) / eval_instances,
        "inputs.truncated_ratio": truncated / max(sentences_built, 1),
    })
    return out
