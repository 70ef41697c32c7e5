"""Training loop: Adam with warmup/decay, per-epoch checkpoints that
resume bit-exactly, and bagged k-fold CV.

A training batch is scored by one ``logit_batch`` call under one tape:
its sentences and, for the late-interaction variants, its targets are
packed into one encoder pass, so the mean loss over the batch
backpropagates in a single sweep. (A prediction is the
same path with a batch of one.) Every random decision after model
init comes from a stream fixed by its name alone: epoch e shuffles with
``train/epoch/{e}`` and step s draws its dropout from ``train/step/{s}``.
So a checkpoint keeps no generator state, and a resume that re-derives
the streams from its ``RunState`` is byte-identical to a run that never
stopped. The Adam moments are taken through ``params.Take``.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Annotated, Callable, Literal, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .bpe import Vocab
from .checkpoint import open_checkpoint, save_checkpoint
from .data import Instance, kfold_split
from .errors import ConfigError, ContractError, FormatError, TrainingDivergedError, read_text
from .heads import bce_loss, mse_loss
from .model import MetaphorModel, ModelConfig, Prediction
from .params import Take
from .rng import Rng
from .settings import Range, Settings, check, check_keys, schema, spec


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig(Settings):
    epochs: Annotated[int, Range(ge=1)] = 3
    batch_size: Annotated[int, Range(ge=1)] = 32
    peak_lr: Annotated[float, Range(gt=0)] = 3e-4
    warmup_fraction: Annotated[float, Range(gt=0, lt=1)] = 2.0 / 3.0
    pos_weight: Annotated[float, Range(ge=1)] = 1.0  # 1 weights no class
    grad_clip: Optional[Annotated[float, Range(gt=0)]] = None
    objective: Literal["bce", "mse"] = "bce"  # mse for graded labels

    def __post_init__(self):
        super().__post_init__()
        if self.objective == "mse" and self.pos_weight != 1.0:
            raise ConfigError(f"'pos_weight' must be 1 under objective mse, which weights no class, "
                              f"got {self.pos_weight!r}")


# the domain of a step or epoch count
Count = Annotated[int, Range(ge=0)]


@dataclass(frozen=True)
class RunState(Settings):
    """Where a training run stands at an epoch boundary, as its checkpoint stores it."""
    train: TrainConfig
    seed: Annotated[int, Range()]
    epoch: Count
    global_step: Count
    adam_t: Count
    loss_curve: list[float]

    def __post_init__(self):
        super().__post_init__()
        if self.epoch > self.train.epochs:
            raise ConfigError(f"'epoch' must be at most train.epochs ({self.train.epochs}), got {self.epoch!r}")


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Piecewise-linear rate: 0 to peak over the warmup, then back to 0.

    The boundary is rounded to a whole step and both segments multiply by a
    ratio whose endpoints are exactly 0.0 and 1.0, so the peak is hit
    bit-exactly rather than to within a rounding error.
    """
    if total_steps < 1:
        raise ContractError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = round(cfg.warmup_fraction * total_steps)
    if warmup_steps > 0 and step <= warmup_steps:
        return cfg.peak_lr * (step / warmup_steps)
    return cfg.peak_lr * ((total_steps - step) / (total_steps - warmup_steps))


class AdamState:
    """First/second moment accumulators plus the bias-correction counter."""

    def __init__(self, m: dict[str, np.ndarray], v: dict[str, np.ndarray], t: int = 0):
        self.m = m
        self.v = v
        self.t = t

    @classmethod
    def init_like(cls, params) -> "AdamState":
        return cls(
            m={k: np.zeros_like(t.data) for k, t in params.items()},
            v={k: np.zeros_like(t.data) for k, t in params.items()},
        )


def global_grad_norm(params) -> float:
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    return float(np.sqrt(total))


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    norm = global_grad_norm(params)
    if norm > max_norm:
        scale = max_norm / norm
        for t in params.values():
            if t.grad is not None:
                t.grad = t.grad * scale
    return norm

def adam_step(params, state: AdamState, lr: float) -> None:
    """One update; a missing gradient counts as zeros (moments still decay)."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, tensor in params.items():
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainResult:
    model: MetaphorModel
    seed: int
    loss_curve: list[float]
    global_step: int


def _objective(dataset, cfg: TrainConfig) -> tuple[Callable, np.ndarray]:
    """The loss of a batch's logits that ``cfg.objective`` names, and the labels
    it reads: 0/1 gold for bce, graded for mse (against the sigmoid scores)."""
    if cfg.objective == "mse":
        return (lambda logits, labels: mse_loss(ad.sigmoid(logits), labels)), np.array([i.label for i in dataset])
    gold = np.array([float(i.gold) for i in dataset])
    return (lambda logits, labels: bce_loss(logits, labels, cfg.pos_weight)), gold


def _live_arrays(model: MetaphorModel) -> dict[str, np.ndarray]:
    """The parameters' own arrays, uncopied: a save only reads them."""
    return {name: t.data for name, t in model.parameters().items()}


def save_train_checkpoint(path, model, train_cfg, adam, _train_rng, seed, epoch, global_step, loss_curve):
    # _train_rng is ignored: the slot is kept only for the benchmark harness's positional call
    state = RunState(train_cfg, seed, epoch, global_step, adam.t, list(loss_curve))
    meta = {"kind": "train", "model": model.cfg.to_dict(), **state.to_dict()}
    arrays = _live_arrays(model)
    for k, a in adam.m.items():
        arrays[f"adam.m.{k}"] = a
    for k, a in adam.v.items():
        arrays[f"adam.v.{k}"] = a
    save_checkpoint(path, meta, arrays)


def save_model_checkpoint(path, model: MetaphorModel) -> None:
    save_checkpoint(path, {"kind": "model", "model": model.cfg.to_dict()}, _live_arrays(model))


# the top-level keys of each checkpoint kind's metadata, as its save function writes them
_META_KEYS = {
    "model": ("kind", "model"),
    "train": ("kind", "model", *(f.name for f in schema(RunState))),
}


def _read_meta(meta) -> ModelConfig:
    """The model config a checkpoint's metadata declares.

    This checks ``kind``, the top-level keys of that kind and the
    ``model`` section, which is all a model load reads. A missing or
    unknown key, a wrongly typed value, or a value the config classes
    reject, is a ``FormatError``: the file is at fault, not the caller's
    settings.
    """
    try:
        if not isinstance(meta, dict) or "kind" not in meta:
            raise ConfigError("the top level has no key 'kind'")
        kind = check(spec(str), meta["kind"], "kind")
        if kind in _META_KEYS:
            # a training checkpoint from before keyed draws also holds 'rng_state': it loads, but cannot resume
            old = ("rng_state",) if kind == "train" and "rng_state" in meta else ()
            check_keys(meta, _META_KEYS[kind] + old, "")
            return ModelConfig.from_dict(meta["model"], "model")
    except ConfigError as e:
        raise FormatError(f"checkpoint metadata: {e}") from e
    raise ContractError(f"checkpoint kind {kind!r} is not loadable as a model")


def _restore(cfg: ModelConfig, meta: dict, blocks: Mapping[str, np.ndarray], vocab: Vocab) -> MetaphorModel:
    """The parameter loader: the model a checkpoint holds.

    ``cfg`` and ``meta`` come from ``_read_meta``; ``blocks`` from
    ``open_checkpoint``. Each parameter is copied once from its block;
    nothing is drawn. Only the names of the ``adam.`` blocks are read: a
    model checkpoint may hold none, and a training checkpoint's are left
    to ``_restore_adam``.
    """
    params = {k: blocks[k] for k in blocks if not k.startswith("adam.")}
    model = MetaphorModel.from_arrays(cfg, vocab, params)
    if meta["kind"] == "model":
        moments = [k for k in blocks if k.startswith("adam.")]
        if moments:
            raise ContractError(f"model checkpoint has optimizer block {min(moments)!r}")
    return model


def _restore_adam(model: MetaphorModel, run: RunState, blocks: Mapping[str, np.ndarray]) -> AdamState:
    """The Adam moments of a training checkpoint, taken as the parameters are;
    an ``adam.`` block that is no parameter's moment is an error."""
    params = model.parameters()
    unknown = {k for k in blocks if k.startswith("adam.")} - {f"adam.{x}.{name}" for x in "mv" for name in params}
    if unknown:
        raise ContractError(f"training checkpoint has unknown optimizer block {min(unknown)!r}")
    m, v = Take(blocks, "adam.m."), Take(blocks, "adam.v.")
    return AdamState({name: m.take(name, t.shape).data for name, t in params.items()},
                     {name: v.take(name, t.shape).data for name, t in params.items()}, t=run.adam_t)


def load_model(path, vocab: Vocab) -> MetaphorModel:
    """The model saved at ``path``, from a model or a training checkpoint.

    The file is mapped, not read: only the blocks of the model's own
    parameters are made into arrays, each checked for its declared shape
    and copied once, and no init is drawn. Any other parameter block is a
    ``ContractError``, as is an ``adam.`` block in a model checkpoint; a
    training checkpoint's moments and its ``train`` section are not read.
    """
    with open_checkpoint(path) as (meta, blocks):
        return _restore(_read_meta(meta), meta, blocks, vocab)


def _resumable(meta, model_cfg: ModelConfig, cfg: TrainConfig, seed: int) -> RunState:
    """The run state of a checkpoint that a run of these settings may
    resume; any other checkpoint is refused. A bad value is a
    ``FormatError`` naming its dotted key."""
    saved_model_cfg = _read_meta(meta)
    if meta["kind"] != "train":
        raise ContractError("resume checkpoint must be a training checkpoint")
    if "rng_state" in meta:  # resuming it would draw from other streams than the run did
        raise FormatError("checkpoint metadata: 'rng_state' is the stream position of a run from before "
                          "keyed draws: its model can be evaluated, but the run cannot resume")
    try:
        run = RunState.from_dict({f.name: meta[f.name] for f in schema(RunState)})
    except ConfigError as e:
        raise FormatError(f"checkpoint metadata: {e}") from e
    if saved_model_cfg != model_cfg or run.train != cfg:
        raise ContractError("resume checkpoint was written under a different configuration")
    if run.seed != seed:
        raise ContractError(f"resume checkpoint is for seed {run.seed}, not {seed}")
    return run


def open_log(path, model_cfg: ModelConfig, cfg: TrainConfig, seed: int, resume_from=None):
    """The step log at ``path``, open for appending. A fresh run starts it
    empty; a resumed run keeps only the records of the steps its checkpoint
    holds, since a crash after that checkpoint leaves later steps logged,
    the last perhaps cut short mid-line. They are rewritten through a
    temporary file, as a checkpoint is."""
    if resume_from is None or not os.path.exists(path):
        return open(path, "w", encoding="utf-8")
    with open_checkpoint(resume_from) as (meta, _):
        run = _resumable(meta, model_cfg, cfg, seed)  # a checkpoint train_single refuses cuts nothing
    kept = []
    with io.StringIO(read_text(path), newline=None) as fh:
        for n, line in enumerate(fh, 1):
            try:  # only the last line can lack its newline
                if line.endswith("\n") and json.loads(line)["step"] <= run.global_step:
                    kept.append(line)
            except (ValueError, KeyError, TypeError) as e:
                raise FormatError(f"{path}: line {n} is not a step record") from e
    with open(f"{path}.tmp", "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    os.replace(f"{path}.tmp", path)
    return open(path, "a", encoding="utf-8")


def train_single(
    model_cfg: ModelConfig,
    vocab: Vocab,
    dataset: list[Instance],
    cfg: TrainConfig,
    seed: int,
    log_fh=None,
    checkpoint_path=None,
    resume_from=None,
    after_epoch: Optional[Callable[[int, MetaphorModel, list[float]], bool]] = None,
) -> TrainResult:
    """Train one model from one seed; optionally resume a saved run.

    Resuming restores parameters, optimizer moments and step counters and
    continues to cfg.epochs, drawing from the same per-epoch and per-step
    streams, so the result is bit-identical to never having stopped. A
    ``checkpoint_path`` receives a training checkpoint at every epoch
    boundary. after_epoch, when given, is called with (epoch, model,
    loss_curve) at each boundary and may return True to stop early (e.g.
    a validation-F1 target was hit); the schedule still spans cfg.epochs.
    """
    if not dataset:
        raise ContractError("cannot train on an empty dataset")
    if resume_from is None:
        model = MetaphorModel(model_cfg, vocab, seed)
        adam = AdamState.init_like(model.parameters())
        run = RunState(cfg, seed, epoch=0, global_step=0, adam_t=0, loss_curve=[])
    else:
        with open_checkpoint(resume_from) as (meta, blocks):
            run = _resumable(meta, model_cfg, cfg, seed)
            model = _restore(model_cfg, meta, blocks, vocab)
            adam = _restore_adam(model, run, blocks)
    global_step, loss_curve = run.global_step, list(run.loss_curve)

    prepared = [model.build_inputs(i) for i in dataset]
    loss_fn, labels = _objective(dataset, cfg)
    n = len(dataset)
    n_batches = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * n_batches

    for epoch in range(run.epoch, cfg.epochs):
        perm = Rng(seed, f"train/epoch/{epoch}").permutation(n)
        epoch_losses = []
        for b in range(n_batches):
            idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            with Tape():
                logits = model.logit_batch([prepared[j][0] for j in idx], [prepared[j][1] for j in idx],
                                           rng=Rng(seed, f"train/step/{global_step}"))
                loss = loss_fn(logits, labels[idx])
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss {loss_value} at epoch {epoch}, step {global_step} "
                    f"(seed {seed}); try a lower peak_lr or enable grad_clip"
                )
            model.zero_grads()
            ad.backward(loss)
            if cfg.grad_clip is not None:
                clip_gradients(model.parameters(), cfg.grad_clip)
            global_step += 1
            lr = lr_at(global_step, total_steps, cfg)
            adam_step(model.parameters(), adam, lr)
            model.mark_updated()
            epoch_losses.append(loss_value)
            if log_fh is not None:
                log_fh.write(json.dumps({
                    "seed": seed, "epoch": epoch, "step": global_step,
                    "lr": lr, "loss": loss_value,
                }, sort_keys=True) + "\n")
        loss_curve.append(float(np.mean(epoch_losses)))
        if checkpoint_path is not None:
            save_train_checkpoint(checkpoint_path, model, cfg, adam, None, seed, epoch + 1, global_step, loss_curve)
        if after_epoch is not None and after_epoch(epoch, model, loss_curve):
            break
    return TrainResult(model=model, seed=seed, loss_curve=loss_curve, global_step=global_step)


class CvEnsemble:
    """Bagging over k fold-trained models: mean score, then threshold."""

    def __init__(self, models: list[MetaphorModel]):
        if not models:
            raise ContractError("ensemble needs at least one model")
        self.models = models
        self.threshold = models[0].cfg.threshold

    def score(self, inst: Instance) -> float:
        return float(np.mean([m.predict(inst).score for m in self.models]))

    def predict(self, inst: Instance) -> Prediction:
        s = self.score(inst)
        return Prediction(score=s, label=int(s >= self.threshold))


def bagging_cv_train(
    model_cfg: ModelConfig,
    vocab: Vocab,
    dataset,
    k: int,
    cfg: TrainConfig,
    seed: int,
) -> tuple[CvEnsemble, list[TrainResult]]:
    """Train k models on k-fold train parts; ensemble averages their scores.

    Fold i trains with seed seed+i so the members differ by both data
    part and initialization.
    """
    folds = kfold_split(dataset, k, seed)
    results = [
        train_single(model_cfg, vocab, part, cfg, seed=seed + i)
        for i, (part, _held) in enumerate(folds)
    ]
    return CvEnsemble([r.model for r in results]), results
