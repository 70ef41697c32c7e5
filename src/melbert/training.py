"""Training loop: Adam with warmup/decay, per-epoch checkpoints that
resume bit-exactly, and bagged k-fold CV.

A training batch is scored by one ``score_batch`` call under one tape:
its sentences and, for the late-interaction variants, its targets are
packed into one encoder pass, so the mean loss over the batch
backpropagates in a single sweep. (A prediction is the
same path with a batch of one.) Every random decision after model
init flows from one Philox stream whose state is written into the
training checkpoint; restoring it replays the identical shuffle and
dropout sequence, which is what makes an interrupted run byte-identical
to an uninterrupted one.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .bpe import Vocab
from .checkpoint import open_checkpoint, save_checkpoint
from .data import Instance, kfold_split
from .errors import ConfigError, ContractError, FormatError, TrainingDivergedError
from .heads import bce_loss, mse_loss
from .model import MetaphorModel, ModelConfig, Prediction
from .rng import Rng
from .settings import Settings, check_keys


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig(Settings):
    epochs: int = 3
    batch_size: int = 32
    peak_lr: float = 3e-4
    warmup_fraction: float = 2.0 / 3.0
    pos_weight: float = 1.0
    grad_clip: Optional[float] = None
    objective: str = "bce"  # or "mse" for graded labels

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ConfigError(f"warmup_fraction must lie in (0, 1), got {self.warmup_fraction}")
        if self.peak_lr <= 0:
            raise ConfigError("peak_lr must be positive")
        if self.objective not in ("bce", "mse"):
            raise ConfigError(f"objective must be bce or mse, got {self.objective!r}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError("grad_clip must be positive when set")


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


def _loss_fn(cfg: TrainConfig) -> Callable:
    if cfg.objective == "bce":
        return lambda scores, labels: bce_loss(scores, labels, cfg.pos_weight)
    return mse_loss


def _train_labels(dataset, cfg: TrainConfig) -> np.ndarray:
    if cfg.objective == "bce":
        return np.array([float(i.gold) for i in dataset])
    return np.array([i.label for i in dataset])


def _live_arrays(model: MetaphorModel) -> dict[str, np.ndarray]:
    """The parameters' own arrays, uncopied: a save only reads them."""
    return {name: t.data for name, t in model.parameters().items()}


def save_train_checkpoint(path, model, train_cfg, adam, train_rng, seed, epoch, global_step, loss_curve):
    meta = {
        "kind": "train",
        "model": model.cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "seed": seed,
        "epoch": epoch,
        "global_step": global_step,
        "adam_t": adam.t,
        "rng_state": train_rng.state(),
        "loss_curve": list(loss_curve),
    }
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
    "train": ("kind", "model", "train", "seed", "epoch", "global_step", "adam_t", "rng_state", "loss_curve"),
}


def _read_meta(meta) -> ModelConfig:
    """The model config a checkpoint's metadata declares.

    This checks ``kind``, the top-level keys of that kind and the
    ``model`` section, which is all a model load reads. A missing or
    unknown key, a wrongly typed value, or a value the config classes
    reject, is a ``FormatError``: the file is at fault, not the caller's
    settings.
    """
    if not isinstance(meta, dict) or "kind" not in meta:
        raise FormatError("checkpoint metadata: the top level has no key 'kind'")
    kind = meta["kind"]
    if not isinstance(kind, str):
        raise FormatError(f"checkpoint metadata: 'kind' must be str, got {kind!r}")
    if kind not in _META_KEYS:
        raise ContractError(f"checkpoint kind {kind!r} is not loadable as a model")
    try:
        check_keys(meta, _META_KEYS[kind], "")
        return ModelConfig.from_dict(meta["model"], "model")
    except ConfigError as e:
        raise FormatError(f"checkpoint metadata: {e}") from e


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_run_state(meta) -> tuple[TrainConfig, Rng]:
    """The training config and the restored training stream of a training
    checkpoint's metadata, which ``_read_meta`` has read. Each top-level
    value a resume uses is type-checked, the stream's state must be one
    Philox accepts with its buffer position in 0-4 and ``has_uint32`` 0 or
    1, and ``epoch`` may not pass ``train.epochs``; a bad value is a
    ``FormatError`` naming its key."""
    try:
        cfg = TrainConfig.from_dict(meta["train"], "train")
    except ConfigError as e:
        raise FormatError(f"checkpoint metadata: {e}") from e
    if not _is_int(meta["seed"]):
        raise FormatError(f"checkpoint metadata: 'seed' must be int, got {meta['seed']!r}")
    for key in ("epoch", "global_step", "adam_t"):
        if not (_is_int(meta[key]) and meta[key] >= 0):
            raise FormatError(f"checkpoint metadata: {key!r} must be a non-negative int, got {meta[key]!r}")
    if meta["epoch"] > cfg.epochs:
        raise FormatError(f"checkpoint metadata: 'epoch' must be at most train.epochs ({cfg.epochs}), "
                          f"got {meta['epoch']!r}")
    curve = meta["loss_curve"]
    bad = [x for x in curve if not (_is_int(x) or isinstance(x, float))] if isinstance(curve, list) else [curve]
    if bad:
        raise FormatError(f"checkpoint metadata: 'loss_curve' must be a list of numbers, got {bad[0]!r}")
    state = meta["rng_state"]
    if not isinstance(state, dict):
        raise FormatError(f"checkpoint metadata: 'rng_state' must be an object, got {state!r}")
    try:
        check_keys(state, ("seed", "stream", "bitgen"), "rng_state")
    except ConfigError as e:
        raise FormatError(f"checkpoint metadata: {e}") from e
    if not _is_int(state["seed"]):
        raise FormatError(f"checkpoint metadata: 'rng_state.seed' must be int, got {state['seed']!r}")
    if not isinstance(state["stream"], str):
        raise FormatError(f"checkpoint metadata: 'rng_state.stream' must be str, got {state['stream']!r}")
    rng = Rng(state["seed"], state["stream"])
    try:
        rng.set_state(state)
    except (TypeError, ValueError, KeyError, IndexError, OverflowError) as e:
        raise FormatError(f"checkpoint metadata: 'rng_state.bitgen' must be a Philox state: {e}") from e
    # numpy's setter takes any integer here, and a buffer position outside
    # the four-word buffer then reads past it
    for field, allowed, want in (("buffer_pos", range(5), "an int in 0-4"), ("has_uint32", (0, 1), "0 or 1")):
        value = state["bitgen"][field]
        if not (_is_int(value) and value in allowed):
            raise FormatError(f"checkpoint metadata: 'rng_state.bitgen.{field}' must be {want}, got {value!r}")
    return cfg, rng


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


def _restore_adam(model: MetaphorModel, meta: dict, blocks: Mapping[str, np.ndarray]) -> AdamState:
    """The Adam moments of a training checkpoint, each copied from its block.

    Each parameter needs an ``adam.m.`` and an ``adam.v.`` block of its
    own shape; any other ``adam.`` block is an error.
    """
    moments = {k for k in blocks if k.startswith("adam.")}
    m: dict[str, np.ndarray] = {}
    v: dict[str, np.ndarray] = {}
    for name, tensor in model.parameters().items():
        for key, into in (("m", m), ("v", v)):
            block = f"adam.{key}.{name}"
            if block not in moments:
                raise ContractError(f"training checkpoint is missing optimizer block {block!r}")
            moments.remove(block)
            arr = blocks[block]
            if arr.shape != tensor.shape:
                raise ContractError(f"optimizer block {block!r} shape {arr.shape} != parameter shape {tensor.shape}")
            into[name] = np.array(arr, dtype=np.float64)
    if moments:
        raise ContractError(f"training checkpoint has unknown optimizer block {min(moments)!r}")
    return AdamState(m, v, t=meta["adam_t"])


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

    Resuming restores parameters, optimizer moments, step counters, and
    the training RNG state, then continues to cfg.epochs; the result is
    bit-identical to never having stopped. A ``checkpoint_path`` receives
    a training checkpoint at every epoch boundary. after_epoch, when
    given, is called with (epoch, model, loss_curve) at each boundary and
    may return True to stop early (e.g. a validation-F1 target was hit);
    the schedule still spans cfg.epochs.
    """
    if not dataset:
        raise ContractError("cannot train on an empty dataset")
    if resume_from is None:
        train_rng = Rng(seed, "train")
        model = MetaphorModel(model_cfg, vocab, seed)
        adam = AdamState.init_like(model.parameters())
        start_epoch = 0
        global_step = 0
        loss_curve: list[float] = []
    else:
        with open_checkpoint(resume_from) as (meta, blocks):
            saved_model_cfg = _read_meta(meta)
            if meta["kind"] != "train":
                raise ContractError("resume checkpoint must be a training checkpoint")
            saved_cfg, train_rng = _read_run_state(meta)
            if saved_model_cfg != model_cfg or saved_cfg != cfg:
                raise ContractError("resume checkpoint was written under a different configuration")
            if meta["seed"] != seed:
                raise ContractError(f"resume checkpoint is for seed {meta['seed']}, not {seed}")
            model = _restore(saved_model_cfg, meta, blocks, vocab)
            adam = _restore_adam(model, meta, blocks)
        start_epoch = meta["epoch"]
        global_step = meta["global_step"]
        loss_curve = list(meta["loss_curve"])

    prepared = [model.build_inputs(i) for i in dataset]
    labels = _train_labels(dataset, cfg)
    loss_fn = _loss_fn(cfg)
    n = len(dataset)
    n_batches = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * n_batches

    for epoch in range(start_epoch, cfg.epochs):
        perm = train_rng.permutation(n)
        epoch_losses = []
        for b in range(n_batches):
            idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            with Tape():
                scores = model.score_batch([prepared[j][0] for j in idx], [prepared[j][1] for j in idx],
                                           mode="train", rng=train_rng)
                loss = loss_fn(scores, labels[idx])
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
            save_train_checkpoint(
                checkpoint_path, model, cfg, adam, train_rng,
                seed, epoch + 1, global_step, loss_curve,
            )
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
        return float(np.mean([m.score_instance(inst).item() for m in self.models]))

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
