"""The five scoring variants wired to the shared encoder.

Each variant declares the heads it runs (``heads.Variant``). The full
model encodes each instance twice (late interaction): the sentence with
positions and segments, and the bare target, which only MIP reads. The
heads read from those encodings and a linear combiner produces the
logit. The two baselines run no head: all-to-all packs sentence and
target into one unmarked sequence and classifies from [CLS]; the
sequence-labeling baseline classifies from the segment-marked target.

Scoring is batched: ``logit_batch`` packs a batch's sentences and the
targets it must encode, at any id lengths, into one encoder pass, runs
the heads on [B, d] rows and returns the logits in input order. Inside
the pass each input attends only to its own rows, so a target is still
encoded free of context. Training scores a whole batch under one tape;
a prediction is a batch of one, and the one place a logit becomes a score.

A pass given an ``rng`` is a training pass: every dropout draws its mask
from it, and every target is encoded. A pass without one applies no
dropout, so a target's vector depends only on its sub-token ids; such a
pass caches it per id sequence and encodes only the misses. Any
parameter update invalidates the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bpe import Vocab
from .data import Instance
from .encoder import Encoder, EncoderConfig, pool_span
from .errors import ContractError
from .heads import Head, Variant, combine_pair, combine_single, contrast_head, init_head_params, interaction_head
from .inputs import (
    InputBatch,
    SentenceInput,
    TargetInput,
    build_pair_input,
    build_sentence_input,
    build_target_input,
)
from .params import Draw, Take
from .rng import Rng
from .settings import Range, Settings


@dataclass(frozen=True)
class ModelConfig(Settings):
    encoder: EncoderConfig
    variant: Variant = Variant.MELBERT
    head_dim: Optional[Annotated[int, Range(ge=1)]] = None  # None: same as encoder width
    threshold: Annotated[float, Range(gt=0, lt=1)] = 0.5
    target_pooling: Literal["mean", "cls"] = "mean"  # over the span, or the [CLS] row
    # room for [CLS], the target, [SEP] and the POS marker
    max_len: Annotated[int, Range(ge=4)] = 150

    @property
    def resolved_head_dim(self) -> int:
        return self.head_dim if self.head_dim is not None else self.encoder.hidden_dim


@dataclass(frozen=True)
class Prediction:
    score: float
    label: int


@dataclass
class PassCounters:
    sentence: int = 0
    target: int = 0
    target_cache_hits: int = 0


class MetaphorModel:
    """Encoder + heads for one variant, with prediction utilities."""

    def __init__(self, cfg: ModelConfig, vocab: Vocab, seed: int = 0):
        """A new model, its parameters drawn from the ``init`` stream of ``seed``."""
        init_rng = Rng(seed, "init")
        self._assemble(cfg, vocab, Draw(init_rng.child("encoder")), Draw(init_rng.child("heads")))

    @classmethod
    def from_arrays(cls, cfg: ModelConfig, vocab: Vocab, arrays: dict[str, np.ndarray]) -> "MetaphorModel":
        """A model whose parameters are copies of ``arrays``, keyed by their
        ``parameters()`` names; draws nothing. Every parameter must be present
        with its declared shape, and every array must name a parameter."""
        model = cls.__new__(cls)
        model._assemble(cfg, vocab, Take(arrays, "enc."), Take(arrays, "head."))
        unknown = sorted(arrays.keys() - model.parameters().keys())
        if unknown:
            raise ContractError(f"checkpoint has unknown parameter {unknown[0]!r}")
        return model

    def _assemble(self, cfg: ModelConfig, vocab: Vocab, encoder_source: Draw | Take, head_source: Draw | Take) -> None:
        if cfg.encoder.vocab_size != len(vocab):
            raise ContractError(
                f"encoder vocab_size {cfg.encoder.vocab_size} != vocabulary size {len(vocab)}"
            )
        self.cfg = cfg
        self.vocab = vocab
        self.encoder = Encoder(cfg.encoder, encoder_source)
        self.heads = init_head_params(
            cfg.variant, cfg.encoder.hidden_dim, cfg.resolved_head_dim,
            head_source, init_std=cfg.encoder.init_std,
        )
        self.counters = PassCounters()
        self._target_cache: dict[tuple[int, ...], np.ndarray] = {}

    # -- parameters ------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        out = {f"enc.{k}": v for k, v in self.encoder.params.items()}
        out.update(self.heads.named())
        return out

    def param_count(self) -> int:
        return sum(t.data.size for t in self.parameters().values())

    def zero_grads(self) -> None:
        for t in self.parameters().values():
            t.grad = None

    def mark_updated(self) -> None:
        """Must be called after any parameter mutation; drops the cache."""
        self._target_cache.clear()

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters().items()}

    # -- inputs ----------------------------------------------------------

    def build_inputs(self, inst: Instance) -> tuple[SentenceInput, Optional[TargetInput]]:
        if self.cfg.variant is Variant.BASE_ALL2ALL:
            return build_pair_input(inst, self.vocab, self.cfg.max_len), None
        sent = build_sentence_input(inst, self.vocab, self.cfg.max_len)
        return sent, build_target_input(inst, self.vocab) if self.cfg.variant.encodes_target else None

    # -- scoring ---------------------------------------------------------

    def _encode(self, sents: list[SentenceInput], tgts: Optional[list[TargetInput]], rng: Rng | None):
        """One encoder pass over the batch's sentences and the targets it must encode.

        Returns [B, d] tensors: v_s (each sentence's [CLS] row), v_st (its
        mean over the target span) and v_t (the isolated target vectors,
        None when ``tgts`` is None). A pass given ``rng`` encodes every
        target and leaves the cache alone. A pass without one encodes
        each distinct uncached id sequence once and caches it; every
        other row, a cached target or a repeat within the batch, counts
        as a cache hit, so the counters match scoring one by one.
        """
        cached: dict[tuple[int, ...], np.ndarray] = {}
        fresh = tgts or []
        if tgts and rng is None:
            distinct = {tgt.ids: tgt for tgt in tgts}  # first-seen order
            cached = {ids: self._target_cache[ids] for ids in distinct if ids in self._target_cache}
            fresh = [tgt for ids, tgt in distinct.items() if ids not in cached]
            self.counters.target_cache_hits += len(tgts) - len(fresh)
        self.counters.sentence += len(sents)
        self.counters.target += len(fresh)

        batches = [InputBatch.stack(sents)] + ([InputBatch.stack(fresh)] if fresh else [])
        outputs = self.encoder.encode(*batches, rng=rng)
        v_s = pool_span(outputs[0], batches[0].spans, "cls")
        v_st = pool_span(outputs[0], batches[0].spans, "mean")
        if tgts is None:
            return v_s, v_st, None
        encoded = pool_span(outputs[1], batches[1].spans, self.cfg.target_pooling) if fresh else None
        if rng is not None:
            return v_s, v_st, encoded
        parts = []
        if fresh:
            for tgt, v in zip(fresh, encoded.data):
                self._target_cache[tgt.ids] = v.copy()
            parts.append(encoded)
        if cached:
            parts.append(Tensor(np.stack(list(cached.values()))))
        row = {ids: r for r, ids in enumerate([*(tgt.ids for tgt in fresh), *cached])}
        return v_s, v_st, _gather(parts, [row[tgt.ids] for tgt in tgts])

    def logit_batch(
        self,
        sents: list[SentenceInput],
        tgts: list[Optional[TargetInput]],
        rng: Rng | None = None,
    ) -> Tensor:
        """[B] logits for B prepared instances, in input order; a training
        pass, with dropout, when given ``rng``."""
        if not sents or len(sents) != len(tgts):
            raise ContractError(f"need a non-empty batch of aligned inputs, got {len(sents)} and {len(tgts)}")
        variant = self.cfg.variant
        if variant.encodes_target and any(t is None for t in tgts):
            raise ContractError(f"variant {variant.value} needs a target input")
        v_s, v_st, v_t = self._encode(sents, tgts if variant.encodes_target else None, rng)
        if not variant.heads:
            return combine_single(v_s if variant is Variant.BASE_ALL2ALL else v_st, self.heads)

        # the heads run in declared order, each drawing its dropout mask from rng
        p = self.cfg.encoder.dropout
        run = {Head.MIP: lambda: interaction_head(v_st, v_t, self.heads, p, rng),
               Head.SPV: lambda: contrast_head(v_s, v_st, self.heads, p, rng)}
        rows = [run[head]() for head in variant.heads]
        return combine_pair(*rows, self.heads) if len(rows) == 2 else combine_single(*rows, self.heads)

    def predict(self, inst: Instance) -> Prediction:
        """The score in (0, 1) of one instance, a batch of one, and its label."""
        sent, tgt = self.build_inputs(inst)
        score = ad.sigmoid(self.logit_batch([sent], [tgt])).item()
        return Prediction(score=score, label=int(score >= self.cfg.threshold))


def _gather(parts: list[Tensor], index) -> Tensor:
    """Rows ``index`` of the parts stacked along axis 0 (no op for the identity)."""
    table = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
    index = np.asarray(index)
    if len(index) == table.shape[0] and (index == np.arange(len(index))).all():
        return table
    return table[index]
