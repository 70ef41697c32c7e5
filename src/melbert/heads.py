"""Interaction heads, the variants that run them, score combination, and losses.

Two small MLPs consume pairs of encoder vectors, one per theory:

- MIP, the interaction head ``f``, compares the contextualized target
  vector with its context-free encoding (literal vs in-context meaning),
- SPV, the contrast head ``g``, compares the sentence vector with the
  contextualized target vector (sentence-level incongruity).

Each maps a concatenated 2d vector through one affine layer with GELU.
A ``Variant`` declares the heads it runs, in combiner order; its head
parameters and scoring path follow from that. The full model combines
both head outputs through a single logistic unit; an ablation runs one
head, with a combiner of h weights rather than a zero-padded 2h. The two
sequence baselines run no head and score a single encoder vector directly.

Heads and combiners work row-wise: their inputs are [B, d] batches of
vectors, and the combiners return one logit per row, ``h·w + b``.
``bce_loss`` reads it through softplus; a score in (0, 1) is its sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError
from .params import Draw, Take


class Head(Enum):  # valued by the prefix of its parameters
    MIP = "f"  # interaction_head over v_st and v_t: in-context against literal meaning
    SPV = "g"  # contrast_head over v_s and v_st: the target's clash with its sentence


class Variant(str, Enum):
    """A scoring variant, declared with the heads it runs in combiner order."""

    MELBERT = "melbert", (Head.MIP, Head.SPV)
    NO_MIP = "no_mip", (Head.SPV,)
    NO_SPV = "no_spv", (Head.MIP,)
    BASE_ALL2ALL = "base_all2all", ()  # scores the [CLS] row of the packed sentence-target pair
    SEQ = "seq", ()                    # scores the segment-marked target span

    def __new__(cls, value: str, heads: tuple[Head, ...]):
        member = str.__new__(cls, value)
        member._value_ = value
        member.heads = heads
        return member

    @property
    def encodes_target(self) -> bool:  # only MIP reads the bare target, so only then does target_pooling apply
        return Head.MIP in self.heads


@dataclass
class HeadParams:
    """Variant-dependent head parameter set; unused slots stay None."""

    f_w: Optional[Tensor] = None  # [2d, h] interaction head
    f_b: Optional[Tensor] = None  # [h]
    g_w: Optional[Tensor] = None  # [2d, h] contrast head
    g_b: Optional[Tensor] = None  # [h]
    w: Optional[Tensor] = None    # combiner weights: [2h], [h], or [d]
    b: Optional[Tensor] = None    # combiner bias, scalar

    def named(self, prefix: str = "head.") -> dict[str, Tensor]:
        """The variant's parameters, in field order, by checkpoint name."""
        return {prefix + slot.replace("_", "."): t for slot, t in vars(self).items() if t is not None}


def init_head_params(variant: Variant, hidden_dim: int, head_dim: int, source: Draw | Take,
                     init_std: float = 0.02) -> HeadParams:
    """Declare each variant's head parameters; ``source`` draws or takes their values."""
    heads = variant.heads
    d, h = hidden_dim, head_dim
    slots = {}
    for head in heads:
        slots[head.value + "_w"] = source.normal(head.value + ".w", (2 * d, h), init_std)
        slots[head.value + "_b"] = source.fill(head.value + ".b", (h,), 0.0)
    slots["w"] = source.normal("w", (h * len(heads) if heads else d,), init_std)
    slots["b"] = source.fill("b", (), 0.0)
    return HeadParams(**slots)


def _pair_mlp(a: Tensor, b: Tensor, w: Tensor, bias: Tensor, dropout_p: float, rng) -> Tensor:
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionError(f"head inputs must be equal-shape [B, d] rows, got {a.shape} and {b.shape}")
    if w.shape[0] != 2 * a.shape[1]:
        raise DimensionError(f"head weight expects input {w.shape[0]}, got 2x{a.shape[1]}")
    z = ad.concat([a, b], axis=1)
    out = ad.gelu(ad.add(ad.matmul(z, w), bias))
    return ad.dropout(out, dropout_p, rng)


def interaction_head(v_st: Tensor, v_t: Tensor, hp: HeadParams, dropout_p: float = 0.0, rng=None) -> Tensor:
    """Compare each in-context target vector against its isolated encoding."""
    return _pair_mlp(v_st, v_t, hp.f_w, hp.f_b, dropout_p, rng)


def contrast_head(v_s: Tensor, v_st: Tensor, hp: HeadParams, dropout_p: float = 0.0, rng=None) -> Tensor:
    """Compare each sentence vector against its in-context target vector."""
    return _pair_mlp(v_s, v_st, hp.g_w, hp.g_b, dropout_p, rng)


def combine_pair(h_f: Tensor, h_g: Tensor, hp: HeadParams) -> Tensor:
    """Linear combination of both heads' [B, h] rows; [B] logits."""
    return combine_single(ad.concat([h_f, h_g], axis=1), hp)


def combine_single(h: Tensor, hp: HeadParams) -> Tensor:
    """Linear readout of [B, k] rows (ablations and baselines); [B] logits."""
    if h.ndim != 2 or hp.w.shape != h.shape[1:]:
        raise DimensionError(f"combiner weight {hp.w.shape} does not match input rows {h.shape}")
    return ad.add(ad.tsum(ad.mul(h, hp.w), axis=1), hp.b)


def bce_loss(logits: Tensor, labels, pos_weight: float = 1.0) -> Tensor:
    """Weighted binary cross-entropy on logits, mean-reduced.

    Row i costs w_i·softplus((1 - 2·y_i)·z_i): -log σ(z_i) on a positive
    (w = pos_weight), -log(1 - σ(z_i)) on a negative (w = 1). No probability
    is formed, so the loss is finite at every finite logit, and a wrong one
    is pushed back with at least half the largest gradient, w/(2n).
    """
    y = np.asarray(labels, dtype=np.float64)
    if logits.ndim != 1 or y.shape != logits.shape:
        raise ContractError(f"logits {logits.shape} and labels {y.shape} must be equal-length vectors")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ContractError("labels must be binary 0/1")
    weights = np.where(y == 1.0, pos_weight, 1.0)
    return ad.tmean(ad.mul(ad.softplus(ad.mul(logits, Tensor(1.0 - 2.0 * y))), Tensor(weights)))


def mse_loss(scores: Tensor, targets) -> Tensor:
    """Mean squared error for graded (regression) labels."""
    t = np.asarray(targets, dtype=np.float64)
    if scores.ndim != 1 or t.shape != scores.shape:
        raise ContractError(f"scores {scores.shape} and targets {t.shape} must be equal-length vectors")
    diff = ad.sub(scores, Tensor(t))
    return ad.tmean(ad.mul(diff, diff))
