"""Interaction heads, score combination, and training losses.

Two small MLPs consume pairs of encoder vectors:

- the interaction head ``f`` compares the contextualized target vector
  with its context-free encoding (literal vs in-context meaning),
- the contrast head ``g`` compares the sentence vector with the
  contextualized target vector (sentence-level incongruity).

Each maps a concatenated 2d vector through one affine layer with GELU.
The full model combines both head outputs through a single logistic
unit; ablations keep one head and a combiner sized to match (the weight
vector shrinks to h rather than being zero-padded). The two sequence
baselines score a single encoder vector directly.

Heads and combiners work row-wise: their inputs are [B, d] batches of
vectors, and the combiners return one score per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError
from .params import Draw, Take


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
        out = {}
        for name in ("f_w", "f_b", "g_w", "g_b", "w", "b"):
            t = getattr(self, name)
            if t is not None:
                out[prefix + name.replace("_", ".")] = t
        return out


def init_head_params(variant: str, hidden_dim: int, head_dim: int, source: Draw | Take,
                     init_std: float = 0.02) -> HeadParams:
    """Declare each variant's head parameters; ``source`` draws or takes their values."""
    d, h = hidden_dim, head_dim

    def tn(slot, shape):
        return slot, source.normal(slot.replace("_", "."), shape, init_std)

    def zeros(slot, shape):
        return slot, source.fill(slot.replace("_", "."), shape, 0.0)

    if variant == "melbert":
        slots = [tn("f_w", (2 * d, h)), zeros("f_b", (h,)), tn("g_w", (2 * d, h)), zeros("g_b", (h,)),
                 tn("w", (2 * h,)), zeros("b", ())]
    elif variant == "no_spv":
        slots = [tn("f_w", (2 * d, h)), zeros("f_b", (h,)), tn("w", (h,)), zeros("b", ())]
    elif variant == "no_mip":
        slots = [tn("g_w", (2 * d, h)), zeros("g_b", (h,)), tn("w", (h,)), zeros("b", ())]
    elif variant in ("base_all2all", "seq"):
        slots = [tn("w", (d,)), zeros("b", ())]
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    return HeadParams(**dict(slots))


def declared_head_param_count(variant: str, hidden_dim: int, head_dim: int) -> int:
    """Parameter count each variant is supposed to carry."""
    d, h = hidden_dim, head_dim
    mlp = 2 * d * h + h
    if variant == "melbert":
        return 2 * mlp + 2 * h + 1
    if variant in ("no_spv", "no_mip"):
        return mlp + h + 1
    if variant in ("base_all2all", "seq"):
        return d + 1
    raise ConfigError(f"unknown variant {variant!r}")


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
    """Logistic combination of both heads' [B, h] rows; [B] scores in (0, 1)."""
    return combine_single(ad.concat([h_f, h_g], axis=1), hp)


def combine_single(h: Tensor, hp: HeadParams) -> Tensor:
    """Logistic readout of [B, k] rows (ablations and baselines); [B] scores."""
    if h.ndim != 2 or hp.w.shape != h.shape[1:]:
        raise DimensionError(f"combiner weight {hp.w.shape} does not match input rows {h.shape}")
    return ad.sigmoid(ad.add(ad.tsum(ad.mul(h, hp.w), axis=1), hp.b))


def bce_loss(scores: Tensor, labels, pos_weight: float = 1.0) -> Tensor:
    """Weighted binary cross-entropy, mean-reduced.

    Positives get pos_weight, negatives weight 1; predictions are clamped
    to [1e-12, 1 - 1e-12] before the logs.
    """
    y = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 1 or y.shape != scores.shape:
        raise ContractError(f"scores {scores.shape} and labels {y.shape} must be equal-length vectors")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ContractError("labels must be binary 0/1")
    s = ad.clip(scores, 1e-12, 1.0 - 1e-12)
    weights = np.where(y == 1.0, pos_weight, 1.0)
    per = ad.add(ad.mul(ad.log(s), Tensor(y)), ad.mul(ad.log(ad.sub(1.0, s)), Tensor(1.0 - y)))
    return ad.neg(ad.tmean(ad.mul(per, Tensor(weights))))


def mse_loss(scores: Tensor, targets) -> Tensor:
    """Mean squared error for graded (regression) labels."""
    t = np.asarray(targets, dtype=np.float64)
    if scores.ndim != 1 or t.shape != scores.shape:
        raise ContractError(f"scores {scores.shape} and targets {t.shape} must be equal-length vectors")
    diff = ad.sub(scores, Tensor(t))
    return ad.tmean(ad.mul(diff, diff))
