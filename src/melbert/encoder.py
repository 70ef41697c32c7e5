"""Post-layer-norm transformer encoder, shared by both towers.

One parameter set encodes both input kinds. Sentence-style inputs get
token + position + segment embeddings summed elementwise, each position
counted from its own input's first row; the bare target input gets
token embeddings only, so its encoding is a pure function of the
sub-token ids. Each block is multi-head self-attention
with a residual then layer norm, followed by a two-layer GELU feedforward
with a residual then layer norm (norms after the residual adds).

The forward pass runs on one or more ``InputBatch``es, each holding
inputs of one kind at any id lengths, packed end to end into T rows:
a scoring batch's sentences and its targets share one pass. Each kind
is embedded on its own; dropouts, layer norms and feed-forward layers
then run once over all T rows; inside the attention op, rows are
grouped by sequence length so each row attends only to its own
sequence, with no padding and no mask. Each attention and feed-forward
sublayer is one tape record. A single instance is a batch of one. A
pass given an ``rng`` is a training pass: its dropouts draw their masks
from it. Without one, no dropout applies.

Desk-scale defaults (2 layers, 2 heads, width 64) keep every test fast;
the full-scale geometry (12/12/768) is reachable through the same config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .inputs import NUM_SEGMENTS, InputBatch
from .params import Draw, Take
from .rng import Rng
from .settings import Range, Settings


@dataclass(frozen=True)
class EncoderConfig(Settings):
    vocab_size: Annotated[int, Range(ge=1)]
    num_layers: Annotated[int, Range(ge=1)] = 2
    num_heads: Annotated[int, Range(ge=1)] = 2
    hidden_dim: Annotated[int, Range(ge=1)] = 64
    ffn_dim: Annotated[int, Range(ge=1)] = 256
    max_positions: Annotated[int, Range(ge=1)] = 192
    dropout: Annotated[float, Range(ge=0, lt=1)] = 0.2
    init_std: Annotated[float, Range(gt=0)] = 0.02

    def __post_init__(self):
        super().__post_init__()
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )


@dataclass
class EncoderOutput:
    cls: Tensor                      # [B, d], each input's first row
    positions: Tensor                # [T, d], one vector per input id, inputs packed end to end
    offsets: np.ndarray              # [B], first row of each input in ``positions``
    lengths: np.ndarray              # [B], row count of each input


def pool_span(output: EncoderOutput, spans, pooling: Literal["mean", "cls"] = "mean") -> Tensor:
    """Span vectors [B, d]: each input's mean over its span, or its [CLS] row.

    ``spans`` holds one half-open (start, end) pair per input, counted
    from the input's first row. The mean is one matmul with a [B, T]
    averaging matrix.
    """
    if pooling == "cls":
        return output.cls
    B = len(output.lengths)
    spans = np.asarray(spans, dtype=np.int64)
    if spans.shape != (B, 2):
        raise ContractError(f"need one span per input: {B} inputs, spans of shape {spans.shape}")
    s, e = spans[:, :1], spans[:, 1:]
    if not ((0 <= s) & (s < e) & (e <= output.lengths[:, None])).all():
        raise ContractError(f"span empty or outside its input (lengths {output.lengths.tolist()}): {spans.tolist()}")
    rows = np.arange(output.positions.shape[0]) - output.offsets[:, None]  # [B, T], row within each input
    weights = ((rows >= s) & (rows < e)) / (e - s)
    return ad.matmul(Tensor(weights), output.positions)


class Encoder:
    """Owns the parameter tensors and runs the forward pass."""

    def __init__(self, cfg: EncoderConfig, source: Draw | Take):
        """Declare every parameter; ``source`` draws a new value or takes a saved one."""
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}

        def tn(name, shape):
            self.params[name] = source.normal(name, shape, cfg.init_std)

        def zeros(name, shape):
            self.params[name] = source.fill(name, shape, 0.0)

        def ones(name, shape):
            self.params[name] = source.fill(name, shape, 1.0)

        d, f = cfg.hidden_dim, cfg.ffn_dim
        tn("emb.tok", (cfg.vocab_size, d))
        tn("emb.pos", (cfg.max_positions, d))
        tn("emb.seg", (NUM_SEGMENTS, d))
        for i in range(cfg.num_layers):
            for proj in ("q", "k", "v", "o"):
                tn(f"layer{i}.attn.{proj}.w", (d, d))
                zeros(f"layer{i}.attn.{proj}.b", (d,))
            ones(f"layer{i}.ln1.g", (d,))
            zeros(f"layer{i}.ln1.b", (d,))
            tn(f"layer{i}.ffn.w1", (d, f))
            zeros(f"layer{i}.ffn.b1", (f,))
            tn(f"layer{i}.ffn.w2", (f, d))
            zeros(f"layer{i}.ffn.b2", (d,))
            ones(f"layer{i}.ln2.g", (d,))
            zeros(f"layer{i}.ln2.b", (d,))

    def encode(self, *batches: InputBatch, rng: Rng | None = None) -> list[EncoderOutput]:
        """One forward pass over ``batches`` packed end to end; an output per batch.

        Each batch is embedded by its kind, the embeddings are joined in
        batch order, and every layer runs once over the joined rows.
        Attention keeps each input's rows to themselves, so an input's
        vectors do not depend on what else shares the pass. Each output
        holds its own batch's rows only. Dropout applies only given ``rng``.
        """
        if not batches:
            raise ContractError("encode needs at least one input batch")
        cfg = self.cfg
        lengths = np.concatenate([batch.lengths for batch in batches])
        if lengths.min() < 1:
            raise ContractError("cannot encode an empty id sequence")
        if lengths.max() > cfg.max_positions:
            raise ContractError(f"sequence length {lengths.max()} exceeds max_positions {cfg.max_positions}")

        p = cfg.dropout
        P = self.params
        embedded = []
        for batch in batches:
            x = ad.embedding(P["emb.tok"], batch.ids)
            if batch.segments is not None:
                positions = np.arange(len(batch.ids)) - np.repeat(batch.offsets, batch.lengths)
                x = ad.add(x, ad.embedding(P["emb.pos"], positions))
                x = ad.add(x, ad.embedding(P["emb.seg"], batch.segments))
            embedded.append(x)
        x = embedded[0] if len(embedded) == 1 else ad.concat(embedded, axis=0)
        x = ad.dropout(x, p, rng)

        for i in range(cfg.num_layers):
            attn = [P[f"layer{i}.attn.{proj}.{wb}"] for proj in "qkvo" for wb in "wb"]
            a = ad.self_attention(x, attn, lengths, cfg.num_heads, p, rng)
            x = ad.layer_norm(ad.add(x, a), P[f"layer{i}.ln1.g"], P[f"layer{i}.ln1.b"])
            h = ad.feed_forward(x, P[f"layer{i}.ffn.w1"], P[f"layer{i}.ffn.b1"],
                                P[f"layer{i}.ffn.w2"], P[f"layer{i}.ffn.b2"], p, rng)
            x = ad.layer_norm(ad.add(x, h), P[f"layer{i}.ln2.g"], P[f"layer{i}.ln2.b"])

        blocks = [x] if len(batches) == 1 else ad.split(x, [len(batch.ids) for batch in batches])
        return [EncoderOutput(cls=rows[batch.offsets], positions=rows, offsets=batch.offsets, lengths=batch.lengths)
                for batch, rows in zip(batches, blocks)]
