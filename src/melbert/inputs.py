"""Turning instances into encoder-ready id sequences.

A sentence input is ``[CLS] <sub-tokens> [SEP] <POS marker>`` with three
segment classes: the target word's sub-tokens, the rest of the
comma-delimited clause around the target (its local context), and
everything else (specials, commas, words outside the clause, the POS
marker). A target input is the bare ``[CLS] <target> [SEP]`` and carries
no positions or segments at all, so the target encoder sees it free of
context. The pair input used by the all-to-all baseline appends the
target copy after the sentence and marks nothing.

When a sentence overflows max_len, sub-tokens are dropped one at a time
from whichever sentence end lies farther from the target span; the
specials and the target itself are never dropped.

The encoder consumes an ``InputBatch``: inputs of one kind, at any id
lengths, packed end to end into one id array, so a whole batch of them
runs through one forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bpe import CLS_ID, SEP_ID, Vocab
from .data import Instance
from .errors import ContractError

SEG_OTHER, SEG_LOC, SEG_TAR = 0, 1, 2
NUM_SEGMENTS = 3


@dataclass(frozen=True)
class SentenceInput:
    """Full-context encoder input with positions and segment marks."""

    ids: tuple[int, ...]
    positions: tuple[int, ...]
    segments: tuple[int, ...]
    target_span: tuple[int, int]  # half-open sub-token range
    truncated: bool = False

    def __post_init__(self):
        n = len(self.ids)
        if len(self.positions) != n or len(self.segments) != n:
            raise ContractError("ids, positions and segments must have equal length")
        s, e = self.target_span
        if not (0 <= s < e <= n):
            raise ContractError(f"target span {self.target_span} invalid for length {n}")


@dataclass(frozen=True)
class TargetInput:
    """Context-free encoder input: token embeddings only."""

    ids: tuple[int, ...]
    target_span: tuple[int, int]

    def __post_init__(self):
        s, e = self.target_span
        if not (0 <= s < e <= len(self.ids)):
            raise ContractError(f"target span {self.target_span} invalid for length {len(self.ids)}")


@dataclass(frozen=True, eq=False)
class InputBatch:
    """Inputs of one kind, packed end to end for one encoder pass.

    Input b owns rows ``offsets[b]`` to ``offsets[b] + lengths[b]`` of the
    packed arrays; its target span counts from its own first row.
    """

    ids: np.ndarray                   # [T], every input's ids, concatenated
    positions: Optional[np.ndarray]   # [T]; None for target inputs
    segments: Optional[np.ndarray]    # [T]; None for target inputs
    offsets: np.ndarray               # [B], first packed row of each input
    lengths: np.ndarray               # [B], id count of each input
    spans: np.ndarray                 # [B, 2], half-open target span within each input

    @classmethod
    def stack(cls, inputs) -> "InputBatch":
        inputs = list(inputs)
        if not inputs:
            raise ContractError("cannot stack an empty list of inputs")
        kinds = {type(inp) for inp in inputs}
        if len(kinds) != 1:
            raise ContractError("stacked inputs must all be sentence inputs or all target inputs")
        sentences = kinds == {SentenceInput}

        def packed(field):
            return np.fromiter((i for inp in inputs for i in getattr(inp, field)), dtype=np.int64)

        lengths = np.array([len(inp.ids) for inp in inputs], dtype=np.int64)
        return cls(
            ids=packed("ids"),
            positions=packed("positions") if sentences else None,
            segments=packed("segments") if sentences else None,
            offsets=np.cumsum(lengths) - lengths,
            lengths=lengths,
            spans=np.array([inp.target_span for inp in inputs], dtype=np.int64),
        )


def clause_word_range(tokens, target_index: int) -> tuple[int, int]:
    """Half-open word range of the comma-delimited clause around the target.

    A sentence without commas is a single clause. Commas themselves never
    belong to a clause; a comma target degenerates to just itself.
    """
    if tokens[target_index] == ",":
        return target_index, target_index + 1
    lo = -1
    hi = len(tokens)
    for i, tok in enumerate(tokens):
        if tok != ",":
            continue
        if i < target_index:
            lo = max(lo, i)
        else:
            hi = min(hi, i)
    return lo + 1, hi


def _encode_words(instance: Instance, vocab: Vocab) -> list[list[int]]:
    return [vocab.encode_word(w, initial=(i == 0)) for i, w in enumerate(instance.tokens)]


def _truncate(sent_ids, sent_segs, span, head, tail, max_len):
    """Drop sentence sub-tokens from the end farther from the span.

    head/tail are the id lists kept verbatim around the sentence region.
    Returns the rebuilt (ids, segments, span, truncated) with segments
    for head and tail filled with SEG_OTHER.
    """
    budget = max_len - len(head) - len(tail)
    s, e = span
    if budget < e - s:
        raise ContractError(
            f"max_len {max_len} cannot hold the target span of {e - s} sub-tokens "
            f"plus {len(head) + len(tail)} structural tokens"
        )
    excess = len(sent_ids) - budget
    drop_front = 0
    drop_back = 0
    while drop_front + drop_back < excess:
        front_room = s - drop_front
        back_room = (len(sent_ids) - drop_back) - e
        if back_room >= front_room:
            drop_back += 1
        else:
            drop_front += 1
    kept_ids = sent_ids[drop_front : len(sent_ids) - drop_back]
    kept_segs = sent_segs[drop_front : len(sent_segs) - drop_back]
    ids = head + kept_ids + tail
    segs = [SEG_OTHER] * len(head) + kept_segs + [SEG_OTHER] * len(tail)
    new_span = (len(head) + s - drop_front, len(head) + e - drop_front)
    return ids, segs, new_span, excess > 0


def build_sentence_input(instance: Instance, vocab: Vocab, max_len: int = 150) -> SentenceInput:
    word_ids = _encode_words(instance, vocab)
    lo, hi = clause_word_range(instance.tokens, instance.target_index)

    sent_ids: list[int] = []
    sent_segs: list[int] = []
    span_start = span_end = -1
    for i, ids in enumerate(word_ids):
        if i == instance.target_index:
            span_start = len(sent_ids)
            span_end = span_start + len(ids)
            seg = SEG_TAR
        elif lo <= i < hi and instance.tokens[i] != ",":
            seg = SEG_LOC
        else:
            seg = SEG_OTHER
        sent_ids.extend(ids)
        sent_segs.extend([seg] * len(ids))

    head = [CLS_ID]
    tail = [SEP_ID, vocab.pos_token_id(instance.pos_tag)]
    ids, segs, span, truncated = _truncate(
        sent_ids, sent_segs, (span_start, span_end), head, tail, max_len
    )
    return SentenceInput(
        ids=tuple(ids),
        positions=tuple(range(len(ids))),
        segments=tuple(segs),
        target_span=span,
        truncated=truncated,
    )


def build_target_input(instance: Instance, vocab: Vocab) -> TargetInput:
    word = vocab.encode_word(instance.target_word, initial=True)
    ids = [CLS_ID] + word + [SEP_ID]
    return TargetInput(ids=tuple(ids), target_span=(1, 1 + len(word)))


def build_pair_input(instance: Instance, vocab: Vocab, max_len: int = 150) -> SentenceInput:
    """Sentence and target as one unmarked sequence for the all-to-all
    baseline: [CLS] sentence [SEP] target [SEP], every segment OTHER."""
    word_ids = _encode_words(instance, vocab)
    sent_ids: list[int] = []
    span_start = span_end = -1
    for i, ids in enumerate(word_ids):
        if i == instance.target_index:
            span_start = len(sent_ids)
            span_end = span_start + len(ids)
        sent_ids.extend(ids)
    target_copy = vocab.encode_word(instance.target_word, initial=True)
    head = [CLS_ID]
    tail = [SEP_ID] + target_copy + [SEP_ID]
    segs = [SEG_OTHER] * len(sent_ids)
    ids, segs, span, truncated = _truncate(sent_ids, segs, (span_start, span_end), head, tail, max_len)
    return SentenceInput(
        ids=tuple(ids),
        positions=tuple(range(len(ids))),
        segments=tuple(segs),
        target_span=span,
        truncated=truncated,
    )
