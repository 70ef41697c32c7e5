"""Turning instances into encoder-ready id sequences.

A sentence input is ``[CLS] <sub-tokens> [SEP] <POS marker>`` with three
segment classes: the target word's sub-tokens, the rest of the
comma-delimited clause around the target (its local context), and
everything else (specials, commas, words outside the clause, the POS
marker). A target input is the bare ``[CLS] <target> [SEP]`` and carries
no segments, so the target encoder sees it free of context. The pair
input used by the all-to-all baseline appends the target copy after the
sentence and marks nothing. No input stores positions; the encoder
counts them from each input's first id.

A sentence over max_len keeps the target span and splits the remaining
room as evenly around it as the sentence allows, the front taking the
odd sub-token; the specials and the target itself are never dropped.

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
    """Full-context encoder input with segment marks."""

    ids: tuple[int, ...]
    segments: tuple[int, ...]
    target_span: tuple[int, int]  # half-open sub-token range
    truncated: bool = False

    def __post_init__(self):
        n = len(self.ids)
        if len(self.segments) != n:
            raise ContractError("ids and segments must have equal length")
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


def _layout(instance: Instance, vocab: Vocab, word_segs, tail, max_len) -> SentenceInput:
    """Both sentence layouts: ``[CLS] <sub-tokens> <tail>``, each word's
    sub-tokens in its segment from ``word_segs``, truncated to max_len."""
    ids: list[int] = []
    segs: list[int] = []
    for i, (word, seg) in enumerate(zip(instance.tokens, word_segs)):
        sub = vocab.encode_word(word, initial=(i == 0))
        if i == instance.target_index:
            span = (len(ids), len(ids) + len(sub))
        ids += sub
        segs += [seg] * len(sub)
    return _truncate(ids, segs, span, tail, max_len)


def _truncate(ids, segs, span, tail, max_len) -> SentenceInput:
    """The input keeping the window of the sentence region that fits
    max_len ids between [CLS] and ``tail``, split as the module says."""
    budget = max_len - 1 - len(tail)
    s, e = span
    if budget < e - s:
        raise ContractError(
            f"max_len {max_len} cannot hold the target span of {e - s} sub-tokens "
            f"plus {1 + len(tail)} structural tokens"
        )
    n = len(ids)
    room = min(budget, n) - (e - s)
    front = min(s, max(room - room // 2, room - (n - e)))
    lo, hi = s - front, e + room - front
    return SentenceInput(
        ids=(CLS_ID, *ids[lo:hi], *tail),
        segments=(SEG_OTHER, *segs[lo:hi], *[SEG_OTHER] * len(tail)),
        target_span=(1 + front, 1 + front + e - s),
        truncated=n > budget,
    )


def build_sentence_input(instance: Instance, vocab: Vocab, max_len: int = 150) -> SentenceInput:
    lo, hi = clause_word_range(instance.tokens, instance.target_index)
    word_segs = [SEG_TAR if i == instance.target_index else SEG_LOC if lo <= i < hi else SEG_OTHER
                 for i in range(len(instance.tokens))]
    return _layout(instance, vocab, word_segs, (SEP_ID, vocab.pos_token_id(instance.pos_tag)), max_len)


def build_target_input(instance: Instance, vocab: Vocab) -> TargetInput:
    word = vocab.encode_word(instance.target_word, initial=True)
    ids = [CLS_ID] + word + [SEP_ID]
    return TargetInput(ids=tuple(ids), target_span=(1, 1 + len(word)))


def build_pair_input(instance: Instance, vocab: Vocab, max_len: int = 150) -> SentenceInput:
    """Sentence and target as one unmarked sequence for the all-to-all
    baseline: [CLS] sentence [SEP] target [SEP], every segment OTHER."""
    tail = (SEP_ID, *vocab.encode_word(instance.target_word, initial=True), SEP_ID)
    return _layout(instance, vocab, [SEG_OTHER] * len(instance.tokens), tail, max_len)
