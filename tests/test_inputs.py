"""Sentence/target/pair id sequences, segments, and truncation."""

import pytest

from melbert.bpe import CLS_ID, SEP_ID, train_bpe
from melbert.data import Instance
from melbert.errors import ContractError
from melbert.inputs import (
    SEG_LOC,
    SEG_OTHER,
    SEG_TAR,
    InputBatch,
    TargetInput,
    build_pair_input,
    build_sentence_input,
    build_target_input,
    clause_word_range,
)
from melbert.inputs import _truncate

WORDS = ["the", "cat", "dog", "sat", "ran", "on", "mat", "rug", "big", ","]


@pytest.fixture(scope="module")
def vocab():
    corpus = [
        "the cat sat on the mat",
        "the dog ran on the rug",
        "big cat , big dog",
        "the big dog sat , the cat ran",
    ]
    return train_bpe(corpus, vocab_size=200)


def seg_of_word(inp, instance, vocab, word_index):
    """Segment ids covering one word's sub-tokens (must agree)."""
    # walk the sentence region reproducing the flattening
    pos = 1  # skip [CLS]
    for i, w in enumerate(instance.tokens):
        n = len(vocab.encode_word(w, initial=(i == 0)))
        if i == word_index:
            segs = set(inp.segments[pos : pos + n])
            assert len(segs) == 1
            return segs.pop()
        pos += n
    raise AssertionError("word index not found")


class TestClauseRange:
    """Comma-delimited local context."""

    def test_no_comma_whole_sentence(self):
        assert clause_word_range(("a", "b", "c"), 1) == (0, 3)

    def test_target_between_commas(self):
        toks = ("a", ",", "b", "c", ",", "d")
        assert clause_word_range(toks, 2) == (2, 4)
        assert clause_word_range(toks, 3) == (2, 4)

    def test_target_before_first_comma(self):
        toks = ("a", "b", ",", "c")
        assert clause_word_range(toks, 0) == (0, 2)

    def test_target_after_last_comma(self):
        toks = ("a", ",", "b", "c")
        assert clause_word_range(toks, 3) == (2, 4)

    def test_comma_target_degenerates(self):
        toks = ("a", ",", "b")
        assert clause_word_range(toks, 1) == (1, 2)


class TestSentenceInput:
    """Layout [CLS] sentence [SEP] POS and the three segment classes."""

    def test_layout(self, vocab):
        inst = Instance("s", ("the", "cat", "sat"), 1, 1.0, "NOUN")
        inp = build_sentence_input(inst, vocab)
        assert inp.ids[0] == CLS_ID
        assert inp.ids[-2] == SEP_ID
        assert inp.ids[-1] == vocab.pos_token_id("NOUN")
        assert not inp.truncated

    def test_span_decodes_to_target(self, vocab):
        inst = Instance("s", ("the", "big", "dog", "ran"), 2, 0.0, "NOUN")
        inp = build_sentence_input(inst, vocab)
        s, e = inp.target_span
        assert vocab.decode(inp.ids[s:e]) == "dog"
        assert set(inp.segments[s:e]) == {SEG_TAR}

    def test_segments_without_comma(self, vocab):
        inst = Instance("s", ("the", "cat", "sat"), 1, 0.0, "NOUN")
        inp = build_sentence_input(inst, vocab)
        assert seg_of_word(inp, inst, vocab, 0) == SEG_LOC
        assert seg_of_word(inp, inst, vocab, 1) == SEG_TAR
        assert seg_of_word(inp, inst, vocab, 2) == SEG_LOC
        assert inp.segments[0] == SEG_OTHER          # [CLS]
        assert inp.segments[-2] == SEG_OTHER         # [SEP]
        assert inp.segments[-1] == SEG_OTHER         # POS marker

    def test_segments_with_comma_clause(self, vocab):
        toks = ("the", "cat", "ran", ",", "the", "dog", "sat")
        inst = Instance("s", toks, 5, 1.0, "NOUN")
        inp = build_sentence_input(inst, vocab)
        # clause after the comma holds the target
        assert seg_of_word(inp, inst, vocab, 0) == SEG_OTHER
        assert seg_of_word(inp, inst, vocab, 2) == SEG_OTHER
        assert seg_of_word(inp, inst, vocab, 3) == SEG_OTHER  # the comma itself
        assert seg_of_word(inp, inst, vocab, 4) == SEG_LOC
        assert seg_of_word(inp, inst, vocab, 5) == SEG_TAR
        assert seg_of_word(inp, inst, vocab, 6) == SEG_LOC

    def test_unknown_pos_tag_maps_to_unk(self, vocab):
        inst = Instance("s", ("the", "cat"), 1, 0.0, "WEIRD")
        inp = build_sentence_input(inst, vocab)
        assert inp.ids[-1] == vocab.token_to_id["[UNK]"]

    def test_comma_target_allowed(self, vocab):
        inst = Instance("s", ("the", "cat", ",", "the", "dog"), 2, 0.0, "PUNCT")
        inp = build_sentence_input(inst, vocab)
        s, e = inp.target_span
        assert set(inp.segments[s:e]) == {SEG_TAR}


def truncate_one_at_a_time(sent_ids, sent_segs, span, head, tail, max_len):
    """The reference truncation: drop one sentence sub-token at a time
    from whichever end lies farther from the span, the back on a tie."""
    budget = max_len - len(head) - len(tail)
    s, e = span
    if budget < e - s:
        raise ContractError("no room for the span")
    excess = len(sent_ids) - budget
    drop_front = drop_back = 0
    while drop_front + drop_back < excess:
        if (len(sent_ids) - drop_back) - e >= s - drop_front:
            drop_back += 1
        else:
            drop_front += 1
    kept = slice(drop_front, len(sent_ids) - drop_back)
    ids = head + sent_ids[kept] + tail
    segs = [SEG_OTHER] * len(head) + sent_segs[kept] + [SEG_OTHER] * len(tail)
    return ids, segs, (len(head) + s - drop_front, len(head) + e - drop_front), excess > 0


class TestTruncation:
    """Dropping from the end farther from the target."""

    def test_overflow_drops_far_end(self, vocab):
        toks = tuple(WORDS[i % 9] for i in range(40)) + ("cat",)
        inst = Instance("s", toks, 40, 1.0, "NOUN")  # target is the last word
        full = build_sentence_input(inst, vocab, max_len=500)
        inp = build_sentence_input(inst, vocab, max_len=20)
        assert inp.truncated and not full.truncated
        assert len(inp.ids) == 20
        s, e = inp.target_span
        assert vocab.decode(inp.ids[s:e]) == "cat"
        assert inp.ids[0] == CLS_ID
        assert inp.ids[-2] == SEP_ID
        # target near the end: the front was dropped, so the kept tail
        # of the sentence matches the untruncated one
        assert inp.ids[-3] == full.ids[-3]

    def test_tie_drops_back_first(self, vocab):
        # 1 sub-token words, target dead center
        toks = ("the", "cat", "sat", "dog", "ran")
        # ensure single sub-tokens for determinism of the layout
        inst = Instance("s", toks, 2, 0.0, "VERB")
        full = build_sentence_input(inst, vocab, max_len=100)
        if len(full.ids) != 8:
            pytest.skip("vocab split a word; layout assumption broken")
        inp = build_sentence_input(inst, vocab, max_len=7)
        # one drop needed; back room equals front room, back goes first
        s, e = inp.target_span
        assert vocab.decode(inp.ids[s:e]) == "sat"
        kept_words = vocab.decode(inp.ids[1:-2])
        assert kept_words == "the cat sat dog"

    def test_impossible_budget_rejected(self, vocab):
        inst = Instance("s", ("the", "cat", "sat"), 1, 0.0, "NOUN")
        with pytest.raises(ContractError):
            build_sentence_input(inst, vocab, max_len=3)

    def test_exact_fit_not_truncated(self, vocab):
        inst = Instance("s", ("the", "cat"), 1, 0.0, "NOUN")
        full = build_sentence_input(inst, vocab, max_len=150)
        exact = build_sentence_input(inst, vocab, max_len=len(full.ids))
        assert exact == full

    @pytest.mark.parametrize("tail", [[SEP_ID, 7], [SEP_ID, 8, 9, SEP_ID]], ids=["sentence", "pair"])
    def test_window_matches_one_at_a_time_reference(self, tail):
        cases = 0
        for n in range(1, 25):
            ids = list(range(100, 100 + n))
            segs = [i % 3 for i in range(n)]
            for s in range(n):
                for e in range(s + 1, n + 1):
                    smallest = 1 + len(tail) + e - s
                    with pytest.raises(ContractError):
                        _truncate(ids, segs, (s, e), tail, smallest - 1)
                    for max_len in range(smallest, 1 + len(tail) + n + 2):
                        want = truncate_one_at_a_time(ids, segs, (s, e), [CLS_ID], tail, max_len)
                        got = _truncate(ids, segs, (s, e), tail, max_len)
                        assert (list(got.ids), list(got.segments), got.target_span, got.truncated) == want
                        cases += 1
        assert cases > 30_000


class TestTargetInput:
    """[CLS] target [SEP], nothing else."""

    def test_layout_and_decode(self, vocab):
        inst = Instance("s", ("the", "big", "cat"), 2, 1.0, "NOUN")
        t = build_target_input(inst, vocab)
        assert t.ids[0] == CLS_ID and t.ids[-1] == SEP_ID
        s, e = t.target_span
        assert (s, e) == (1, len(t.ids) - 1)
        assert vocab.decode(t.ids[s:e]) == "big" or vocab.decode(t.ids[s:e]) == "cat"
        assert vocab.decode(t.ids[s:e]) == "cat"

    def test_no_position_or_segment_fields(self, vocab):
        inst = Instance("s", ("cat",), 0, 0.0, "NOUN")
        t = build_target_input(inst, vocab)
        assert not hasattr(t, "positions")
        assert not hasattr(t, "segments")

    def test_same_word_any_position_encodes_identically(self, vocab):
        a = build_target_input(Instance("s1", ("cat", "sat"), 0, 0.0, "NOUN"), vocab)
        b = build_target_input(Instance("s2", ("the", "cat"), 1, 1.0, "NOUN"), vocab)
        assert a.ids == b.ids


class TestPairInput:
    """All-to-all baseline form."""

    def test_layout(self, vocab):
        inst = Instance("s", ("the", "cat", "sat"), 1, 0.0, "NOUN")
        p = build_pair_input(inst, vocab)
        assert p.ids[0] == CLS_ID
        assert p.ids[-1] == SEP_ID
        assert list(p.ids).count(SEP_ID) == 2
        assert set(p.segments) == {SEG_OTHER}
        # the appended copy sits between the two separators
        sep1 = list(p.ids).index(SEP_ID)
        assert vocab.decode(p.ids[sep1 + 1 : -1]) == "cat"

    def test_truncation_keeps_appended_target(self, vocab):
        toks = tuple(WORDS[i % 9] for i in range(30))
        inst = Instance("s", toks, 0, 0.0, "NOUN")
        p = build_pair_input(inst, vocab, max_len=16)
        assert p.truncated
        assert len(p.ids) == 16
        assert p.ids[-1] == SEP_ID
        sep1 = [i for i, t in enumerate(p.ids) if t == SEP_ID][0]
        assert vocab.decode(p.ids[sep1 + 1 : -1]) == "the"


class TestInputBatch:
    """Packing inputs of one kind end to end for one encoder pass."""

    def test_sentence_rows_keep_their_fields(self, vocab):
        a = build_sentence_input(Instance("a", ("the", "cat", "sat"), 1, 0.0, "NOUN"), vocab)
        b = build_sentence_input(Instance("b", ("the", "dog", "ran"), 2, 1.0, "VERB"), vocab)
        assert len(a.ids) == len(b.ids)
        batch = InputBatch.stack([a, b])
        assert batch.ids.tolist() == [*a.ids, *b.ids]
        assert batch.segments.tolist() == [*a.segments, *b.segments]
        assert batch.spans.tolist() == [list(a.target_span), list(b.target_span)]

    def test_mixed_lengths_pack_end_to_end(self, vocab):
        short = build_sentence_input(Instance("a", ("the", "cat", "sat"), 1, 0.0, "NOUN"), vocab)
        longer = build_sentence_input(Instance("b", ("the", "cat", "sat", "on", "the", "mat"), 1, 0.0, "NOUN"), vocab)
        assert len(short.ids) != len(longer.ids)
        batch = InputBatch.stack([longer, short, longer])
        assert batch.lengths.tolist() == [len(longer.ids), len(short.ids), len(longer.ids)]
        assert batch.offsets.tolist() == [0, len(longer.ids), len(longer.ids) + len(short.ids)]
        for inp, off, n in zip([longer, short, longer], batch.offsets, batch.lengths):
            assert batch.ids[off : off + n].tolist() == list(inp.ids)
            assert batch.segments[off : off + n].tolist() == list(inp.segments)
        assert batch.spans.tolist() == [list(longer.target_span), list(short.target_span), list(longer.target_span)]

    def test_target_rows_have_no_positions_or_segments(self, vocab):
        batch = InputBatch.stack([build_target_input(Instance("a", ("cat",), 0, 0.0, "NOUN"), vocab)])
        assert batch.segments is None

    def test_mixed_kinds_and_empty_rejected(self, vocab):
        inst = Instance("a", ("the", "cat", "sat"), 1, 0.0, "NOUN")
        sent = build_sentence_input(inst, vocab)
        same_length_target = TargetInput(ids=sent.ids, target_span=sent.target_span)
        with pytest.raises(ContractError):
            InputBatch.stack([sent, same_length_target])
        with pytest.raises(ContractError):
            InputBatch.stack([])
