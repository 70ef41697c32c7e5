"""Tokenizer training, round trips, and the vocabulary file format."""

from collections import Counter

import numpy as np
import pytest

from melbert.bpe import (
    CLS_ID,
    DEFAULT_POS_TAGS,
    MARKER,
    PAD_ID,
    RESERVED,
    SEP_ID,
    UNK_ID,
    Vocab,
    _apply_merge,
    _word_symbols,
    pos_token,
    train_bpe,
)
from melbert.data import SyntheticSpec, make_synthetic_corpus
from melbert.errors import ConfigError, ContractError, FormatError, VocabError
from melbert.rng import Rng

FLOOR = len(RESERVED) + len(DEFAULT_POS_TAGS)  # before any corpus alphabet


def recount_train_bpe(corpus, vocab_size: int, pos_tags=DEFAULT_POS_TAGS) -> Vocab:
    """Reference trainer: recounts every pair of every word before each
    merge and rewrites every word after it. ``train_bpe`` must match it."""
    word_freq: Counter = Counter()
    for sentence in corpus:
        for i, word in enumerate(sentence.split()):
            word_freq[_word_symbols(word, initial=i == 0)] += 1
    alphabet = sorted({sym for seq in word_freq for sym in seq})
    tokens = list(RESERVED) + [pos_token(t) for t in pos_tags] + alphabet
    known = set(tokens)
    merges = []
    seqs = dict(word_freq)
    while len(tokens) < vocab_size:
        pair_counts: Counter = Counter()
        for seq, freq in seqs.items():
            for pair in zip(seq, seq[1:]):
                pair_counts[pair] += freq
        if not pair_counts:
            break
        best_pair, best_count = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if best_count < 2:
            break
        left, right = best_pair
        joined = left + right
        merges.append(best_pair)
        merged: dict = {}
        for seq, freq in seqs.items():
            new_seq = _apply_merge(seq, left, right, joined)
            merged[new_seq] = merged.get(new_seq, 0) + freq
        seqs = merged
        if joined not in known:
            tokens.append(joined)
            known.add(joined)
    return Vocab(
        token_to_id={t: i for i, t in enumerate(tokens)},
        merges=merges,
        pos_tags=tuple(pos_tags),
    )


class TestTraining:
    """Merge selection order and stopping conditions."""

    def test_first_merge_on_aaab(self):
        # "aaab" pairs: (a,a) twice (overlap counts once per position), (a,b) once
        vocab = train_bpe(["aaab"], vocab_size=FLOOR + 2 + 10)
        assert vocab.merges[0] == ("a", "a")

    def test_aaab_full_segmentation(self):
        vocab = train_bpe(["aaab"], vocab_size=FLOOR + 2 + 10)
        # after merging (a,a) no pair repeats, so exactly one merge happens
        assert vocab.merges == [("a", "a")]
        ids = vocab.encode("aaab")
        assert [vocab.id_to_token[i] for i in ids] == ["aa", "a", "b"]

    def test_ties_break_lexicographically(self):
        # (a,b) and (c,d) both occur twice; "a" < "c" so (a,b) merges first
        vocab = train_bpe(["ab xcd ab xcd"], vocab_size=FLOOR + 6 + 2)
        assert vocab.merges[0] == ("a", "b")

    def test_frequency_beats_alphabetical_order(self):
        vocab = train_bpe(["zy zy zy ab"], vocab_size=FLOOR + 5 + 1)
        assert vocab.merges[0] == (MARKER, "z") or vocab.merges[0] == ("z", "y")
        # (z,y) occurs 3 times, (marker,z) twice; frequency wins
        assert vocab.merges[0] == ("z", "y")

    def test_budget_exactly_floor_plus_alphabet_means_zero_merges(self):
        vocab = train_bpe(["abab abab"], vocab_size=FLOOR + 3)  # alphabet: a, b, marker
        assert vocab.merges == []
        assert len(vocab) == FLOOR + 3

    def test_budget_below_floor_rejected(self):
        with pytest.raises(ConfigError):
            train_bpe(["ab"], vocab_size=FLOOR + 1)

    def test_no_repeating_pair_stops_early(self):
        vocab = train_bpe(["abc"], vocab_size=FLOOR + 3 + 50)
        assert vocab.merges == []

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            train_bpe([], vocab_size=1000)
        with pytest.raises(ContractError):
            train_bpe(["", "   "], vocab_size=1000)

    def test_training_is_deterministic(self):
        corpus = ["the cat sat on the mat", "the dog sat on the log"]
        a = train_bpe(corpus, vocab_size=120)
        b = train_bpe(corpus, vocab_size=120)
        assert a == b

    def test_reserved_ids_are_fixed(self):
        vocab = train_bpe(["abc"], vocab_size=200)
        assert vocab.token_to_id["[PAD]"] == PAD_ID == 0
        assert vocab.token_to_id["[UNK]"] == UNK_ID == 1
        assert vocab.token_to_id["[CLS]"] == CLS_ID == 2
        assert vocab.token_to_id["[SEP]"] == SEP_ID == 3


def _pseudo_word_corpus(seed: int, n: int) -> list[str]:
    """Sentences whose content words are made-up consonant-vowel words."""
    rng = Rng(seed, "test/pseudo-words")
    words = iter(dict.fromkeys(
        "".join(rng.choice("bdgkmnprst") + rng.choice("aeiou") for _ in range(2 + k % 2))
        for k in range(2000)
    ))
    fields = {
        name: {"nouns": tuple(next(words) for _ in range(40)), "verbs": tuple(next(words) for _ in range(20))}
        for name in ("alpha", "beta", "gamma")
    }
    return [" ".join(i.tokens) for i in make_synthetic_corpus(seed, n, SyntheticSpec(fields=fields))]


class TestIncrementalCounts:
    """``train_bpe`` keeps pair counts across merges; its vocabulary must
    equal the recounting reference's, merge for merge and byte for byte."""

    @staticmethod
    def assert_same(corpus, vocab_size, tmp_path, pos_tags=DEFAULT_POS_TAGS):
        corpus = list(corpus)
        got = train_bpe(corpus, vocab_size, pos_tags)
        want = recount_train_bpe(corpus, vocab_size, pos_tags)
        assert got.merges == want.merges
        assert got.token_to_id == want.token_to_id
        assert got == want
        got.save(tmp_path / "got.txt")
        want.save(tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
        return got

    def test_synthetic_corpus(self, tmp_path):
        corpus = [" ".join(i.tokens) for i in make_synthetic_corpus(3, 400)]
        assert len(self.assert_same(corpus, 400, tmp_path).merges) > 100

    def test_joined_clauses(self, tmp_path):
        clauses = [" ".join(i.tokens) for i in make_synthetic_corpus(4, 600)]
        rng = Rng(4, "test/clauses")
        corpus, at = [], 0
        while at < len(clauses):
            k = int(rng.integers(2, 12))
            corpus.append(" , ".join(clauses[at : at + k]))
            at += k
        self.assert_same(corpus, 400, tmp_path)

    def test_pseudo_word_corpus(self, tmp_path):
        vocab = self.assert_same(_pseudo_word_corpus(8, 500), 800, tmp_path)
        assert len(vocab.merges) > 300

    def test_runs_of_one_letter(self, tmp_path):
        # overlapping pairs count once per position: aaaa holds (a, a) three times
        for vocab_size in range(FLOOR + 2, FLOOR + 10):
            self.assert_same(["aaaa aaaaa a", "aaa aaaaaaa"], vocab_size, tmp_path)

    def test_first_word_with_marker_shares_the_later_words_entry(self, tmp_path):
        # "▁cat" first and "cat" later spell the same symbols; each occurs
        # once, so only their summed count of 2 lets the pairs merge
        vocab = self.assert_same([MARKER + "cat x", "y cat"], 200, tmp_path)
        assert vocab.merges == [("a", "t"), ("c", "at"), (MARKER, "cat")]

    def test_join_that_is_already_a_token(self, tmp_path):
        # text spelling a reserved token: its last merge joins "[SEP]",
        # which is recorded but takes no new id
        vocab = self.assert_same(["[SEP] x", "[SEP] y", "[SEP]"], 200, tmp_path)
        assert vocab.merges[-1] == ("[", "SEP]")
        assert len(vocab) == FLOOR + 8 + len(vocab.merges) - 1

    def test_all_counts_tied(self, tmp_path):
        vocab = self.assert_same(["ab cd ef gh", "ab cd ef gh"], 200, tmp_path)
        assert vocab.merges[0] == ("a", "b")

    def test_budgets(self, tmp_path):
        corpus = _pseudo_word_corpus(9, 120)
        unbounded = train_bpe(corpus, 10_000)
        free = len(unbounded.merges)
        floor = len(unbounded) - free
        for vocab_size in (floor, floor + 1, floor + free // 2, floor + free, floor + free + 50):
            self.assert_same(corpus, vocab_size, tmp_path)

    def test_generator_corpus(self, tmp_path):
        corpus = _pseudo_word_corpus(10, 100)
        got = train_bpe((line for line in corpus), 500)
        assert got == recount_train_bpe(corpus, 500)

    def test_custom_pos_tags(self, tmp_path):
        self.assert_same(["the cat sat", "the cat ran"], 100, tmp_path, pos_tags=("NOUN",))

    def test_fuzz_small_alphabets(self, tmp_path):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            alphabet = "ab" if rng.random() < 0.5 else "abc" + MARKER
            lines = [
                " ".join(
                    "".join(rng.choice(list(alphabet), size=int(rng.integers(1, 7))))
                    for _ in range(int(rng.integers(1, 7)))
                )
                for _ in range(int(rng.integers(1, 6)))
            ]
            floor = FLOOR + len({c for line in lines for c in line if c != " "} | {MARKER})
            self.assert_same(lines, floor + int(rng.integers(0, 30)), tmp_path)


def replay_encode_word(vocab: Vocab, word: str, initial: bool) -> list[int]:
    """Reference encoder: replays the whole merge list in order.
    ``Vocab.encode_word`` must give the same ids."""
    seq = _word_symbols(word, initial)
    for left, right in vocab.merges:
        if left in seq:
            seq = _apply_merge(seq, left, right, left + right)
    return [vocab.token_to_id.get(sym, UNK_ID) for sym in seq]


class TestRankedEncoding:
    """``encode_word`` applies merges by rank; its ids must equal the
    ordered replay's for every word, seen in training or not."""

    @staticmethod
    def assert_same(vocab, words):
        words = sorted(set(words))
        assert words
        for word in words:
            for initial in (True, False):
                assert vocab.encode_word(word, initial) == replay_encode_word(vocab, word, initial), (word, initial)

    def test_synthetic_words(self):
        vocab = train_bpe((" ".join(i.tokens) for i in make_synthetic_corpus(3, 400)), 400)
        held = [" ".join(i.tokens) for i in make_synthetic_corpus(5, 200)]
        self.assert_same(vocab, [w for line in held for w in line.split()] + ["cats", "xyzzy", MARKER + "the"])

    def test_pseudo_words(self):
        vocab = train_bpe(_pseudo_word_corpus(8, 500), 800)
        assert len(vocab.merges) > 300
        held = _pseudo_word_corpus(11, 300)  # other made-up words, most never seen in training
        self.assert_same(vocab, [w for line in held for w in line.split()])

    @pytest.mark.parametrize("merges, word, pieces", [
        # rank 0 has passed when rank 1 makes "ab", so ("ab", "c") never applies
        ([("ab", "c"), ("a", "b")], "abc", ["ab", "c"]),
        # a repeated pair: its entry at rank 2 applies once rank 1 has made "ab"
        ([("ab", "c"), ("a", "b"), ("ab", "c")], "abcab", ["abc", "ab"]),
    ], ids=["earlier-rank-passed", "repeated-pair"])
    def test_crafted_merge_lists(self, merges, word, pieces):
        tokens = list(RESERVED) + ["a", "b", "c", "ab", "abc"]
        vocab = Vocab({t: i for i, t in enumerate(tokens)}, merges, ())
        assert [vocab.id_to_token[i] for i in vocab.encode_word(word, True)] == pieces
        self.assert_same(vocab, [word, "abcabc", "cab", "a"])

    def test_random_merge_lists(self):
        # merge lists no trainer would write: repeated pairs, shuffled ranks
        rng = np.random.default_rng(7)
        for _ in range(40):
            tokens = list(RESERVED) + ["a", "b", "c", MARKER]
            merges = []
            for _ in range(int(rng.integers(1, 25))):
                if merges and rng.random() < 0.2:
                    merges.append(merges[int(rng.integers(len(merges)))])
                    continue
                left, right = (tokens[int(rng.integers(len(RESERVED), len(tokens)))] for _ in range(2))
                merges.append((left, right))
                if left + right not in tokens:
                    tokens.append(left + right)
            if rng.random() < 0.5:  # a merge may then come before the one making its parts
                merges = [merges[i] for i in rng.permutation(len(merges))]
            vocab = Vocab({t: i for i, t in enumerate(tokens)}, merges, ())
            self.assert_same(vocab, ["".join(rng.choice(list("abc"), size=int(rng.integers(1, 12)))) for _ in range(30)])


class TestEncodeDecode:
    """Round trips and unknown-symbol handling."""

    @pytest.fixture
    def vocab(self):
        corpus = [
            "the cat sat on the mat",
            "the dog ran to the cat",
            "a cat and a dog sat",
        ]
        return train_bpe(corpus, vocab_size=150)

    def test_round_trip_identity(self, vocab):
        for text in ["the cat sat", "a dog ran to the mat", "cat", "the the the"]:
            assert vocab.decode(vocab.encode(text)) == text

    def test_empty_round_trip(self, vocab):
        assert vocab.encode("") == []
        assert vocab.decode([]) == ""

    def test_word_start_marker_distinguishes_positions(self, vocab):
        initial = vocab.encode_word("cat", initial=True)
        later = vocab.encode_word("cat", initial=False)
        assert initial != later
        assert vocab.decode(later) == "cat"  # leading space stripped

    def test_unknown_characters_become_unk(self, vocab):
        ids = vocab.encode("zzz")
        assert ids == [UNK_ID] * 3
        assert "[UNK]" in vocab.decode(ids)

    def test_decode_rejects_unknown_id(self, vocab):
        with pytest.raises(VocabError):
            vocab.decode([len(vocab) + 5])

    def test_pos_token_lookup(self, vocab):
        noun = vocab.pos_token_id("NOUN")
        verb = vocab.pos_token_id("VERB")
        assert noun != verb and noun >= 4 and verb >= 4
        assert vocab.pos_token_id("NOT_A_TAG") == UNK_ID

    def test_random_sentences_round_trip(self, vocab):
        rng = np.random.default_rng(42)
        words = ["the", "cat", "dog", "sat", "ran", "mat", "a", "to", "and", "on"]
        for _ in range(200):
            n = int(rng.integers(1, 8))
            text = " ".join(words[int(rng.integers(0, len(words)))] for _ in range(n))
            assert vocab.decode(vocab.encode(text)) == text


class TestVocabFile:
    """The bpevocab v1 on-disk format."""

    @pytest.fixture
    def vocab(self):
        return train_bpe(["the cat sat on the mat", "bats eat gnats"], vocab_size=130)

    def test_save_load_round_trip(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert Vocab.load(path) == vocab

    def test_resave_is_bit_exact(self, vocab, tmp_path):
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        vocab.save(p1)
        Vocab.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_line(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "bpevocab v1"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wrongheader\n[PAD]\t0\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            Vocab.load(path)
        assert "line 1" in str(exc.value)

    def test_malformed_row_reported_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("bpevocab v1\n[PAD]\t0\nonly_one_field\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            Vocab.load(path)
        assert "line 3" in str(exc.value)

    @staticmethod
    def edited(vocab, tmp_path, edit):
        """Save ``vocab``, then rewrite its lines (header first) with ``edit``."""
        path = tmp_path / "edited.txt"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").split("\n")
        edit(lines)
        path.write_text("\n".join(lines), encoding="utf-8")
        return path

    def load_fails(self, vocab, tmp_path, edit, match):
        with pytest.raises(FormatError, match=match):
            Vocab.load(self.edited(vocab, tmp_path, edit))

    @staticmethod
    def set_line(index, text):
        def edit(lines):
            lines[index] = text
        return edit

    def test_duplicate_token_rejected(self, vocab, tmp_path):
        n = len(vocab)
        self.load_fails(vocab, tmp_path, lambda lines: lines.insert(n + 1, f"at\t{n}"),
                        rf"line {n + 2}: token 'at' is listed twice")

    def test_id_gap_rejected(self, vocab, tmp_path):
        n = len(vocab)  # the last token, on line n + 1, moves from id n - 1 to id n
        last = vocab.id_to_token[n - 1]
        self.load_fails(vocab, tmp_path, self.set_line(n, f"{last}\t{n}"), rf"line {n + 1}: id {n} is out of range")

    def test_negative_and_repeated_ids_rejected(self, vocab, tmp_path):
        self.load_fails(vocab, tmp_path, self.set_line(9, "[POS:DET]\t-1"), "line 10: id -1 is negative")
        self.load_fails(vocab, tmp_path, self.set_line(9, "[POS:DET]\t7"), "line 10: id 7 is already taken on line 9")

    def test_reserved_tokens_must_lead(self, vocab, tmp_path):
        def swap(lines):
            lines[2], lines[3] = "[CLS]\t1", "[UNK]\t2"

        self.load_fails(vocab, tmp_path, swap, r"line 3: id 1 must be the reserved token '\[UNK\]'")

    @pytest.mark.parametrize("merge,bad", [("zz\tat", "zz"), ("c\tqq", "qq"), ("t\tc", "tc")])
    def test_merge_of_unknown_tokens_rejected(self, vocab, tmp_path, merge, bad):
        self.load_fails(vocab, tmp_path, lambda lines: lines.insert(len(vocab) + 2, merge),
                        rf"line {len(vocab) + 3}: merge .* uses '{bad}', not a token")

    def test_loaded_vocab_encodes_identically(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        text = "the cat sat"
        assert loaded.encode(text) == vocab.encode(text)
        assert loaded.pos_tags == vocab.pos_tags
