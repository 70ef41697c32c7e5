"""Word-level byte-pair-encoding tokenizer.

Training walks a word-frequency table, repeatedly merging the most
frequent adjacent symbol pair until the vocabulary budget is spent or no
pair occurs at least twice. Words keep their boundaries: a sentence is
whitespace-split first and every non-initial word gets the word-start
sentinel "▁" prepended as its own symbol, so merges can absorb the
sentinel but never jump across words. Encoding gives what replaying the
learned merge list in order would (greedy, left to right inside each
word), which makes encoding a pure function of the saved vocabulary
file. A merge that matches no adjacent pair of the word changes nothing,
so the encoder skips to the next one that does: each step applies the
lowest-ranked merge after the last one applied among the word's pairs.

As in the reference learner of Sennrich, Haddow and Birch (2016), pair
counts are kept across merges together with an index from each pair to
the distinct words holding it, so a merge costs work in proportion to
the words that hold its pair rather than to the corpus. The merges are
exactly those a full recount before every merge would choose.

Ties between equally frequent pairs break lexicographically on the
(left, right) strings so training is deterministic.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError, ContractError, FormatError, VocabError, read_text

MARKER = "▁"  # word-start sentinel, rendered as a low line

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = (PAD, UNK, CLS, SEP)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3

# universal POS tag set; each tag becomes one reserved vocabulary token
DEFAULT_POS_TAGS = (
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
)

_FILE_HEADER = "bpevocab v1"


def pos_token(tag: str) -> str:
    return f"[POS:{tag}]"


def _word_symbols(word: str, initial: bool) -> tuple[str, ...]:
    symbols = tuple(word)
    return symbols if initial else (MARKER,) + symbols


def _apply_merge(seq: tuple[str, ...], left: str, right: str, joined: str) -> tuple[str, ...]:
    out: list[str] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
            out.append(joined)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


@dataclass
class Vocab:
    """Token table plus the ordered merge list that reproduces it."""

    token_to_id: dict[str, int]
    merges: list[tuple[str, str]]
    pos_tags: tuple[str, ...]
    id_to_token: dict[int, str] = field(init=False, repr=False)
    _word_cache: dict[tuple[str, bool], list[int]] = field(init=False, repr=False)
    _ranks: dict[tuple[str, str], list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}
        if len(self.id_to_token) != len(self.token_to_id):
            raise FormatError("vocabulary ids are not a bijection")
        self._word_cache = {}
        self._ranks = {}  # each merge pair's positions in the merge list; a pair may recur
        for rank, pair in enumerate(self.merges):
            self._ranks.setdefault(pair, []).append(rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocab):
            return NotImplemented
        return (
            self.token_to_id == other.token_to_id
            and self.merges == other.merges
            and self.pos_tags == other.pos_tags
        )

    def __len__(self) -> int:
        return len(self.token_to_id)

    def pos_token_id(self, tag: str) -> int:
        """Id of the POS marker token; unsupported tags map to [UNK]."""
        return self.token_to_id.get(pos_token(tag), UNK_ID)

    def encode_word(self, word: str, initial: bool) -> list[int]:
        key = (word, initial)
        hit = self._word_cache.get(key)
        if hit is not None:
            return hit
        seq = _word_symbols(word, initial)
        last = -1
        while len(seq) > 1:
            # the merge the ordered replay would apply next: the lowest rank
            # after the last one applied among the word's adjacent pairs
            best = min((r for pair in zip(seq, seq[1:]) for r in self._ranks.get(pair, ()) if r > last),
                       default=None)
            if best is None:
                break
            left, right = self.merges[best]
            seq = _apply_merge(seq, left, right, left + right)
            last = best
        ids = [self.token_to_id.get(sym, UNK_ID) for sym in seq]
        self._word_cache[key] = ids
        return ids

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for i, word in enumerate(text.split()):
            ids.extend(self.encode_word(word, initial=i == 0))
        return ids

    def decode(self, ids) -> str:
        pieces = []
        for i in ids:
            token = self.id_to_token.get(int(i))
            if token is None:
                raise VocabError(f"unknown token id {int(i)} (vocabulary has {len(self)} entries)")
            pieces.append(token)
        text = "".join(pieces).replace(MARKER, " ")
        return text[1:] if text.startswith(" ") else text

    # -- persistence ---------------------------------------------------

    def save(self, path) -> None:
        lines = [_FILE_HEADER]
        for i in range(len(self.token_to_id)):
            token = self.id_to_token[i]
            if "\t" in token or "\n" in token:
                raise FormatError(f"token {token!r} cannot be written to the vocab file")
            lines.append(f"{token}\t{i}")
        lines.append("#merges")
        for left, right in self.merges:
            lines.append(f"{left}\t{right}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """Read a vocab file, rejecting any that ``train_bpe`` could not
        have written: each token listed once, ids exactly 0..n-1, the
        reserved tokens at ids 0-3, and each merge's left part, right part
        and joined string all tokens. Errors name the offending line."""
        lines = read_text(path).split("\n")
        if not lines or lines[0] != _FILE_HEADER:
            raise FormatError(f"line 1: expected header {_FILE_HEADER!r}")
        token_to_id: dict[str, int] = {}
        id_line: dict[int, int] = {}
        merges: list[tuple[str, str]] = []
        table_end = len(lines)  # the line after the last token
        for lineno, line in enumerate(lines[1:], start=2):
            if line == "":
                continue
            if line == "#merges":
                table_end = lineno
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected two tab-separated fields")
            if table_end < lineno:
                for sym in (parts[0], parts[1], parts[0] + parts[1]):
                    if sym not in token_to_id:
                        raise FormatError(f"line {lineno}: merge {parts[0]!r} + {parts[1]!r} uses {sym!r}, not a token")
                merges.append((parts[0], parts[1]))
                continue
            token = parts[0]
            try:
                i = int(parts[1])
            except ValueError as e:
                raise FormatError(f"line {lineno}: id {parts[1]!r} is not an integer") from e
            if token in token_to_id:
                raise FormatError(f"line {lineno}: token {token!r} is listed twice")
            if i < 0:
                raise FormatError(f"line {lineno}: id {i} is negative")
            if i in id_line:
                raise FormatError(f"line {lineno}: id {i} is already taken on line {id_line[i]}")
            token_to_id[token] = i
            id_line[i] = lineno
        for i, lineno in id_line.items():
            if i >= len(token_to_id):
                raise FormatError(f"line {lineno}: id {i} is out of range for {len(token_to_id)} tokens")
        for i, token in enumerate(RESERVED):
            if token_to_id.get(token) != i:
                raise FormatError(f"line {id_line.get(i, table_end)}: id {i} must be the reserved token {token!r}")
        pos_tags = tuple(
            t[len("[POS:"):-1]
            for t, _ in sorted(token_to_id.items(), key=lambda kv: kv[1])
            if t.startswith("[POS:") and t.endswith("]")
        )
        return cls(token_to_id=token_to_id, merges=merges, pos_tags=pos_tags)


def train_bpe(corpus, vocab_size: int, pos_tags=DEFAULT_POS_TAGS) -> Vocab:
    """Learn a vocabulary of at most vocab_size tokens from raw sentences.

    The budget covers the reserved specials, one marker token per POS
    tag, the full character alphabet of the corpus, and then as many
    merged tokens as fit. Merging stops early once no adjacent pair
    occurs at least twice.

    Pair counts are built once, with an index from each pair to the
    distinct words that hold it, and kept current across merges: a merge
    rewrites only the words in its pair's index, taking back their old
    pairs and adding their new ones. A merge therefore costs work in
    proportion to the words that hold the pair, not to the corpus, and
    the result is the one a full recount before every merge would give.
    ``corpus`` is read once, so it may be a generator.
    """
    first: Counter[str] = Counter()
    later: Counter[str] = Counter()
    for sentence in corpus:
        words = sentence.split()
        if words:
            first[words[0]] += 1
            later.update(words[1:])
    # a first word that starts with the marker spells the marked form of a
    # later word, so both share one entry and their counts add up
    word_freq: Counter[tuple[str, ...]] = Counter()
    for words, initial in ((first, True), (later, False)):
        for word, freq in words.items():
            word_freq[_word_symbols(word, initial)] += freq
    if not word_freq:
        raise ContractError("cannot train a tokenizer on an empty corpus")

    alphabet = sorted({sym for seq in word_freq for sym in seq})
    base_tokens = list(RESERVED) + [pos_token(t) for t in pos_tags] + alphabet
    if vocab_size < len(base_tokens):
        raise ConfigError(
            f"vocab_size {vocab_size} is below the floor of {len(base_tokens)} "
            f"(reserved + POS tags + alphabet of {len(alphabet)})"
        )

    seqs = list(word_freq)
    freqs = list(word_freq.values())
    counts: Counter[tuple[str, str]] = Counter()
    holders: dict[tuple[str, str], set[int]] = {}
    for w, seq in enumerate(seqs):
        for pair in zip(seq, seq[1:]):
            counts[pair] += freqs[w]
            holders.setdefault(pair, set()).add(w)
    # the best pair is the least (-count, left, right); an entry whose count
    # is no longer the pair's own is stale and skipped when it surfaces
    heap = [(-c, left, right) for (left, right), c in counts.items()]
    heapq.heapify(heap)

    tokens = list(base_tokens)
    known = set(tokens)
    merges: list[tuple[str, str]] = []
    while len(tokens) < vocab_size:
        while heap and counts.get(heap[0][1:]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        _, left, right = heapq.heappop(heap)
        joined = left + right
        merges.append((left, right))
        changed: set[tuple[str, str]] = set()
        for w in list(holders[left, right]):
            seq, freq = seqs[w], freqs[w]
            for pair in zip(seq, seq[1:]):
                counts[pair] -= freq
                holders[pair].discard(w)
                changed.add(pair)
            seq = seqs[w] = _apply_merge(seq, left, right, joined)
            for pair in zip(seq, seq[1:]):
                counts[pair] += freq
                holders.setdefault(pair, set()).add(w)
                changed.add(pair)
        for pair in changed:
            c = counts[pair]
            if c:
                heapq.heappush(heap, (-c, *pair))
            else:
                del counts[pair], holders[pair]
        if joined not in known:
            tokens.append(joined)
            known.add(joined)

    return Vocab(
        token_to_id={t: i for i, t in enumerate(tokens)},
        merges=merges,
        pos_tags=tuple(pos_tags),
    )
