"""Seeded workload generators for the benchmark.

Each workload is a training corpus (tokenizer input and the source of the
training subset) plus a held-out set (evaluation and prediction input),
built only from ``melbert.data`` instances. The program under test never
sees the seed, only the generated ``Instance`` lists.

The three workloads stress different layers:

- ``synth-short``: the criterion-3 synthetic corpus. Short sentences and
  30 distinct targets, so per-op dispatch dominates and the target cache
  almost always hits.
- ``long-mixed``: several synthetic clauses joined with commas into one
  sentence, lengths mixed inside every batch, a few past ``max_len``.
  The numeric kernels dominate and truncation runs.
- ``open-vocab``: the same templates over hundreds of seed-generated
  pseudo-words per field. Most evaluation targets are distinct, so the
  cold cache mostly misses, and the tokenizer has real merging to do.

Sentence lengths in ``long-mixed`` follow a fixed per-block pattern, so
every whole block of instances has the same length histogram whatever the
seed; only content and order change. That keeps run-to-run differences in
cost down to the program, not the draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from melbert.data import TEMPLATES, Instance, SyntheticSpec, make_synthetic_corpus
from melbert.rng import Rng


@dataclass(frozen=True)
class Sizes:
    corpus: int      # training sentences (tokenizer corpus)
    fit: int         # instances per timed training run
    heldout: int     # evaluation / prediction instances
    vocab: int       # tokenizer vocabulary budget


@dataclass(frozen=True)
class Workload:
    corpus: list[Instance]
    heldout: list[Instance]
    sizes: Sizes

    @property
    def fit_set(self) -> list[Instance]:
        return self.corpus[: self.sizes.fit]


# clauses per long-mixed sentence; one block of this pattern is 16
# instances, so a 32-instance batch holds two copies of the histogram.
# Sizes keep each repetition short, so a run takes many samples.
CLAUSE_PATTERN = (2, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 17)

SIZES = {
    "synth-short": Sizes(corpus=2000, fit=64, heldout=500, vocab=400),
    "long-mixed": Sizes(corpus=1024, fit=32, heldout=80, vocab=400),
    "open-vocab": Sizes(corpus=1000, fit=64, heldout=250, vocab=800),
}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_TEMPLATE_WORDS = frozenset(tok for template, _ in TEMPLATES for tok in template)


def pseudo_words(rng: Rng, count: int, taken: set[str]) -> tuple[str, ...]:
    """``count`` distinct consonant-vowel words, alternately of two and three
    syllables, so every seed yields the same number of letters."""
    out: list[str] = []
    while len(out) < count:
        syllables = 2 + len(out) % 2
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return tuple(out)


def open_vocab_spec(seed: int, nouns: int = 100, verbs: int = 50) -> SyntheticSpec:
    """Three fields of pseudo-words; with 250 held-out draws ~78% of targets are distinct."""
    rng = Rng(seed, "bench/pseudo-words")
    taken = set(_TEMPLATE_WORDS)
    fields = {}
    for name in ("alpha", "beta", "gamma"):
        fields[name] = {
            "nouns": pseudo_words(rng, nouns, taken),
            "verbs": pseudo_words(rng, verbs, taken),
        }
    return SyntheticSpec(fields=fields)


def join_clauses(seed: int, n: int) -> list[Instance]:
    """Sentences of several synthetic clauses; the label is the target clause's."""
    clause_counts = [CLAUSE_PATTERN[i % len(CLAUSE_PATTERN)] for i in range(n)]
    pool = make_synthetic_corpus(seed, sum(clause_counts))
    rng = Rng(seed, "bench/long-mixed")
    out: list[Instance] = []
    block = len(CLAUSE_PATTERN)
    cursor = 0
    for start in range(0, n, block):
        order = rng.permutation(min(block, n - start))
        for j in order:
            k = clause_counts[start + int(j)]
            clauses = pool[cursor : cursor + k]
            cursor += k
            target_clause = clauses[0]
            slot = int(rng.integers(0, k))
            arranged = clauses[1 : slot + 1] + [target_clause] + clauses[slot + 1 :]
            tokens: list[str] = []
            target_index = -1
            for c in arranged:
                if tokens:
                    tokens.append(",")
                if c is target_clause:
                    target_index = len(tokens) + c.target_index
                tokens.extend(c.tokens)
            out.append(Instance(
                sentence_id=f"long{len(out):05d}",
                tokens=tuple(tokens),
                target_index=target_index,
                label=target_clause.label,
                pos_tag=target_clause.pos_tag,
                genre=target_clause.genre,
            ))
    return out


def generate(name: str, seed: int, sizes: Sizes | None = None) -> Workload:
    """Build one workload from its seed; ``sizes`` defaults to ``SIZES[name]``."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r} (choose from {sorted(SIZES)})")
    sizes = sizes or SIZES[name]
    train_seed, held_seed = 2 * seed, 2 * seed + 1
    if name == "synth-short":
        corpus = make_synthetic_corpus(train_seed, sizes.corpus)
        heldout = make_synthetic_corpus(held_seed, sizes.heldout)
    elif name == "long-mixed":
        corpus = join_clauses(train_seed, sizes.corpus)
        heldout = join_clauses(held_seed, sizes.heldout)
    else:
        spec = open_vocab_spec(seed)
        corpus = make_synthetic_corpus(train_seed, sizes.corpus, spec)
        heldout = make_synthetic_corpus(held_seed, sizes.heldout, spec)
    return Workload(corpus=corpus, heldout=heldout, sizes=sizes)
