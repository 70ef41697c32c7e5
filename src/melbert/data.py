"""Corpus handling: the TSV interchange format, dataset summaries,
synthetic corpus generation, and k-fold splitting by sentence.

One row of the interchange format is one classification target inside a
sentence, so several rows may share a sentence_id. Summaries therefore
count rows as "tokens" (annotation targets) and unique sentence_ids as
sentences, which is how the standard corpus statistics tables count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError, FormatError, read_text
from .rng import Rng

HEADER = "sentence_id\ttokens\ttarget_index\tlabel\tpos\tgenre"
COLUMNS = tuple(HEADER.split("\t"))


@dataclass(frozen=True)
class Instance:
    """One labeled target word inside a tokenized sentence."""

    sentence_id: str
    tokens: tuple[str, ...]
    target_index: int
    label: float
    pos_tag: str
    genre: str | None = None

    def __post_init__(self):
        if not self.tokens:
            raise ContractError(f"{self.sentence_id}: sentence has no tokens")
        if not 0 <= self.target_index < len(self.tokens):
            raise ContractError(
                f"{self.sentence_id}: target_index {self.target_index} outside "
                f"[0, {len(self.tokens)})"
            )
        if not math.isfinite(self.label):
            raise ContractError(f"{self.sentence_id}: label {self.label} is not finite")

    @property
    def target_word(self) -> str:
        return self.tokens[self.target_index]

    @property
    def gold(self) -> int:
        """Binary gold label (regression labels threshold at 0.5)."""
        return int(self.label >= 0.5)


@dataclass(frozen=True)
class RowError:
    line: int
    message: str
    raw: str


@dataclass
class LoadResult:
    instances: list[Instance]
    errors: list[RowError]


def load_corpus(path) -> LoadResult:
    """Read the tab-separated interchange format.

    Malformed rows are collected into the error report with their line
    numbers rather than silently dropped; a wrong header fails outright.
    """
    lines = read_text(path).split("\n")
    if not lines or lines[0] != HEADER:
        raise FormatError(f"line 1: expected header {HEADER!r}")
    instances: list[Instance] = []
    errors: list[RowError] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        try:
            instances.append(_parse_row(line))
        except ContractError as e:
            errors.append(RowError(lineno, str(e), line))
    return LoadResult(instances=instances, errors=errors)


def _parse_row(line: str) -> Instance:
    """One row of the interchange format; ContractError says what is wrong with it."""
    parts = line.split("\t")
    if len(parts) != len(COLUMNS):
        raise ContractError(f"expected {len(COLUMNS)} columns, got {len(parts)}")
    sid, tokens_field, idx_field, label_field, pos_field, genre_field = parts
    tokens = tuple(tokens_field.split(" "))
    if any(t == "" for t in tokens):
        raise ContractError("empty token (stray space in tokens field)")
    try:
        target_index = int(idx_field)
    except ValueError:
        raise ContractError(f"target_index {idx_field!r} is not an integer") from None
    try:
        label = float(label_field)
    except ValueError:
        raise ContractError(f"label {label_field!r} is not a number") from None
    return Instance(sentence_id=sid, tokens=tokens, target_index=target_index, label=label,
                    pos_tag=pos_field, genre=genre_field or None)


@dataclass(frozen=True)
class DatasetSummary:
    token_count: int
    metaphor_pct: float
    sentence_count: int
    avg_sentence_len: float


def first_rows(instances) -> dict[str, Instance]:
    """Each distinct sentence_id's first row, in first-seen order: one
    entry per sentence, however many of its targets are annotated."""
    out: dict[str, Instance] = {}
    for inst in instances:
        out.setdefault(inst.sentence_id, inst)
    return out


def summarize(instances) -> DatasetSummary:
    """Corpus statistics: rows, positive rate, unique sentences, mean length."""
    if not instances:
        raise ContractError("cannot summarize an empty dataset")
    sentences = first_rows(instances).values()
    return DatasetSummary(
        token_count=len(instances),
        metaphor_pct=100.0 * sum(inst.gold for inst in instances) / len(instances),
        sentence_count=len(sentences),
        avg_sentence_len=float(np.mean([len(inst.tokens) for inst in sentences])),
    )


def kfold_split(instances, k: int, seed: int) -> list[tuple[list[Instance], list[Instance]]]:
    """Split by sentence_id so no sentence straddles train and heldout.

    Fold sentence-counts differ by at most one.
    """
    ids = list(first_rows(instances))
    if k < 2 or k > len(ids):
        raise ContractError(f"k must lie in [2, {len(ids)}] (unique sentences), got {k}")
    perm = Rng(seed, "kfold").permutation(len(ids))
    folds = np.array_split(perm, k)
    out = []
    for fold in folds:
        held_ids = {ids[i] for i in fold}
        train = [inst for inst in instances if inst.sentence_id not in held_ids]
        held = [inst for inst in instances if inst.sentence_id in held_ids]
        out.append((train, held))
    return out


# ---------------------------------------------------------------------------
# synthetic corpus
#
# Sentences are built from templates whose content slots draw from small
# disjoint semantic fields. The target word always comes from its own
# field; context slots draw from the same field (literal, label 0) or
# from a different field (metaphorical, label 1). A rule that compares
# the target's field against the context words' field therefore
# classifies the corpus perfectly, which pins down the ceiling for any
# learned model.
#
# After the label shuffle, every choice comes from one ``Rng.index_stream``
# in a fixed order per sentence: template, target field, the mismatch count
# (regression only), mismatch field, target word, then each context slot in
# template order. The stream returns what scalar ``integers(0, n)`` draws
# would, so each corpus is the one those draws made; adding or moving a draw
# changes every corpus after it, and tests/test_data.py pins them.

GENRES = ("news", "fiction", "academic", "conversation")

DEFAULT_FIELDS: Mapping[str, Mapping[str, tuple[str, ...]]] = {
    "water": {
        "nouns": ("river", "lake", "boat", "wave", "shore", "tide"),
        "verbs": ("sail", "paddle", "drift", "splash"),
    },
    "music": {
        "nouns": ("violin", "melody", "drum", "chord", "singer", "flute"),
        "verbs": ("strum", "hum", "chant", "serenade"),
    },
    "farm": {
        "nouns": ("tractor", "barn", "wheat", "cattle", "plough", "pasture"),
        "verbs": ("graze", "herd", "sow", "reap"),
    },
}

# content slots: C0/C1 take context nouns, T takes the target word
TEMPLATES: tuple[tuple[tuple[str, ...], str], ...] = (
    (("the", "C0", "saw", "the", "T", "by", "the", "C1"), "NOUN"),
    (("every", "C0", "kept", "a", "T", "near", "the", "C1"), "NOUN"),
    (("last", "week", ",", "the", "C0", "found", "a", "T", "under", "the", "C1"), "NOUN"),
    (("the", "C0", "held", "the", "T", ",", "then", "rested"), "NOUN"),
    (("the", "C0", "will", "T", "the", "C1", "today"), "VERB"),
    (("soon", ",", "the", "C0", "must", "T", "near", "the", "C1"), "VERB"),
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for corpus synthesis; target_words restricts which field
    words may appear in the target slot (used for transfer splits)."""

    fields: Mapping[str, Mapping[str, tuple[str, ...]]] = field(default_factory=lambda: DEFAULT_FIELDS)
    balance: float = 0.5
    genres: tuple[str, ...] = GENRES
    target_words: Mapping[str, Mapping[str, tuple[str, ...]]] | None = None

    def __post_init__(self):
        if not 0.0 <= self.balance <= 1.0:
            raise ConfigError(f"balance must lie in [0, 1], got {self.balance}")
        if len(self.fields) < 2:
            raise ConfigError("need at least two semantic fields")
        if not self.genres:
            raise ConfigError("genres must name at least one genre")
        # the target slot takes nouns or verbs, the context slots take nouns
        checked = [("fields", self.fields)]
        if self.target_words is not None:
            checked.append(("target_words", self.target_words))
        for what, pools_by_field in checked:
            for fname in self.fields:
                pools = pools_by_field.get(fname, {})
                if not isinstance(pools, Mapping):
                    raise ConfigError(f"{what}[{fname!r}] must map nouns and verbs to words, got {pools!r}")
                for kind in ("nouns", "verbs"):
                    if not pools.get(kind):
                        raise ConfigError(f"{what}[{fname!r}] has no {kind}")
                for kind, pool in pools.items():
                    if isinstance(pool, str) or not isinstance(pool, Sequence):
                        raise ConfigError(f"{what}[{fname!r}] {kind} must be a sequence of words, got {pool!r}")
                    for w in pool:
                        if not isinstance(w, str) or not w:
                            raise ConfigError(f"{what}[{fname!r}] {kind} holds {w!r}, which is not a word")
        all_words: set[str] = set()
        for spec in self.fields.values():
            for pool in spec.values():
                for w in pool:
                    if w in all_words:
                        raise ConfigError(f"word {w!r} appears in more than one field pool")
                    all_words.add(w)

    def targets_for(self, fname: str, kind: str) -> tuple[str, ...]:
        if self.target_words is not None:
            return self.target_words[fname][kind]
        return self.fields[fname][kind]


def make_synthetic_corpus(
    seed: int,
    n_sentences: int,
    spec: SyntheticSpec | None = None,
    regression: bool = False,
) -> list[Instance]:
    """Deterministic labeled corpus with an exact class balance.

    In regression mode the label is the fraction of context slots drawn
    from a mismatched field, giving graded values instead of {0, 1}.
    """
    if n_sentences < 1:
        raise ContractError("n_sentences must be positive")
    spec = spec or SyntheticSpec()
    if regression and spec.balance != SyntheticSpec.balance:
        raise ConfigError(f"balance is not used under regression, which draws each label, got {spec.balance}")
    rng = Rng(seed, "synth")
    field_names = sorted(spec.fields)
    if regression:
        labels = None
    else:
        n_pos = round(n_sentences * spec.balance)
        flat = np.array([1] * n_pos + [0] * (n_sentences - n_pos))
        labels = flat[rng.permutation(n_sentences)].tolist()
    draw = rng.index_stream()  # every later choice goes through it

    # template -> (tokens, pos tag, target-word kind, target index, context slot indices)
    shapes = [
        (template, pos_tag, "nouns" if pos_tag == "NOUN" else "verbs", template.index("T"),
         [k for k, t in enumerate(template) if t in ("C0", "C1")])
        for template, pos_tag in TEMPLATES
    ]
    others = {f: [g for g in field_names if g != f] for f in field_names}
    nouns = {f: spec.fields[f]["nouns"] for f in field_names}
    targets = {(f, kind): spec.targets_for(f, kind) for f in field_names for kind in ("nouns", "verbs")}

    out: list[Instance] = []
    for i in range(n_sentences):
        template, pos_tag, kind, target_index, slots = shapes[draw(len(shapes))]
        target_field = field_names[draw(len(field_names))]
        if regression:
            n_mismatch = draw(len(slots) + 1)
            label = n_mismatch / len(slots)
        else:
            label = float(labels[i])
            n_mismatch = len(slots) if label == 1.0 else 0
        foreign = others[target_field]
        mismatch_field = foreign[draw(len(foreign))]
        pool = targets[target_field, kind]
        tokens = list(template)
        tokens[target_index] = pool[draw(len(pool))]
        # first n_mismatch context slots use the foreign field
        for j, k in enumerate(slots):
            pool = nouns[mismatch_field if j < n_mismatch else target_field]
            tokens[k] = pool[draw(len(pool))]
        out.append(
            Instance(
                sentence_id=f"syn{i:05d}",
                tokens=tuple(tokens),
                target_index=target_index,
                label=label,
                pos_tag=pos_tag,
                genre=spec.genres[i % len(spec.genres)],
            )
        )
    return out


def _split_pools(fields, take_first: bool):
    out = {}
    for fname, pools in fields.items():
        out[fname] = {}
        for kind, words in pools.items():
            half = max(1, len(words) // 2)
            out[fname][kind] = words[:half] if take_first else words[half:]
    return out


def make_transfer_pair(
    seed: int,
    n_train: int,
    n_test: int,
    spec: SyntheticSpec | None = None,
) -> tuple[list[Instance], list[Instance]]:
    """Train/test corpora whose target-word pools are disjoint.

    Context slots draw from the full field pools in both halves, so the
    held-out target words are seen in training sentences, just never in
    the target slot. That keeps transfer possible while making every
    test target unseen as a target.
    """
    spec = spec or SyntheticSpec()
    train_spec = replace(spec, target_words=_split_pools(spec.fields, take_first=True))
    test_spec = replace(spec, target_words=_split_pools(spec.fields, take_first=False))
    return make_synthetic_corpus(seed, n_train, train_spec), make_synthetic_corpus(seed + 1, n_test, test_spec)
