"""Corpus loading, summaries, synthesis, and k-fold splitting."""

import hashlib

import numpy as np
import pytest

from melbert.data import (
    DEFAULT_FIELDS,
    HEADER,
    Instance,
    SyntheticSpec,
    kfold_split,
    load_corpus,
    make_synthetic_corpus,
    make_transfer_pair,
    summarize,
)
from melbert.errors import ConfigError, ContractError, FormatError


def write_tsv(path, rows):
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")


def save_corpus(instances, path) -> None:
    """Write ``instances`` in the interchange format that ``load_corpus``
    reads; a token holding a space, tab or newline is refused."""
    rows = []
    for inst in instances:
        for tok in inst.tokens:
            if any(c in tok for c in " \t\n"):
                raise FormatError(f"token {tok!r} cannot be written to the tokens field")
        rows.append("\t".join([inst.sentence_id, " ".join(inst.tokens), str(inst.target_index),
                               format(inst.label, "g"), inst.pos_tag, inst.genre or ""]))
    write_tsv(path, rows)


def word_field(word: str, spec: SyntheticSpec) -> str | None:
    """Which semantic field a word belongs to, if any."""
    for fname, pools in spec.fields.items():
        if word in pools["nouns"] or word in pools["verbs"]:
            return fname
    return None


def oracle_label(instance: Instance, spec: SyntheticSpec | None = None) -> int:
    """Rule-based reference: metaphorical iff any in-field context word
    comes from a different field than the target word."""
    spec = spec or SyntheticSpec()
    target_field = word_field(instance.target_word, spec)
    if target_field is None:
        raise ContractError(f"target {instance.target_word!r} belongs to no semantic field")
    for i, tok in enumerate(instance.tokens):
        if i == instance.target_index:
            continue
        f = word_field(tok, spec)
        if f is not None and f != target_field:
            return 1
    return 0


class TestInstance:
    """Field validation on construction."""

    def test_valid(self):
        inst = Instance("s1", ("the", "cat"), 1, 1.0, "NOUN", "news")
        assert inst.target_word == "cat"
        assert inst.gold == 1

    def test_target_index_out_of_range(self):
        with pytest.raises(ContractError):
            Instance("s1", ("a",), 1, 0.0, "NOUN")
        with pytest.raises(ContractError):
            Instance("s1", ("a",), -1, 0.0, "NOUN")

    def test_empty_tokens(self):
        with pytest.raises(ContractError):
            Instance("s1", (), 0, 0.0, "NOUN")


class TestLoadCorpus:
    """vua-tsv parsing and the row error report."""

    def test_round_trip(self, tmp_path):
        instances = [
            Instance("s1", ("the", "cat", "sat"), 1, 0.0, "NOUN", "news"),
            Instance("s1", ("the", "cat", "sat"), 2, 1.0, "VERB", "news"),
            Instance("s2", ("dogs", "bark"), 1, 0.0, "VERB", None),
        ]
        path = tmp_path / "corpus.tsv"
        save_corpus(instances, path)
        result = load_corpus(path)
        assert result.errors == []
        assert result.instances == instances

    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("wrong\theader\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_corpus(path)
        assert "line 1" in str(exc.value)

    def test_malformed_rows_reported_not_dropped_silently(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_tsv(
            path,
            [
                "s1\tthe cat\t1\t0\tNOUN\tnews",       # fine
                "s2\tthe dog\t1\t0\tNOUN",             # missing column
                "s3\tthe cow\tnotanint\t0\tNOUN\t",    # bad index
                "s4\tthe hen\t1\tnotanum\tNOUN\t",     # bad label
                "s5\tthe pig\t7\t0\tNOUN\t",           # index out of range
            ],
        )
        result = load_corpus(path)
        assert len(result.instances) == 1
        assert [e.line for e in result.errors] == [3, 4, 5, 6]
        assert "columns" in result.errors[0].message

    def test_empty_genre_becomes_none(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_tsv(path, ["s1\tthe cat\t1\t1\tNOUN\t"])
        result = load_corpus(path)
        assert result.instances[0].genre is None


class TestSummarize:
    """Row/sentence counting semantics."""

    def test_hand_example(self):
        # 8 rows over 2 sentences: 1 positive among 8 -> 12.5 %
        mk = lambda sid, toks, i, y: Instance(sid, toks, i, y, "NOUN")
        s1 = ("a", "b", "c", "d")
        s2 = ("e", "f", "g", "h")
        instances = [mk("s1", s1, i, 0.0) for i in range(4)]
        instances += [mk("s2", s2, i, 1.0 if i == 0 else 0.0) for i in range(4)]
        s = summarize(instances)
        assert s.token_count == 8
        assert s.metaphor_pct == pytest.approx(12.5, abs=1e-12)
        assert s.sentence_count == 2
        assert s.avg_sentence_len == pytest.approx(4.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            summarize([])


class TestSyntheticCorpus:
    """Determinism, balance, and the field-mismatch labeling rule."""

    def test_deterministic(self):
        a = make_synthetic_corpus(7, 100)
        b = make_synthetic_corpus(7, 100)
        assert a == b

    def test_seed_changes_corpus(self):
        assert make_synthetic_corpus(7, 100) != make_synthetic_corpus(8, 100)

    def test_exact_balance(self):
        corpus = make_synthetic_corpus(3, 101, SyntheticSpec(balance=0.5))
        assert sum(i.gold for i in corpus) == round(101 * 0.5)
        corpus = make_synthetic_corpus(3, 100, SyntheticSpec(balance=0.25))
        assert sum(i.gold for i in corpus) == 25

    def test_rule_oracle_is_perfect(self):
        spec = SyntheticSpec()
        corpus = make_synthetic_corpus(11, 400, spec)
        for inst in corpus:
            assert oracle_label(inst, spec) == inst.gold

    def test_target_field_membership(self):
        spec = SyntheticSpec()
        for inst in make_synthetic_corpus(5, 50, spec):
            assert word_field(inst.target_word, spec) is not None

    def test_pos_tags_and_genres_present(self):
        corpus = make_synthetic_corpus(5, 80)
        assert {i.pos_tag for i in corpus} == {"NOUN", "VERB"}
        assert {i.genre for i in corpus} == {"news", "fiction", "academic", "conversation"}

    def test_overlapping_field_pools_rejected(self):
        bad = {
            "a": {"nouns": ("x", "y"), "verbs": ("v",)},
            "b": {"nouns": ("x",), "verbs": ("w",)},
        }
        with pytest.raises(ConfigError):
            SyntheticSpec(fields=bad)

    def test_regression_labels_graded(self):
        corpus = make_synthetic_corpus(13, 200, regression=True)
        values = {i.label for i in corpus}
        assert values <= {0.0, 0.5, 1.0}
        assert len(values) == 3

    def test_regression_refuses_a_balance_it_would_ignore(self):
        with pytest.raises(ConfigError, match="balance is not used under regression"):
            make_synthetic_corpus(13, 200, SyntheticSpec(balance=0.0), regression=True)

    def test_transfer_pair_targets_disjoint(self):
        train, test = make_transfer_pair(21, 200, 80)
        train_targets = {i.target_word for i in train}
        test_targets = {i.target_word for i in test}
        assert train_targets.isdisjoint(test_targets)
        # held-out targets still occur inside training sentences as context
        train_words = {t for i in train for t in i.tokens}
        assert test_targets & train_words


class TestSpecRefusals:
    """A spec that generation could not finish is refused when it is made,
    with a ConfigError naming the field and the kind of pool."""

    FIELDS = {
        "a": {"nouns": ("x", "y"), "verbs": ("v", "u")},
        "b": {"nouns": ("z", "w"), "verbs": ("t", "s")},
    }

    def test_empty_noun_pool(self):
        with pytest.raises(ConfigError, match=r"fields\['b'\] has no nouns"):
            SyntheticSpec(fields={**self.FIELDS, "b": {"nouns": (), "verbs": ("t",)}})

    def test_field_without_verbs(self):
        with pytest.raises(ConfigError, match=r"fields\['a'\] has no verbs"):
            SyntheticSpec(fields={**self.FIELDS, "a": {"nouns": ("x", "y")}})

    def test_no_genres(self):
        with pytest.raises(ConfigError, match="genre"):
            SyntheticSpec(genres=())

    def test_empty_target_pool(self):
        targets = {"a": {"nouns": ("x",), "verbs": ()}, "b": {"nouns": ("z",), "verbs": ("t",)}}
        with pytest.raises(ConfigError, match=r"target_words\['a'\] has no verbs"):
            SyntheticSpec(fields=self.FIELDS, target_words=targets)

    def test_target_pools_missing_a_field(self):
        with pytest.raises(ConfigError, match=r"target_words\['b'\] has no nouns"):
            SyntheticSpec(fields=self.FIELDS, target_words={"a": self.FIELDS["a"]})

    @pytest.mark.parametrize("edit, expected", [
        ({"a": ("x", "v")}, r"fields\['a'\] must map nouns and verbs to words, got \('x', 'v'\)"),
        ({"a": {"nouns": "kit", "verbs": ("v",)}}, r"fields\['a'\] nouns must be a sequence of words, got 'kit'"),
        ({"b": {"nouns": ("z",), "verbs": ("t", 7)}}, r"fields\['b'\] verbs holds 7, which is not a word"),
        ({"b": {"nouns": ("z", ""), "verbs": ("t",)}}, r"fields\['b'\] nouns holds '', which is not a word"),
    ], ids=["tuple-field", "string-pool", "number-word", "empty-word"])
    def test_malformed_field(self, edit, expected):
        with pytest.raises(ConfigError, match=expected):
            SyntheticSpec(fields={**self.FIELDS, **edit})

    def test_transfer_pair_over_one_word_pool(self):
        spec = SyntheticSpec(fields={**self.FIELDS, "a": {"nouns": ("x",), "verbs": ("v", "u")}})
        with pytest.raises(ConfigError, match=r"target_words\['a'\] has no nouns"):
            make_transfer_pair(1, 20, 10, spec)


def corpus_sha256(instances) -> str:
    """SHA-256 over every row's fields, in row order."""
    h = hashlib.sha256()
    for i in instances:
        row = (i.sentence_id, i.tokens, i.target_index, i.label, i.pos_tag, i.genre)
        h.update(repr(row).encode("utf-8") + b"\n")
    return h.hexdigest()


def _words(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k}" for k in range(n))


# a draw among the one other field is a draw from a single choice
TWO_FIELDS = SyntheticSpec(fields={
    "land": {"nouns": ("hill", "road", "meadow"), "verbs": ("walk", "climb")},
    "sky": {"nouns": ("cloud", "star", "moon", "comet"), "verbs": ("fly", "soar", "glide")},
})
ONE_WORD_TARGETS = SyntheticSpec(target_words={
    fname: {"nouns": pools["nouns"][:1], "verbs": pools["verbs"][:1]} for fname, pools in DEFAULT_FIELDS.items()
})
WIDE_POOLS = SyntheticSpec(fields={
    fname: {"nouns": _words(f"{fname}n", 100), "verbs": _words(f"{fname}v", 50)}
    for fname in ("alpha", "beta", "gamma")
})


class TestPinnedCorpora:
    """Every generated corpus is pinned row for row: a change to how the
    generator draws must leave each one byte for byte as it was."""

    CASES = {
        "default": lambda: make_synthetic_corpus(1, 500),
        "regression": lambda: make_synthetic_corpus(2, 500, regression=True),
        "two-fields": lambda: make_synthetic_corpus(3, 300, TWO_FIELDS),
        "two-fields-regression": lambda: make_synthetic_corpus(3, 300, TWO_FIELDS, regression=True),
        "one-word-targets": lambda: make_synthetic_corpus(4, 300, ONE_WORD_TARGETS),
        "wide-pools": lambda: make_synthetic_corpus(5, 500, WIDE_POOLS),
        "transfer-pair-51": lambda: [i for half in make_transfer_pair(51, 600, 200) for i in half],
    }
    SHA256 = {
        "default": "19504d949fbe9b17d358f134ccce6e8f07c5f7fbfa7abc663dc2ed9da533bc38",
        "one-word-targets": "595617d0c98975e494c0415d4332332e1742da0df35ab222cf504260ba42218d",
        "regression": "450bb9193f2d356e3b509c6810d6400183763e6575711674343aeb7994076d93",
        "transfer-pair-51": "f551ee4f3421cb2d5d286fa805fd33c7bcf2c579317ae6b9cedec06fd08f01f1",
        "two-fields": "55114fb5a8c956bc5d91c78c2abccc414238b474caaaac2de39fff424c6d1e8e",
        "two-fields-regression": "78038f9e9a174540f853bc9f2e211924f957073fd11b1ab6692d9a12a18a0193",
        "wide-pools": "deed39ee4a940e61e539ded9297f6b6eebc7682a0005ac5212786c8af898ba2a",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_corpus_digest(self, case):
        assert corpus_sha256(self.CASES[case]()) == self.SHA256[case]


class TestKFold:
    """Sentence-grouped splitting."""

    def test_no_sentence_straddles(self):
        corpus = make_synthetic_corpus(1, 60)
        for train, held in kfold_split(corpus, 5, seed=0):
            train_ids = {i.sentence_id for i in train}
            held_ids = {i.sentence_id for i in held}
            assert train_ids.isdisjoint(held_ids)
            assert len(train) + len(held) == len(corpus)

    def test_fold_sizes_balanced(self):
        corpus = make_synthetic_corpus(2, 53)  # 53 unique sentences
        sizes = [len({i.sentence_id for i in held}) for _, held in kfold_split(corpus, 5, seed=1)]
        assert sum(sizes) == 53
        assert max(sizes) - min(sizes) <= 1

    def test_multi_target_sentences_stay_together(self):
        base = make_synthetic_corpus(3, 20)
        # duplicate each sentence with a second target index
        doubled = list(base)
        for inst in base:
            other = (inst.target_index + 1) % len(inst.tokens)
            doubled.append(
                Instance(inst.sentence_id, inst.tokens, other, 0.0, "X", inst.genre)
            )
        for train, held in kfold_split(doubled, 4, seed=2):
            held_ids = {i.sentence_id for i in held}
            for inst in doubled:
                where_held = inst.sentence_id in held_ids
                assert (inst in held) == where_held

    def test_k_bounds(self):
        corpus = make_synthetic_corpus(1, 10)
        with pytest.raises(ContractError):
            kfold_split(corpus, 1, seed=0)
        with pytest.raises(ContractError):
            kfold_split(corpus, 11, seed=0)

    def test_deterministic(self):
        corpus = make_synthetic_corpus(4, 40)
        a = kfold_split(corpus, 4, seed=9)
        b = kfold_split(corpus, 4, seed=9)
        assert a == b
