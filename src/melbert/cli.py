"""Command-line front end.

Subcommands cover the full workflow: tokenizer-train builds a
vocabulary from a corpus, train fits one model, eval scores a checkpoint
with per-group breakdowns and unknown-token rates, predict scores a
single sentence, ablate runs all five variants under one protocol, and
cv trains a bagged k-fold ensemble. Settings come from an optional
config file of ``key = value`` lines, overridden by command-line flags;
both take the fields of the config classes, and a command refuses a
setting it would not use. Each command's files are declared once, in
``_PATHS``, and checked before it reads anything. Exit codes: 0 success,
1 runtime failure, 2 usage problems (bad flags, missing files or output
directories, malformed settings).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
from typing import Annotated

from .bpe import Vocab, train_bpe
from .data import Instance, first_rows, load_corpus, summarize
from .encoder import EncoderConfig
from .errors import ConfigError, MelbertError, read_text
from .evaluation import evaluate_model, render_table, report_to_json, unknown_rates
from .model import ModelConfig, Variant
from .settings import Field, Range, Settings, Spec, check, parse_text, plain, schema
from .training import (
    TrainConfig,
    bagging_cv_train,
    load_model,
    open_log,
    save_model_checkpoint,
    train_single,
)


class UsageError(Exception):
    """Operator mistake: wrong path, malformed setting, bad combination."""


@dataclasses.dataclass(frozen=True)
class RunSettings(Settings):
    """The settings of a run that no model or training config holds."""
    seed: Annotated[int, Range()] = 0  # any int seeds its own streams
    k: Annotated[int, Range(ge=2)] = 5  # folds of a cv run


# every field of these classes is a setting, except those in _NOT_SETTINGS:
# vocab_size comes from the vocabulary, max_positions from max_len, and
# encoder is the nesting itself
_SETTINGS_CLASSES = (EncoderConfig, ModelConfig, TrainConfig, RunSettings)
_NOT_SETTINGS = {"vocab_size", "max_positions", "encoder"}
# the settings a command would ignore, which it refuses instead
_UNUSED = {"train": {"k"}, "ablate": {"k", "variant"}, "cv": set()}

# An input must be a file. An output must not be a directory, and its
# directory must exist. An output directory must not be a file; it is made
# if missing.
_IN, _OUT, _OUT_DIR = "input", "output", "output directory"
# each command's path flags in check order, inputs first: (dest, what, role, required)
_PATHS = {
    "tokenizer-train": [("corpus", "corpus", _IN, True), ("out", "vocabulary", _OUT, True)],
    "train": [("corpus", "corpus", _IN, True), ("vocab", "vocabulary", _IN, True),
              ("resume", "resume checkpoint", _IN, False), ("out", "model checkpoint", _OUT, True),
              ("log", "step log", _OUT, False), ("save_train_state", "training checkpoint", _OUT, False)],
    "eval": [("checkpoint", "checkpoint", _IN, True), ("vocab", "vocabulary", _IN, True),
             ("corpus", "corpus", _IN, True), ("report", "report", _OUT, False)],
    "predict": [("checkpoint", "checkpoint", _IN, True), ("vocab", "vocabulary", _IN, True)],
    "ablate": [("corpus", "corpus", _IN, True), ("eval_corpus", "evaluation corpus", _IN, True),
               ("vocab", "vocabulary", _IN, True), ("out_dir", "report directory", _OUT_DIR, True)],
    "cv": [("corpus", "corpus", _IN, True), ("eval_corpus", "evaluation corpus", _IN, True),
           ("vocab", "vocabulary", _IN, True), ("report", "report", _OUT, False)],
}


def command_settings(command: str) -> dict[str, Field]:
    """The settings ``command`` takes, by key."""
    skip = _NOT_SETTINGS | _UNUSED[command]
    return {f.name: f for cls in _SETTINGS_CLASSES for f in schema(cls) if f.name not in skip}


def parse_config_file(path, command: str) -> dict:
    """Read ``key = value`` lines; # starts a comment anywhere."""
    keys = command_settings(command)
    settings = {}
    with io.StringIO(read_text(path, ConfigError), newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: melbert {command} takes no setting {key!r}")
            try:
                settings[key] = parse_text(keys[key].hint, value)
            except ConfigError as e:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from None
    return settings


def resolve_settings(args) -> dict:
    """defaults < config file < explicit flags, over the keys the command takes."""
    keys = command_settings(args.command)
    settings = {key: f.default for key, f in keys.items()}
    if args.config:
        if not os.path.isfile(args.config):
            raise UsageError(f"config file not found: {args.config}")
        settings.update(parse_config_file(args.config, args.command))
    # a settings flag that was not given leaves no attribute; one that was
    # has its declared type, and its domain is checked here
    for key, f in keys.items():
        if hasattr(args, key):
            settings[key] = check(f.spec, getattr(args, key), "--" + key.replace("_", "-"))
    return settings


def build_configs(settings: dict, vocab_size: int) -> tuple[ModelConfig, TrainConfig, RunSettings]:
    """The configs of one run: resolved settings split by field name."""
    def pick(cls) -> dict:
        return {f.name: settings[f.name] for f in schema(cls) if f.name in settings}

    encoder = EncoderConfig(vocab_size=vocab_size, max_positions=max(192, settings["max_len"] + 8),
                            **pick(EncoderConfig))
    model_cfg = ModelConfig(encoder=encoder, **pick(ModelConfig))
    return model_cfg, TrainConfig(**pick(TrainConfig)), RunSettings(**pick(RunSettings))


def refuse_inert(settings: dict) -> None:
    """Refuse a model setting the variant ignores (``ablate`` trains every variant, so takes them)."""
    variant = settings["variant"]
    if settings["head_dim"] is not None and not variant.heads:
        raise UsageError(f"variant {variant.value} has no MIP or SPV head, so head_dim does not apply")
    if settings["target_pooling"] != "mean" and not variant.encodes_target:
        raise UsageError(f"variant {variant.value} encodes no bare target, so target_pooling does not apply")


def echo_settings(settings: dict) -> str:
    return "\n".join(f"{k} = {plain(settings[k])}" for k in sorted(settings))


def check_paths(args) -> None:
    """Refuse the command's paths by their roles in ``_PATHS``, and an output
    naming a path the command reads or writes (the config file included).
    The one allowed repeat is a run saving its state into the file it
    resumes from."""
    named = {os.path.realpath(args.config): ("config", "config file")} if getattr(args, "config", None) else {}
    for dest, what, role, _ in _PATHS[args.command]:
        path = getattr(args, dest)
        if path is None:
            continue
        if role == _IN and not os.path.isfile(path):
            raise UsageError(f"{what} not found: {path}")
        if role == _OUT and os.path.isdir(path):
            raise UsageError(f"{what} is a directory: {path}")
        if role == _OUT and not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"directory of {what} not found: {path}")
        if role == _OUT_DIR and os.path.exists(path) and not os.path.isdir(path):
            raise UsageError(f"{what} is a file: {path}")
        real = os.path.realpath(path)
        # inputs come first, so an output meets every path named before it
        if role != _IN and real in named and (named[real][0], dest) != ("resume", "save_train_state"):
            raise UsageError(f"{what} would replace the {named[real][1]}: {path}")
        named.setdefault(real, (dest, what))


def dataset_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_instances(path) -> list[Instance]:
    result = load_corpus(path)
    for err in result.errors[:5]:
        print(f"warning: {path}:{err.line}: {err.message}", file=sys.stderr)
    if len(result.errors) > 5:
        print(f"warning: {len(result.errors) - 5} further malformed rows", file=sys.stderr)
    if not result.instances:
        raise UsageError(f"{path} contains no usable rows")
    return result.instances


# -- subcommands -----------------------------------------------------------


def cmd_tokenizer_train(args, settings) -> int:
    instances = _load_instances(args.corpus)
    # one line per sentence, not per annotated target
    corpus_lines = (" ".join(inst.tokens) for inst in first_rows(instances).values())
    vocab = train_bpe(corpus_lines, args.vocab_size)
    vocab.save(args.out)
    print(f"wrote {len(vocab)} tokens ({len(vocab.merges)} merges) to {args.out}")
    return 0


def cmd_train(args, settings) -> int:
    vocab = Vocab.load(args.vocab)
    model_cfg, train_cfg, run = build_configs(settings, len(vocab))
    instances = _load_instances(args.corpus)

    print(echo_settings(settings))
    summary = summarize(instances)
    print(f"corpus: {summary.token_count} target tokens, {summary.metaphor_pct:.1f}% "
          f"positive, {summary.sentence_count} sentences")
    if args.dry_run:
        print("dry run: settings and corpus look usable, stopping before training")
        return 0

    log = open_log(args.log, model_cfg, train_cfg, run.seed, args.resume) if args.log else contextlib.nullcontext()
    with log as log_fh:
        result = train_single(
            model_cfg, vocab, instances, train_cfg, seed=run.seed,
            log_fh=log_fh,
            checkpoint_path=args.save_train_state,
            resume_from=args.resume,
        )
    save_model_checkpoint(args.out, result.model)
    curve = ", ".join(f"{v:.4f}" for v in result.loss_curve)
    print(f"trained {model_cfg.variant.value} for {result.global_step} steps; "
          f"epoch losses: {curve}")
    print(f"model written to {args.out}")
    return 0


# eval's --threshold replaces the checkpoint's, so it has the checkpoint setting's domain
_THRESHOLD = next(f.spec for f in schema(ModelConfig) if f.name == "threshold")


def _parse_breakdown(spec: str) -> list[str]:
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    bad = [p for p in parts if p not in ("genre", "pos")]
    if bad:
        raise UsageError(f"unknown breakdown group(s) {bad}; choose from genre, pos")
    return parts


def cmd_eval(args, settings) -> int:
    groups = _parse_breakdown(args.breakdown)
    if args.threshold is not None:
        check(_THRESHOLD, args.threshold, "threshold")
    vocab = Vocab.load(args.vocab)
    model = load_model(args.checkpoint, vocab)
    if args.threshold is not None:
        model.cfg = dataclasses.replace(model.cfg, threshold=args.threshold)
    instances = _load_instances(args.corpus)
    report = evaluate_model(model, instances)
    report.flags.update(unknown_rates(vocab, instances))

    print(render_table({"overall": report.overall}))
    if "genre" in groups and report.by_genre:
        print()
        print(render_table(report.by_genre, title="by genre"))
    if "pos" in groups and report.by_pos:
        print()
        print(render_table(report.by_pos, title="by part of speech"))
    if report.skipped_genre:
        print(f"\nnote: {report.skipped_genre} instances without genre were "
              f"excluded from the genre table")
    for key, value in sorted(report.flags.items()):
        print(f"{key}: {value:.4f}")

    if args.report:
        config = {
            "checkpoint": str(args.checkpoint),
            "corpus": str(args.corpus),
            "threshold": model.cfg.threshold,
            "variant": model.cfg.variant.value,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report, config, dataset_sha256(args.corpus)))
        print(f"report written to {args.report}")
    return 0


def cmd_predict(args, settings) -> int:
    vocab = Vocab.load(args.vocab)
    if args.pos_tag not in vocab.pos_tags:
        raise UsageError(f"--pos-tag {args.pos_tag!r} has no marker in the vocabulary; "
                         f"its tags are {', '.join(vocab.pos_tags)}")
    tokens = tuple(args.sentence.split())
    if not 0 <= args.target_index < len(tokens):
        raise UsageError(
            f"--target-index {args.target_index} outside the sentence "
            f"({len(tokens)} tokens)"
        )
    model = load_model(args.checkpoint, vocab)
    inst = Instance(
        sentence_id="cli", tokens=tokens, target_index=args.target_index,
        label=0.0, pos_tag=args.pos_tag,
    )
    pred = model.predict(inst)
    print(json.dumps({
        "target": inst.target_word,
        "score": round(pred.score, 6),
        "label": pred.label,
        "reading": "metaphoric" if pred.label else "literal",
    }, sort_keys=True))
    return 0


def cmd_ablate(args, settings) -> int:
    vocab = Vocab.load(args.vocab)
    model_cfg, train_cfg, run = build_configs(settings, len(vocab))
    train_set = _load_instances(args.corpus)
    eval_set = _load_instances(args.eval_corpus)
    sha = dataset_sha256(args.eval_corpus)
    os.makedirs(args.out_dir, exist_ok=True)

    rows = {}
    for variant in Variant:
        result = train_single(dataclasses.replace(model_cfg, variant=variant), vocab, train_set,
                              train_cfg, seed=run.seed)
        report = evaluate_model(result.model, eval_set)
        rows[variant.value] = report.overall
        out_path = os.path.join(args.out_dir, f"{variant.value}.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report, dict(settings, variant=variant.value), sha))
    print(render_table(rows, title="variant comparison"))
    print(f"\nfive reports written to {args.out_dir}")
    return 0


def cmd_cv(args, settings) -> int:
    vocab = Vocab.load(args.vocab)
    model_cfg, train_cfg, run = build_configs(settings, len(vocab))
    train_set = _load_instances(args.corpus)
    sentences = len(first_rows(train_set))
    if settings["k"] > sentences:
        raise UsageError(f"k {settings['k']} exceeds the {sentences} distinct sentences of {args.corpus}")
    eval_set = _load_instances(args.eval_corpus)
    ensemble, results = bagging_cv_train(model_cfg, vocab, train_set, k=run.k, cfg=train_cfg, seed=run.seed)
    report = evaluate_model(ensemble, eval_set)
    print(render_table({"ensemble": report.overall}, title=f"{run.k}-fold bagging"))
    if args.report:
        config = {k: plain(v) for k, v in settings.items()}
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report, config, dataset_sha256(args.eval_corpus)))
        print(f"report written to {args.report}")
    return 0


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line with exit 2, as every usage error."""

    def error(self, message):
        self.exit(2, f"usage error: {self.prog}: {message}\n")


def _flag_type(s: Spec):
    """A flag's value of its declared type; a value of the wrong type is
    argparse's usage error, one outside the domain is reported by its user."""
    def parse(text: str):
        try:
            return s.parse(text)
        except ConfigError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


def _add_command(sub, command: str, func, help: str) -> argparse.ArgumentParser:
    """``command``'s parser, with its path flags from ``_PATHS`` and, if it
    takes settings, ``--config`` and one ``--key-name`` flag per setting."""
    p = sub.add_parser(command, help=help)
    for dest, what, _, required in _PATHS[command]:
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, required=required, help=what)
    if command in _UNUSED:
        p.add_argument("--config", help="file of key = value lines")
        for key, f in command_settings(command).items():
            # an absent flag sets nothing, so a config file value stands
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_flag_type(f.spec),
                           default=argparse.SUPPRESS, help=f"{f.spec.label}; default {plain(f.default)}")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="melbert",
        description="metaphor detection with late-interaction encoders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "tokenizer-train", cmd_tokenizer_train, "learn a subword vocabulary from a corpus")
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=4000)

    p = _add_command(sub, "train", cmd_train, "train one model")
    p.add_argument("--dry-run", dest="dry_run", action="store_true",
                   help="validate settings and corpus, then stop")

    p = _add_command(sub, "eval", cmd_eval, "score a checkpoint against a corpus")
    p.add_argument("--breakdown", default="genre,pos")
    p.add_argument("--threshold", type=_flag_type(_THRESHOLD), help=f"{_THRESHOLD.label}; default: the checkpoint's")

    p = _add_command(sub, "predict", cmd_predict, "score one sentence")
    p.add_argument("--sentence", required=True, help="space-separated tokens")
    p.add_argument("--target-index", dest="target_index", type=int, required=True)
    p.add_argument("--pos-tag", dest="pos_tag", default="VERB")

    _add_command(sub, "ablate", cmd_ablate, "train and evaluate all five variants")
    _add_command(sub, "cv", cmd_cv, "bagged k-fold cross-validation ensemble")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # argparse's own message would not name the subcommand
        parser.error(f"unrecognized arguments for {args.command}: {' '.join(extra)}")
    try:
        # settings before paths, and both before any command reads a file
        settings = resolve_settings(args) if args.command in _UNUSED else {}
        if "variant" in settings:
            refuse_inert(settings)
        check_paths(args)
        return args.func(args, settings)
    except (UsageError, ConfigError) as e:
        # bad settings are operator mistakes, same class as bad flags
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except MelbertError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
