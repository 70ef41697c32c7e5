"""Command-line workflow tests driven through main()."""

import dataclasses
import filecmp
import functools
import json
import os
import re

import pytest

from melbert import cli
from melbert.checkpoint import load_checkpoint, save_checkpoint
from melbert.cli import main, parse_config_file
from melbert.data import make_synthetic_corpus, save_corpus
from melbert.errors import ConfigError
from melbert.model import Variant
from melbert.settings import plain


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus files, a vocabulary, and a trained checkpoint shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    train = make_synthetic_corpus(21, 16)
    heldout = make_synthetic_corpus(22, 8)
    save_corpus(train, root / "train.tsv")
    save_corpus(heldout, root / "heldout.tsv")
    (root / "tiny.cfg").write_text(
        "# settings for fast test runs\n"
        "num_layers = 1\n"
        "hidden_dim = 16\n"
        "ffn_dim = 32   # narrow feed-forward\n"
        "epochs = 1\n"
        "batch_size = 8\n"
        "dropout = 0.0\n"
    )
    assert main(["tokenizer-train", "--corpus", str(root / "train.tsv"),
                 "--vocab-size", "240", "--out", str(root / "vocab.txt")]) == 0
    assert main(["train", "--corpus", str(root / "train.tsv"),
                 "--vocab", str(root / "vocab.txt"),
                 "--config", str(root / "tiny.cfg"),
                 "--out", str(root / "model.ckpt")]) == 0
    return root


def run(workdir, *argv):
    return main([str(a) for a in argv])


class TestConfigFile:
    """key = value parsing."""

    def test_values_comments_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("\n# full line comment\npeak_lr = 0.001\n"
                     "grad_clip = none\nvariant = no_mip  # trailing\n")
        s = parse_config_file(p, "train")
        assert s == {"peak_lr": 0.001, "grad_clip": None, "variant": Variant.NO_MIP}

    def test_unknown_key_cites_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 2\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}:2: .*'learning_rate'"):
            parse_config_file(p, "train")

    def test_bad_value_and_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = three\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(p, "train")
        p.write_text("epochs 3\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(p, "train")


class TestTokenizerTrain:
    """Vocabulary construction from a corpus file."""

    def test_output_loads(self, workdir):
        from melbert.bpe import Vocab
        vocab = Vocab.load(workdir / "vocab.txt")
        assert len(vocab) <= 240 and len(vocab) > 50

    def test_missing_corpus_is_usage_error(self, workdir, capsys):
        code = run(workdir, "tokenizer-train", "--corpus", workdir / "absent.tsv",
                   "--out", workdir / "x.txt")
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_one_line_per_sentence(self, tmp_path):
        # the same sentence annotated at three targets counts once
        rows = make_synthetic_corpus(23, 12)
        first = rows[0]
        others = [i for i in range(len(first.tokens)) if i != first.target_index][:2]
        extra = [dataclasses.replace(first, target_index=i) for i in others]
        save_corpus(rows, tmp_path / "once.tsv")
        save_corpus([first, *extra, *rows[1:]], tmp_path / "thrice.tsv")
        for name in ("once", "thrice"):
            assert main(["tokenizer-train", "--corpus", str(tmp_path / f"{name}.tsv"),
                         "--vocab-size", "240", "--out", str(tmp_path / f"{name}.txt")]) == 0
        assert (tmp_path / "once.txt").read_bytes() == (tmp_path / "thrice.txt").read_bytes()


class TestTrain:
    """Training command behavior."""

    def test_dry_run_echoes_without_artifacts(self, workdir, capsys):
        out = workdir / "never.ckpt"
        code = run(workdir, "train", "--corpus", workdir / "train.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg",
                   "--epochs", "7", "--out", out, "--dry-run")
        assert code == 0 and not out.exists()
        text = capsys.readouterr().out
        assert "epochs = 7" in text          # flag beats config file
        assert "hidden_dim = 16" in text     # config file beats default
        assert "dry run" in text

    def test_checkpoint_written(self, workdir):
        assert (workdir / "model.ckpt").exists()

    def test_two_runs_identical_bytes(self, workdir):
        for name in ("rep1.ckpt", "rep2.ckpt"):
            assert run(workdir, "train", "--corpus", workdir / "train.tsv",
                       "--vocab", workdir / "vocab.txt",
                       "--config", workdir / "tiny.cfg",
                       "--out", workdir / name) == 0
        assert filecmp.cmp(workdir / "rep1.ckpt", workdir / "rep2.ckpt", shallow=False)

    def test_bad_setting_is_usage_error(self, workdir, capsys):
        code = run(workdir, "train", "--corpus", workdir / "train.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg",
                   "--threshold", "1.5", "--out", workdir / "x.ckpt")
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    def test_step_log(self, workdir):
        log = workdir / "steps.jsonl"
        assert run(workdir, "train", "--corpus", workdir / "train.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg",
                   "--log", log, "--out", workdir / "logged.ckpt") == 0
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert lines and all("loss" in l for l in lines)

    def test_resumed_log_equals_uninterrupted_log(self, workdir, monkeypatch):
        args = ("train", "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                "--config", workdir / "tiny.cfg", "--epochs", "3")
        full = workdir / "uninterrupted.jsonl"
        assert run(workdir, *args, "--log", full, "--out", workdir / "whole.ckpt") == 0

        log, state = workdir / "resumed.jsonl", workdir / "state.ckpt"
        # the first run stops after its first epoch, as if it had been killed there
        monkeypatch.setattr(cli, "train_single", functools.partial(
            cli.train_single, after_epoch=lambda epoch, *_: epoch + 1 >= 1))
        assert run(workdir, *args, "--log", log, "--save-train-state", state,
                   "--out", workdir / "part.ckpt") == 0
        monkeypatch.undo()
        assert len(log.read_text().splitlines()) < len(full.read_text().splitlines())
        assert run(workdir, *args, "--log", log, "--resume", state,
                   "--out", workdir / "resumed.ckpt") == 0
        assert log.read_text().splitlines() == full.read_text().splitlines()

    def test_resume_with_bad_rng_state_is_one_error_line(self, workdir, tmp_path, capsys):
        args = ("train", "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                "--config", workdir / "tiny.cfg", "--out", tmp_path / "out.ckpt")
        assert run(workdir, *args, "--save-train-state", tmp_path / "state.ckpt") == 0
        meta, arrays = load_checkpoint(tmp_path / "state.ckpt")
        meta["rng_state"] = {}
        save_checkpoint(tmp_path / "bad.ckpt", meta, arrays)
        capsys.readouterr()
        assert run(workdir, *args, "--resume", tmp_path / "bad.ckpt") == 1
        assert capsys.readouterr().err == "error: checkpoint metadata: 'rng_state' has no key 'seed'\n"

    def test_resume_with_out_of_range_philox_state_is_one_error_line(self, workdir, tmp_path, capsys):
        args = ("train", "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                "--config", workdir / "tiny.cfg", "--out", tmp_path / "out.ckpt")
        assert run(workdir, *args, "--save-train-state", tmp_path / "state.ckpt") == 0
        meta, arrays = load_checkpoint(tmp_path / "state.ckpt")
        meta["rng_state"]["bitgen"]["buffer_pos"] = -3
        save_checkpoint(tmp_path / "bad.ckpt", meta, arrays)
        capsys.readouterr()
        assert run(workdir, *args, "--resume", tmp_path / "bad.ckpt") == 1
        assert capsys.readouterr().err == ("error: checkpoint metadata: 'rng_state.bitgen.buffer_pos' "
                                           "must be an int in 0-4, got -3\n")


class TestEval:
    """Evaluation command and its JSON report."""

    def test_tables_and_report(self, workdir, capsys):
        report = workdir / "report.json"
        code = run(workdir, "eval", "--corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--checkpoint", workdir / "model.ckpt",
                   "--report", report)
        assert code == 0
        out = capsys.readouterr().out
        assert "overall" in out and "by genre" in out and "by part of speech" in out
        doc = json.loads(report.read_text())
        assert set(doc) >= {"config", "dataset_sha256", "overall", "by_genre", "by_pos"}
        assert len(doc["dataset_sha256"]) == 64
        assert doc["config"]["variant"] == "melbert"

    def test_breakdown_selection(self, workdir, capsys):
        code = run(workdir, "eval", "--corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--checkpoint", workdir / "model.ckpt",
                   "--breakdown", "pos")
        assert code == 0
        out = capsys.readouterr().out
        assert "by part of speech" in out and "by genre" not in out

    def test_unknown_breakdown_group(self, workdir, capsys):
        code = run(workdir, "eval", "--corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--checkpoint", workdir / "model.ckpt",
                   "--breakdown", "genre,decade")
        assert code == 2
        assert "decade" in capsys.readouterr().err

    def test_zero_shot_flags(self, workdir, capsys):
        code = run(workdir, "eval", "--corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--checkpoint", workdir / "model.ckpt", "--zero-shot")
        assert code == 0
        assert "unk_target_rate" in capsys.readouterr().out


class TestPredict:
    """Single-sentence scoring."""

    def test_json_output(self, workdir, capsys):
        code = run(workdir, "predict", "--vocab", workdir / "vocab.txt",
                   "--checkpoint", workdir / "model.ckpt",
                   "--sentence", "the river devours the shore",
                   "--target-index", "2", "--pos-tag", "VERB")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == "devours" and doc["label"] in (0, 1)
        assert 0.0 < doc["score"] < 1.0

    def predict_with_meta(self, workdir, tmp_path, capsys, edit) -> tuple[int, str]:
        meta, arrays = load_checkpoint(workdir / "model.ckpt")
        edit(meta)
        save_checkpoint(tmp_path / "bad.ckpt", meta, arrays)
        code = run(workdir, "predict", "--vocab", workdir / "vocab.txt",
                   "--checkpoint", tmp_path / "bad.ckpt",
                   "--sentence", "the river devours the shore", "--target-index", "2")
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("model"),
        lambda meta: meta["model"]["encoder"].update(bogus=1),
    ], ids=["no-model", "unknown-encoder-key"])
    def test_bad_checkpoint_metadata_is_one_error_line(self, workdir, tmp_path, capsys, edit):
        code, err = self.predict_with_meta(workdir, tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: checkpoint metadata") and err.count("\n") == 1

    @pytest.mark.parametrize("where, key, value, expected", [
        ("encoder", "hidden_dim", "16", "int"),
        ("model", "threshold", "0.5", "float"),
        ("model", "max_len", 150.5, "int"),
        ("model", "max_len", True, "int"),
    ], ids=["string-hidden-dim", "string-threshold", "float-max-len", "bool-max-len"])
    def test_wrongly_typed_metadata_is_one_error_line(self, workdir, tmp_path, capsys,
                                                      where, key, value, expected):
        def edit(meta):
            (meta["model"]["encoder"] if where == "encoder" else meta["model"])[key] = value

        code, err = self.predict_with_meta(workdir, tmp_path, capsys, edit)
        dotted = f"model.encoder.{key}" if where == "encoder" else f"model.{key}"
        assert code == 1
        assert err == f"error: checkpoint metadata: {dotted!r} must be {expected}, got {value!r}\n"

    def test_checkpoint_kind_of_wrong_type_is_one_error_line(self, workdir, tmp_path, capsys):
        code, err = self.predict_with_meta(workdir, tmp_path, capsys, lambda meta: meta.update(kind=[]))
        assert code == 1
        assert err == "error: checkpoint metadata: 'kind' must be str, got []\n"

    def test_empty_checkpoint_is_one_error_line(self, workdir, tmp_path, capsys):
        (tmp_path / "empty.ckpt").write_bytes(b"")
        code = run(workdir, "predict", "--vocab", workdir / "vocab.txt",
                   "--checkpoint", tmp_path / "empty.ckpt",
                   "--sentence", "the river devours the shore", "--target-index", "2")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad checkpoint header") and err.count("\n") == 1

    def test_index_out_of_range(self, workdir, capsys):
        code = run(workdir, "predict", "--vocab", workdir / "vocab.txt",
                   "--checkpoint", workdir / "model.ckpt",
                   "--sentence", "two words", "--target-index", "5")
        assert code == 2
        assert "target-index" in capsys.readouterr().err


class TestAblate:
    """Five-variant comparison under one protocol."""

    def test_five_reports_same_dataset(self, workdir, capsys):
        out_dir = workdir / "ablation"
        code = run(workdir, "ablate", "--corpus", workdir / "train.tsv",
                   "--eval-corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg", "--out-dir", out_dir)
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["base_all2all.json", "melbert.json", "no_mip.json",
                         "no_spv.json", "seq.json"]
        shas = set()
        for name in files:
            doc = json.loads((out_dir / name).read_text())
            shas.add(doc["dataset_sha256"])
            assert doc["config"]["variant"] == name[:-len(".json")]
        assert len(shas) == 1
        assert "variant comparison" in capsys.readouterr().out


class TestCv:
    """Bagged cross-validation command."""

    def test_ensemble_report(self, workdir, capsys):
        report = workdir / "cv.json"
        code = run(workdir, "cv", "--corpus", workdir / "train.tsv",
                   "--eval-corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg",
                   "--k", "2", "--report", report)
        assert code == 0
        assert "2-fold bagging" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["config"]["k"] == 2


class TestUsage:
    """argparse-level failures."""

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", "x", "--vocab", "y", "--out", "z",
                  "--optimizer", "sgd"])
        assert exc.value.code == 2


# Every setting each command takes, with a non-default value as text and as
# read. Written out by hand, not derived from the config classes, so a key
# the derivation drops or adds fails these tests.
TRAIN_SETTINGS = {
    "num_layers": ("3", 3),
    "num_heads": ("4", 4),
    "hidden_dim": ("32", 32),
    "ffn_dim": ("48", 48),
    "dropout": ("0.1", 0.1),
    "init_std": ("0.05", 0.05),
    "variant": ("no_spv", Variant.NO_SPV),
    "head_dim": ("8", 8),
    "threshold": ("0.4", 0.4),
    "target_pooling": ("cls", "cls"),
    "max_len": ("64", 64),
    "epochs": ("2", 2),
    "batch_size": ("4", 4),
    "peak_lr": ("0.001", 0.001),
    "warmup_fraction": ("0.5", 0.5),
    "pos_weight": ("2.5", 2.5),
    "grad_clip": ("1.0", 1.0),
    "objective": ("mse", "mse"),
    "seed": ("7", 7),
}
COMMAND_SETTINGS = {
    "train": TRAIN_SETTINGS,
    "ablate": {k: v for k, v in TRAIN_SETTINGS.items() if k != "variant"},
    "cv": {**TRAIN_SETTINGS, "k": ("3", 3)},
}
REQUIRED_ARGS = {
    "train": ["--corpus", "c.tsv", "--vocab", "v.txt", "--out", "m.ckpt"],
    "ablate": ["--corpus", "c.tsv", "--eval-corpus", "e.tsv", "--vocab", "v.txt", "--out-dir", "runs"],
    "cv": ["--corpus", "c.tsv", "--eval-corpus", "e.tsv", "--vocab", "v.txt"],
}
SETTING_CASES = [(command, key) for command, keys in COMMAND_SETTINGS.items() for key in keys]


def built(command, *argv) -> dict:
    """The (ModelConfig, TrainConfig, seed, k) a command line builds, flattened by key."""
    args = cli.build_parser().parse_args([command, *REQUIRED_ARGS[command], *map(str, argv)])
    model_cfg, train_cfg, run = cli.build_configs(cli.resolve_settings(args), vocab_size=100)
    model = {k: v for k, v in dataclasses.asdict(model_cfg).items() if k != "encoder"}
    return {**dataclasses.asdict(model_cfg.encoder), **model, **dataclasses.asdict(train_cfg),
            "seed": run.seed, "k": run.k}


class TestSettingsSchema:
    """Each command takes exactly its keys, each by flag or config file, each with an effect."""

    @pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
    def test_command_keys(self, command):
        assert set(cli.command_settings(command)) == set(COMMAND_SETTINGS[command])

    def test_dry_run_echoes_every_train_key(self, workdir, capsys):
        assert run(workdir, "train", "--corpus", workdir / "train.tsv",
                   "--vocab", workdir / "vocab.txt", "--out", workdir / "never.ckpt", "--dry-run") == 0
        echoed = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines() if " = " in line]
        assert echoed == sorted(TRAIN_SETTINGS)

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command, key", SETTING_CASES)
    def test_each_setting_changes_its_field_only(self, command, key, source, tmp_path):
        text, value = COMMAND_SETTINGS[command][key]
        if source == "flag":
            argv = ["--" + key.replace("_", "-"), text]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {text}\n")
            argv = ["--config", tmp_path / "run.cfg"]
        defaults, changed = built(command), built(command, *argv)
        assert changed[key] == value and defaults[key] != value
        assert {k for k in defaults if defaults[k] != changed[k]} == {key}

    @pytest.mark.parametrize("command, key", SETTING_CASES)
    def test_flag_beats_config_file(self, command, key, tmp_path):
        text, _ = COMMAND_SETTINGS[command][key]
        (tmp_path / "run.cfg").write_text(f"{key} = {text}\n")
        default = built(command)[key]
        default_text = "none" if default is None else str(plain(default))
        assert built(command, "--config", tmp_path / "run.cfg",
                     "--" + key.replace("_", "-"), default_text) == built(command)


class TestRefusedSettings:
    """A setting a command would ignore is refused, from a file or a flag, with exit 2."""

    CASES = [
        ("train", "seeds", "0,1"), ("train", "k", "3"), ("train", "vocab_size", "10"),
        ("ablate", "seeds", "0,1"), ("ablate", "k", "3"), ("ablate", "vocab_size", "10"),
        ("ablate", "variant", "seq"), ("cv", "seeds", "0,1"), ("cv", "vocab_size", "10"),
    ]

    @pytest.mark.parametrize("command, key, value", CASES)
    def test_config_file_key(self, command, key, value, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text(f"epochs = 1\n{key} = {value}\n")
        code = main([command, *REQUIRED_ARGS[command], "--config", str(tmp_path / "run.cfg")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"usage error: {tmp_path / 'run.cfg'}:2: melbert {command} takes no setting {key!r}\n"

    @pytest.mark.parametrize("command, key, value", CASES)
    def test_flag(self, command, key, value, capsys):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED_ARGS[command], flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err == f"usage error: melbert: unrecognized arguments for {command}: {flag} {value}\n"

    def test_bad_flag_value_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", *REQUIRED_ARGS["train"], "--head-dim", "1.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage error: melbert train: argument --head-dim: must be int or none, got '1.5'\n")
