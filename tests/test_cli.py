"""Command-line workflow tests driven through main()."""

import dataclasses
import filecmp
import functools
import json
import os
import re

import pytest

from melbert import cli, training
from melbert.bpe import DEFAULT_POS_TAGS
from melbert.checkpoint import open_checkpoint, save_checkpoint
from melbert.cli import main, parse_config_file
from melbert.data import make_synthetic_corpus, save_corpus
from melbert.errors import ConfigError
from melbert.model import Variant
from melbert.settings import plain

from test_training import rewrite


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

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_missing_resume_file_is_usage_error(self, workdir, capsys, dry_run):
        code = run(workdir, "train", "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg", "--out", workdir / "never.ckpt",
                   "--resume", workdir / "nope.ckpt", *dry_run)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""  # refused before the settings echo and the corpus summary
        assert err == f"usage error: resume checkpoint not found: {workdir / 'nope.ckpt'}\n"

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

    def test_log_resumed_after_a_mid_epoch_crash_equals_uninterrupted_log(self, workdir, monkeypatch):
        args = ("train", "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                "--config", workdir / "tiny.cfg", "--epochs", "3")
        full = workdir / "uninterrupted.jsonl"
        assert run(workdir, *args, "--log", full, "--out", workdir / "whole.ckpt") == 0
        assert [json.loads(l)["step"] for l in full.read_text().splitlines()] == [1, 2, 3, 4, 5, 6]

        log, state = workdir / "crashed.jsonl", workdir / "crashed-state.ckpt"
        calls = []

        def adam_step_that_crashes(*a):
            calls.append(1)
            if len(calls) == 4:  # step 3 is logged, step 4 never is
                raise RuntimeError("killed")
            return real_adam_step(*a)

        real_adam_step = training.adam_step
        monkeypatch.setattr(training, "adam_step", adam_step_that_crashes)
        with pytest.raises(RuntimeError, match="killed"):
            run(workdir, *args, "--log", log, "--save-train-state", state, "--out", workdir / "part.ckpt")
        monkeypatch.undo()
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('{"epoch": 1, "loss": 0.6')  # a record the crash cut short
        assert [json.loads(l)["step"] for l in log.read_text().splitlines()[:-1]] == [1, 2, 3]
        assert run(workdir, *args, "--log", log, "--resume", state,
                   "--out", workdir / "resumed.ckpt") == 0
        assert log.read_text() == full.read_text()

    def test_refused_resume_leaves_the_log_alone(self, workdir, tmp_path, capsys):
        args = ("train", "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                "--config", workdir / "tiny.cfg", "--out", tmp_path / "out.ckpt")
        assert run(workdir, *args, "--save-train-state", tmp_path / "state.ckpt") == 0
        log = tmp_path / "other-run.jsonl"
        assert run(workdir, *args, "--epochs", "3", "--log", log) == 0
        before = log.read_text()
        capsys.readouterr()
        assert run(workdir, *args, "--epochs", "3", "--log", log, "--resume", tmp_path / "state.ckpt") == 1
        assert capsys.readouterr().err == "error: resume checkpoint was written under a different configuration\n"
        assert log.read_text() == before

    def test_resume_onto_a_log_with_a_foreign_line_is_one_error_line(self, workdir, tmp_path, capsys):
        args = ("train", "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                "--config", workdir / "tiny.cfg", "--out", tmp_path / "out.ckpt")
        log = tmp_path / "steps.jsonl"
        assert run(workdir, *args, "--log", log, "--save-train-state", tmp_path / "state.ckpt") == 0
        log.write_text(log.read_text() + "not json\n")
        capsys.readouterr()
        assert run(workdir, *args, "--log", log, "--resume", tmp_path / "state.ckpt") == 1
        assert capsys.readouterr().err == f"error: {log}: line 3 is not a step record\n"

    def test_checkpoint_with_a_stream_position_predicts_but_does_not_resume(self, workdir, tmp_path, capsys):
        # a training checkpoint written when every draw came from one sequential stream
        args = ("train", "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                "--config", workdir / "tiny.cfg", "--out", tmp_path / "out.ckpt")
        assert run(workdir, *args, "--save-train-state", tmp_path / "state.ckpt") == 0
        old = rewrite(tmp_path / "state.ckpt", tmp_path / "old.ckpt",
                      edit_meta=lambda m: m.update(rng_state={"seed": 0, "stream": "train", "bitgen": {}}))
        scores = []
        for path in (tmp_path / "state.ckpt", old):
            capsys.readouterr()
            assert run(workdir, "predict", "--vocab", workdir / "vocab.txt", "--checkpoint", path,
                       "--sentence", "the river devours the shore", "--target-index", "2") == 0
            scores.append(json.loads(capsys.readouterr().out)["score"])
        assert scores[0] == scores[1]
        assert run(workdir, *args, "--resume", old) == 1
        assert capsys.readouterr().err == ("error: checkpoint metadata: 'rng_state' is the stream position of a "
                                           "run from before keyed draws: its model can be evaluated, but the run "
                                           "cannot resume\n")


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

    @pytest.mark.parametrize("value", ["1.5", "nan"])
    def test_threshold_outside_its_domain(self, workdir, capsys, value):
        code = run(workdir, "eval", "--corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--checkpoint", workdir / "model.ckpt", "--threshold", value)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"usage error: 'threshold' must be float > 0 and < 1, got {float(value)!r}\n"

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
        with open_checkpoint(workdir / "model.ckpt") as (meta, blocks):
            edit(meta)
            save_checkpoint(tmp_path / "bad.ckpt", meta, blocks)
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

    @pytest.mark.parametrize("tag", ["FOO", "verb"])
    def test_pos_tag_without_a_marker_is_usage_error(self, workdir, capsys, tag):
        code = run(workdir, "predict", "--vocab", workdir / "vocab.txt",
                   "--checkpoint", workdir / "model.ckpt",
                   "--sentence", "the river devours the shore", "--target-index", "2", "--pos-tag", tag)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: --pos-tag {tag!r} ") and err.count("\n") == 1
        assert err.endswith(f"{', '.join(DEFAULT_POS_TAGS)}\n")

    def test_index_out_of_range(self, workdir, capsys):
        code = run(workdir, "predict", "--vocab", workdir / "vocab.txt",
                   "--checkpoint", workdir / "model.ckpt",
                   "--sentence", "two words", "--target-index", "5")
        assert code == 2
        assert "target-index" in capsys.readouterr().err

    def test_index_out_of_range_is_reported_before_a_bad_checkpoint(self, workdir, tmp_path, capsys):
        (tmp_path / "empty.ckpt").write_bytes(b"")
        code = run(workdir, "predict", "--vocab", workdir / "vocab.txt",
                   "--checkpoint", tmp_path / "empty.ckpt",
                   "--sentence", "two words", "--target-index", "5")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: --target-index 5 outside the sentence") and err.count("\n") == 1


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

    def test_settings_error_leaves_no_out_dir(self, workdir, capsys):
        out_dir = workdir / "never-made"
        code = run(workdir, "ablate", "--corpus", workdir / "train.tsv",
                   "--eval-corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg", "--out-dir", out_dir,
                   "--pos-weight", "5", "--objective", "mse")
        assert code == 2 and not out_dir.exists()
        assert capsys.readouterr().err.startswith("usage error: ")


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

    def test_k_over_the_sentence_count_is_usage_error(self, workdir, capsys):
        report = workdir / "never-cv.json"
        code = run(workdir, "cv", "--corpus", workdir / "train.tsv",
                   "--eval-corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg",
                   "--k", "17", "--report", report)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and not report.exists()
        assert err == f"usage error: k 17 exceeds the 16 distinct sentences of {workdir / 'train.tsv'}\n"


# every output a command writes into a directory it is given, with train's also under --dry-run,
# each given in a missing directory and then as an existing directory
OUTPUT_PATHS = [("tokenizer-train", "--out"), ("train", "--out"), ("train", "--log"),
                ("train", "--save-train-state"), ("eval", "--report"), ("cv", "--report")]
OUTPUT_CASES = [(*case, dry_run, existing) for existing in (False, True) for dry_run in (False, True)
                for case in OUTPUT_PATHS if case[0] == "train" or not dry_run]


class TestOutputPaths:
    """An output path in a missing directory, or one that is a directory, is a
    usage error, found before any corpus is read."""

    @pytest.mark.parametrize("command, flag, dry_run, existing_directory", OUTPUT_CASES,
                             ids=[f"{c} {f}" + " --dry-run" * d + " existing directory" * e
                                  for c, f, d, e in OUTPUT_CASES])
    def test_missing_directory(self, workdir, tmp_path, monkeypatch, capsys, command, flag, dry_run,
                               existing_directory):
        argv = {
            "tokenizer-train": ["--corpus", workdir / "train.tsv", "--out", tmp_path / "vocab.txt"],
            "train": ["--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                      "--config", workdir / "tiny.cfg", "--out", tmp_path / "model.ckpt"],
            "eval": ["--corpus", workdir / "heldout.tsv", "--vocab", workdir / "vocab.txt",
                     "--checkpoint", workdir / "model.ckpt"],
            "cv": ["--corpus", workdir / "train.tsv", "--eval-corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt", "--config", workdir / "tiny.cfg", "--k", "2"],
        }[command]
        monkeypatch.setattr(cli, "_load_instances", lambda path: pytest.fail(f"read {path}"))
        target = tmp_path if existing_directory else tmp_path / "nodir" / "out"
        code = run(workdir, command, *argv, flag, target, *["--dry-run"] * dry_run)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.endswith(f": {target}\n") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_naming_a_file(self, workdir, tmp_path, monkeypatch, capsys):
        target = tmp_path / "afile"
        target.write_text("kept\n")
        monkeypatch.setattr(cli, "_load_instances", lambda path: pytest.fail(f"read {path}"))
        code = run(workdir, "ablate", "--corpus", workdir / "train.tsv", "--eval-corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt", "--config", workdir / "tiny.cfg", "--out-dir", target)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.endswith(f": {target}\n") and err.count("\n") == 1
        assert target.read_text() == "kept\n"


# (command, output flag, the flag of the path it repeats, the refusal or None where the repeat is allowed)
REPEATED_PATHS = {
    "eval --report the corpus": ("eval", "--report", "--corpus", "report would replace the corpus"),
    "train --log the checkpoint": ("train", "--log", "--out", "step log would replace the model checkpoint"),
    "train --out the corpus": ("train", "--out", "--corpus", "model checkpoint would replace the corpus"),
    "train --log the config file": ("train", "--log", "--config", "step log would replace the config file"),
    "train --save-train-state the resumed state": ("train", "--save-train-state", "--resume", None),
}


class TestRepeatedPaths:
    """An output naming another path of its own command is a usage error, found
    before anything is read; a run may save its state into the file it resumes from."""

    @pytest.mark.parametrize("case", REPEATED_PATHS)
    def test_output_repeating_a_path(self, workdir, tmp_path, monkeypatch, capsys, case):
        command, flag, other, refusal = REPEATED_PATHS[case]
        paths = {"--corpus": tmp_path / "corpus.tsv", "--vocab": workdir / "vocab.txt"}
        paths["--corpus"].write_bytes((workdir / ("train.tsv" if command == "train" else "heldout.tsv")).read_bytes())
        if command == "train":
            paths.update({"--config": tmp_path / "tiny.cfg", "--out": tmp_path / "model.ckpt"})
            paths["--config"].write_bytes((workdir / "tiny.cfg").read_bytes())
        else:
            paths["--checkpoint"] = workdir / "model.ckpt"
        if other == "--resume":
            # a two-epoch run stopped after its first epoch, as if it had been killed there
            paths["--epochs"] = "2"
            monkeypatch.setattr(cli, "train_single", functools.partial(
                cli.train_single, after_epoch=lambda epoch, *_: epoch + 1 >= 1))
            assert run(workdir, command, *flat(paths), "--save-train-state", tmp_path / "state.ckpt") == 0
            monkeypatch.undo()
            paths["--resume"] = tmp_path / "state.ckpt"
        paths[flag] = paths[other]
        before = paths[other].read_bytes() if paths[other].exists() else None
        if refusal is not None:
            monkeypatch.setattr(cli, "_load_instances", lambda path: pytest.fail(f"read {path}"))
        capsys.readouterr()
        code = run(workdir, command, *flat(paths))
        out, err = capsys.readouterr()
        if refusal is None:
            assert code == 0 and err == "" and paths[other].read_bytes() != before
            return
        assert code == 2 and out == "" and err == f"usage error: {refusal}: {paths[flag]}\n"
        assert (paths[other].read_bytes() if paths[other].exists() else None) == before


# every file each command reads, by flag, with the name its message gives it: written out by
# hand, not taken from the table in cli.py, so a flag that the table drops or misnames fails
INPUT_FLAGS = [
    ("tokenizer-train", "--corpus", "corpus"),
    ("train", "--corpus", "corpus"), ("train", "--vocab", "vocabulary"),
    ("train", "--resume", "resume checkpoint"), ("train", "--config", "config file"),
    ("eval", "--corpus", "corpus"), ("eval", "--vocab", "vocabulary"), ("eval", "--checkpoint", "checkpoint"),
    ("predict", "--vocab", "vocabulary"), ("predict", "--checkpoint", "checkpoint"),
    ("ablate", "--corpus", "corpus"), ("ablate", "--eval-corpus", "evaluation corpus"),
    ("ablate", "--vocab", "vocabulary"), ("ablate", "--config", "config file"),
    ("cv", "--corpus", "corpus"), ("cv", "--eval-corpus", "evaluation corpus"),
    ("cv", "--vocab", "vocabulary"), ("cv", "--config", "config file"),
]


class TestMissingInputs:
    """Each file a command reads, when missing, is one usage error naming it, before anything is read."""

    @pytest.mark.parametrize("command, flag, what", INPUT_FLAGS, ids=[f"{c} {f}" for c, f, _ in INPUT_FLAGS])
    def test_missing_input(self, workdir, tmp_path, monkeypatch, capsys, command, flag, what):
        inputs = {"--corpus": workdir / "train.tsv", "--vocab": workdir / "vocab.txt", "--config": workdir / "tiny.cfg"}
        heldout = workdir / "heldout.tsv"
        argv = {
            "tokenizer-train": {"--corpus": workdir / "train.tsv", "--out": tmp_path / "vocab.txt"},
            "train": {**inputs, "--out": tmp_path / "model.ckpt"},
            "eval": {"--corpus": heldout, "--vocab": workdir / "vocab.txt", "--checkpoint": workdir / "model.ckpt"},
            "predict": {"--vocab": workdir / "vocab.txt", "--checkpoint": workdir / "model.ckpt",
                        "--sentence": "the river devours the shore", "--target-index": "2"},
            "ablate": {**inputs, "--eval-corpus": heldout, "--out-dir": tmp_path / "runs"},
            "cv": {**inputs, "--eval-corpus": heldout, "--k": "2"},
        }[command]
        argv[flag] = tmp_path / "absent"
        for name in ("_load_instances", "load_model"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name}{a}"))
        monkeypatch.setattr(cli.Vocab, "load", lambda path: pytest.fail(f"Vocab.load({path})"))
        code = run(workdir, command, *flat(argv))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"usage error: {what} not found: {tmp_path / 'absent'}\n"
        assert list(tmp_path.iterdir()) == []


# each text file a command reads, with a byte that is not valid UTF-8:
# (command, flag, the file it spoils, exit code)
UNDECODABLE = {
    "train --vocab": ("train", "--vocab", "vocab.txt", 1),
    "train --corpus": ("train", "--corpus", "train.tsv", 1),
    "train --config": ("train", "--config", "tiny.cfg", 2),
    "eval --corpus": ("eval", "--corpus", "heldout.tsv", 1),
    "eval --vocab": ("eval", "--vocab", "model.ckpt", 1),  # a checkpoint, binary, given as the vocabulary
    "train --resume --log": ("train", "--log", "steps.jsonl", 1),
}


class TestUndecodableInput:
    """A file that is not UTF-8 is one error line naming it and the byte
    offset: exit 2 for a config file, exit 1 for a data file."""

    @pytest.mark.parametrize("case", UNDECODABLE)
    def test_one_error_line(self, workdir, tmp_path, capsys, case):
        command, flag, name, code = UNDECODABLE[case]
        if command == "train":
            inputs = {"--corpus": workdir / "train.tsv", "--vocab": workdir / "vocab.txt",
                      "--config": workdir / "tiny.cfg", "--out": tmp_path / "out.ckpt"}
            rest = ["--dry-run"]
        else:
            inputs = {"--corpus": workdir / "heldout.tsv", "--vocab": workdir / "vocab.txt",
                      "--checkpoint": workdir / "model.ckpt"}
            rest = []
        source = workdir / name
        if flag == "--log":  # a step log is read on a resume; this run writes both
            source = tmp_path / name
            assert run(workdir, command, *flat(inputs), "--log", source,
                       "--save-train-state", tmp_path / "state.ckpt") == 0
            rest = ["--resume", tmp_path / "state.ckpt"]
        good = source.read_bytes()
        offset = None if name == "model.ckpt" else good.index(b"\n") + 1
        inputs[flag] = tmp_path / f"bad-{name}"
        inputs[flag].write_bytes(good if offset is None else good[:offset] + b"\xff" + good[offset:])
        capsys.readouterr()
        assert run(workdir, command, *flat(inputs), *rest) == code
        prefix = "usage error" if code == 2 else "error"
        at = r"\d+" if offset is None else str(offset)
        message = rf"{prefix}: {re.escape(str(inputs[flag]))}: byte {at} is not valid UTF-8\n"
        assert re.fullmatch(message, capsys.readouterr().err)


def flat(flags: dict) -> list:
    return [x for item in flags.items() for x in item]


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


# Settings values outside their declared domains, or refused by a rule across
# settings; each must stop before training, with the usage exit code.
OUT_OF_DOMAIN = [
    ("train", "head_dim", ["--head-dim", "-3"]),
    ("train", "head_dim", ["--head-dim", "0"]),
    ("train", "grad_clip", ["--grad-clip", "nan"]),
    ("train", "grad_clip", ["--grad-clip", "inf"]),
    ("train", "pos_weight", ["--pos-weight", "5", "--objective", "mse"]),
    ("train", "init_std", ["--init-std", "-1"]),
    ("train", "peak_lr", ["--peak-lr", "nan"]),
    ("train", "peak_lr", ["--peak-lr", "inf"]),
    ("train", "pos_weight", ["--pos-weight", "inf"]),
    ("train", "init_std", ["--init-std", "nan"]),
    ("train", "threshold", ["--threshold", "nan"]),
    ("train", "dropout", ["--dropout", "1"]),
    ("cv", "k", ["--k", "1"]),
]


class TestOutOfDomainSettings:
    """A value outside its setting's domain is one usage error naming the key, with exit 2."""

    CASES = [(*case, False) for case in OUT_OF_DOMAIN] + [(*case, True) for case in OUT_OF_DOMAIN
                                                          if case[0] == "train"]

    @pytest.mark.parametrize("command, key, argv, dry_run", CASES,
                             ids=[" ".join(argv + ["--dry-run"] * dry_run) for _, _, argv, dry_run in CASES])
    def test_flag(self, workdir, capsys, command, key, argv, dry_run):
        paths = {"train": ["--out", workdir / "never.ckpt"], "cv": ["--eval-corpus", workdir / "heldout.tsv"]}
        line = [command, "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                "--config", workdir / "tiny.cfg", *paths[command], *argv] + (["--dry-run"] if dry_run else [])
        try:
            code = run(workdir, *line)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert key in err or "--" + key.replace("_", "-") in err

    @pytest.mark.parametrize("key, text", [("head_dim", "0"), ("grad_clip", "nan"), ("k", "1")])
    def test_config_file_line(self, tmp_path, key, text):
        (tmp_path / "run.cfg").write_text(f"epochs = 1\n{key} = {text}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(tmp_path / 'run.cfg'))}:2: bad value for {key}: "
                                              f"must be .*, got {text}$"):
            parse_config_file(tmp_path / "run.cfg", "cv")

    def test_help_prints_each_domain(self, capsys):
        with pytest.raises(SystemExit):
            main(["cv", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for text in ("--head-dim HEAD_DIM int >= 1 or none; default None",
                     "--dropout DROPOUT float >= 0 and < 1; default 0.2",
                     "--target-pooling TARGET_POOLING one of mean, cls; default mean",
                     "--k K int >= 2; default 5"):
            assert text in out


# Model settings that a variant ignores, away from their defaults: a variant
# with no MIP or SPV head has no head width, and one that encodes no bare
# target pools none.
INERT = [
    ("seq", ["--head-dim", "8"]),
    ("base_all2all", ["--head-dim", "8"]),
    ("no_mip", ["--target-pooling", "cls"]),
    ("seq", ["--target-pooling", "cls"]),
    ("base_all2all", ["--target-pooling", "cls"]),
]


class TestInertSettings:
    """train and cv refuse a setting their variant ignores; ablate, which trains every variant, takes it."""

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("variant, argv", INERT)
    def test_refused_before_any_corpus_is_read(self, command, variant, argv, capsys):
        # REQUIRED_ARGS names files that do not exist: reading one would be another error
        code = main([command, *REQUIRED_ARGS[command], "--variant", variant, *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        key = argv[0][2:].replace("-", "_")
        assert err.startswith(f"usage error: variant {variant} ") and err.endswith(f", so {key} does not apply\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("variant, argv", [("melbert", ["--head-dim", "8", "--target-pooling", "cls"]),
                                               ("no_spv", ["--head-dim", "8", "--target-pooling", "cls"]),
                                               ("no_mip", ["--head-dim", "8"])])
    def test_taken_where_the_variant_reads_it(self, workdir, variant, argv):
        assert run(workdir, "train", "--corpus", workdir / "train.tsv", "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg", "--out", workdir / "never.ckpt",
                   "--variant", variant, *argv, "--dry-run") == 0

    def test_ablate_takes_them(self, workdir, capsys):
        out_dir = workdir / "ablation-inert"
        code = run(workdir, "ablate", "--corpus", workdir / "train.tsv",
                   "--eval-corpus", workdir / "heldout.tsv",
                   "--vocab", workdir / "vocab.txt",
                   "--config", workdir / "tiny.cfg", "--out-dir", out_dir,
                   "--head-dim", "8", "--target-pooling", "cls")
        assert code == 0 and len(os.listdir(out_dir)) == 5
