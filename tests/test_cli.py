"""Command-line workflow tests driven through main()."""

import dataclasses
import filecmp
import functools
import json
import os

import pytest

from melbert import cli
from melbert.checkpoint import load_checkpoint, save_checkpoint
from melbert.cli import main, parse_config_file
from melbert.data import make_synthetic_corpus, save_corpus
from melbert.errors import ConfigError


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
        p.write_text("\n# full line comment\npeak_lr = 0.001\nseeds = 0,3\n"
                     "grad_clip = none\nvariant = no_mip  # trailing\n")
        s = parse_config_file(p)
        assert s == {"peak_lr": 0.001, "seeds": (0, 3), "grad_clip": None,
                     "variant": "no_mip"}

    def test_unknown_key_cites_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 2\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(p)

    def test_bad_value_and_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = three\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(p)
        p.write_text("epochs 3\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(p)


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
        monkeypatch.setattr(cli, "train_single", functools.partial(cli.train_single, stop_after_epoch=1))
        assert run(workdir, *args, "--log", log, "--save-train-state", state,
                   "--out", workdir / "part.ckpt") == 0
        monkeypatch.undo()
        assert len(log.read_text().splitlines()) < len(full.read_text().splitlines())
        assert run(workdir, *args, "--log", log, "--resume", state,
                   "--out", workdir / "resumed.ckpt") == 0
        assert log.read_text().splitlines() == full.read_text().splitlines()


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
        assert set(doc) >= {"config", "dataset_sha256", "overall", "by_genre",
                            "by_pos", "seeds"}
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

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("model"),
        lambda meta: meta["model"]["encoder"].update(bogus=1),
    ], ids=["no-model", "unknown-encoder-key"])
    def test_bad_checkpoint_metadata_is_one_error_line(self, workdir, tmp_path, capsys, edit):
        meta, arrays = load_checkpoint(workdir / "model.ckpt")
        edit(meta)
        save_checkpoint(tmp_path / "bad.ckpt", meta, arrays)
        code = run(workdir, "predict", "--vocab", workdir / "vocab.txt",
                   "--checkpoint", tmp_path / "bad.ckpt",
                   "--sentence", "the river devours the shore", "--target-index", "2")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: checkpoint metadata") and err.count("\n") == 1

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
