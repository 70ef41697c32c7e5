"""The shared config schema: JSON round trips, the strict reader, the text parser."""

import dataclasses
from typing import Optional

import pytest

from melbert.encoder import EncoderConfig
from melbert.errors import ConfigError
from melbert.model import ModelConfig, Variant
from melbert.settings import parse_text
from melbert.training import TrainConfig

ENCODER = EncoderConfig(vocab_size=50, num_layers=3, hidden_dim=32, dropout=0.1)
MODEL = ModelConfig(encoder=ENCODER, variant=Variant.NO_MIP, head_dim=8, threshold=0.4,
                    target_pooling="cls", max_len=64)
TRAIN = TrainConfig(epochs=2, batch_size=4, peak_lr=1e-3, grad_clip=1.0, objective="mse")


def model_dict(**edits) -> dict:
    d = MODEL.to_dict()
    d.update(edits)
    return d


class TestRoundTrip:
    """from_dict(to_dict(cfg)) == cfg, and the stored form is plain JSON."""

    @pytest.mark.parametrize("cfg", [ENCODER, MODEL, TRAIN, EncoderConfig(vocab_size=9),
                                     ModelConfig(encoder=EncoderConfig(vocab_size=9)), TrainConfig()],
                             ids=["encoder", "model", "train", "encoder-defaults",
                                  "model-defaults", "train-defaults"])
    def test_round_trip(self, cfg):
        assert type(cfg).from_dict(cfg.to_dict()) == cfg

    def test_model_form(self):
        assert MODEL.to_dict() == {
            "encoder": {"vocab_size": 50, "num_layers": 3, "num_heads": 2, "hidden_dim": 32,
                        "ffn_dim": 256, "max_positions": 192, "dropout": 0.1, "init_std": 0.02},
            "variant": "no_mip", "head_dim": 8, "threshold": 0.4, "target_pooling": "cls",
            "max_len": 64,
        }
        assert type(MODEL.to_dict()["variant"]) is str

    def test_train_form_has_seven_keys(self):
        assert set(TRAIN.to_dict()) == {"epochs", "batch_size", "peak_lr", "warmup_fraction",
                                        "pos_weight", "grad_clip", "objective"}


class TestStrictReader:
    """Every bad value names its dotted key."""

    def test_missing_key(self):
        d = model_dict()
        del d["encoder"]["ffn_dim"]
        with pytest.raises(ConfigError, match=r"^'model.encoder' has no key 'ffn_dim'$"):
            ModelConfig.from_dict(d, "model")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"^'model' has unknown key 'extra'$"):
            ModelConfig.from_dict(model_dict(extra=1), "model")

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match=r"^'model.encoder' is not an object$"):
            ModelConfig.from_dict(model_dict(encoder=[1, 2]), "model")

    def test_top_level_without_a_where(self):
        with pytest.raises(ConfigError, match=r"^the top level has no key 'epochs'$"):
            TrainConfig.from_dict({})
        bad = dict(TRAIN.to_dict(), epochs="2")
        with pytest.raises(ConfigError, match=r"^'epochs' must be int, got '2'$"):
            TrainConfig.from_dict(bad)

    @pytest.mark.parametrize("key, value, label", [
        ("max_len", 64.0, "int"),
        ("max_len", True, "int"),
        ("max_len", None, "int"),
        ("threshold", False, "float"),
        ("threshold", "0.4", "float"),
        ("target_pooling", 1, "str"),
        ("head_dim", 8.5, "int or none"),
        ("head_dim", "none", "int or none"),
        ("variant", "MELBERT", "one of melbert, no_mip, no_spv, base_all2all, seq"),
        ("variant", None, "one of melbert, no_mip, no_spv, base_all2all, seq"),
    ])
    def test_wrong_type_or_domain(self, key, value, label):
        with pytest.raises(ConfigError) as exc:
            ModelConfig.from_dict(model_dict(**{key: value}), "model")
        assert str(exc.value) == f"'model.{key}' must be {label}, got {value!r}"

    def test_nested_wrong_type(self):
        d = model_dict()
        d["encoder"]["dropout"] = [0.1]
        with pytest.raises(ConfigError, match=r"^'model.encoder.dropout' must be float, got \[0.1\]$"):
            ModelConfig.from_dict(d, "model")

    def test_int_read_as_float(self):
        cfg = TrainConfig.from_dict(TRAIN.to_dict() | {"pos_weight": 2, "grad_clip": 3})
        assert (cfg.pos_weight, cfg.grad_clip) == (2.0, 3.0)
        assert type(cfg.pos_weight) is float and type(cfg.grad_clip) is float

    def test_optional_takes_null(self):
        assert ModelConfig.from_dict(model_dict(head_dim=None), "model").head_dim is None

    def test_range_checks_still_apply(self):
        with pytest.raises(ConfigError, match="threshold must lie in"):
            ModelConfig.from_dict(model_dict(threshold=1.5), "model")


class TestParseText:
    """The text form of a config file line or a flag."""

    @pytest.mark.parametrize("hint, text, value", [
        (int, "3", 3),
        (float, "0.5", 0.5),
        (float, "2", 2.0),
        (str, "cls", "cls"),
        (Variant, "seq", Variant.SEQ),
        (Optional[int], "none", None),
        (Optional[float], "None", None),
        (Optional[float], "1e-3", 1e-3),
    ])
    def test_values(self, hint, text, value):
        parsed = parse_text(hint, text)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("hint, text, label", [
        (int, "1.5", "int"),
        (float, "none", "float"),
        (Optional[int], "x", "int or none"),
        (Variant, "MELBERT", "one of melbert, no_mip, no_spv, base_all2all, seq"),
    ])
    def test_bad_text(self, hint, text, label):
        with pytest.raises(ConfigError) as exc:
            parse_text(hint, text)
        assert str(exc.value) == f"must be {label}, got {text!r}"


def test_configs_are_frozen_dataclasses():
    for cfg in (ENCODER, MODEL, TRAIN):
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_len = 1
