"""The shared config schema: JSON round trips, the strict reader, the text parser."""

import dataclasses
from typing import Annotated, Literal, Optional

import pytest

from melbert.cli import RunSettings
from melbert.encoder import EncoderConfig
from melbert.errors import ConfigError
from melbert.model import ModelConfig, Variant
from melbert.settings import Range, Settings, parse_text, schema
from melbert.training import RunState, TrainConfig

ENCODER = EncoderConfig(vocab_size=50, num_layers=3, hidden_dim=32, dropout=0.1)
MODEL = ModelConfig(encoder=ENCODER, variant=Variant.NO_MIP, head_dim=8, threshold=0.4,
                    target_pooling="cls", max_len=64)
TRAIN = TrainConfig(epochs=2, batch_size=4, peak_lr=1e-3, grad_clip=1.0, objective="mse")
RUN = RunState(train=TRAIN, seed=-3, epoch=1, global_step=6, adam_t=6, loss_curve=[0.7, 0.25])

# every config class, found as a subclass of Settings rather than listed, so a new one is covered
SCHEMAS = sorted(Settings.__subclasses__(), key=lambda cls: cls.__name__)
# configs of each class, set and defaulted, by test id
EXAMPLES = {
    EncoderConfig: {"encoder": ENCODER, "encoder-defaults": EncoderConfig(vocab_size=9)},
    ModelConfig: {"model": MODEL, "model-defaults": ModelConfig(encoder=EncoderConfig(vocab_size=9))},
    TrainConfig: {"train": TRAIN, "train-defaults": TrainConfig()},
    RunSettings: {"run-settings": RunSettings(seed=-3, k=4), "run-settings-defaults": RunSettings()},
    RunState: {"run-state": RUN},
}


def model_dict(**edits) -> dict:
    d = MODEL.to_dict()
    d.update(edits)
    return d


class TestRoundTrip:
    """from_dict(to_dict(cfg)) == cfg, and the stored form is plain JSON."""

    def test_every_schema_has_an_example(self):
        assert [cls.__name__ for cls in SCHEMAS if cls not in EXAMPLES] == []

    @pytest.mark.parametrize("cfg", [pytest.param(cfg, id=name) for cls in SCHEMAS
                                     for name, cfg in EXAMPLES.get(cls, {}).items()])
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
        ("target_pooling", 1, "one of mean, cls"),
        ("head_dim", 8.5, "int or none"),
        ("head_dim", "none", "int or none"),
        ("variant", "MELBERT", "one of melbert, no_mip, no_spv, base_all2all, seq"),
        ("variant", None, "one of melbert, no_mip, no_spv, base_all2all, seq"),
        ("loss_curve", 0.5, "list of float"),
        ("loss_curve", [0.5, True], "float"),
        ("loss_curve", [0.5, float("nan")], "float"),
    ])
    def test_wrong_type_or_domain(self, key, value, label):
        cfg, where = (RUN, "run") if key in RUN.to_dict() else (MODEL, "model")
        with pytest.raises(ConfigError) as exc:
            type(cfg).from_dict(cfg.to_dict() | {key: value}, where)
        got = value[-1] if isinstance(value, list) else value  # a list's bad item is named, not the list
        assert str(exc.value) == f"'{where}.{key}' must be {label}, got {got!r}"

    def test_nested_wrong_type(self):
        d = model_dict()
        d["encoder"]["dropout"] = [0.1]
        with pytest.raises(ConfigError, match=r"^'model.encoder.dropout' must be float, got \[0.1\]$"):
            ModelConfig.from_dict(d, "model")

    def test_int_read_as_float(self):
        cfg = TrainConfig.from_dict(TRAIN.to_dict() | {"objective": "bce", "pos_weight": 2, "grad_clip": 3})
        assert (cfg.pos_weight, cfg.grad_clip) == (2.0, 3.0)
        assert type(cfg.pos_weight) is float and type(cfg.grad_clip) is float
        curve = RunState.from_dict(RUN.to_dict() | {"loss_curve": [1, 0.5]}).loss_curve
        assert curve == [1.0, 0.5] and type(curve[0]) is float

    def test_optional_takes_null(self):
        assert ModelConfig.from_dict(model_dict(head_dim=None), "model").head_dim is None

    def test_range_checks_still_apply(self):
        with pytest.raises(ConfigError, match=r"^'model.threshold' must be float > 0 and < 1, got 1.5$"):
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

    @pytest.mark.parametrize("hint, text, message", [
        (Annotated[int, Range(ge=1)], "0", "must be int >= 1, got 0"),
        (Annotated[int, Range(ge=1)], "x", "must be int, got 'x'"),
        (Optional[Annotated[int, Range(ge=1)]], "-3", "must be int >= 1 or none, got -3"),
        (Annotated[float, Range(gt=0, lt=1)], "1", "must be float > 0 and < 1, got 1.0"),
        (Annotated[float, Range(gt=0)], "nan", "must be float > 0, got nan"),
        (Optional[Annotated[float, Range(gt=0)]], "inf", "must be float > 0 or none, got inf"),
        (Annotated[float, Range()], "-inf", "must be float, got -inf"),
        (Literal["mean", "cls"], "max", "must be one of mean, cls, got 'max'"),
    ])
    def test_out_of_domain_text(self, hint, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_text(hint, text)
        assert str(exc.value) == message


class TestDomains:
    """Each setting's domain is declared in its type and checked however a config is made."""

    @pytest.mark.parametrize("cls", SCHEMAS, ids=lambda cls: cls.__name__)
    def test_every_number_declares_a_domain(self, cls):
        for f in schema(cls):
            if f.spec.base in (int, float):
                assert isinstance(f.spec.domain, Range), f"{cls.__name__}.{f.name} declares no Range"

    @pytest.mark.parametrize("make, message", [
        (lambda: EncoderConfig(vocab_size=0), "'vocab_size' must be int >= 1, got 0"),
        (lambda: EncoderConfig(vocab_size=9, init_std=-1.0), "'init_std' must be float > 0, got -1.0"),
        (lambda: EncoderConfig(vocab_size=9, dropout=float("nan")), "'dropout' must be float >= 0 and < 1, got nan"),
        (lambda: EncoderConfig(vocab_size=9, num_layers=True), "'num_layers' must be int, got True"),
        (lambda: ModelConfig(encoder=ENCODER, head_dim=0), "'head_dim' must be int >= 1 or none, got 0"),
        (lambda: ModelConfig(encoder=ENCODER, variant="seq"),
         "'variant' must be one of melbert, no_mip, no_spv, base_all2all, seq, got 'seq'"),
        (lambda: TrainConfig(grad_clip=float("inf")), "'grad_clip' must be float > 0 or none, got inf"),
        (lambda: TrainConfig(objective="hinge"), "'objective' must be one of bce, mse, got 'hinge'"),
        (lambda: TrainConfig(objective="mse", pos_weight=5.0),
         "'pos_weight' must be 1 under objective mse, which weights no class, got 5.0"),
        (lambda: RunSettings(k=1), "'k' must be int >= 2, got 1"),
    ])
    def test_direct_construction_is_checked(self, make, message):
        with pytest.raises(ConfigError) as exc:
            make()
        assert str(exc.value) == message

    def test_checkpoint_value_outside_domain_names_dotted_key(self):
        d = model_dict()
        d["encoder"]["hidden_dim"] = 0
        with pytest.raises(ConfigError, match=r"^'model.encoder.hidden_dim' must be int >= 1, got 0$"):
            ModelConfig.from_dict(d, "model")


def test_configs_are_frozen_dataclasses():
    for cfg in (ENCODER, MODEL, TRAIN):
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_len = 1
