"""Optimizer, schedule, and training-loop tests, including bit-exact resume."""

import hashlib
import io
import json
import platform
import re

import numpy as np
import pytest

import melbert
from melbert.autodiff import Tensor
from melbert.data import Instance, make_synthetic_corpus
from melbert.bpe import train_bpe
from melbert.checkpoint import Blocks, open_checkpoint, save_checkpoint
from melbert.encoder import EncoderConfig
from melbert.errors import ConfigError, ContractError, FormatError, TrainingDivergedError
from melbert.model import MetaphorModel, ModelConfig, Variant
from melbert.rng import Rng
from melbert.training import (
    ADAM_EPS,
    AdamState,
    CvEnsemble,
    TrainConfig,
    adam_step,
    bagging_cv_train,
    clip_gradients,
    global_grad_norm,
    load_model,
    lr_at,
    save_model_checkpoint,
    save_train_checkpoint,
    train_single,
)

CORPUS = make_synthetic_corpus(7, 24)
VOCAB = train_bpe((" ".join(i.tokens) for i in CORPUS), 220)


def tiny_cfg(variant=Variant.MELBERT, dropout=0.0, **model_kw):
    enc = EncoderConfig(
        vocab_size=len(VOCAB), num_layers=1, num_heads=2,
        hidden_dim=16, ffn_dim=32, dropout=dropout,
    )
    return ModelConfig(encoder=enc, variant=variant, **model_kw)


class TestLrSchedule:
    """Warmup then linear decay, exact at the corners."""

    CFG = TrainConfig(peak_lr=6e-4, warmup_fraction=2.0 / 3.0)

    def test_endpoints_exact(self):
        assert lr_at(0, 300, self.CFG) == 0.0
        assert lr_at(200, 300, self.CFG) == self.CFG.peak_lr
        assert lr_at(300, 300, self.CFG) == 0.0

    def test_hand_midpoints(self):
        # halfway through warmup, and halfway down the decay
        assert lr_at(100, 300, self.CFG) == pytest.approx(3e-4, rel=1e-12)
        assert lr_at(250, 300, self.CFG) == pytest.approx(3e-4, rel=1e-12)

    def test_monotone_up_then_down(self):
        vals = [lr_at(s, 300, self.CFG) for s in range(301)]
        top = int(np.argmax(vals))
        assert vals[:top] == sorted(vals[:top])
        assert vals[top:] == sorted(vals[top:], reverse=True)

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            lr_at(-1, 10, self.CFG)
        with pytest.raises(ContractError):
            lr_at(11, 10, self.CFG)
        with pytest.raises(ContractError):
            lr_at(0, 0, self.CFG)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_fraction=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_fraction=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(objective="hinge")
        with pytest.raises(ConfigError):
            TrainConfig(grad_clip=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(pos_weight=0.5)


class TestAdam:
    """Update rule against a hand-expanded step."""

    def test_single_step_matches_hand_formula(self):
        w = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        w.grad = np.array([0.3, -0.5])
        params = {"w": w}
        state = AdamState.init_like(params)
        adam_step(params, state, lr=1e-2)

        g = np.array([0.3, -0.5])
        m = 0.1 * g                       # (1 - beta1) * g
        v = 0.001 * g * g                 # (1 - beta2) * g^2
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = np.array([2.0, -1.0]) - 1e-2 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        np.testing.assert_allclose(w.data, expected, rtol=1e-15)
        assert state.t == 1

    def test_two_steps_track_bias_correction(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        params = {"w": w}
        state = AdamState.init_like(params)
        m = np.zeros(1)
        v = np.zeros(1)
        x = np.array([1.0])
        for t, gval in [(1, 0.4), (2, -0.2)]:
            w.grad = np.array([gval])
            adam_step(params, state, lr=1e-3)
            g = np.array([gval])
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x = x - 1e-3 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + ADAM_EPS)
        np.testing.assert_allclose(w.data, x, rtol=1e-15)

    def test_missing_grad_on_fresh_state_changes_nothing(self):
        w = Tensor(np.array([[1.5, -2.5]]), requires_grad=True)
        before = w.data.copy()
        state = AdamState.init_like({"w": w})
        adam_step({"w": w}, state, lr=1e-2)
        assert np.array_equal(w.data, before)

    def test_missing_grad_with_momentum_still_moves(self):
        # decayed first moment keeps pushing even when this step's grad is absent
        w = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.init_like({"w": w})
        w.grad = np.array([0.5])
        adam_step({"w": w}, state, lr=1e-2)
        after_first = w.data.copy()
        w.grad = None
        adam_step({"w": w}, state, lr=1e-2)
        assert not np.array_equal(w.data, after_first)


class TestGradClip:
    """Global-norm clipping."""

    def _params(self, values):
        out = {}
        for i, v in enumerate(values):
            t = Tensor(np.zeros_like(v), requires_grad=True)
            t.grad = np.asarray(v, dtype=np.float64)
            out[f"p{i}"] = t
        return out

    def test_norm_and_scaling(self):
        params = self._params([np.array([3.0]), np.array([4.0])])
        assert global_grad_norm(params) == pytest.approx(5.0)
        returned = clip_gradients(params, 1.0)
        assert returned == pytest.approx(5.0)
        assert global_grad_norm(params) == pytest.approx(1.0, rel=1e-12)
        # direction preserved
        assert params["p0"].grad[0] == pytest.approx(0.6, rel=1e-12)

    def test_below_limit_untouched(self):
        params = self._params([np.array([0.3, -0.4])])
        g_before = params["p0"].grad.copy()
        clip_gradients(params, 10.0)
        assert np.array_equal(params["p0"].grad, g_before)


class TestTrainingLoop:
    """End-to-end behavior on a small corpus."""

    def test_loss_decreases(self):
        cfg = TrainConfig(epochs=4, batch_size=8, peak_lr=3e-3)
        res = train_single(tiny_cfg(), VOCAB, CORPUS, cfg, seed=0)
        assert len(res.loss_curve) == 4
        assert res.loss_curve[-1] < res.loss_curve[0]
        assert res.global_step == 4 * 3

    def test_two_runs_bitwise_identical(self):
        cfg = TrainConfig(epochs=2, batch_size=8)
        a = train_single(tiny_cfg(dropout=0.2), VOCAB, CORPUS, cfg, seed=3)
        b = train_single(tiny_cfg(dropout=0.2), VOCAB, CORPUS, cfg, seed=3)
        assert a.loss_curve == b.loss_curve
        for name, arr in a.model.export_arrays().items():
            assert np.array_equal(arr, b.model.export_arrays()[name]), name

    def test_seeds_differ(self):
        cfg = TrainConfig(epochs=1, batch_size=8)
        a = train_single(tiny_cfg(), VOCAB, CORPUS, cfg, seed=0)
        b = train_single(tiny_cfg(), VOCAB, CORPUS, cfg, seed=1)
        assert a.loss_curve != b.loss_curve

    def test_log_lines(self):
        cfg = TrainConfig(epochs=2, batch_size=8)
        buf = io.StringIO()
        train_single(tiny_cfg(), VOCAB, CORPUS, cfg, seed=0, log_fh=buf)
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert len(lines) == 2 * 3
        assert lines[0]["step"] == 1 and lines[-1]["step"] == 6
        assert set(lines[0]) == {"seed", "epoch", "step", "lr", "loss"}

    def test_divergence_aborts_with_diagnostics(self):
        cfg = TrainConfig(epochs=2, batch_size=8, peak_lr=1e150)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="epoch"):
                train_single(tiny_cfg(), VOCAB, CORPUS, cfg, seed=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            train_single(tiny_cfg(), VOCAB, [], TrainConfig(), seed=0)

    def test_mse_objective_runs(self):
        graded = make_synthetic_corpus(11, 16, regression=True)
        vocab = train_bpe((" ".join(i.tokens) for i in graded), 220)
        enc = EncoderConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                            hidden_dim=16, ffn_dim=32, dropout=0.0)
        cfg = TrainConfig(epochs=2, batch_size=8, objective="mse")
        res = train_single(ModelConfig(encoder=enc), vocab, graded, cfg, seed=0)
        assert all(np.isfinite(v) for v in res.loss_curve)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="only glibc's malloc is tuned")
    def test_a_repeated_long_step_faults_few_pages(self):
        # 16 sentences cut to max_len 150, beside their targets, pack 2,452
        # rows: a step allocates and frees about 100 MB of intermediates,
        # which the next step should find still mapped (about 10k faults
        # when glibc trims them away)
        import resource

        assert melbert._keep_freed_memory()
        words = tuple(t for inst in CORPUS for t in inst.tokens)
        batch = [Instance(f"long{i}", words[8 * i:] + words[:8 * i], 60, float(i % 2), "VERB")
                 for i in range(16)]
        model_cfg = ModelConfig(encoder=EncoderConfig(vocab_size=len(VOCAB)))
        cfg = TrainConfig(epochs=1, batch_size=16)
        train_single(model_cfg, VOCAB, batch, cfg, seed=0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_single(model_cfg, VOCAB, batch, cfg, seed=0)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


class TestResume:
    """Interrupted and restarted equals never interrupted, byte for byte."""

    CFG = TrainConfig(epochs=4, batch_size=8)

    @pytest.fixture(scope="class")
    def straight(self):
        return train_single(tiny_cfg(dropout=0.2), VOCAB, CORPUS, self.CFG, seed=5)

    @pytest.mark.parametrize("stop", [1, 2, 3])
    def test_resume_is_bitwise_identical(self, straight, tmp_path, stop):
        ckpt = tmp_path / "half.ckpt"
        train_single(tiny_cfg(dropout=0.2), VOCAB, CORPUS, self.CFG, seed=5,
                     checkpoint_path=ckpt, after_epoch=lambda epoch, *_: epoch + 1 >= stop)
        resumed = train_single(tiny_cfg(dropout=0.2), VOCAB, CORPUS, self.CFG,
                               seed=5, resume_from=ckpt)
        assert resumed.loss_curve == straight.loss_curve
        assert resumed.global_step == straight.global_step
        sa = straight.model.export_arrays()
        for name, arr in resumed.model.export_arrays().items():
            assert np.array_equal(arr, sa[name]), name

    def test_resume_rejects_other_config(self, tmp_path):
        ckpt = tmp_path / "half.ckpt"
        train_single(tiny_cfg(), VOCAB, CORPUS, self.CFG, seed=0,
                     checkpoint_path=ckpt, after_epoch=lambda epoch, *_: epoch + 1 >= 1)
        other = TrainConfig(epochs=5, batch_size=8)
        with pytest.raises(ContractError, match="configuration"):
            train_single(tiny_cfg(), VOCAB, CORPUS, other, seed=0, resume_from=ckpt)

    def test_resume_rejects_other_seed(self, tmp_path):
        ckpt = tmp_path / "half.ckpt"
        train_single(tiny_cfg(), VOCAB, CORPUS, self.CFG, seed=0,
                     checkpoint_path=ckpt, after_epoch=lambda epoch, *_: epoch + 1 >= 1)
        with pytest.raises(ContractError, match="seed"):
            train_single(tiny_cfg(), VOCAB, CORPUS, self.CFG, seed=1, resume_from=ckpt)

    def test_model_checkpoint_rejected_for_resume(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = MetaphorModel(tiny_cfg(), VOCAB, seed=0)
        save_model_checkpoint(path, model)
        with pytest.raises(ContractError, match="training checkpoint"):
            train_single(tiny_cfg(), VOCAB, CORPUS, self.CFG, seed=0, resume_from=path)


class TestModelCheckpoint:
    """Inference checkpoints restore scoring exactly."""

    def test_round_trip_scores(self, tmp_path):
        cfg = TrainConfig(epochs=1, batch_size=8)
        res = train_single(tiny_cfg(), VOCAB, CORPUS, cfg, seed=0)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, res.model)
        loaded = load_model(path, VOCAB)
        for inst in CORPUS[:5]:
            assert loaded.predict(inst).score == res.model.predict(inst).score

    def test_train_checkpoint_loads_as_model(self, tmp_path):
        ckpt = tmp_path / "t.ckpt"
        cfg = TrainConfig(epochs=1, batch_size=8)
        res = train_single(tiny_cfg(), VOCAB, CORPUS, cfg, seed=0, checkpoint_path=ckpt)
        loaded = load_model(ckpt, VOCAB)
        inst = CORPUS[0]
        assert loaded.predict(inst).score == res.model.predict(inst).score


def params_sha256(model) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(model.export_arrays().items()):
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def rewrite(src, dst, edit=None, edit_meta=None):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its arrays
    and ``edit_meta`` to its metadata."""
    with open_checkpoint(src) as (meta, blocks):
        arrays = {name: np.array(blocks[name]) for name in blocks}
    if edit is not None:
        edit(arrays)
    if edit_meta is not None:
        edit_meta(meta)
    save_checkpoint(dst, meta, arrays)
    return dst


class TestLoader:
    """Loading builds the model from the checkpoint alone and checks every block."""

    CFG = TrainConfig(epochs=2, batch_size=8)

    # SHA-256 over sorted (name, bytes) of a seed-0 tiny model; pins the init draw order
    INIT_SHA256 = {
        Variant.MELBERT: "03309bdda560f75c667a2f3f7e7dd703c1eafa96c29d8b72010d6c110ca2d92a",
        Variant.NO_MIP: "833d3505030be598cfbf74d068d99d41b97edd58981e952e5dfb560dc11fad47",
        Variant.NO_SPV: "9ab11bd43aeea5f21c075383b99bf56e8aa9a76afdf01b3837d7527e66b01dc5",
        Variant.BASE_ALL2ALL: "86f7c4ec4b0aebf2689a4583709fdba1e51002547cf374d455edddc2db1d0c82",
        Variant.SEQ: "86f7c4ec4b0aebf2689a4583709fdba1e51002547cf374d455edddc2db1d0c82",
    }

    # SHA-256 of the files a seed-0 tiny model saves; pins the file format byte for byte
    FILE_SHA256 = {
        "m.ckpt": "c0806f24e64699d2c9bb8989e292a6db0054f532d3689185d0af7c060726718a",
        "t.ckpt": "ec587006b4e9ef842b34d151f438c4b3256c3d848dcb37335f4fd3ff013fa6f2",
    }

    @pytest.fixture(scope="class")
    def train_ckpt(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("loader") / "half.ckpt"
        train_single(tiny_cfg(), VOCAB, CORPUS, self.CFG, seed=0,
                     checkpoint_path=path, after_epoch=lambda epoch, *_: epoch + 1 >= 1)
        return path

    def resume(self, path):
        return train_single(tiny_cfg(), VOCAB, CORPUS, self.CFG, seed=0, resume_from=path)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_init_digest_pinned(self, variant):
        assert params_sha256(MetaphorModel(tiny_cfg(variant), VOCAB, seed=0)) == self.INIT_SHA256[variant]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_loaded_parameters_equal_saved(self, variant, tmp_path):
        model = MetaphorModel(tiny_cfg(variant), VOCAB, seed=4)
        saved = model.export_arrays()
        save_model_checkpoint(tmp_path / "m.ckpt", model)
        save_train_checkpoint(tmp_path / "t.ckpt", model, self.CFG, AdamState.init_like(model.parameters()),
                              None, 4, 1, 3, [0.5])
        for path in (tmp_path / "m.ckpt", tmp_path / "t.ckpt"):
            loaded = load_model(path, VOCAB).export_arrays()
            assert loaded.keys() == saved.keys()
            for name, arr in saved.items():
                assert loaded[name].shape == arr.shape and loaded[name].tobytes() == arr.tobytes(), name

    def test_load_and_resume_draw_nothing(self, train_ckpt, tmp_path, monkeypatch):
        model_ckpt = tmp_path / "m.ckpt"
        save_model_checkpoint(model_ckpt, MetaphorModel(tiny_cfg(), VOCAB, seed=0))

        def no_draw(*args, **kwargs):
            raise AssertionError("a load drew an init")

        monkeypatch.setattr(Rng, "truncated_normal", no_draw)
        load_model(model_ckpt, VOCAB)
        load_model(train_ckpt, VOCAB)
        assert self.resume(train_ckpt).global_step == 2 * 3

    def test_saved_bytes_pinned(self, tmp_path):
        model = MetaphorModel(tiny_cfg(), VOCAB, seed=0)
        save_model_checkpoint(tmp_path / "m.ckpt", model)
        save_train_checkpoint(tmp_path / "t.ckpt", model, self.CFG, AdamState.init_like(model.parameters()),
                              None, 0, 1, 3, [0.5])
        for name, digest in self.FILE_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_model_load_makes_no_moment_array(self, train_ckpt, monkeypatch):
        looked_up = []
        getitem = Blocks.__getitem__

        def record(blocks, name):
            looked_up.append(name)
            return getitem(blocks, name)

        monkeypatch.setattr(Blocks, "__getitem__", record)
        load_model(train_ckpt, VOCAB)
        assert sorted(looked_up) == sorted(MetaphorModel(tiny_cfg(), VOCAB, seed=0).parameters())
        looked_up.clear()
        self.resume(train_ckpt)
        assert any(name.startswith("adam.") for name in looked_up)

    def test_loaded_model_outlives_its_file(self, train_ckpt, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(train_ckpt.read_bytes())
        model = load_model(path, VOCAB)
        with open(path, "r+b") as fh:
            fh.truncate(0)
        want = load_model(train_ckpt, VOCAB).predict(CORPUS[0]).score
        assert model.predict(CORPUS[0]).score == want

    def test_unknown_parameter_rejected(self, train_ckpt, tmp_path):
        def add_bogus(arrays):
            arrays["enc.bogus"] = np.zeros(3)

        model_ckpt = tmp_path / "m.ckpt"
        save_model_checkpoint(model_ckpt, MetaphorModel(tiny_cfg(), VOCAB, seed=0))
        for path in (rewrite(model_ckpt, tmp_path / "m2.ckpt", add_bogus),
                     rewrite(train_ckpt, tmp_path / "t2.ckpt", add_bogus)):
            with pytest.raises(ContractError, match="unknown parameter 'enc.bogus'"):
                load_model(path, VOCAB)
        with pytest.raises(ContractError, match="unknown parameter 'enc.bogus'"):
            self.resume(tmp_path / "t2.ckpt")

    def test_missing_moment_rejected(self, train_ckpt, tmp_path):
        path = rewrite(train_ckpt, tmp_path / "t.ckpt", lambda a: a.pop("adam.m.head.w"))
        with pytest.raises(ContractError, match="missing parameter 'adam.m.head.w'"):
            self.resume(path)

    def test_unknown_moment_rejected(self, train_ckpt, tmp_path):
        def add_moment(arrays):
            arrays["adam.v.enc.bogus"] = np.zeros(3)

        path = rewrite(train_ckpt, tmp_path / "t.ckpt", add_moment)
        with pytest.raises(ContractError, match="unknown optimizer block 'adam.v.enc.bogus'"):
            self.resume(path)
        model_ckpt = tmp_path / "m.ckpt"
        save_model_checkpoint(model_ckpt, MetaphorModel(tiny_cfg(), VOCAB, seed=0))
        with pytest.raises(ContractError, match="model checkpoint has optimizer block 'adam.v.enc.bogus'"):
            load_model(rewrite(model_ckpt, tmp_path / "m2.ckpt", add_moment), VOCAB)

    def test_moment_shape_mismatch_rejected(self, train_ckpt, tmp_path):
        def reshape(arrays):
            arrays["adam.v.head.b"] = np.zeros(2)

        path = rewrite(train_ckpt, tmp_path / "t.ckpt", reshape)
        with pytest.raises(ContractError, match=r"'adam.v.head.b' shape \(2,\)"):
            self.resume(path)


class TestMetadata:
    """Checkpoint metadata is read in one checked step; a bad file is a FormatError."""

    CFG = TrainConfig(epochs=2, batch_size=8)
    TRAIN_KEYS = ("model", "train", "seed", "epoch", "global_step", "adam_t", "loss_curve")

    @pytest.fixture(scope="class")
    def ckpts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("meta")
        model = MetaphorModel(tiny_cfg(), VOCAB, seed=0)
        save_model_checkpoint(root / "m.ckpt", model)
        save_train_checkpoint(root / "t.ckpt", model, self.CFG, AdamState.init_like(model.parameters()),
                              None, 0, 1, 3, [0.5])
        return root / "m.ckpt", root / "t.ckpt"

    def resume(self, path):
        return train_single(tiny_cfg(), VOCAB, CORPUS, self.CFG, seed=0, resume_from=path)

    def test_model_checkpoint_without_model(self, ckpts, tmp_path):
        path = rewrite(ckpts[0], tmp_path / "m.ckpt", edit_meta=lambda m: m.pop("model"))
        with pytest.raises(FormatError, match="no key 'model'"):
            load_model(path, VOCAB)

    def test_unknown_encoder_key(self, ckpts, tmp_path):
        def add_key(meta):
            meta["model"]["encoder"]["bogus"] = 1

        for src in ckpts:
            path = rewrite(src, tmp_path / src.name, edit_meta=add_key)
            with pytest.raises(FormatError, match="'model.encoder' has unknown key 'bogus'"):
                load_model(path, VOCAB)
        with pytest.raises(FormatError, match="unknown key 'bogus'"):
            self.resume(tmp_path / "t.ckpt")

    @pytest.mark.parametrize("key", TRAIN_KEYS)
    def test_resume_without_key(self, ckpts, tmp_path, key):
        path = rewrite(ckpts[1], tmp_path / "t.ckpt", edit_meta=lambda m: m.pop(key))
        with pytest.raises(FormatError, match=f"no key '{key}'"):
            self.resume(path)

    def test_unknown_top_level_key_and_missing_kind(self, ckpts, tmp_path):
        path = rewrite(ckpts[0], tmp_path / "a.ckpt", edit_meta=lambda m: m.update(extra=0))
        with pytest.raises(FormatError, match="unknown key 'extra'"):
            load_model(path, VOCAB)
        path = rewrite(ckpts[0], tmp_path / "b.ckpt", edit_meta=lambda m: m.pop("kind"))
        with pytest.raises(FormatError, match="no key 'kind'"):
            load_model(path, VOCAB)

    def test_value_the_config_rejects(self, ckpts, tmp_path):
        def bad_dropout(meta):
            meta["model"]["encoder"]["dropout"] = 1.5

        with pytest.raises(FormatError, match="dropout"):
            load_model(rewrite(ckpts[0], tmp_path / "m.ckpt", edit_meta=bad_dropout), VOCAB)
        with pytest.raises(FormatError, match="warmup_fraction"):
            self.resume(rewrite(ckpts[1], tmp_path / "t.ckpt",
                                edit_meta=lambda m: m["train"].update(warmup_fraction=2.0)))

    def test_model_load_reads_no_train_section(self, ckpts, tmp_path):
        # a training checkpoint written before Adam's constants left TrainConfig
        path = rewrite(ckpts[1], tmp_path / "t.ckpt", edit_meta=lambda m: m["train"].update(adam_eps=1e-8))
        assert 0.0 < load_model(path, VOCAB).predict(CORPUS[0]).score < 1.0

    def test_resume_reads_the_train_section(self, ckpts, tmp_path):
        path = rewrite(ckpts[1], tmp_path / "t.ckpt", edit_meta=lambda m: m["train"].update(adam_eps=1e-8))
        with pytest.raises(FormatError, match="'train' has unknown key 'adam_eps'"):
            self.resume(path)

    def test_checkpoint_with_a_stream_position_loads_but_does_not_resume(self, ckpts, tmp_path):
        # a training checkpoint written when every draw came from one sequential stream
        path = rewrite(ckpts[1], tmp_path / "t.ckpt",
                       edit_meta=lambda m: m.update(rng_state={"seed": 0, "stream": "train", "bitgen": {}}))
        assert load_model(path, VOCAB).predict(CORPUS[0]).score == load_model(ckpts[1], VOCAB).predict(CORPUS[0]).score
        with pytest.raises(FormatError, match="checkpoint metadata: 'rng_state' is the stream position"):
            self.resume(path)

    def test_resume_at_the_last_epoch_trains_nothing(self, ckpts, tmp_path):
        path = rewrite(ckpts[1], tmp_path / "t.ckpt", edit_meta=lambda m: m.update(epoch=self.CFG.epochs))
        assert self.resume(path).loss_curve == [0.5]

    @pytest.mark.parametrize("key, value, expected", [
        ("kind", [], "str, got []"),
        ("seed", False, "int, got False"),
        ("epoch", "1", "int, got '1'"),
        ("epoch", -1, "int >= 0, got -1"),
        ("global_step", 3.0, "int, got 3.0"),
        ("adam_t", True, "int, got True"),
        ("loss_curve", 5, "list of float, got 5"),
        ("loss_curve", [0.5, "0.4"], "float, got '0.4'"),
        ("loss_curve", [False], "float, got False"),
        ("epoch", 7, "at most train.epochs (2), got 7"),
    ])
    def test_wrongly_typed_top_level_value(self, ckpts, tmp_path, key, value, expected):
        def edit(meta):
            *outer, last = key.split(".")
            for part in outer:
                meta = meta[part]
            meta[last] = value

        path = rewrite(ckpts[1], tmp_path / "t.ckpt", edit_meta=edit)
        message = re.escape(f"checkpoint metadata: {key!r} must be {expected}")
        with pytest.raises(FormatError, match=message):
            self.resume(path)
        if key == "kind":
            with pytest.raises(FormatError, match=message):
                load_model(path, VOCAB)


class TestBagging:
    """K-fold bagging ensemble."""

    def test_identical_members_reduce_to_one(self):
        model = MetaphorModel(tiny_cfg(), VOCAB, seed=0)
        ens = CvEnsemble([model, model, model])
        single = model.predict(CORPUS[0]).score
        assert ens.score(CORPUS[0]) == pytest.approx(single, rel=1e-12)
        assert ens.predict(CORPUS[0]).label == int(single >= 0.5)

    def test_fold_training(self):
        cfg = TrainConfig(epochs=1, batch_size=8)
        ens, results = bagging_cv_train(tiny_cfg(), VOCAB, CORPUS, k=2, cfg=cfg, seed=10)
        assert len(ens.models) == 2 and [r.seed for r in results] == [10, 11]
        a = results[0].model.export_arrays()["head.w"]
        b = results[1].model.export_arrays()["head.w"]
        assert not np.array_equal(a, b)
        p = ens.predict(CORPUS[0])
        assert 0.0 < p.score < 1.0 and p.label in (0, 1)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ContractError):
            CvEnsemble([])
