"""Encoder forward contracts, pooling, gradients, and checkpointing."""

import numpy as np
import pytest

from fdcheck import check_grads

from melbert import autodiff as ad
from melbert.autodiff import Tape, Tensor
from melbert.bpe import train_bpe
from melbert.checkpoint import MAGIC, open_checkpoint, save_checkpoint
from melbert.data import Instance
from melbert.encoder import Encoder, EncoderConfig, pool_span
from melbert.errors import ConfigError, ContractError, FormatError, VocabError
from melbert.inputs import InputBatch, TargetInput, build_sentence_input, build_target_input
from melbert.model import MetaphorModel, ModelConfig
from melbert.params import Draw
from melbert.rng import Rng
from melbert.training import load_model


@pytest.fixture(scope="module")
def vocab():
    return train_bpe(["the cat sat on the mat", "the dog ran to the cat"], vocab_size=120)


def small_cfg(vocab, **kw):
    defaults = dict(vocab_size=len(vocab), num_layers=2, num_heads=2, hidden_dim=16, ffn_dim=32)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def sentence_input(vocab, tokens=("the", "cat", "sat"), target=1):
    inst = Instance("s", tuple(tokens), target, 0.0, "NOUN")
    return build_sentence_input(inst, vocab)


def one(inp):
    """A single input as a batch of one."""
    return InputBatch.stack([inp])


class TestConfig:
    """Constructor validation."""

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, hidden_dim=10, num_heads=3)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, dropout=1.0)

    def test_round_trip_dict(self):
        cfg = EncoderConfig(vocab_size=50, num_layers=1)
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


class TestInit:
    """Parameter initialization policy."""

    def test_truncated_normal_bounds(self, vocab):
        cfg = small_cfg(vocab, init_std=0.02)
        enc = Encoder(cfg, Draw(Rng(0, "init")))
        w = enc.params["layer0.attn.q.w"].data
        assert np.abs(w).max() <= 2 * 0.02 + 1e-12
        assert w.std() > 0.005  # actually random, not degenerate

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_truncated_normal_matches_full_rescan(self, vocab, seed):
        def rescan(rng, shape, std, bound_sigmas):
            # the original loop: every round tests the whole array again
            out = rng._gen.standard_normal(size=shape)
            for _ in range(100):
                bad = np.abs(out) > bound_sigmas
                if not bad.any():
                    break
                out[bad] = rng._gen.standard_normal(size=int(bad.sum()))
            return out * std

        model_shapes = {t.shape for t in MetaphorModel(ModelConfig(encoder=small_cfg(vocab)), vocab).parameters().values()}
        # a 0.01-sigma bound leaves positions out of bounds after all 100 rounds
        for shape in sorted(model_shapes | {(), (0,), (1,), (400, 64), (2, 3, 4)}):
            for bound in (2.0, 0.5, 0.01):
                a, b = Rng(seed, "tn"), Rng(seed, "tn")
                want = rescan(a, shape, 0.02, bound)
                got = b.truncated_normal(shape, std=0.02, bound_sigmas=bound)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (shape, bound)
                assert a.state() == b.state()  # same number of draws

    def test_layer_norm_identity_init(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(0, "init")))
        np.testing.assert_array_equal(enc.params["layer0.ln1.g"].data, np.ones(16))
        np.testing.assert_array_equal(enc.params["layer0.ln1.b"].data, np.zeros(16))

    def test_biases_zero(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(0, "init")))
        np.testing.assert_array_equal(enc.params["layer0.attn.q.b"].data, np.zeros(16))

    def test_same_seed_same_params(self, vocab):
        a = Encoder(small_cfg(vocab), Draw(Rng(5, "init")))
        b = Encoder(small_cfg(vocab), Draw(Rng(5, "init")))
        for k in a.params:
            assert a.params[k].data.tobytes() == b.params[k].data.tobytes()


class TestForward:
    """Output shapes, determinism, attention rows, input kinds."""

    def test_output_shapes(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(0, "init")))
        inp = sentence_input(vocab)
        (out,) = enc.encode(one(inp))
        L = len(inp.ids)
        assert out.positions.shape == (L, 16)
        assert out.cls.shape == (1, 16)
        np.testing.assert_array_equal(out.cls.data, out.positions.data[:1])

    def test_eval_deterministic_bitwise(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(1, "init")))
        inp = sentence_input(vocab)
        a = enc.encode(one(inp))[0].positions.data
        b = enc.encode(one(inp))[0].positions.data
        assert a.tobytes() == b.tobytes()

    def test_train_mode_dropout_differs(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(1, "init")))
        inp = sentence_input(vocab)
        rng = Rng(3, "drop")
        a = enc.encode(one(inp), rng=rng)[0].positions.data
        b = enc.encode(one(inp), rng=rng)[0].positions.data
        assert a.tobytes() != b.tobytes()

    def test_zero_dropout_train_equals_eval(self, vocab):
        enc = Encoder(small_cfg(vocab, dropout=0.0), Draw(Rng(1, "init")))
        inp = sentence_input(vocab)
        a = enc.encode(one(inp), rng=Rng(0))[0].positions.data
        b = enc.encode(one(inp))[0].positions.data
        assert a.tobytes() == b.tobytes()

    def test_target_input_ignores_position_and_segment_tables(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(4, "init")))
        inst = Instance("s", ("the", "cat"), 1, 0.0, "NOUN")
        tgt = build_target_input(inst, vocab)
        sent = build_sentence_input(inst, vocab)
        t_before = enc.encode(one(tgt))[0].positions.data.copy()
        s_before = enc.encode(one(sent))[0].positions.data.copy()
        enc.params["emb.pos"].data += 7.0
        enc.params["emb.seg"].data -= 3.0
        assert enc.encode(one(tgt))[0].positions.data.tobytes() == t_before.tobytes()
        assert enc.encode(one(sent))[0].positions.data.tobytes() != s_before.tobytes()

    def test_length_overflow(self, vocab):
        enc = Encoder(small_cfg(vocab, max_positions=4), Draw(Rng(0, "init")))
        with pytest.raises(ContractError):
            enc.encode(one(sentence_input(vocab, tokens=("the", "cat", "sat", "on", "mat"), target=1)))

    def test_id_out_of_range(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(0, "init")))
        bad = TargetInput(ids=(2, len(vocab) + 10, 3), target_span=(1, 2))
        with pytest.raises(VocabError):
            enc.encode(one(bad))


class TestPackedKinds:
    """Sentences and targets share one pass, and neither kind sees the other."""

    WORDS = ("cat", "dog", "catdog", "mat", "tomato", "cat")  # 3 to 7 ids each, one repeat

    def test_target_vectors_ignore_the_sentences(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(12, "init")))
        targets = InputBatch.stack([build_target_input(Instance("t", (w,), 0, 0.0, "NOUN"), vocab)
                                    for w in self.WORDS])
        # the oracle: the targets encoded with nothing else in the pass
        (alone,) = enc.encode(targets)
        want = pool_span(alone, targets.spans).data
        packs = [
            [sentence_input(vocab)],
            [sentence_input(vocab, tokens=("the", "dog", "ran"), target=1)],  # same length, new ids
            [sentence_input(vocab, tokens=("the",), target=0),                 # as long as "sat": 4 ids
             sentence_input(vocab, tokens=("the", "cat", "sat", "on", "the", "mat"), target=5)],
        ]
        seen = set()
        for sents in packs:
            sentences = InputBatch.stack(sents)
            seen.update(sentences.lengths.tolist())
            out_s, out_t = enc.encode(sentences, targets)
            assert pool_span(out_t, targets.spans).data.tobytes() == want.tobytes()
            assert out_t.positions.data.tobytes() == alone.positions.data.tobytes()
            (sentences_alone,) = enc.encode(sentences)
            assert out_s.positions.data.tobytes() == sentences_alone.positions.data.tobytes()
        assert seen & set(targets.lengths.tolist())  # some pass groups the two kinds in attention

    def test_outputs_hold_their_own_rows(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(12, "init")))
        sents = InputBatch.stack([sentence_input(vocab), sentence_input(vocab, tokens=("the",), target=0)])
        tgts = InputBatch.stack([build_target_input(Instance("t", ("dog",), 0, 0.0, "NOUN"), vocab)])
        out_s, out_t = enc.encode(sents, tgts)
        assert out_s.positions.shape == (len(sents.ids), 16) and out_t.positions.shape == (len(tgts.ids), 16)
        assert out_s.cls.shape == (2, 16) and out_t.cls.shape == (1, 16)

    def test_no_batch_rejected(self, vocab):
        with pytest.raises(ContractError):
            Encoder(small_cfg(vocab), Draw(Rng(0, "init"))).encode()


class TestPooling:
    """Span mean pooling and the cls alternative."""

    def test_mean_matches_hand_average(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(6, "init")))
        first = sentence_input(vocab)
        inp = sentence_input(vocab, tokens=("the", "big", "cat", "sat"), target=2)
        (out,) = enc.encode(InputBatch.stack([first, inp]))  # inp's rows start after first's
        s, e = inp.target_span
        got = pool_span(out, [first.target_span, (s, e)]).data[1]
        want = out.positions.data[len(first.ids) + s : len(first.ids) + e].mean(axis=0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_cls_pooling_returns_cls(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(6, "init")))
        (out,) = enc.encode(one(sentence_input(vocab)))
        np.testing.assert_array_equal(pool_span(out, [(1, 2)], pooling="cls").data, out.cls.data)

    def test_empty_span_rejected(self, vocab):
        enc = Encoder(small_cfg(vocab), Draw(Rng(6, "init")))
        (out,) = enc.encode(one(sentence_input(vocab)))
        with pytest.raises(ContractError):
            pool_span(out, [(2, 2)])
        with pytest.raises(ContractError):
            pool_span(out, [(1, 99)])


class TestEncoderGradients:
    """Full-encoder finite-difference check (1 layer, eval mode)."""

    def test_gradients_match_central_differences(self, vocab):
        cfg = small_cfg(vocab, num_layers=1, hidden_dim=8, ffn_dim=16, dropout=0.0)
        enc = Encoder(cfg, Draw(Rng(8, "init")))
        inp = sentence_input(vocab)
        names = sorted(enc.params)
        arrays = [enc.params[n].data.copy() for n in names]
        proj = np.random.default_rng(0).standard_normal((len(inp.ids), 8))

        def build(*tensors):
            for n, t in zip(names, tensors):
                enc.params[n] = t
            (out,) = enc.encode(one(inp))
            return ad.tsum(ad.mul(out.positions, Tensor(proj)))

        check_grads(build, arrays, n_probes=60, rng=np.random.default_rng(9))


class TestCheckpointFile:
    """The binary container format."""

    def test_round_trip_values(self, tmp_path):
        arrays = {
            "a.w": np.arange(6.0).reshape(2, 3),
            "b": np.array(3.5),  # scalar block
        }
        meta = {"kind": "test", "n": 2}
        path = tmp_path / "ck.bin"
        save_checkpoint(path, meta, arrays)
        with open_checkpoint(path) as (meta2, blocks):
            assert meta2 == meta
            assert set(blocks) == set(arrays)
            for k in arrays:
                assert blocks[k].tobytes() == arrays[k].tobytes()
                assert blocks[k].shape == arrays[k].shape

    def test_save_load_save_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {f"p{i}": rng.standard_normal((3, 4)) for i in range(4)}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, {"v": 1}, arrays)
        with open_checkpoint(p1) as (meta, blocks):
            save_checkpoint(p2, meta, blocks)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(FormatError), open_checkpoint(path):
            pass

    def test_truncated_block_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {}, {"w": np.ones((4, 4))})
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(FormatError), open_checkpoint(path):
            pass

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {"v": 1}, {"w": np.ones(3)})
        before = path.read_bytes()
        with pytest.raises(FormatError):  # "a" is written before the bad name is reached
            save_checkpoint(path, {"v": 2}, {"a": np.zeros(4), "bad name": np.zeros(2)})
        assert path.read_bytes() == before
        with open_checkpoint(path) as (meta, _):
            assert meta == {"v": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]

    def test_duplicate_block_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {}, {"w": np.arange(2.0)})
        blob = path.read_bytes()
        block = blob[blob.index(b"param w") : blob.rindex(b"end\n")]
        path.write_bytes(blob.replace(block, block + block))
        with pytest.raises(FormatError, match="'w'"), open_checkpoint(path):
            pass

    @pytest.mark.parametrize("header, message", [
        (b"param b -1", "negative dimension in block 'b'"),
        (b"param b -1 -1", "negative dimension in block 'b'"),
        (b"\xffaram b 2", "expected a param block"),
    ])
    def test_bad_block_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {}, {"a": np.zeros(3), "b": np.ones(2)})
        path.write_bytes(path.read_bytes().replace(b"param b 2", header))
        with pytest.raises(FormatError, match=message), open_checkpoint(path):
            pass

    def test_bytes_after_end_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {}, {"w": np.arange(2.0)})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError), open_checkpoint(path):
            pass

    @pytest.mark.parametrize("cut", [
        lambda blob: b"",
        lambda blob: MAGIC,
        lambda blob: blob[: len(MAGIC) + 5],
        lambda blob: blob[: blob.index(b"param w") + 9],
    ], ids=["empty", "magic-only", "inside-json", "inside-block-header"])
    def test_cut_short_file_rejected(self, tmp_path, cut):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {"v": 1}, {"w": np.ones((2, 3))})
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(FormatError), open_checkpoint(path):
            pass

    def test_loaded_arrays_are_own_copies(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {}, {"w": np.arange(4.0)})
        with open_checkpoint(path) as (_, blocks):
            arrays = {"w": np.array(blocks["w"])}
        path.write_bytes(b"")
        arrays["w"] += 1.0
        assert arrays["w"].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_view_kept_past_the_block_is_an_error(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {}, {"w": np.arange(4.0)})
        with pytest.raises(BufferError):
            with open_checkpoint(path) as (_, blocks):
                kept = blocks["w"]
        assert kept.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_blocks_are_read_only_views(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, {}, {"a": np.zeros((0, 3)), "w": np.arange(6.0).reshape(2, 3)})
        with open_checkpoint(path) as (_, blocks):
            assert list(blocks) == ["a", "w"] and len(blocks) == 2
            assert blocks["a"].shape == (0, 3)
            w = blocks["w"]
            assert w.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]] and not w.flags.writeable
            del w

    def test_encoder_restore_reproduces_outputs(self, vocab, tmp_path):
        cfg = ModelConfig(encoder=small_cfg(vocab))
        model = MetaphorModel(cfg, vocab, seed=11)
        inp = one(sentence_input(vocab))
        want = model.encoder.encode(inp)[0].positions.data.copy()
        path = tmp_path / "model.bin"
        save_checkpoint(path, {"kind": "model", "model": cfg.to_dict()}, model.export_arrays())
        model2 = load_model(path, vocab)
        got = model2.encoder.encode(inp)[0].positions.data
        assert got.tobytes() == want.tobytes()
