"""Variant wiring: routing, dead parameters, caching, determinism."""

import hashlib

import numpy as np
import pytest

from fdcheck import check_grads

import melbert.model
from melbert import autodiff as ad
from melbert.autodiff import Tape, Tensor
from melbert.bpe import train_bpe
from melbert.data import Instance, make_synthetic_corpus
from melbert.encoder import EncoderConfig
from melbert.errors import ContractError
from melbert.heads import bce_loss
from melbert.model import MetaphorModel, ModelConfig, Prediction, Variant
from melbert.rng import Rng

from test_heads import declared_head_param_count

CORPUS = make_synthetic_corpus(99, 40)


@pytest.fixture(scope="module")
def vocab():
    return train_bpe([" ".join(i.tokens) for i in CORPUS], vocab_size=260)


def make_model(vocab, variant=Variant.MELBERT, seed=0, **enc_kw):
    enc = dict(vocab_size=len(vocab), num_layers=2, num_heads=2, hidden_dim=16, ffn_dim=32)
    enc.update(enc_kw)
    cfg = ModelConfig(encoder=EncoderConfig(**enc), variant=variant)
    return MetaphorModel(cfg, vocab, seed=seed)


class TestScoring:
    """All five variants produce calibrated scalars."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_score_in_open_interval(self, vocab, variant):
        model = make_model(vocab, variant)
        for inst in CORPUS[:5]:
            p = model.predict(inst)
            assert isinstance(p, Prediction)
            assert 0.0 < p.score < 1.0
            assert p.label in (0, 1)

    def test_score_depends_on_sentence(self, vocab):
        model = make_model(vocab)
        a = model.predict(CORPUS[0]).score
        b = model.predict(CORPUS[1]).score
        assert a != b

    def test_same_sentence_different_target_recomputed(self, vocab):
        model = make_model(vocab)
        toks = ("the", "river", "saw", "the", "violin", "by", "the", "lake")
        first = Instance("s", toks, 1, 0.0, "NOUN")
        second = Instance("s", toks, 4, 1.0, "NOUN")
        before = model.counters.sentence
        sa = model.predict(first).score
        sb = model.predict(second).score
        assert model.counters.sentence == before + 2
        assert sa != sb

    def test_deterministic_across_fresh_models(self, vocab):
        a = make_model(vocab, seed=3).predict(CORPUS[0]).score
        b = make_model(vocab, seed=3).predict(CORPUS[0]).score
        assert a == b

    def test_seed_changes_params(self, vocab):
        a = make_model(vocab, seed=3)
        b = make_model(vocab, seed=4)
        assert a.parameters()["enc.emb.tok"].data.tobytes() != b.parameters()["enc.emb.tok"].data.tobytes()


class TestBatchedScoring:
    """A batch scores its instances as they score one at a time."""

    INSTANCES = CORPUS[:8]  # ids of length 10, 11 and 12; the target "sail" three times

    @pytest.mark.parametrize("variant", list(Variant))
    def test_mixed_length_batch_matches_one_at_a_time(self, vocab, variant):
        batched = make_model(vocab, variant, seed=5)
        prepared = [batched.build_inputs(i) for i in self.INSTANCES]
        assert len({len(s.ids) for s, _ in prepared}) >= 3
        assert len({i.target_word for i in self.INSTANCES}) < len(self.INSTANCES)
        got = ad.sigmoid(batched.logit_batch([s for s, _ in prepared], [g for _, g in prepared])).data

        single = make_model(vocab, variant, seed=5)
        want = np.array([single.predict(i).score for i in self.INSTANCES])
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
        assert batched.counters == single.counters

    def test_train_mode_batch_is_deterministic(self, vocab):
        model = make_model(vocab)
        prepared = [model.build_inputs(i) for i in self.INSTANCES]
        sents, tgts = [s for s, _ in prepared], [g for _, g in prepared]
        a = model.logit_batch(sents, tgts, rng=Rng(4, "drop")).data
        b = model.logit_batch(sents, tgts, rng=Rng(4, "drop")).data
        assert a.tobytes() == b.tobytes()
        assert model.counters.target == 2 * len(prepared)  # training never reads the cache

    def test_misaligned_batch_rejected(self, vocab):
        model = make_model(vocab)
        sent, tgt = model.build_inputs(CORPUS[0])
        with pytest.raises(ContractError):
            model.logit_batch([sent, sent], [tgt])
        with pytest.raises(ContractError):
            model.logit_batch([], [])


class TestHeadOrder:
    """A training pass calls exactly its variant's heads, in declared order.

    Each head draws its dropout mask from the pass's rng when it is called,
    so this order is the order of the draws, and so of the trained numbers.
    """

    CALLS = {
        Variant.MELBERT: ["interaction_head", "contrast_head", "combine_pair"],
        Variant.NO_SPV: ["interaction_head", "combine_single"],
        Variant.NO_MIP: ["contrast_head", "combine_single"],
        Variant.SEQ: ["combine_single"],
        Variant.BASE_ALL2ALL: ["combine_single"],
    }

    @pytest.mark.parametrize("variant", list(Variant))
    def test_calls(self, vocab, variant, monkeypatch):
        rng = Rng(6, "drop")
        calls = []

        def recorder(name, fn):
            def call(*args):
                if name.endswith("_head"):
                    assert args[-2:] == (0.1, rng)  # the pass's dropout and stream
                calls.append(name)
                return fn(*args)
            return call

        for name in ("interaction_head", "contrast_head", "combine_pair", "combine_single"):
            monkeypatch.setattr(melbert.model, name, recorder(name, getattr(melbert.model, name)))
        model = make_model(vocab, variant, dropout=0.1)
        prepared = [model.build_inputs(i) for i in CORPUS[:4]]
        logits = model.logit_batch([s for s, _ in prepared], [g for _, g in prepared], rng=rng)
        assert calls == self.CALLS[variant]
        assert logits.shape == (4,)


class TestPinnedEvalScores:
    """Evaluation scores of seed-0 models are pinned bit for bit.

    Each digest is the SHA-256 of every score below, in order, as float64
    bytes. The sequence mixes single predictions and batches, cold and
    warm cache rows, and targets repeated inside a batch ("sail" appears
    three times in CORPUS[:8]). In SHORT, each sentence is as long as a
    target of its pack (5 and 12 ids), so attention groups the two kinds
    together. A changed digest means evaluation output changed, not just
    drifted within a tolerance.
    """

    SHORT = [Instance("short-1", ("the", "sail"), 1, 0.0, "NOUN"),
             Instance("short-2", ("the", "shipwrights", "sail"), 1, 1.0, "NOUN")]
    SCORES_SHA256 = {
        "melbert": "e4a18aeab593e7e7bc270a954772cf2bad41bcdf8a0543c33bdc680e2cb941a6",
        "no_mip": "3b6b1456d0965bf9ce317bfa7d4a9320118a7d960acf038ad2e45a684c437e28",
        "no_spv": "405a4e1f78434b274a0d424630e34025fec284c35dd32535b0ab4e5f67b502fc",
        "base_all2all": "f1b228b68a3629ea9b76064c360a3eca84e2cb96babefd9ba7670f4b48438cbe",
        "seq": "1a2cbb0d9a00c0063839567d7d4125afe331294d99e3d619a357207ce51be8c0",
        "melbert/cls": "06ac10ba61016df20e560bf3ddcf47b0b3b4c418265b86d42f23fcaf686b2f46",
    }

    @classmethod
    def scores(cls, model) -> np.ndarray:
        def batch(instances):
            prepared = [model.build_inputs(i) for i in instances]
            return list(ad.sigmoid(model.logit_batch([s for s, _ in prepared], [g for _, g in prepared])).data)

        out = [model.predict(i).score for i in CORPUS[:3]]  # cold, one at a time
        out += batch(CORPUS[:8])                              # 3 warm rows, a repeated target
        out += batch(CORPUS[8:9])                             # cold batch of one
        for start in range(9, 40, 7):                         # cold and warm rows mixed
            out += batch(CORPUS[start:start + 7])
        out += [model.predict(cls.SHORT[0]).score]            # 5-id sentence, 5-id target
        out += batch([cls.SHORT[1], *CORPUS[:4]])             # 12-id target, 12-id sentences
        out += [model.predict(i).score for i in CORPUS[::9]]  # warm, one at a time
        return np.array(out)

    @pytest.mark.parametrize("key", list(SCORES_SHA256))
    def test_scores_digest(self, vocab, key):
        name, _, pooling = key.partition("/")
        enc = EncoderConfig(vocab_size=len(vocab), num_layers=2, num_heads=2, hidden_dim=16, ffn_dim=32)
        cfg = ModelConfig(encoder=enc, variant=Variant(name), target_pooling=pooling or "mean")
        digest = hashlib.sha256(self.scores(MetaphorModel(cfg, vocab, seed=0)).tobytes()).hexdigest()
        assert digest == self.SCORES_SHA256[key]


class TestDeadParameters:
    """Ablated variants must ignore the other head's parameters exactly."""

    def test_no_spv_ignores_contrast_head(self, vocab):
        model = make_model(vocab, Variant.NO_SPV, seed=1)
        before = model.predict(CORPUS[0]).score
        # inject contrast-head parameters; the no_spv path must never read them
        rng = Rng(77, "inject")
        model.heads.g_w = Tensor(rng.normal((32, 16)), requires_grad=True)
        model.heads.g_b = Tensor(rng.normal((16,)), requires_grad=True)
        model.mark_updated()
        after = model.predict(CORPUS[0]).score
        assert np.float64(before).tobytes() == np.float64(after).tobytes()

    def test_no_mip_ignores_interaction_head(self, vocab):
        model = make_model(vocab, Variant.NO_MIP, seed=1)
        before = model.predict(CORPUS[0]).score
        rng = Rng(78, "inject")
        model.heads.f_w = Tensor(rng.normal((32, 16)), requires_grad=True)
        model.heads.f_b = Tensor(rng.normal((16,)), requires_grad=True)
        model.mark_updated()
        after = model.predict(CORPUS[0]).score
        assert np.float64(before).tobytes() == np.float64(after).tobytes()

    def test_perturbing_live_parameters_does_change_output(self, vocab):
        model = make_model(vocab, Variant.NO_SPV, seed=1)
        before = model.predict(CORPUS[0]).score
        # a uniform shift of f_w is invisible (layer-normed inputs sum to
        # zero), so bump a single coordinate
        model.heads.f_w.data[0, 0] += 0.25
        model.mark_updated()
        assert model.predict(CORPUS[0]).score != before

    @pytest.mark.parametrize("variant", list(Variant))
    def test_param_count_audit(self, vocab, variant):
        model = make_model(vocab, variant)
        d = model.cfg.encoder.hidden_dim
        h = model.cfg.resolved_head_dim
        head_count = sum(t.data.size for t in model.heads.named().values())
        assert head_count == declared_head_param_count(variant.value, d, h)
        enc_count = sum(t.data.size for t in model.encoder.params.values())
        assert model.param_count() == enc_count + head_count


class TestTargetCache:
    """Per-id-sequence caching of the context-free target vector."""

    def test_distinct_targets_encoded_once_each(self, vocab):
        model = make_model(vocab)
        instances = CORPUS[:30]
        distinct = {model.build_inputs(i)[1].ids for i in instances}
        for inst in instances:
            model.predict(inst)
        assert model.counters.target == len(distinct)
        assert model.counters.target_cache_hits == len(instances) - len(distinct)

    def test_cached_vector_bitwise_equals_fresh(self, vocab):
        model = make_model(vocab, Variant.NO_SPV)  # the score reads the target vector through one head
        sent, tgt = model.build_inputs(CORPUS[0])
        s1 = model.logit_batch([sent], [tgt]).data.copy()  # miss
        s2 = model.logit_batch([sent], [tgt]).data.copy()  # hit
        model.mark_updated()
        s3 = model.logit_batch([sent], [tgt]).data.copy()  # recomputed
        assert s1.tobytes() == s2.tobytes() == s3.tobytes()
        assert (model.counters.target, model.counters.target_cache_hits) == (2, 1)

    def test_rng_alone_decides_the_pass_kind(self, vocab):
        # without dropout the two kinds of pass score alike; only their use of the cache differs
        model = make_model(vocab, dropout=0.0)
        # one instance per target, so both passes encode the same rows
        distinct = {tgt.ids: (sent, tgt) for sent, tgt in map(model.build_inputs, CORPUS[:30])}
        sents, tgts = [s for s, _ in distinct.values()], [g for _, g in distinct.values()]
        trained = model.logit_batch(sents, tgts, rng=Rng(0)).data.copy()
        assert model.counters.target == len(tgts) and model._target_cache == {}
        evaluated = model.logit_batch(sents, tgts).data
        assert model._target_cache.keys() == distinct.keys()
        model.logit_batch(sents, tgts, rng=Rng(0))  # nor is a full cache read
        assert model.counters.target == 3 * len(tgts) and model.counters.target_cache_hits == 0
        assert trained.tobytes() == evaluated.tobytes()

    def test_invalidation_on_update(self, vocab):
        model = make_model(vocab)
        model.predict(CORPUS[0])
        n = model.counters.target
        model.predict(CORPUS[0])
        assert model.counters.target == n  # cache hit
        model.parameters()["enc.emb.tok"].data += 0.01
        model.mark_updated()
        model.predict(CORPUS[0])
        assert model.counters.target == n + 1  # recomputed after update

    def test_baselines_make_single_pass(self, vocab):
        for variant in (Variant.BASE_ALL2ALL, Variant.SEQ, Variant.NO_MIP):
            model = make_model(vocab, variant)
            model.predict(CORPUS[0])
            assert model.counters.sentence == 1
            assert model.counters.target == 0


class TestEndToEndGradient:
    """Finite differences through both towers, heads, and the loss."""

    def test_melbert_loss_gradients(self, vocab):
        model = make_model(vocab, hidden_dim=8, ffn_dim=16, num_layers=1, dropout=0.0)
        instances = CORPUS[:3]
        prepared = [model.build_inputs(i) for i in instances]
        labels = np.array([float(i.gold) for i in instances])
        params = model.parameters()
        names = sorted(params)
        arrays = [params[n].data.copy() for n in names]

        def build(*tensors):
            live = model.parameters()
            for n, t in zip(names, tensors):
                if n.startswith("enc."):
                    model.encoder.params[n[4:]] = t
                else:
                    setattr(model.heads, n[5:].replace(".", "_"), t)
            logits = model.logit_batch([s for s, _ in prepared], [g for _, g in prepared])
            return bce_loss(logits, labels, pos_weight=2.0)

        # eval-mode scoring caches target vectors; disable to keep grads exact
        model._target_cache = _NoCache()
        check_grads(build, arrays, n_probes=50, rng=np.random.default_rng(12))


class _NoCache(dict):
    def __setitem__(self, k, v):  # never retain
        pass
