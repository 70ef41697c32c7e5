"""Acceptance suite: the ten checks this package must pass end to end.

Each criterion is one test; `pytest -v` therefore prints one pass/fail
line per criterion. Tolerances are pinned here, not imported, so a
regression in the library cannot quietly relax them. The heavyweight
criterion (synthetic learnability) trains the full model at desk scale
and finishes in a few minutes; everything else is seconds.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fdcheck import check_grads

from melbert import autodiff as ad
from melbert.autodiff import Tensor
from melbert.bpe import Vocab, train_bpe
from melbert.data import Instance, load_corpus, make_synthetic_corpus, summarize
from melbert.encoder import EncoderConfig
from melbert.evaluation import evaluate_model, score_predictions
from melbert.heads import (
    bce_loss,
    combine_pair,
    combine_single,
    contrast_head,
    init_head_params,
    interaction_head,
)
from melbert.model import MetaphorModel, ModelConfig, Variant
from melbert.params import Draw
from melbert.rng import Rng
from melbert.training import TrainConfig, lr_at, train_single

from test_heads import declared_head_param_count

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


@contextmanager
def criterion(n: int, name: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {n:02d} FAIL - {name}")
        raise
    print(f"CRITERION {n:02d} PASS - {name}")


SMALL_CORPUS = make_synthetic_corpus(99, 40)
SMALL_VOCAB = train_bpe((" ".join(i.tokens) for i in SMALL_CORPUS), 260)


def small_model(variant=Variant.MELBERT, seed=0, **enc_kw):
    enc = dict(vocab_size=len(SMALL_VOCAB), num_layers=2, num_heads=2,
               hidden_dim=32, ffn_dim=64, dropout=0.0)
    enc.update(enc_kw)
    cfg = ModelConfig(encoder=EncoderConfig(**enc), variant=variant)
    return MetaphorModel(cfg, SMALL_VOCAB, seed=seed)


class _NoCache(dict):
    def __setitem__(self, k, v):
        pass


def test_criterion_01_full_model_gradient_fidelity():
    """Analytic gradients through both towers match finite differences."""
    with criterion(1, "end-to-end gradient fidelity, 200 probes, rel err < 1e-4"):
        t0 = time.time()
        model = small_model()
        instances = SMALL_CORPUS[:3]
        prepared = [model.build_inputs(i) for i in instances]
        labels = np.array([float(i.gold) for i in instances])
        params = model.parameters()
        names = sorted(params)
        arrays = [params[n].data.copy() for n in names]

        def build(*tensors):
            for n, t in zip(names, tensors):
                if n.startswith("enc."):
                    model.encoder.params[n[4:]] = t
                else:
                    setattr(model.heads, n[5:].replace(".", "_"), t)
            # one batch: ids of lengths 10, 12 and 12, the target "sail" twice
            logits = model.logit_batch([s for s, _ in prepared], [g for _, g in prepared])
            return bce_loss(logits, labels, pos_weight=2.0)

        model._target_cache = _NoCache()
        check_grads(build, arrays, n_probes=200, rng=np.random.default_rng(2024),
                    tol=1e-4, h=1e-4)
        assert time.time() - t0 < 120.0


def test_criterion_02_head_formula_oracles():
    """Head and combiner outputs equal their direct numpy formulas."""
    with criterion(2, "head formulas match independent oracles at 1e-12 over 1000 cases"):
        d, h = 24, 16

        def np_gelu(x):
            return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))

        def np_sigmoid(x):
            return 1.0 / (1.0 + np.exp(-x))

        hp = init_head_params(Variant.MELBERT, d, h, Draw(Rng(5, "acceptance-heads")))
        rng = np.random.default_rng(55)
        for _ in range(1000):
            v_s = rng.standard_normal(d)
            v_st = rng.standard_normal(d)
            v_t = rng.standard_normal(d)
            h_f = interaction_head(Tensor(v_st[None]), Tensor(v_t[None]), hp)
            h_g = contrast_head(Tensor(v_s[None]), Tensor(v_st[None]), hp)
            y = ad.sigmoid(combine_pair(h_f, h_g, hp))

            want_f = np_gelu(np.concatenate([v_st, v_t]) @ hp.f_w.data + hp.f_b.data)
            want_g = np_gelu(np.concatenate([v_s, v_st]) @ hp.g_w.data + hp.g_b.data)
            want_y = np_sigmoid(np.concatenate([want_f, want_g]) @ hp.w.data + hp.b.data)
            np.testing.assert_allclose(h_f.data[0], want_f, atol=1e-12, rtol=0)
            np.testing.assert_allclose(h_g.data[0], want_g, atol=1e-12, rtol=0)
            np.testing.assert_allclose(y.data[0], want_y, atol=1e-12, rtol=0)

        hp1 = init_head_params(Variant.SEQ, d, h, Draw(Rng(6, "acceptance-heads")))
        for _ in range(1000):
            v = rng.standard_normal(d)
            got = ad.sigmoid(combine_single(Tensor(v[None]), hp1)).data[0]
            want = np_sigmoid(v @ hp1.w.data + hp1.b.data)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_criterion_03_synthetic_learnability():
    """The full model reaches F1 >= 0.90 on held-out synthetic data."""
    with criterion(3, "synthetic end-to-end F1 >= 0.90 within 20 epochs"):
        t0 = time.time()
        train_set = make_synthetic_corpus(101, 2000)
        heldout = make_synthetic_corpus(202, 500)
        vocab = train_bpe((" ".join(i.tokens) for i in train_set), 400)

        def harness(variant):
            enc = EncoderConfig(vocab_size=len(vocab), num_layers=2, num_heads=2,
                                hidden_dim=64, ffn_dim=256, dropout=0.0, init_std=0.1)
            cfg = ModelConfig(encoder=enc, variant=variant)
            tc = TrainConfig(epochs=20, batch_size=8, peak_lr=1e-3,
                             warmup_fraction=1 / 6, grad_clip=1.0)
            curve = []

            def stop_when_solved(epoch, model, losses):
                curve.append(evaluate_model(model, heldout).overall.f1)
                return curve[-1] >= 0.95

            train_single(cfg, vocab, train_set, tc, seed=0, after_epoch=stop_when_solved)
            best = max(curve)
            print(f"  {variant.value}: best F1 {best:.4f} after {len(curve)} epochs")
            return best

        best_full = harness(Variant.MELBERT)
        # the baselines complete the identical protocol; their scores are
        # reported for inspection, not asserted
        harness(Variant.SEQ)
        harness(Variant.BASE_ALL2ALL)
        assert best_full >= 0.90
        assert time.time() - t0 < 600.0


def test_criterion_04_ablation_dead_parameters():
    """Ablated variants neither allocate nor react to the dropped head."""
    with criterion(4, "dead parameters are absent, inert when injected, and counts audit"):
        # injection: a no_mip model must be bitwise blind to interaction params
        model = small_model(Variant.NO_MIP, seed=1)
        probe = SMALL_CORPUS[0]
        before = model.predict(probe).score
        rng = Rng(81, "inject")
        model.heads.f_w = Tensor(rng.normal((64, 32)), requires_grad=True)
        model.heads.f_b = Tensor(rng.normal((32,)), requires_grad=True)
        model.mark_updated()
        assert np.float64(model.predict(probe).score).tobytes() == np.float64(before).tobytes()

        model = small_model(Variant.NO_SPV, seed=1)
        before = model.predict(probe).score
        model.heads.g_w = Tensor(rng.normal((64, 32)), requires_grad=True)
        model.heads.g_b = Tensor(rng.normal((32,)), requires_grad=True)
        model.mark_updated()
        assert np.float64(model.predict(probe).score).tobytes() == np.float64(before).tobytes()

        # audit: every variant carries exactly its declared head parameters
        for variant in Variant:
            m = small_model(variant)
            d = m.cfg.encoder.hidden_dim
            declared = declared_head_param_count(variant.value, d, m.cfg.resolved_head_dim)
            assert sum(t.data.size for t in m.heads.named().values()) == declared, variant.value
            if variant in (Variant.NO_MIP, Variant.BASE_ALL2ALL, Variant.SEQ):
                assert m.heads.f_w is None
            if variant in (Variant.NO_SPV, Variant.BASE_ALL2ALL, Variant.SEQ):
                assert m.heads.g_w is None


def test_criterion_05_target_vector_cache():
    """10 distinct targets over 100 instances cost exactly 10 target passes."""
    with criterion(5, "target cache: 10 passes for 100 instances, scores bitwise equal"):
        targets = ["river", "stone", "song", "drum", "plough", "harvest",
                   "wave", "chord", "field", "current"]
        contexts = [("the", "old", "%s", "slept"), ("a", "%s", "was", "found"),
                    ("we", "saw", "the", "%s"), ("the", "%s", "kept", "going"),
                    ("no", "%s", "lasts", "forever"), ("that", "%s", "again"),
                    ("every", "%s", "counts"), ("my", "%s", "broke"),
                    ("the", "%s", "sang", "loudly"), ("such", "a", "%s")]
        instances = []
        for t_i, target in enumerate(targets):
            for c_i, ctx in enumerate(contexts):
                tokens = tuple(w if w != "%s" else target for w in ctx)
                instances.append(Instance(
                    sentence_id=f"cache-{t_i}-{c_i}", tokens=tokens,
                    target_index=tokens.index(target), label=float((t_i + c_i) % 2),
                    pos_tag="NOUN",
                ))
        assert len(instances) == 100
        vocab = train_bpe((" ".join(i.tokens) for i in instances), 300)

        enc = EncoderConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                            hidden_dim=16, ffn_dim=32, dropout=0.0)
        model = MetaphorModel(ModelConfig(encoder=enc), vocab, seed=3)
        cached_scores = [model.predict(i).score for i in instances]
        assert model.counters.sentence == 100
        assert model.counters.target == 10
        assert model.counters.target_cache_hits == 90

        fresh = MetaphorModel(ModelConfig(encoder=enc), vocab, seed=3)
        fresh._target_cache = _NoCache()
        plain_scores = [fresh.predict(i).score for i in instances]
        assert fresh.counters.target == 100
        assert np.array_equal(np.array(cached_scores), np.array(plain_scores))


def test_criterion_06_metric_oracle():
    """F1 agrees with hand counts and a direct-formula oracle."""
    with criterion(6, "metrics: hand case F1 = 0.6667 +- 1e-4, 1000 random agreements"):
        pred = [1, 1, 1, 1, 0, 0] + [0] * 4
        gold = [1, 1, 1, 0, 1, 1] + [0] * 4
        r = score_predictions(pred, gold)
        assert (r.tp, r.fp, r.fn) == (3, 1, 2)
        assert abs(r.f1 - 0.6667) < 1e-4

        rng = np.random.default_rng(66)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            p = rng.integers(0, 2, size=n).tolist()
            g = rng.integers(0, 2, size=n).tolist()
            rep = score_predictions(p, g)
            tp = sum(1 for a, b in zip(p, g) if a == 1 and b == 1)
            fp = sum(1 for a, b in zip(p, g) if a == 1 and b == 0)
            fn = sum(1 for a, b in zip(p, g) if a == 0 and b == 1)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert abs(rep.f1 - f1) < 1e-12
            assert abs(rep.precision - prec) < 1e-12
            assert abs(rep.recall - rec) < 1e-12


def test_criterion_07_lr_schedule_endpoints():
    """Warmup and decay endpoints are exact, not approximate."""
    with criterion(7, "lr schedule: exact 0 -> peak -> 0"):
        cfg = TrainConfig(peak_lr=7e-4, warmup_fraction=2.0 / 3.0)
        assert lr_at(0, 300, cfg) == 0.0
        assert lr_at(200, 300, cfg) == 7e-4
        assert lr_at(300, 300, cfg) == 0.0
        # linear in both segments
        assert lr_at(50, 300, cfg) == pytest.approx(7e-4 / 4, rel=1e-15)
        assert lr_at(275, 300, cfg) == pytest.approx(7e-4 / 4, rel=1e-15)


def test_criterion_08_determinism_and_resume(tmp_path):
    """Same seed twice is bitwise equal; interrupt + resume changes nothing."""
    with criterion(8, "bitwise determinism and bitwise resume"):
        enc = EncoderConfig(vocab_size=len(SMALL_VOCAB), num_layers=1, num_heads=2,
                            hidden_dim=16, ffn_dim=32, dropout=0.2)
        cfg = ModelConfig(encoder=enc)
        tc = TrainConfig(epochs=4, batch_size=8)

        a = train_single(cfg, SMALL_VOCAB, SMALL_CORPUS, tc, seed=9)
        b = train_single(cfg, SMALL_VOCAB, SMALL_CORPUS, tc, seed=9)
        assert a.loss_curve == b.loss_curve
        for name, arr in a.model.export_arrays().items():
            assert np.array_equal(arr, b.model.export_arrays()[name]), name

        ckpt = tmp_path / "interrupted.ckpt"
        train_single(cfg, SMALL_VOCAB, SMALL_CORPUS, tc, seed=9,
                     checkpoint_path=ckpt, after_epoch=lambda epoch, *_: epoch + 1 >= 2)
        resumed = train_single(cfg, SMALL_VOCAB, SMALL_CORPUS, tc, seed=9,
                               resume_from=ckpt)
        assert resumed.loss_curve == a.loss_curve
        for name, arr in resumed.model.export_arrays().items():
            assert np.array_equal(arr, a.model.export_arrays()[name]), name


def test_criterion_09_tokenizer_round_trip(tmp_path):
    """Encoding inverts, the first merge is the right one, files round-trip."""
    with criterion(9, "tokenizer: lossless round trip and deterministic merges"):
        texts = [" ".join(i.tokens) for i in SMALL_CORPUS[:20]]
        for text in texts:
            assert SMALL_VOCAB.decode(SMALL_VOCAB.encode(text)) == text

        tiny = train_bpe(["aaab"], 30)
        assert tiny.merges[0] == ("a", "a")
        pieces = [tiny.id_to_token[i] for i in tiny.encode_word("aaab", initial=True)]
        assert pieces == ["aa", "a", "b"]

        path = tmp_path / "vocab.txt"
        SMALL_VOCAB.save(path)
        reloaded = Vocab.load(path)
        assert reloaded == SMALL_VOCAB
        again = tmp_path / "vocab2.txt"
        reloaded.save(again)
        assert path.read_bytes() == again.read_bytes()


VUA_PATH = os.path.join(DATA_DIR, "vua18_train.tsv")
MOHX_PATH = os.path.join(DATA_DIR, "mohx.tsv")


@pytest.mark.skipif(
    not (os.path.isfile(VUA_PATH) and os.path.isfile(MOHX_PATH)),
    reason="real corpora not bundled; place vua18_train.tsv and mohx.tsv under data/ "
           "in the interchange format to enable this check",
)
def test_criterion_10_published_corpus_statistics():
    """User-supplied real corpora match their published statistics."""
    with criterion(10, "published corpus statistics reproduce"):
        vua = summarize(load_corpus(VUA_PATH).instances)
        assert vua.token_count == 116622
        assert abs(vua.metaphor_pct - 11.2) < 0.05
        mohx = summarize(load_corpus(MOHX_PATH).instances)
        assert mohx.token_count == 647
        assert abs(mohx.metaphor_pct - 48.7) < 0.05
