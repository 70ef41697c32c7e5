"""Tensor op forward oracles and reverse-mode gradient checks."""

import gc

import numpy as np
import pytest

from fdcheck import check_grads, rel_err

from melbert import autodiff as ad
from melbert.autodiff import Tape, Tensor
from melbert.errors import ConfigError, ContractError, DimensionError, VocabError
from melbert.rng import Rng


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent O(n^3) oracle for 2-D matrix product."""
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmulForward:
    """Matrix product against a triple-loop oracle."""

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        got = ad.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, triple_loop_matmul(a, b), atol=1e-12, rtol=0)

    def test_batched_matches_per_slice_oracle(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((4, 3, 6))
        b = rng.standard_normal((4, 6, 2))
        got = ad.matmul(Tensor(a), Tensor(b)).data
        want = np.stack([triple_loop_matmul(a[i], b[i]) for i in range(4)])
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_vectors_rejected(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestSoftmaxForward:
    """Softmax against a direct exp/sum oracle."""

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(44)
        x = rng.standard_normal((6, 9)) * 3
        got = ad.softmax(Tensor(x), axis=-1).data
        want = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(45)
        x = rng.standard_normal((8, 5)) * 50  # large magnitudes need the max shift
        s = ad.softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(8), atol=1e-6, rtol=0)
        assert (s >= 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal((3, 4))
        a = ad.softmax(Tensor(x), axis=-1).data
        b = ad.softmax(Tensor(x + 123.0), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)

    def test_invalid_axis(self):
        with pytest.raises(ContractError):
            ad.softmax(Tensor(np.zeros((2, 2))), axis=5)


class TestLayerNormForward:
    """Layer norm against a two-pass mean/variance oracle."""

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((5, 12)) * 4 + 1
        gain = rng.standard_normal(12)
        bias = rng.standard_normal(12)
        got = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)  # biased variance
        want = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
        np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)

    def test_normalized_rows_standardized(self):
        rng = np.random.default_rng(48)
        x = rng.standard_normal((7, 16)) * 9
        out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_gain_shape_checked(self):
        with pytest.raises(DimensionError):
            ad.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestPointwiseForward:
    """Spot values for the scalar nonlinearities."""

    def test_gelu_fixed_points(self):
        out = ad.gelu(Tensor(np.array([0.0]))).data
        np.testing.assert_allclose(out, [0.0], atol=1e-15)
        # tanh approximation at x=1: 0.5 * (1 + tanh(sqrt(2/pi) * 1.044715))
        want = 0.5 * (1 + np.tanh(np.sqrt(2 / np.pi) * (1 + 0.044715)))
        np.testing.assert_allclose(ad.gelu(Tensor(np.array([1.0]))).data, [want], atol=1e-12)

    def test_sigmoid_fixed_points(self):
        np.testing.assert_allclose(ad.sigmoid(Tensor(np.array([0.0]))).data, [0.5], atol=1e-15)

    def test_sigmoid_stays_in_open_interval(self):
        out = ad.sigmoid(Tensor(np.array([-1000.0, 1000.0]))).data
        assert 0.0 < out[0] < 1.0 and 0.0 < out[1] < 1.0

    def test_sigmoid_stable_at_large_negative(self):
        # naive 1/(1+exp(-x)) overflows near x = -1000; ours must not warn
        with np.errstate(over="raise"):
            ad.sigmoid(Tensor(np.array([-1000.0])))

    def test_softplus_matches_direct_formula(self):
        x = np.linspace(-20.0, 20.0, 81)
        np.testing.assert_allclose(ad.softplus(Tensor(x)).data, np.log1p(np.exp(x)), atol=1e-12, rtol=1e-12)

    def test_softplus_finite_with_logistic_gradient_at_extremes(self):
        x = Tensor(np.array([-1e6, -700.0, -30.0, 30.0, 700.0, 1e6]), requires_grad=True)
        with np.errstate(over="raise", divide="raise", invalid="raise"), Tape():
            out = ad.softplus(x)
            loss = ad.tsum(out)
        ad.backward(loss)
        # where e^x overflows, log(1 + e^x) is x to double precision
        want = [0.0, *np.log1p(np.exp([-700.0, -30.0, 30.0, 700.0])), 1e6]
        np.testing.assert_allclose(out.data, want, rtol=1e-14, atol=0)
        # the gradient is sigma(x): 0 only where e^x underflows
        want = [0.0, *(1.0 / (1.0 + np.exp([700.0, 30.0, -30.0, -700.0]))), 1.0]
        np.testing.assert_allclose(x.grad, want, rtol=1e-14, atol=0)
        assert x.grad[0] == 0.0 and (x.grad[1:] > 0.0).all()


class TestDropout:
    """Inverted dropout semantics."""

    def test_eval_is_identity(self):
        x = Tensor(np.arange(6.0))
        out = ad.dropout(x, 0.2)
        np.testing.assert_array_equal(out.data, x.data)

    def test_survival_rate(self):
        rng = Rng(0, "droptest")
        x = Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.2, rng=rng).data
        survived = (out != 0).mean()
        assert abs(survived - 0.8) < 0.01

    def test_survivors_rescaled(self):
        rng = Rng(1, "droptest")
        out = ad.dropout(Tensor(np.ones(1000)), 0.2, rng=rng).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.8, atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1])
    def test_rate_out_of_range(self, p):
        with pytest.raises(ConfigError):
            ad.dropout(Tensor(np.ones(3)), p, rng=Rng(0))


class TestGradientChecks:
    """Central finite differences vs the taped backward, per op."""

    def setup_method(self):
        self.rng = np.random.default_rng(1234)

    def _probe(self, build, arrays, n=100):
        check_grads(build, arrays, n_probes=n, rng=self.rng)

    def test_add_broadcast(self):
        w = self.rng.standard_normal((5, 4))
        self._probe(
            lambda a, b: ad.tsum(ad.mul(ad.add(a, b), Tensor(w))),
            [self.rng.standard_normal((5, 4)), self.rng.standard_normal(4)],
        )

    def test_sub_div_mul(self):
        w = self.rng.standard_normal((3, 4))
        self._probe(
            lambda a, b, c: ad.tsum(ad.mul(ad.div(ad.sub(a, b), c), Tensor(w))),
            [
                self.rng.standard_normal((3, 4)),
                self.rng.standard_normal((3, 4)),
                self.rng.standard_normal((3, 4)) + 3.0,
            ],
        )

    def test_matmul_2d(self):
        w = self.rng.standard_normal((5, 2))
        self._probe(
            lambda a, b: ad.tsum(ad.mul(ad.matmul(a, b), Tensor(w))),
            [self.rng.standard_normal((5, 3)), self.rng.standard_normal((3, 2))],
        )

    def test_matmul_batched(self):
        w = self.rng.standard_normal((2, 4, 3))
        self._probe(
            lambda a, b: ad.tsum(ad.mul(ad.matmul(a, b), Tensor(w))),
            [self.rng.standard_normal((2, 4, 5)), self.rng.standard_normal((2, 5, 3))],
        )

    def test_softmax(self):
        w = self.rng.standard_normal((4, 6))
        self._probe(
            lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=-1), Tensor(w))),
            [self.rng.standard_normal((4, 6)) * 2],
        )

    def test_layer_norm(self):
        w = self.rng.standard_normal((4, 8))
        self._probe(
            lambda x, g, b: ad.tsum(ad.mul(ad.layer_norm(x, g, b), Tensor(w))),
            [
                self.rng.standard_normal((4, 8)) * 2,
                self.rng.standard_normal(8),
                self.rng.standard_normal(8),
            ],
        )

    def test_gelu(self):
        w = self.rng.standard_normal(50)
        self._probe(
            lambda x: ad.tsum(ad.mul(ad.gelu(x), Tensor(w))),
            [self.rng.standard_normal(50) * 2],
        )

    def test_sigmoid_log_exp(self):
        w = self.rng.standard_normal(20)
        self._probe(
            lambda x: ad.tsum(ad.mul(ad.log(ad.sigmoid(x)), Tensor(w))),
            [self.rng.standard_normal(20)],
        )
        self._probe(
            lambda x: ad.tsum(ad.exp(x)),
            [self.rng.standard_normal(10)],
        )

    def test_softplus(self):
        w = self.rng.standard_normal(20)
        self._probe(
            lambda x: ad.tsum(ad.mul(ad.softplus(x), Tensor(w))),
            [self.rng.standard_normal(20) * 4],
        )

    def test_clip_interior(self):
        # probe points away from the clip boundaries where the derivative exists
        x = np.clip(self.rng.standard_normal(30), -1.5, 1.5)
        self._probe(lambda t: ad.tsum(ad.clip(t, -2.0, 2.0)), [x])

    def test_reductions(self):
        w1 = self.rng.standard_normal(4)
        self._probe(
            lambda x: ad.tsum(ad.mul(ad.tmean(x, axis=0), Tensor(w1))),
            [self.rng.standard_normal((6, 4))],
        )
        w2 = self.rng.standard_normal((3, 1))
        self._probe(
            lambda x: ad.tsum(ad.mul(ad.tsum(x, axis=1, keepdims=True), Tensor(w2))),
            [self.rng.standard_normal((3, 5))],
        )

    def test_shape_ops(self):
        w = self.rng.standard_normal((2, 6))
        self._probe(
            lambda x: ad.tsum(ad.mul(ad.reshape(ad.transpose(x), (2, 6)), Tensor(w))),
            [self.rng.standard_normal((4, 3))],
        )

    def test_concat_getitem(self):
        w = self.rng.standard_normal((5, 3))
        self._probe(
            lambda a, b: ad.tsum(ad.mul(ad.concat([a, b], axis=0), Tensor(w))),
            [self.rng.standard_normal((2, 3)), self.rng.standard_normal((3, 3))],
        )
        self._probe(
            lambda x: ad.tsum(x[1:3]),
            [self.rng.standard_normal((5, 4))],
        )

    def test_split(self):
        w1, w3 = self.rng.standard_normal((2, 3)), self.rng.standard_normal((3, 3))

        def f(x):
            a, b, c = ad.split(x, [2, 1, 3])  # b is unused: its rows get zero gradient
            return ad.add(ad.tsum(ad.mul(a, Tensor(w1))), ad.tsum(ad.mul(ad.gelu(c), Tensor(w3))))

        self._probe(f, [self.rng.standard_normal((6, 3))])

    def test_split_inverts_concat(self):
        a, b = self.rng.standard_normal((2, 3)), self.rng.standard_normal((4, 3))
        got = ad.split(ad.concat([Tensor(a), Tensor(b)], axis=0), [2, 4])
        assert [t.data.tobytes() for t in got] == [a.tobytes(), b.tobytes()]
        with pytest.raises(ContractError):
            ad.split(Tensor(a), [1, 2])

    def test_embedding(self):
        ids = np.array([0, 2, 2, 1])
        w = self.rng.standard_normal((4, 3))
        self._probe(
            lambda table: ad.tsum(ad.mul(ad.embedding(table, ids), Tensor(w))),
            [self.rng.standard_normal((5, 3))],
        )

    def test_dropout_with_replayed_mask(self):
        # a fresh child stream with a fixed name replays the identical mask,
        # so central differences see a fixed (masked, scaled) linear map
        w = self.rng.standard_normal(40)
        self._probe(
            lambda x: ad.tsum(ad.mul(ad.dropout(x, 0.3, Rng(7, "fdmask")), Tensor(w))),
            [self.rng.standard_normal(40)],
        )


def attention_by_primitives(x, weights, lengths, heads):
    """The attention sublayer composed from primitive ops, one sequence at a time."""
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    d = x.shape[1]
    dh = d // heads
    outs = []
    start = 0
    for L in lengths:
        rows = x[start : start + L]
        start += L

        def split(w, b):
            return ad.transpose(ad.reshape(ad.add(ad.matmul(rows, w), b), (L, heads, dh)), (1, 0, 2))

        q, k, v = split(wq, bq), split(wk, bk), split(wv, bv)
        probs = ad.softmax(ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), Tensor(1.0 / np.sqrt(dh))))
        outs.append(ad.reshape(ad.transpose(ad.matmul(probs, v), (1, 0, 2)), (L, d)))
    return ad.add(ad.matmul(ad.concat(outs, axis=0), wo), bo)


def feed_forward_by_primitives(x, w1, b1, w2, b2, p=0.0, rng=None):
    return ad.dropout(ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(x, w1), b1)), w2), b2), p, rng)


def feed_forward_one_shot(x, w1, b1, w2, b2, g):
    """The feed-forward's output and its five gradients under output gradient
    g, as single numpy products over all rows, with the op's GELU formulas."""
    h = x @ w1
    h += b1
    a, t = ad._gelu(h)
    out = a @ w2
    out += b2
    da = g @ w2.T
    da *= ad._gelu_grad(h, t)
    return [out, da @ w1.T, x.T @ da, da.sum(axis=0), a.T @ g, g.sum(axis=0)]


class TestFusedSublayers:
    """self_attention and feed_forward against their primitive compositions."""

    LENGTHS = [3, 1, 5, 3, 1]  # three distinct lengths, one of them 1
    D, HEADS, F = 8, 2, 12

    def setup_method(self):
        self.rng = np.random.default_rng(77)

    def attention_arrays(self, T):
        d = self.D
        return [self.rng.standard_normal((T, d))] + [
            self.rng.standard_normal(shape) * 0.5 for _ in "qkvo" for shape in ((d, d), (d,))
        ]

    def ffn_arrays(self, T):
        d, f = self.D, self.F
        return [self.rng.standard_normal((T, d)), self.rng.standard_normal((d, f)) * 0.5,
                self.rng.standard_normal(f) * 0.5, self.rng.standard_normal((f, d)) * 0.5,
                self.rng.standard_normal(d) * 0.5]

    def attention(self, lengths, p=0.0, rng=None):
        return lambda x, *w: ad.self_attention(x, w, lengths, self.HEADS, p, rng)

    def reference(self, lengths):
        return lambda x, *w: attention_by_primitives(x, w, lengths, self.HEADS)

    def assert_same_values_and_grads(self, fused, reference, arrays):
        proj = self.rng.standard_normal((arrays[0].shape[0], self.D))
        results = []
        for build in (fused, reference):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            with Tape():
                out = build(*tensors)
                loss = ad.tsum(ad.mul(out, Tensor(proj)))
            ad.backward(loss)
            results.append([out.data] + [t.grad for t in tensors])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_attention_matches_primitives(self):
        arrays = self.attention_arrays(sum(self.LENGTHS))
        self.assert_same_values_and_grads(self.attention(self.LENGTHS), self.reference(self.LENGTHS), arrays)

    def test_feed_forward_matches_primitives(self):
        arrays = self.ffn_arrays(sum(self.LENGTHS))
        self.assert_same_values_and_grads(ad.feed_forward, feed_forward_by_primitives, arrays)

    @pytest.mark.parametrize("dims", [(8, 12), (64, 256)])
    @pytest.mark.parametrize("T", [0, 1, 255, 256, 257, 259, 270, 274, 511, 513, 2584])
    def test_feed_forward_chunks_bitwise_equal_one_shot(self, T, dims):
        """Balanced row chunks give the bits of single whole-array products;
        fixed 256-row chunks fail this where the last chunk is a few rows long.

        The equality rests on a measured BLAS property: a product's row
        results do not depend on how many rows (at least 128) share the
        call. It was measured with numpy 2.4's bundled OpenBLAS 0.3.31
        (scipy-openblas64, DYNAMIC_ARCH, SkylakeX kernel) under one and two
        threads; another BLAS build or CPU may break it without breaking
        training's same-seed determinism."""
        d, f = dims
        x, g = self.rng.standard_normal((T, d)), self.rng.standard_normal((T, d))
        weights = [self.rng.standard_normal((d, f)) * 0.1, self.rng.standard_normal(f) * 0.1,
                   self.rng.standard_normal((f, d)) * 0.1, self.rng.standard_normal(d) * 0.1]
        tensors = [Tensor(a, requires_grad=True) for a in [x] + weights]
        with Tape():
            out = ad.feed_forward(*tensors)
            loss = ad.tsum(ad.mul(out, Tensor(g)))
        ad.backward(loss)
        got = [out.data] + [t.grad for t in tensors]
        for got_array, want in zip(got, feed_forward_one_shot(x, *weights, g)):
            assert got_array.tobytes() == want.tobytes()

    def test_feed_forward_in_chunks_matches_primitives(self):
        T = 300  # two chunks, of 150 rows each
        arrays = self.ffn_arrays(T)
        self.assert_same_values_and_grads(ad.feed_forward, feed_forward_by_primitives, arrays)
        # the fused op draws its output mask whole, as the primitive dropout does
        self.assert_same_values_and_grads(lambda *a: ad.feed_forward(*a, 0.3, Rng(7, "ffmask")),
                                          lambda *a: feed_forward_by_primitives(*a, 0.3, Rng(7, "ffmask")),
                                          arrays)
        w = self.rng.standard_normal((T, self.D))
        check_grads(lambda *a: ad.tsum(ad.mul(ad.feed_forward(*a, 0.3, Rng(7, "fdmask")), Tensor(w))),
                    arrays, n_probes=100, rng=self.rng)

    def test_gradients_match_central_differences(self):
        # a fresh child stream with a fixed name replays the identical dropout masks
        T = sum(self.LENGTHS)
        w = self.rng.standard_normal((T, self.D))
        attn = self.attention(self.LENGTHS)
        check_grads(lambda *a: ad.tsum(ad.mul(attn(*a), Tensor(w))),
                    self.attention_arrays(T), n_probes=150, rng=self.rng)
        check_grads(lambda *a: ad.tsum(ad.mul(ad.self_attention(a[0], a[1:], self.LENGTHS, self.HEADS,
                                                                0.3, Rng(7, "fdmask")), Tensor(w))),
                    self.attention_arrays(T), n_probes=150, rng=self.rng)
        for p in (0.0, 0.3):
            check_grads(lambda *a: ad.tsum(ad.mul(ad.feed_forward(*a, p, Rng(7, "fdmask")), Tensor(w))),
                        self.ffn_arrays(T), n_probes=100, rng=self.rng)

    def test_train_mode_repeatable_from_same_rng(self):
        T = sum(self.LENGTHS)
        attn_arrays, ffn_arrays = self.attention_arrays(T), self.ffn_arrays(T)
        runs = []
        for _ in range(2):
            rng = Rng(3, "drop")
            a = ad.self_attention(Tensor(attn_arrays[0]), [Tensor(w) for w in attn_arrays[1:]],
                                  self.LENGTHS, self.HEADS, 0.3, rng)
            f = ad.feed_forward(*[Tensor(w) for w in ffn_arrays], 0.3, rng)
            runs.append(a.data.tobytes() + f.data.tobytes())
        assert runs[0] == runs[1]
        evaluated = ad.self_attention(Tensor(attn_arrays[0]), [Tensor(w) for w in attn_arrays[1:]],
                                      self.LENGTHS, self.HEADS)
        assert evaluated.data.tobytes() != runs[0][: evaluated.data.nbytes]

    def test_other_lengths_leave_a_sequence_unchanged(self):
        x, *w = self.attention_arrays(4)
        alone = ad.self_attention(Tensor(x), [Tensor(a) for a in w], [4], self.HEADS).data
        others = self.rng.standard_normal((1 + 2 + 6 + 3, self.D))
        packed = np.concatenate([others[:3], x, others[3:]])  # lengths 1, 2, then x, then 6 and 3
        out = ad.self_attention(Tensor(packed), [Tensor(a) for a in w], [1, 2, 4, 6, 3], self.HEADS).data
        np.testing.assert_allclose(out[3:7], alone, atol=1e-12, rtol=0)
        ffn = [Tensor(a) for a in self.ffn_arrays(1)[1:]]
        np.testing.assert_allclose(ad.feed_forward(Tensor(packed), *ffn).data[3:7],
                                   ad.feed_forward(Tensor(x), *ffn).data, atol=1e-12, rtol=0)

    def test_lengths_must_partition_rows(self):
        x, *w = self.attention_arrays(5)
        with pytest.raises(ContractError):
            ad.self_attention(Tensor(x), [Tensor(a) for a in w], [2, 2], self.HEADS)


class TestBackwardSemantics:
    """Seeding, traversal, accumulation, and error contracts."""

    def test_requires_scalar_loss(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            y = ad.mul(x, x)
        with pytest.raises(ContractError):
            ad.backward(y)

    def test_requires_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ad.tsum(x)  # no tape active, nothing recorded
        with pytest.raises(ContractError):
            ad.backward(y)

    def test_linearity_of_sum(self):
        rng = np.random.default_rng(7)
        xv = rng.standard_normal(6)

        def grads_of(fn):
            x = Tensor(xv.copy(), requires_grad=True)
            with Tape():
                loss = fn(x)
            ad.backward(loss)
            return x.grad

        ga = grads_of(lambda x: ad.tsum(ad.mul(x, x)))
        gb = grads_of(lambda x: ad.tsum(ad.gelu(x)))
        gsum = grads_of(lambda x: ad.add(ad.tsum(ad.mul(x, x)), ad.tsum(ad.gelu(x))))
        np.testing.assert_allclose(gsum, ga + gb, atol=1e-12)

    def test_reused_node_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape():
            y = ad.mul(x, x)  # x used twice: dy/dx = 2x
            loss = ad.tsum(y)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)

    def test_unused_leaf_gets_zeros(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = Tensor(np.ones(4), requires_grad=True)
        with Tape():
            _dead_end = ad.mul(x, x)  # touched on tape, never reaches the loss
            loss = ad.tsum(y)
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros(4))

    def test_sweep_releases_the_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.mul(x, x))
        ad.backward(loss)
        assert len(tape) == 2 and tape.records == []
        with pytest.raises(ContractError, match="already swept"):
            ad.backward(loss)

    def test_swept_step_leaves_no_garbage_cycle(self):
        # a recorded tensor refers to its tape; the sweep must break that
        # cycle so the step's arrays are freed without the collector
        gc.collect()
        gc.disable()
        try:
            x = Tensor(np.ones((4, 3)), requires_grad=True)
            w = Tensor(np.ones((3, 2)), requires_grad=True)
            with Tape():
                loss = ad.tsum(ad.gelu(ad.matmul(x, w)))
            ad.backward(loss)
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_recording_without_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tape = Tape()
        with tape:
            ad.tsum(x)
        before = len(tape)
        ad.tsum(ad.mul(x, x))  # outside any tape
        assert len(tape) == before

    def test_determinism_bitwise(self):
        def run():
            rng = Rng(99, "det")
            x = Tensor(rng.normal((8, 8)), requires_grad=True)
            w = Tensor(rng.normal((8, 8)), requires_grad=True)
            with Tape():
                h = ad.gelu(ad.matmul(x, w))
                h = ad.dropout(h, 0.2, rng.child("mask"))
                loss = ad.tmean(ad.mul(h, h))
            ad.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()


class TestEmbeddingErrors:
    """Gather range checks."""

    def test_out_of_range_id(self):
        with pytest.raises(VocabError):
            ad.embedding(Tensor(np.zeros((4, 2))), np.array([0, 4]))


class TestEmbeddingBackward:
    """The table gradient equals ``np.add.at`` into zeros, bit for bit."""

    @staticmethod
    def table_grad(rows, ids, g):
        w = Tensor(np.zeros((rows, g.shape[-1])), requires_grad=True)
        with Tape() as tape:
            ad.embedding(w, ids)
        (_, _, bw), = tape.records
        (grad,) = bw(g)
        want = np.zeros(w.shape)
        np.add.at(want, ids, g)
        assert grad.shape == want.shape
        assert grad.tobytes() == want.tobytes()
        return grad

    def test_repeated_ids_sum_in_order(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 9, size=200)
        self.table_grad(12, ids, rng.standard_normal((200, 5)) * 10.0 ** rng.integers(-8, 8, size=(200, 1)))

    def test_id_grid(self):
        rng = np.random.default_rng(4)
        self.table_grad(6, rng.integers(0, 6, size=(3, 7)), rng.standard_normal((3, 7, 4)))

    def test_negative_zero_gradients(self):
        grad = self.table_grad(3, np.array([0, 0, 2]), np.full((3, 2), -0.0))
        assert not np.signbit(grad).any()

    def test_empty_ids(self):
        grad = self.table_grad(4, np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
        assert (grad == 0).all()
