"""Head formula oracles, loss values, and gradient checks."""

import numpy as np
import pytest

from fdcheck import check_grads

from melbert import autodiff as ad
from melbert.autodiff import Tape, Tensor
from melbert.errors import ContractError, DimensionError
from melbert.heads import (
    HeadParams,
    Variant,
    bce_loss,
    combine_pair,
    combine_single,
    contrast_head,
    init_head_params,
    interaction_head,
    mse_loss,
)
from melbert.params import Draw
from melbert.rng import Rng


def np_gelu(x):
    return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))


def declared_head_param_count(variant: str, hidden_dim: int, head_dim: int) -> int:
    """Parameter count each variant is supposed to carry, written apart from
    ``Variant``'s declaration so that it can audit it."""
    d, h = hidden_dim, head_dim
    mlp = 2 * d * h + h
    if variant == "melbert":
        return 2 * mlp + 2 * h + 1
    if variant in ("no_spv", "no_mip"):
        return mlp + h + 1
    if variant in ("base_all2all", "seq"):
        return d + 1
    raise ValueError(f"unknown variant {variant!r}")


def head_oracle(a, b, w, bias):
    """Direct numpy version of concat -> affine -> gelu."""
    z = np.concatenate([a, b])
    return np_gelu(z @ w + bias)


class TestHeadForward:
    """MLP heads against the direct-formula oracle."""

    def test_interaction_head_formula(self):
        rng = np.random.default_rng(42)
        hp = init_head_params(Variant.MELBERT, hidden_dim=8, head_dim=6, source=Draw(Rng(0, "h")))
        for _ in range(50):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            got = interaction_head(Tensor(a[None]), Tensor(b[None]), hp).data[0]
            want = head_oracle(a, b, hp.f_w.data, hp.f_b.data)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_contrast_head_formula(self):
        rng = np.random.default_rng(43)
        hp = init_head_params(Variant.MELBERT, hidden_dim=8, head_dim=6, source=Draw(Rng(1, "h")))
        for _ in range(50):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            got = contrast_head(Tensor(a[None]), Tensor(b[None]), hp).data[0]
            want = head_oracle(a, b, hp.g_w.data, hp.g_b.data)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_combiner_formula(self):
        rng = np.random.default_rng(44)
        hp = init_head_params(Variant.MELBERT, hidden_dim=8, head_dim=6, source=Draw(Rng(2, "h")))
        for _ in range(50):
            hf = rng.standard_normal(6)
            hg = rng.standard_normal(6)
            got = combine_pair(Tensor(hf[None]), Tensor(hg[None]), hp).item()
            want = np.concatenate([hf, hg]) @ hp.w.data + hp.b.data
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_single_combiner_formula(self):
        rng = np.random.default_rng(45)
        hp = init_head_params(Variant.NO_SPV, hidden_dim=8, head_dim=6, source=Draw(Rng(3, "h")))
        for _ in range(50):
            h = rng.standard_normal(6)
            got = combine_single(Tensor(h[None]), hp).item()
            want = h @ hp.w.data + hp.b.data
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_scores_always_in_open_interval(self):
        # logits of +-4e6 still report scores strictly inside (0, 1)
        hp = HeadParams(w=Tensor(np.full(4, 1e6)), b=Tensor(np.array(0.0)))
        hi = ad.sigmoid(combine_single(Tensor(np.ones((1, 4))), hp)).item()
        lo = ad.sigmoid(combine_single(Tensor(-np.ones((1, 4))), hp)).item()
        assert 0.0 < lo < hi < 1.0

    def test_dimension_mismatch(self):
        hp = init_head_params(Variant.MELBERT, hidden_dim=8, head_dim=6, source=Draw(Rng(4, "h")))
        with pytest.raises(DimensionError):
            interaction_head(Tensor(np.ones((1, 8))), Tensor(np.ones((1, 5))), hp)
        with pytest.raises(DimensionError):
            combine_single(Tensor(np.ones((1, 3))), hp)


class TestParamAccounting:
    """Declared shapes per variant."""

    @pytest.mark.parametrize(
        "variant,expect",
        [
            ("melbert", lambda d, h: 2 * (2 * d * h + h) + 2 * h + 1),
            ("no_spv", lambda d, h: 2 * d * h + h + h + 1),
            ("no_mip", lambda d, h: 2 * d * h + h + h + 1),
            ("base_all2all", lambda d, h: d + 1),
            ("seq", lambda d, h: d + 1),
        ],
    )
    def test_declared_counts(self, variant, expect):
        d, h = 16, 12
        assert declared_head_param_count(variant, d, h) == expect(d, h)
        hp = init_head_params(Variant(variant), d, h, Draw(Rng(0, "h")))
        actual = sum(t.data.size for t in hp.named().values())
        assert actual == declared_head_param_count(variant, d, h)

    def test_ablation_combiner_shrinks(self):
        full = init_head_params(Variant.MELBERT, 16, 12, Draw(Rng(0, "h")))
        ablated = init_head_params(Variant.NO_MIP, 16, 12, Draw(Rng(0, "h")))
        assert full.w.shape == (24,)
        assert ablated.w.shape == (12,)

    def test_full_equals_ablations_minus_one(self):
        # the two h-sized combiners (2h + 2) collapse into one 2h + 1 combiner
        d, h = 16, 12
        full = declared_head_param_count("melbert", d, h)
        parts = declared_head_param_count("no_mip", d, h) + declared_head_param_count("no_spv", d, h)
        assert full == parts - 1


class TestBceLoss:
    """Weighted binary cross-entropy on logits."""

    def test_frozen_hand_value(self):
        # logits ln 4 and ln(3/7) are scores 0.8 and 0.3; labels (1, 0), pos_weight 10:
        # (10 * -ln(0.8) + -ln(0.7)) / 2 computed by hand
        loss = bce_loss(Tensor(np.log([4.0, 3.0 / 7.0])), [1, 0], pos_weight=10.0)
        np.testing.assert_allclose(loss.item(), 1.2940552285404150, atol=1e-12, rtol=0)

    def test_unit_weight_reduces_to_plain_mean(self):
        rng = np.random.default_rng(46)
        s = rng.uniform(0.05, 0.95, size=16)
        y = rng.integers(0, 2, size=16).astype(float)
        got = bce_loss(Tensor(np.log(s) - np.log1p(-s)), y, pos_weight=1.0).item()
        want = -np.mean(y * np.log(s) + (1 - y) * np.log(1 - s))
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_weight_scales_only_positives(self):
        z = Tensor(np.array([0.4, 0.4]))
        base_pos = bce_loss(z, [1, 1], pos_weight=1.0).item()
        up_pos = bce_loss(z, [1, 1], pos_weight=3.0).item()
        np.testing.assert_allclose(up_pos, 3 * base_pos, atol=1e-12)
        base_neg = bce_loss(z, [0, 0], pos_weight=1.0).item()
        up_neg = bce_loss(z, [0, 0], pos_weight=3.0).item()
        np.testing.assert_allclose(up_neg, base_neg, atol=1e-15)

    @pytest.mark.parametrize("y", [0, 1])
    def test_gradient_at_saturated_logits(self, y):
        # a wrong logit is pushed back at least half as hard as the loss can
        # push, w / n, however far out it is; a right one is never pushed away
        z = Tensor(np.array([-1e6, -700.0, -30.0, 30.0, 700.0, 1e6]), requires_grad=True)
        w = 3.0 if y == 1 else 1.0
        with Tape():
            loss = bce_loss(z, [y] * 6, pos_weight=3.0)
        ad.backward(loss)
        assert np.isfinite(loss.item())
        sign = 1 - 2 * y  # the sign of sigmoid(z) - y
        wrong = sign * z.data > 0
        assert wrong.sum() == 3
        assert (sign * z.grad[wrong] >= w / (2 * 6)).all()
        assert (sign * z.grad[~wrong] >= 0.0).all()
        assert (z.grad[np.abs(z.data) < 1e6] != 0.0).all()

    def test_contracts(self):
        with pytest.raises(ContractError):
            bce_loss(Tensor(np.array([0.5, 0.5])), [1])
        with pytest.raises(ContractError):
            bce_loss(Tensor(np.array([0.5])), [0.3])

    def test_gradient_check(self):
        rng = np.random.default_rng(47)
        y = rng.integers(0, 2, size=10).astype(float)
        check_grads(
            lambda z: bce_loss(z, y, pos_weight=4.0),
            [rng.standard_normal(10)],
            n_probes=60,
            rng=rng,
        )


class TestMseLoss:
    """Squared-error regression loss."""

    def test_hand_value(self):
        loss = mse_loss(Tensor(np.array([0.2, 0.7])), [0.5, 0.7])
        np.testing.assert_allclose(loss.item(), 0.045, atol=1e-12, rtol=0)

    def test_zero_at_perfect_fit(self):
        assert mse_loss(Tensor(np.array([0.1, 0.9])), [0.1, 0.9]).item() == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            mse_loss(Tensor(np.array([0.5])), [0.5, 0.5])

    def test_gradient_check(self):
        rng = np.random.default_rng(48)
        t = rng.uniform(0, 1, size=8)
        check_grads(
            lambda s: mse_loss(ad.sigmoid(s), t),
            [rng.standard_normal(8)],
            n_probes=40,
            rng=rng,
        )
