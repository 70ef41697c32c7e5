"""The bulk index stream against numpy's scalar bounded draws, and dropout
keep flags against the raw Philox outputs they are cut from."""

import numpy as np
import pytest

from melbert.errors import ContractError
from melbert.rng import INDEX_BLOCK, Rng

BOUNDS = [1, 2, 3, 6, 1000, 2**31 + 1, 2**32]  # 2**31 + 1 rejects about half of all words


def scalar_draws(rng: Rng, bounds) -> list[int]:
    """The reference: one scalar ``integers(0, n)`` call per draw."""
    return [int(rng.integers(0, n)) for n in bounds]


class TestIndexStream:
    """``draw(n)`` returns what ``integers(0, n)`` would, draw by draw."""

    @pytest.mark.parametrize("n", BOUNDS)
    def test_equals_scalar_draws_across_blocks(self, n):
        bounds = [n] * (2 * INDEX_BLOCK + 5)
        draw = Rng(3, "test").index_stream()
        assert [draw(b) for b in bounds] == scalar_draws(Rng(3, "test"), bounds)

    @pytest.mark.parametrize("n", BOUNDS)
    def test_after_an_odd_length_permutation(self, n):
        """A permutation of odd length leaves half a Philox word over; the
        stream's first word must be that half, as a scalar draw's is."""
        bounds = [n] * 50
        stream_rng, scalar_rng = Rng(4, "test"), Rng(4, "test")
        stream_rng.permutation(7)
        scalar_rng.permutation(7)
        draw = stream_rng.index_stream()
        assert [draw(b) for b in bounds] == scalar_draws(scalar_rng, bounds)

    def test_mixed_bounds(self):
        bounds = [BOUNDS[k % len(BOUNDS)] for k in range(3 * INDEX_BLOCK)]
        draw = Rng(5, "test").index_stream()
        assert [draw(b) for b in bounds] == scalar_draws(Rng(5, "test"), bounds)

    def test_bound_one_takes_no_word(self):
        draw = Rng(6, "test").index_stream()
        assert [draw(1) for _ in range(10)] == [0] * 10
        assert draw(1000) == int(Rng(6, "test").integers(0, 1000))

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_bound_outside_range(self, n):
        with pytest.raises(ContractError):
            Rng(7, "test").index_stream()(n)


def lanes(seed: int, stream: str, n: int) -> list[int]:
    """The reference: each raw Philox output split into its low then high 32 bits, in Python ints."""
    raw = Rng(seed, stream)._gen.bit_generator.random_raw((n + 1) // 2).tolist()
    return [half for word in raw for half in (word & 0xFFFFFFFF, word >> 32)][:n]


class TestKeep:
    """``keep(shape, p)``: one flag per 32-bit lane of the raw Philox outputs."""

    @pytest.mark.parametrize("shape", [(7,), (4, 6), (3, 5, 3), (1,), (0,)])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9])
    def test_flags_are_lanes_low_then_high(self, shape, p):
        n = int(np.prod(shape))
        cut = round(p * 2**32)
        want = np.array([lane >= cut for lane in lanes(8, "keep", n)], dtype=bool).reshape(shape)
        got = Rng(8, "keep").keep(shape, p)
        assert got.dtype == bool and got.shape == shape
        assert np.array_equal(got, want)

    def test_an_odd_count_leaves_no_half_output(self):
        """The high lane of the last output of an odd count is discarded, so
        the next draw starts at the next output."""
        rng = Rng(9, "keep")
        first, second = rng.keep((5,), 0.5), rng.keep((4,), 0.5)
        cut = 2**31
        want = [lane >= cut for lane in lanes(9, "keep", 10)]
        assert first.tolist() + second.tolist() == want[:5] + want[6:10]

    def test_same_stream_same_flags(self):
        a, b = Rng(10, "train/step/3"), Rng(10, "train/step/3")
        for shape in [(40, 64), (3, 2, 7, 7), (33,)]:
            assert a.keep(shape, 0.2).tobytes() == b.keep(shape, 0.2).tobytes()
        other = Rng(10, "train/step/4").keep((1000,), 0.5)
        assert other.tobytes() != Rng(10, "train/step/3").keep((1000,), 0.5).tobytes()

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.5])
    def test_keep_rate_within_five_sigma(self, p):
        n = 200_000
        kept = Rng(11, f"rate/{p}").keep((n,), p).mean()
        assert abs(kept - (1.0 - p)) < 5 * np.sqrt(p * (1.0 - p) / n)

    def test_rate_just_below_one_drops_everything(self):
        """round(p * 2**32) is 2**32 here; compared in uint64 it drops every
        lane instead of wrapping to a cut of 0 that would keep them all."""
        p = np.nextafter(1.0, 0.0)
        assert round(p * 2**32) == 2**32
        assert not Rng(12, "keep").keep((10_000,), p).any()
        assert Rng(12, "keep").keep((10_000,), 0.0).all()
