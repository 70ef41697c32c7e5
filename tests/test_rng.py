"""The bulk index stream against numpy's scalar bounded draws."""

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
