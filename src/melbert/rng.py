"""Deterministic random source.

One seed drives every random decision in the package: parameter init,
dropout masks, data shuffling, corpus synthesis. Each stream is a
counter-based Philox generator whose key hashes the seed together with a
string name, so a stream is fixed by its name alone, and streams of
different names never interfere however much either one is consumed.
Training names one stream per epoch and one per step, so a resumed run
re-derives them instead of restoring a saved position.

Dropout masks come from ``Rng.keep``, which cuts flags straight from the
raw 64-bit Philox outputs: two 32-bit lanes per output, low half first,
each compared with ``round(p * 2**32)`` (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC 2011). That skips numpy's conversion of
each output to a float64 uniform and halves the outputs a mask takes.
The halves are cut with shifts, not by viewing the outputs as 32-bit
words, so the flags do not depend on the host's byte order.

A long run of bounded index draws (corpus synthesis makes about six per
sentence) goes through ``Rng.index_stream``. A scalar ``integers(0, n)``
costs about a microsecond of numpy call overhead; the stream instead
takes the generator's 32-bit words in blocks and applies, in Python,
the same nearly-divisionless bounded draw that numpy applies to each
word (Lemire, "Fast Random Integer Generation in an Interval", ACM
TOMACS 2019). numpy hands out a block of ``integers(0, 2**32)`` one
32-bit word at a time, in the order scalar draws take them, including a
half-word that an earlier draw left over. So the stream returns exactly
the integers that scalar ``integers(0, n)`` calls would have returned.
Its blocks run ahead of its draws, though, so a stream takes over its
generator: once it exists, nothing else may draw from that ``Rng``.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Callable

import numpy as np

from .errors import ContractError

INDEX_BLOCK = 4096  # 32-bit words an index stream takes from its generator at a time


def _derive_key(seed: int, stream: str) -> np.ndarray:
    """Map (seed, stream-name) to a 128-bit Philox key."""
    digest = hashlib.sha256(f"{seed}\x1f{stream}".encode("utf-8")).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


class Rng:
    """Seedable random generator with named substreams, each fixed by its name."""

    def __init__(self, seed: int, stream: str = "root"):
        self.seed = int(seed)
        self.stream = stream
        self._gen = np.random.Generator(np.random.Philox(key=_derive_key(self.seed, stream)))

    def child(self, name: str) -> "Rng":
        """Independent substream; consuming one never affects another."""
        return Rng(self.seed, f"{self.stream}/{name}")

    # -- draws ---------------------------------------------------------

    def uniform(self, shape=None) -> np.ndarray:
        return self._gen.random(size=shape)

    def keep(self, shape, p: float) -> np.ndarray:
        """Boolean flags of ``shape``, each False with probability ``p``,
        a rate in [0, 1] that the caller has checked.

        Each raw 64-bit Philox output gives two 32-bit lanes, its low half
        then its high half, for consecutive flags in C order; a flag is
        kept when its lane is at least ``round(p * 2**32)``.
        """
        n = int(np.prod(shape))
        raw = self._gen.bit_generator.random_raw((n + 1) // 2)
        cut = np.uint64(round(p * 2**32))  # compared in uint64, so a cut of 2**32 drops every lane
        low = raw & np.uint64(0xFFFFFFFF)
        raw >>= np.uint64(32)
        return np.stack([low >= cut, raw >= cut], axis=1).reshape(-1)[:n].reshape(shape)

    def normal(self, shape=None, std: float = 1.0) -> np.ndarray:
        return self._gen.standard_normal(size=shape) * std

    def truncated_normal(self, shape, std: float, bound_sigmas: float = 2.0) -> np.ndarray:
        """Normal draws redrawn until all fall within bound_sigmas std devs.

        Each round redraws the out-of-bounds positions in ascending flat
        order (at most 100 rounds); only the fresh values are tested again.
        """
        out = self._gen.standard_normal(size=shape)
        flat = out.reshape(-1)  # a view: writes land in ``out``
        bad = np.flatnonzero(np.abs(flat) > bound_sigmas)
        for _ in range(100):
            if not bad.size:
                break
            fresh = self._gen.standard_normal(size=bad.size)
            flat[bad] = fresh
            bad = bad[np.abs(fresh) > bound_sigmas]
        return out * std

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def index_stream(self) -> Callable[[int], int]:
        """``draw(n)``: the integer in [0, n) that ``integers(0, n)`` would
        return, for any int ``n`` in [1, 2**32]; ``n == 1`` takes no word.

        The stream takes words ahead of its draws, so it takes over this
        ``Rng``: nothing else may draw from it afterwards.
        """
        gen = self._gen
        blocks = iter(lambda: gen.integers(0, 2**32, size=INDEX_BLOCK, dtype=np.uint64).tolist(), None)
        word = itertools.chain.from_iterable(blocks).__next__  # the next 32-bit word, as an int

        def draw(n: int) -> int:
            if not 1 <= n <= 2**32:
                raise ContractError(f"index bound {n} outside [1, 2**32]")
            if n == 1:
                return 0
            # numpy rejects a word whose low product bits fall below this
            threshold = (2**32 - n) % n
            m = word() * n
            while m & 0xFFFFFFFF < threshold:
                m = word() * n
            return m >> 32

        return draw
