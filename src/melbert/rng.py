"""Deterministic random source.

One seed drives every random decision in the package: parameter init,
dropout masks, data shuffling, corpus synthesis. The generator is a
counter-based Philox stream, so its full state is a handful of integers
that can be written into a checkpoint and restored bit-exactly.

Independent substreams are derived by hashing a string name together
with the seed, so e.g. the init stream and the shuffle stream never
interfere no matter how much either one is consumed.

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


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _unjsonify(obj):
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.array(obj["__ndarray__"], dtype=obj["dtype"])
        return {k: _unjsonify(v) for k, v in obj.items()}
    return obj


class Rng:
    """Seedable, serializable random generator with named substreams."""

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
        ``Rng``: nothing else may draw from it afterwards, and its state
        no longer says where the draws stand.
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

    # -- state ---------------------------------------------------------

    def state(self) -> dict:
        """JSON-safe snapshot of the full generator state."""
        return {
            "seed": self.seed,
            "stream": self.stream,
            "bitgen": _jsonify(self._gen.bit_generator.state),
        }

    def set_state(self, snap: dict) -> None:
        self.seed = int(snap["seed"])
        self.stream = snap["stream"]
        self._gen = np.random.Generator(np.random.Philox(key=_derive_key(self.seed, self.stream)))
        self._gen.bit_generator.state = _unjsonify(snap["bitgen"])
