"""Parameter sources: where a model's parameter values come from.

Each parameter is declared once, by name, shape and init, in
``Encoder.__init__`` and ``init_head_params``. The declaring code asks a
source for each value in declaration order:

- ``Draw`` makes a new model's values: truncated-normal draws from a
  seeded init stream, and constant fills;
- ``Take`` gives a loaded model the named arrays of a checkpoint, each
  checked against its declared shape and copied once. It draws nothing.
  A resume takes the Adam moments through it too, by their prefixes.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ContractError
from .rng import Rng


class Draw:
    """Values for a new model, drawn from ``rng`` in declaration order."""

    def __init__(self, rng: Rng):
        self.rng = rng

    def normal(self, name: str, shape: tuple, std: float) -> Tensor:
        return Tensor(self.rng.truncated_normal(shape, std=std), requires_grad=True)

    def fill(self, name: str, shape: tuple, value: float) -> Tensor:
        return Tensor(np.full(shape, value), requires_grad=True)


class Take:
    """Values for a loaded model: copies of ``arrays[prefix + name]``."""

    def __init__(self, arrays: dict[str, np.ndarray], prefix: str):
        self.arrays = arrays
        self.prefix = prefix

    def normal(self, name: str, shape: tuple, std: float) -> Tensor:
        return self.take(name, shape)

    def fill(self, name: str, shape: tuple, value: float) -> Tensor:
        return self.take(name, shape)

    def take(self, name: str, shape: tuple) -> Tensor:
        key = self.prefix + name
        arr = self.arrays.get(key)
        if arr is None:
            raise ContractError(f"checkpoint is missing parameter {key!r}")
        if arr.shape != shape:
            raise ContractError(f"parameter {key!r} shape {arr.shape} != expected {shape}")
        return Tensor(np.array(arr, dtype=np.float64), requires_grad=True)
