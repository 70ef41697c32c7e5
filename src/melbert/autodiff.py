"""Dense float64 tensors with reverse-mode automatic differentiation.

Forward ops execute immediately on numpy arrays. While a ``Tape`` is
active (as a context manager), every op whose inputs require gradients
appends a record ``(output, inputs, backward_fn)`` to the tape. Records
land in execution order, so the list is already topologically sorted;
``backward(loss)`` seeds the loss gradient with ones and walks the
records once in reverse, accumulating into ``Tensor.grad``.

Evaluation code simply runs without a tape: nothing is recorded and no
graph memory accumulates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, VocabError

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Wengert list of recorded operations, in execution order."""

    def __init__(self):
        self.records: list[tuple["Tensor", tuple["Tensor", ...], object]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self.records)


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A numpy float64 array plus an optional accumulated gradient."""

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all routing goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result; record it if a tape is active and grads flow."""
    out = Tensor(data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        tape.records.append((out, inputs, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of the broadcast input."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; visits each record exactly once.

    Gradients accumulate into ``.grad`` of every requires_grad tensor the
    taped computation touched; touched leaves that do not influence the
    loss end up with explicit zeros.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    if tape is None or not tape.records:
        raise ContractError("loss was not recorded on a tape (empty or missing tape)")
    loss.grad = np.ones_like(loss.data)
    leaves = set()
    for out, inputs, backward_fn in reversed(tape.records):
        for t in inputs:
            if t.requires_grad and t.tape is None:
                leaves.add(id(t))
        if out.grad is None:
            continue
        grads = backward_fn(out.grad)
        for t, g in zip(inputs, grads):
            if g is None or not t.requires_grad:
                continue
            t.grad = g if t.grad is None else t.grad + g
    # touched-but-uninfluential leaves still get a well-defined gradient
    for out, inputs, _ in tape.records:
        for t in inputs:
            if id(t) in leaves and t.grad is None:
                t.grad = np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(a.data - b.data, (a, b), bw)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data

    def bw(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _make(ad * bd, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data

    def bw(g):
        return _unbroadcast(g / bd, ad.shape), _unbroadcast(-g * ad / (bd * bd), bd.shape)

    return _make(ad / bd, (a, b), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data

    def bw(g):
        return (g / ad,)

    return _make(np.log(ad), (a,), bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bw(g):
        return (g * out_data,)

    return _make(out_data, (a,), bw)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through wherever the input survived."""
    a = as_tensor(a)
    ad = a.data
    mask = (ad >= lo) & (ad <= hi)

    def bw(g):
        return (g * mask,)

    return _make(np.clip(ad, lo, hi), (a,), bw)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def bw(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), bw)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    inverse = tuple(np.argsort(axes))

    def bw(g):
        return (np.transpose(g, inverse),)

    return _make(np.transpose(a.data, axes), (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def getitem(a, idx) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape

    def bw(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return _make(a.data[idx], (a,), bw)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row gather from an embedding table by integer id."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.data.shape[0]):
        raise VocabError(
            f"id out of range: table has {weight.data.shape[0]} rows, ids span "
            f"[{ids.min()}, {ids.max()}]"
        )
    shape = weight.data.shape

    def bw(g):
        z = np.zeros(shape)
        np.add.at(z, ids, g)
        return (z,)

    return _make(weight.data[ids], (weight,), bw)


# ---------------------------------------------------------------------------
# reductions


def _restore_axes(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape

    def bw(g):
        return (_restore_axes(g, shape, axis, keepdims),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape
    count = a.data.size if axis is None else np.prod(
        [shape[ax % len(shape)] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def bw(g):
        return (_restore_axes(g, shape, axis, keepdims) / count,)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError(f"matmul needs 2-D or batched operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {ad.shape} @ {bd.shape}")
    try:
        data = ad @ bd
    except ValueError as e:  # batch dims refuse to broadcast
        raise DimensionError(f"matmul batch dimensions incompatible: {ad.shape} @ {bd.shape}") from e

    def bw(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return _make(data, (a, b), bw)


# ---------------------------------------------------------------------------
# fused nonlinear blocks


def softmax(a, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along one axis, with a fused backward."""
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ContractError(f"softmax axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _make(s, (a,), bw)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis (biased variance), then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must be 1-D of length {d}, got {gain.data.shape} and {bias.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    gd = gain.data

    def bw(g):
        dbias = g.reshape(-1, d).sum(axis=0)
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dxhat = g * gd
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    return _make(xhat * gd + bias.data, (x, gain, bias), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    a = as_tensor(a)
    x = a.data
    x2 = x * x  # products, not x**3: numpy sends integer powers above 2 through pow
    inner = _GELU_C * (x + 0.044715 * x2 * x)
    t = np.tanh(inner)

    def bw(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner),)

    return _make(0.5 * x * (1.0 + t), (a,), bw)


def sigmoid(a) -> Tensor:
    """Numerically stable logistic; output clamped into the open (0, 1)."""
    a = as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    out = np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

    def bw(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), bw)


def dropout(a, p: float, training: bool, rng=None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p); identity at eval."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {p}")
    a = as_tensor(a)
    if not training or p == 0.0:
        return a
    if rng is None:
        raise ContractError("dropout in training mode needs an rng")
    mask = (rng.uniform(a.data.shape) >= p) / (1.0 - p)

    def bw(g):
        return (g * mask,)

    return _make(a.data * mask, (a,), bw)
