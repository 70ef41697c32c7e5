"""Dense float64 tensors with reverse-mode automatic differentiation.

Forward ops execute immediately on numpy arrays. While a ``Tape`` is
active (as a context manager), every op whose inputs require gradients
appends a record ``(output, inputs, backward_fn)`` to the tape. Records
land in execution order, so the list is already topologically sorted;
``backward(loss)`` seeds the loss gradient with ones and walks the
records once in reverse, accumulating into ``Tensor.grad``.

Evaluation code simply runs without a tape: nothing is recorded and no
graph memory accumulates.

A ``Tensor`` has no arithmetic operators, so graphs are composed from
this module's ops; ``t[idx]`` is the one shorthand, for ``getitem``.
``sigmoid`` makes a logit a score in (0, 1); ``softplus`` lets a loss
read the logit itself.
Besides the primitive ops, ``self_attention`` and ``feed_forward`` each
run a whole transformer sublayer as one record with a hand-written
backward. They share their numpy formulas with ``softmax``, ``gelu`` and
``dropout``. Each dropout draws its masks from the ``rng`` it is given,
as keep flags (``Rng.keep``), so a training pass is the one given a
dropout stream; without one, dropout is the identity. ``feed_forward``
runs long inputs in balanced row chunks that stay in cache; on the BLAS
build its docstring names, they gave the bits of its one-shot formula.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, VocabError

_TAPE_STACK: list["Tape"] = []
FFN_CHUNK_ROWS = 256  # feed_forward's row-chunk target: [256, 256] float64 is 512 KiB, well inside L2


class Tape:
    """Wengert list of recorded operations, in execution order.

    ``backward`` releases each record once it has swept it. A recorded
    tensor refers back to its tape, so until then the tape and its
    tensors form a cycle that only the garbage collector would free; a
    step's intermediates are instead freed as its sweep passes them.
    ``len`` counts every operation recorded, swept or not.
    """

    def __init__(self):
        self.records: list[tuple["Tensor", tuple["Tensor", ...], object]] = []
        self.swept = 0

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return self.swept + len(self.records)


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

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.item())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, idx):
        return getitem(self, idx)


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
    loss end up with explicit zeros. Each record is released as soon as
    it is swept, so a tape is swept once.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    if tape is None or not tape.records:
        raise ContractError("loss was not recorded on a tape (empty, missing or already swept tape)")
    loss.grad = np.ones_like(loss.data)
    records = tape.records
    tape.swept += len(records)
    leaves = {}
    while records:
        out, inputs, backward_fn = records.pop()
        for t in inputs:
            if t.requires_grad and t.tape is None:
                leaves[id(t)] = t
        if out.grad is None:
            continue
        grads = backward_fn(out.grad)
        for t, g in zip(inputs, grads):
            if g is None or not t.requires_grad:
                continue
            t.grad = g if t.grad is None else t.grad + g
    # touched-but-uninfluential leaves still get a well-defined gradient
    for t in leaves.values():
        if t.grad is None:
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


def split(a, sizes) -> list[Tensor]:
    """Consecutive blocks of ``sizes`` rows of ``a``; the inverse of ``concat`` on axis 0.

    Each block is one record, whose backward writes the block's gradient
    into zeros of ``a``'s shape.
    """
    a = as_tensor(a)
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or (sizes < 0).any() or sizes.sum() != a.data.shape[0]:
        raise ContractError(f"block sizes {sizes.tolist()} do not partition {a.data.shape[0]} rows")
    shape = a.data.shape

    def block(lo, hi):
        def bw(g):
            z = np.zeros(shape)
            z[lo:hi] = g
            return (z,)

        return _make(a.data[lo:hi], (a,), bw)

    ends = np.cumsum(sizes).tolist()
    return [block(hi - n, hi) for n, hi in zip(sizes.tolist(), ends)]


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
    rows, d = weight.data.shape

    def bw(g):
        # row sums in id order from +0.0, as np.add.at into zeros, but faster
        flat = (ids[..., None] * d + np.arange(d)).ravel()
        return (np.bincount(flat, weights=g.ravel(), minlength=rows * d).reshape(rows, d),)

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
    s = _softmax(a.data, axis)

    def bw(g):
        return (_softmax_grad(s, g, axis),)

    return _make(s, (a,), bw)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-subtracted softmax of ``x`` along ``axis``."""
    s = x - x.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def _softmax_grad(s: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Input gradient of a softmax whose output is ``s``, given output gradient ``g``."""
    dx = g - (g * s).sum(axis=axis, keepdims=True)
    dx *= s
    return dx


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis (biased variance), then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must be 1-D of length {d}, got {gain.data.shape} and {bias.data.shape}"
        )
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d  # np.var's formula without its overhead
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
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
    out, t = _gelu(x)

    def bw(g):
        return (g * _gelu_grad(x, t),)

    return _make(out, (a,), bw)


def _gelu(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """GELU(x) = 0.5 x (1 + t), written into ``out`` if given, and its tanh
    term t = tanh(c (x + 0.044715 x^3))."""
    t = x * x  # products, not x**3: numpy sends integer powers above 2 through pow
    t *= 0.044715
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.add(1.0, t, out=out)
    out *= x
    out *= 0.5
    return out, t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """dGELU/dx at x, given its tanh term ``t``."""
    d = x * x
    d *= 3 * 0.044715
    d += 1.0
    d *= _GELU_C
    d *= x
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    d *= sech2
    d += t
    d += 1.0
    d *= 0.5
    return d


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


def softplus(a) -> Tensor:
    """log(1 + e^x), finite at every finite x; its gradient σ(x) is exp(-softplus(-x)), which never cancels."""
    a = as_tensor(a)
    x = a.data
    return _make(np.logaddexp(0.0, x), (a,), lambda g: (g * np.exp(-np.logaddexp(0.0, -x)),))


def dropout(a, p: float, rng=None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p); identity without an rng."""
    a = as_tensor(a)
    if not _drops(p, rng):
        return a
    mask = _dropout_mask(a.data.shape, p, rng)

    def bw(g):
        return (g * mask,)

    return _make(a.data * mask, (a,), bw)


def _drops(p: float, rng) -> bool:
    """Whether dropout at rate p applies: a nonzero rate and an rng; rejects a bad rate."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {p}")
    return rng is not None and p != 0.0


def _dropout_mask(shape, p: float, rng) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability p, else 1/(1-p)."""
    return rng.keep(shape, p) * (1.0 / (1.0 - p))


# ---------------------------------------------------------------------------
# fused transformer sublayers: one tape record each, hand-written backward


def _length_groups(lengths: np.ndarray) -> list[np.ndarray]:
    """Row indices [G, L] of the G sequences of each distinct length L, shortest first.

    The sequences lie end to end in a packed [T, ...] array, ``lengths[b]``
    rows each, in order.
    """
    offsets = np.cumsum(lengths) - lengths
    by_length: dict[int, list[int]] = {}
    for b, L in enumerate(lengths.tolist()):
        by_length.setdefault(L, []).append(b)
    return [offsets[np.array(by_length[L]), None] + np.arange(L) for L in sorted(by_length)]


def self_attention(x, weights, lengths, num_heads: int, p: float = 0.0, rng=None) -> Tensor:
    """Multi-head self-attention sublayer over packed sequences.

    ``x`` is [T, d]: sequences of ``lengths`` rows each, packed end to end.
    ``weights`` is (wq, bq, wk, bk, wv, bv, wo, bo), [d, d] matrices and [d]
    biases for the query, key, value and output projections. Rows are
    grouped by sequence length, so every row attends to exactly the rows
    of its own sequence, with no padding and no mask. Given an ``rng``,
    dropout at rate p applies to the attention probabilities and to the
    output.
    """
    x = as_tensor(x)
    weights = tuple(as_tensor(w) for w in weights)
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    lengths = np.asarray(lengths, dtype=np.int64)
    T, d = x.data.shape
    if lengths.ndim != 1 or lengths.sum() != T or (lengths < 1).any():
        raise ContractError(f"sequence lengths {lengths.tolist()} do not partition {T} rows")
    if d % num_heads != 0:
        raise DimensionError(f"width {d} not divisible by {num_heads} heads")
    drop = _drops(p, rng)
    heads, dh = num_heads, d // num_heads
    scale = 1.0 / math.sqrt(dh)
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    qkv = x.data @ w_qkv
    qkv += np.concatenate([bq.data, bk.data, bv.data])
    ctx = np.empty((T, d))
    groups = []
    for rows in _length_groups(lengths):
        G, L = rows.shape
        q, k, v = qkv[rows].reshape(G, L, 3, heads, dh).transpose(2, 0, 3, 1, 4)  # [G, H, L, dh] each
        scores = q @ k.swapaxes(-1, -2)
        scores *= scale
        probs = _softmax(scores, -1)
        mask = _dropout_mask(probs.shape, p, rng) if drop else None
        dropped = probs if mask is None else probs * mask
        ctx[rows] = (dropped @ v).transpose(0, 2, 1, 3).reshape(G, L, d)
        groups.append((rows, q, k, v, probs, mask, dropped))
    out = ctx @ wo.data
    out += bo.data
    out_mask = _dropout_mask(out.shape, p, rng) if drop else None
    if out_mask is not None:
        out *= out_mask

    def bw(g):
        if out_mask is not None:
            g = g * out_mask
        d_ctx = g @ wo.data.T
        d_qkv = np.empty((T, 3 * d))
        for rows, q, k, v, probs, mask, dropped in groups:
            G, L = rows.shape
            dc = d_ctx[rows].reshape(G, L, heads, dh).transpose(0, 2, 1, 3)
            dv = dropped.swapaxes(-1, -2) @ dc
            dp = dc @ v.swapaxes(-1, -2)
            if mask is not None:
                dp *= mask
            ds = _softmax_grad(probs, dp, -1)
            ds *= scale
            dq = ds @ k
            dk = ds.swapaxes(-1, -2) @ q
            d_qkv[rows] = np.stack([dq, dk, dv]).transpose(1, 3, 0, 2, 4).reshape(G, L, 3 * d)
        d_w = x.data.T @ d_qkv
        d_b = d_qkv.sum(axis=0)
        return (d_qkv @ w_qkv.T,
                d_w[:, :d], d_b[:d], d_w[:, d:2 * d], d_b[d:2 * d], d_w[:, 2 * d:], d_b[2 * d:],
                ctx.T @ g, g.sum(axis=0))

    return _make(out, (x, *weights), bw)


def _row_chunks(n: int) -> list[slice]:
    """ceil(n / FFN_CHUNK_ROWS) consecutive row slices covering n rows (one
    empty slice for n = 0), sized as ``np.array_split`` sizes them: the
    first n % k one row longer."""
    k = max(1, -(-n // FFN_CHUNK_ROWS))
    q, r = divmod(n, k)
    edges = [i * q + min(i, r) for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def feed_forward(x, w1, b1, w2, b2, p: float = 0.0, rng=None) -> Tensor:
    """Position-wise feed-forward sublayer: linear, GELU, linear, then dropout.

    ``x`` is [N, d], ``w1`` [d, f] and ``w2`` [f, d]. Given an ``rng``,
    dropout at rate p applies to the output, its mask drawn whole.

    The rows run in ``_row_chunks(N)``, so a chunk's [rows, f]
    intermediates stay in cache from one linear through GELU to the next;
    the weight and bias gradients stay products over all N rows. Up to
    FFN_CHUNK_ROWS rows (a prediction at the default max_len of 150) the
    one chunk is a view of all rows. A longer chunk has at least
    FFN_CHUNK_ROWS / 2 rows, and with the numpy 2.4 / OpenBLAS 0.3.31
    (SkylakeX kernel) build a product's rows were measured not to depend on
    how many rows of that size share it, so the op gave the bits of the
    one-shot formula. That is a property of this BLAS build, measured on
    one machine, like the training determinism the README states.
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    drop = _drops(p, rng)
    chunks = _row_chunks(x.data.shape[0])
    a = np.empty((x.data.shape[0], w1.data.shape[1]))
    out = np.empty((x.data.shape[0], w2.data.shape[1]))
    tanh_terms = []
    for rows in chunks:
        h = x.data[rows] @ w1.data
        h += b1.data
        tanh_terms.append((h, _gelu(h, out=a[rows])[1]))
        np.matmul(a[rows], w2.data, out=out[rows])
    out += b2.data
    mask = _dropout_mask(out.shape, p, rng) if drop else None
    if mask is not None:
        out *= mask

    def bw(g):
        if mask is not None:
            g = g * mask
        da, dx = np.empty_like(a), np.empty(x.data.shape)
        for rows, (h, t) in zip(chunks, tanh_terms):
            d_rows = np.matmul(g[rows], w2.data.T, out=da[rows])
            d_rows *= _gelu_grad(h, t)
            np.matmul(d_rows, w1.data.T, out=dx[rows])
        return dx, x.data.T @ da, da.sum(axis=0), a.T @ g, g.sum(axis=0)

    return _make(out, (x, w1, b1, w2, b2), bw)
