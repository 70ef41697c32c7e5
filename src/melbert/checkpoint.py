"""Binary checkpoint container.

Layout, all little-endian:

    melbert-ckpt v1\n
    <one-line JSON metadata>\n
    param <name> <dim0> <dim1> ...\n
    <row-major float64 bytes>
    ... more param blocks ...
    end\n

Parameter blocks are written in sorted-name order so that saving is a
canonical function of the content, making save/load/save bit-exact.

A save streams the blocks through a 1 MiB buffer to ``<path>.tmp`` and
then renames it onto ``path``, so an interrupted or failed save leaves
any previous file at ``path`` intact.

A load maps the file (``open_checkpoint``) rather than reading it, and
checks its framing up front: header, JSON metadata, one block per name,
declared sizes, nothing after the end marker. The block bytes are read
only where a block is looked up, as a read-only view of the map, and no
view outlives the ``with`` block, so a later save or a truncation of the
file cannot fault an array in use. Building a model
(``training.load_model``) looks up only the model's own blocks and
copies each into its parameter once; the Adam moments of a training
checkpoint are read only on a resume, taken through ``params.Take`` as
the parameters are.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
from collections.abc import Iterator, Mapping

import numpy as np

from .errors import FormatError

MAGIC = b"melbert-ckpt v1\n"
END = b"end\n"
_WRITE_BUFFER = 1 << 20  # bytes: a save's many small header and block writes reach the file in a few calls


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb", buffering=_WRITE_BUFFER) as fh:
            fh.write(MAGIC)
            fh.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
            for name in sorted(arrays):
                if " " in name or "\n" in name:
                    raise FormatError(f"parameter name {name!r} cannot be serialized")
                arr = np.asarray(arrays[name], dtype="<f8", order="C")  # asarray keeps 0-d shapes intact
                dims = " ".join(str(d) for d in arr.shape)
                fh.write((f"param {name} {dims}".rstrip() + "\n").encode("utf-8"))
                fh.write(arr)
            fh.write(END)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


class Blocks(Mapping):
    """The array blocks of a mapped checkpoint, by name.

    The framing of every block is checked before this is made, but an
    array is made only when its name is looked up, as a read-only view of
    the map; listing the names reads no array bytes.
    """

    def __init__(self, buf: mmap.mmap, index: dict[str, tuple[int, tuple[int, ...]]]):
        self._buf = buf
        self._index = index  # name -> (byte offset, shape)

    def __getitem__(self, name: str) -> np.ndarray:
        offset, shape = self._index[name]
        return np.frombuffer(self._buf, "<f8", math.prod(shape), offset).reshape(shape)

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@contextlib.contextmanager
def open_checkpoint(path) -> Iterator[tuple[dict, Blocks]]:
    """Map a checkpoint file and give its metadata and ``Blocks``.

    The views the blocks give are valid only inside the ``with`` block:
    copy what is kept. When the block exits normally the map is closed,
    and a view still alive then is an error (``BufferError``); after an
    exception the map is released with its last view.
    """
    with open(path, "rb") as fh:
        try:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as e:  # an empty file cannot be mapped
            raise FormatError(f"bad checkpoint header, expected {MAGIC!r}") from e
    try:
        meta, index = _frame(buf)
    except BaseException:
        buf.close()  # no view exists yet
        raise
    yield meta, Blocks(buf, index)
    buf.close()


def _frame(buf: mmap.mmap) -> tuple[dict, dict[str, tuple[int, tuple[int, ...]]]]:
    """The metadata and the (offset, shape) of each block, with the framing
    checked; the bytes of the blocks themselves are not read."""
    if buf[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad checkpoint header, expected {MAGIC!r}")
    nl = buf.find(b"\n", len(MAGIC))
    if nl < 0:
        raise FormatError("unterminated metadata line in checkpoint (truncated file?)")
    try:
        meta = json.loads(buf[len(MAGIC) : nl].decode("utf-8", "replace"))
    except json.JSONDecodeError as e:
        raise FormatError(f"checkpoint metadata is not valid JSON: {e}") from e

    cursor, size = nl + 1, len(buf)
    index: dict[str, tuple[int, tuple[int, ...]]] = {}
    while True:
        nl = buf.find(b"\n", cursor)
        if nl < 0:
            raise FormatError("unterminated line in checkpoint (truncated file?)")
        line, cursor = buf[cursor:nl], nl + 1
        if line == END[:-1]:
            break
        parts = line.split(b" ")  # undecodable bytes fail the checks below
        if parts[0] != b"param" or len(parts) < 2:
            raise FormatError(f"expected a param block, got {line!r}")
        name = parts[1].decode("utf-8", "replace")
        if name in index:
            raise FormatError(f"duplicate block {name!r}")
        try:
            shape = tuple(map(int, parts[2:]))
        except ValueError as e:
            raise FormatError(f"bad dimensions in block {name!r}") from e
        if min(shape, default=0) < 0:
            raise FormatError(f"negative dimension in block {name!r}")
        nbytes = math.prod(shape) * 8
        if cursor + nbytes > size:
            raise FormatError(f"block {name!r} truncated")
        index[name] = (cursor, shape)
        cursor += nbytes
    if cursor != size:
        raise FormatError(f"{size - cursor} unexpected bytes after the end marker")
    return meta, index

