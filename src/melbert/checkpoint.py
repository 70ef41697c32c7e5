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

A save streams the blocks to ``<path>.tmp`` and then renames it onto
``path``, so an interrupted or failed save leaves any previous file at
``path`` intact.

A load reads the file once, checks its framing (header, JSON metadata,
one block per name, declared sizes, nothing after the end marker) and
returns the arrays as read-only views of the bytes read. Building a
model from them (``training.load_model``) checks every name and shape
and copies each parameter once; no init is drawn.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import FormatError

MAGIC = b"melbert-ckpt v1\n"
END = b"end\n"


def save_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
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


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Metadata and arrays of a checkpoint file.

    The arrays are read-only views of the file's bytes; copy one before
    writing to it.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)  # array blocks are read through this without copying
    if not blob.startswith(MAGIC):
        raise FormatError(f"bad checkpoint header, expected {MAGIC!r}")
    cursor = len(MAGIC)

    def read_line() -> bytes:
        nonlocal cursor
        nl = blob.find(b"\n", cursor)
        if nl < 0:
            raise FormatError("unterminated line in checkpoint (truncated file?)")
        line = blob[cursor:nl]
        cursor = nl + 1
        return line

    try:
        meta = json.loads(read_line().decode("utf-8", "replace"))
    except json.JSONDecodeError as e:
        raise FormatError(f"checkpoint metadata is not valid JSON: {e}") from e

    arrays: dict[str, np.ndarray] = {}
    while True:
        line = read_line()
        if line == END[:-1]:
            break
        parts = line.decode("utf-8", "replace").split(" ")  # undecodable bytes fail the checks below
        if parts[0] != "param" or len(parts) < 2:
            raise FormatError(f"expected a param block, got {line!r}")
        name = parts[1]
        if name in arrays:
            raise FormatError(f"duplicate block {name!r}")
        try:
            shape = tuple(map(int, parts[2:]))
        except ValueError as e:
            raise FormatError(f"bad dimensions in block {name!r}") from e
        if min(shape, default=0) < 0:
            raise FormatError(f"negative dimension in block {name!r}")
        nbytes = math.prod(shape) * 8
        if cursor + nbytes > len(blob):
            raise FormatError(f"block {name!r} truncated")
        arrays[name] = np.frombuffer(view[cursor : cursor + nbytes], dtype="<f8").reshape(shape)
        cursor += nbytes
    if cursor != len(blob):
        raise FormatError(f"{len(blob) - cursor} unexpected bytes after the end marker")
    return meta, arrays
