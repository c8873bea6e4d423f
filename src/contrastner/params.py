"""Named parameter store, gradient-descent step, binary checkpoints.

Checkpoint layout: magic b"WCLB", version uint32, then one record per
parameter in store order: name length uint32, utf-8 name, rank uint32,
each dimension uint32, values as row-major little-endian float64.
"""
from __future__ import annotations

import math
import struct
from typing import Iterable, Iterator, Tuple

import numpy as np

from .autodiff import Tensor

MAGIC = b"WCLB"
VERSION = 1


class ParamStore:
    """Insertion-ordered mapping of names to trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, values) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(values, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list:
        return list(self._params)

    def items(self) -> Iterator[Tuple[str, Tensor]]:
        return iter(self._params.items())

    def tensors(self) -> list:
        return list(self._params.values())

    def subset(self, prefix: str) -> "ParamStore":
        """New store sharing the tensors whose names start with prefix."""
        out = ParamStore()
        for name, t in self._params.items():
            if name.startswith(prefix):
                out._params[name] = t
        return out

    def copy(self, requires_grad: bool = True) -> "ParamStore":
        """Deep value copy; grads are not copied."""
        out = ParamStore()
        for name, t in self._params.items():
            c = Tensor(t.values.copy(), requires_grad=requires_grad)
            out._params[name] = c
        return out


def sgd_step(store: ParamStore, lr: float):
    """One descent step p -= lr * grad over every parameter with a grad.

    Rejects the whole step if any present gradient is non-finite, naming
    the parameter. All grads are cleared afterwards (Tensor.clear_grad), so
    the next backward writes into the same arrays.
    """
    lr = float(lr)
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    for name, t in store.items():
        if t.grad is not None and not np.all(np.isfinite(t.grad)):
            raise ValueError(f"non-finite gradient in parameter {name}")
    for _, t in store.items():
        if t.grad is not None:
            np.multiply(t.grad, lr, out=t.grad)   # the grad is cleared below
            t.values -= t.grad
            t.clear_grad()


def save_params(store: ParamStore, path):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        for name, t in store.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", t.values.ndim))
            for d in t.values.shape:
                f.write(struct.pack("<I", d))
            f.write(np.ascontiguousarray(t.values, dtype="<f8").tobytes())


def load_params(path) -> ParamStore:
    """Read a checkpoint. Any malformed content raises ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise ValueError(f"bad checkpoint magic {data[:4]!r} in {path}")
    pos = 4

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(data) - pos:
            raise ValueError(f"truncated checkpoint {path}: {what} needs {n} bytes "
                             f"at offset {pos}, {len(data) - pos} left")
        pos += n
        return data[pos - n:pos]

    def u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    if (version := u32("version")) != VERSION:
        raise ValueError(f"unsupported checkpoint version {version} in {path}")
    store = ParamStore()
    while pos < len(data):
        raw = take(u32("name length"), "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"parameter name {raw!r} is not utf-8 in {path}") from None
        if (ndim := u32(f"rank of {name}")) > 2:
            raise ValueError(f"parameter {name} has rank {ndim}, at most 2 allowed, in {path}")
        shape = tuple(u32(f"shape of {name}") for _ in range(ndim))
        buf = take(8 * math.prod(shape), f"values of {name}")
        store.add(name, np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
    return store
