"""Reverse-mode autodiff over dense float64 numpy arrays.

Every op records itself on a single module-level tape. backward() replays
the tape once in reverse, accumulating into .grad, then clears the tape.
Tensors are 0-d scalars, 1-d vectors, or 2-d matrices; nothing higher.
A whole recurrent layer is one op (recurrent), and callers can record
their own fused ops with a hand-written backward (fused).
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

_TAPE: list = []
_GRAD_ENABLED = True


class Tensor:
    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim > 2:
            raise ValueError(f"tensors are at most 2-d, got shape {self.values.shape}")
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


@contextmanager
def no_grad():
    """Disable taping inside the block; ops run forward-only."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def reset_tape():
    _TAPE.clear()


def tape_size() -> int:
    return len(_TAPE)


def _record(out: Tensor, inputs: Sequence[Tensor], bwd) -> Tensor:
    if _GRAD_ENABLED and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.append((out, bwd))
    return out


def _accum(t: Tensor, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def backward(loss: Tensor):
    """Seed d(loss)/d(loss)=1, replay the tape in reverse, clear the tape.

    Tensors not reachable from loss keep grad=None.
    """
    if loss.values.ndim != 0:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    try:
        if loss.requires_grad:
            if loss.grad is None:
                loss.grad = np.zeros(())
            loss.grad += 1.0
            for out, bwd in reversed(_TAPE):
                if out.grad is not None:
                    bwd(out.grad)
    finally:
        _TAPE.clear()


# ---------------------------------------------------------------- linear ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        out = Tensor(av @ bv)

        def bwd(g):
            _accum(a, g @ bv.T)
            _accum(b, av.T @ g)
    elif av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        out = Tensor(av @ bv)

        def bwd(g):
            _accum(a, np.outer(g, bv))
            _accum(b, av.T @ g)
    elif av.ndim == 1 and bv.ndim == 2:
        if av.shape[0] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        out = Tensor(av @ bv)

        def bwd(g):
            _accum(a, bv @ g)
            _accum(b, np.outer(av, g))
    else:
        raise ValueError(f"matmul needs matrix/vector operands, got {av.shape} @ {bv.shape}")
    return _record(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape == bv.shape:
        out = Tensor(av + bv)

        def bwd(g):
            _accum(a, g)
            _accum(b, g)
    elif av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        out = Tensor(av + bv)

        def bwd(g):
            _accum(a, g)
            _accum(b, g.sum(axis=0))
    elif av.ndim == 1 and bv.ndim == 2 and bv.shape[1] == av.shape[0]:
        out = Tensor(av + bv)

        def bwd(g):
            _accum(a, g.sum(axis=0))
            _accum(b, g)
    else:
        raise ValueError(f"add shape mismatch: {av.shape} + {bv.shape}")
    return _record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.values * c)

    def bwd(g):
        _accum(a, g * c)
    return _record(out, (a,), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ValueError(f"mul shape mismatch: {av.shape} * {bv.shape}")
    out = Tensor(av * bv)

    def bwd(g):
        _accum(a, g * bv)
        _accum(b, g * av)
    return _record(out, (a, b), bwd)


def dot(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim != 1 or bv.ndim != 1 or av.shape != bv.shape:
        raise ValueError(f"dot needs equal-length vectors, got {av.shape} . {bv.shape}")
    out = Tensor(av @ bv)

    def bwd(g):
        _accum(a, g * bv)
        _accum(b, g * av)
    return _record(out, (a, b), bwd)


# ------------------------------------------------------------ nonlinearities

def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.values)
    out = Tensor(y)

    def bwd(g):
        _accum(x, g * (1.0 - y * y))
    return _record(out, (x,), bwd)


def _sigmoid(v):
    """Logistic function, exp taken only of non-positive arguments."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.values)
    out = Tensor(y)

    def bwd(g):
        _accum(x, g * y * (1.0 - y))
    return _record(out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0
    out = Tensor(np.where(mask, x.values, 0.0))

    def bwd(g):
        _accum(x, g * mask)
    return _record(out, (x,), bwd)


def logsumexp(v: Tensor) -> Tensor:
    """log sum exp of a vector, reduced to a scalar. Stable under shift."""
    x = v.values
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"logsumexp needs a non-empty vector, got shape {x.shape}")
    m = x.max()
    out = Tensor(m + np.log(np.sum(np.exp(x - m))))
    e = np.exp(x - out.values)  # softmax(x)

    def bwd(g):
        _accum(v, g * e)
    return _record(out, (v,), bwd)


def normalize(v: Tensor) -> Tensor:
    """v / ||v||_2. Norm <= 1e-9 yields the zero vector with zero gradient."""
    x = v.values
    if x.ndim != 1:
        raise ValueError(f"normalize needs a vector, got shape {x.shape}")
    n = float(np.linalg.norm(x))
    if n <= 1e-9:
        out = Tensor(np.zeros_like(x))

        def bwd(g):
            pass
    else:
        u = x / n
        out = Tensor(u)

        def bwd(g):
            _accum(v, (g - u * (u @ g)) / n)
    return _record(out, (v,), bwd)


# ----------------------------------------------------------- shape plumbing

def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors. Scalars are treated as length-1 vectors for axis 0."""
    if not parts:
        raise ValueError("concat of an empty list")
    ndims = {p.values.ndim for p in parts}
    if ndims <= {0, 1}:
        if axis != 0:
            raise ValueError(f"concat of vectors needs axis 0, got {axis}")
        arrs = [np.atleast_1d(p.values) for p in parts]
        out = Tensor(np.concatenate(arrs))
        sizes = [a.shape[0] for a in arrs]

        def bwd(g):
            off = 0
            for p, n in zip(parts, sizes):
                seg = g[off:off + n]
                _accum(p, seg.reshape(()) if p.values.ndim == 0 else seg)
                off += n
    elif ndims == {2}:
        if axis not in (0, 1):
            raise ValueError(f"concat axis must be 0 or 1, got {axis}")
        arrs = [p.values for p in parts]
        widths = {a.shape[1 - axis] for a in arrs}
        if len(widths) != 1:
            raise ValueError(f"concat shape mismatch along axis {axis}: "
                             f"{[a.shape for a in arrs]}")
        out = Tensor(np.concatenate(arrs, axis=axis))
        sizes = [a.shape[axis] for a in arrs]

        def bwd(g):
            off = 0
            for p, n in zip(parts, sizes):
                sl = (slice(off, off + n), slice(None)) if axis == 0 \
                    else (slice(None), slice(off, off + n))
                _accum(p, g[sl])
                off += n
    else:
        raise ValueError(f"concat of mixed ranks: {[p.values.shape for p in parts]}")
    return _record(out, tuple(parts), bwd)


def index(t: Tensor, key) -> Tensor:
    """t[key] for an integer, a slice, an integer array, or a tuple of
    those, one per axis. An integer array gathers rows (or, paired with a
    second array, elements). Negative and out-of-range indices raise
    IndexError. The backward scatter-adds, so repeated indices accumulate.
    """
    shape = t.values.shape
    keys = key if isinstance(key, tuple) else (key,)
    if len(keys) > len(shape):
        raise IndexError(f"{len(keys)} indices for shape {shape}")
    for k, n in zip(keys, shape):
        if isinstance(k, slice):
            bad = k.step not in (None, 1) or any(
                v is not None and not 0 <= v <= n for v in (k.start, k.stop))
        else:
            k = np.asarray(k)
            bad = k.dtype.kind not in "iu" or (
                k.size > 0 and not 0 <= k.min() <= k.max() < n)
        if bad:
            raise IndexError(f"index {key!r} out of range for shape {shape}")
    out = Tensor(t.values[key])

    def bwd(g):
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.values)
            np.add.at(t.grad, key, g)
    return _record(out, (t,), bwd)


def mean_rows(m: Tensor) -> Tensor:
    """Column means of a matrix: the average over rows."""
    if m.values.ndim != 2 or m.values.shape[0] == 0:
        raise ValueError(f"mean_rows needs a matrix with rows, got shape {m.values.shape}")
    t = m.values.shape[0]
    out = Tensor(m.values.mean(axis=0))

    def bwd(g):
        _accum(m, np.broadcast_to(g / t, m.values.shape))
    return _record(out, (m,), bwd)


def tsum(x: Tensor) -> Tensor:
    """Sum of all entries, reduced to a scalar."""
    out = Tensor(x.values.sum())

    def bwd(g):
        _accum(x, np.broadcast_to(g, x.values.shape))
    return _record(out, (x,), bwd)


# ------------------------------------------------------------ sequence ops

def _previous(states: np.ndarray, reverse: bool) -> np.ndarray:
    """The state each step of a scan started from; zeros before the first."""
    zero = np.zeros((1, states.shape[1]))
    return np.concatenate((states[1:], zero) if reverse else (zero, states[:-1]))


def recurrent(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor,
              cell: str = "tanh", reverse: bool = False) -> Tensor:
    """A recurrent layer over the rows of x, recorded as one tape entry.

    The input projection x @ w_x.T + b is one matrix product over every
    timestep; only w_h @ h runs step by step. The tanh cell is
    h = tanh(z). The lstm cell packs z in row blocks [input, forget, cell,
    output], each `hidden` wide. reverse scans from the last row to the
    first. Row t of the (T, hidden) output is the state after reading row
    t of x, in either direction. The backward is backpropagation through
    time, written out by hand.
    """
    if cell not in ("tanh", "lstm"):
        raise ValueError(f"unknown recurrent cell {cell!r}")
    xv, wx, wh, bv = x.values, w_x.values, w_h.values, b.values
    hd = wh.shape[1] if wh.ndim == 2 else 0   # hidden width
    width = (4 if cell == "lstm" else 1) * hd
    if (xv.ndim != 2 or xv.shape[0] == 0 or wx.shape != (width, xv.shape[1])
            or wh.shape != (width, hd) or bv.shape != (width,)):
        raise ValueError(f"recurrent shape mismatch for a {cell} cell: x {xv.shape}, "
                         f"w_x {wx.shape}, w_h {wh.shape}, b {bv.shape}")
    t_len = xv.shape[0]
    steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
    pre = xv @ wx.T + bv
    hs = np.empty((t_len, hd))
    h = np.zeros(hd)
    if cell == "tanh":
        for t in steps:
            hs[t] = h = np.tanh(pre[t] + wh @ h)
    else:
        gate = slice(2 * hd, 3 * hd)
        acts = np.empty_like(pre)      # i, f, g, o activations per step
        cs = np.empty((t_len, hd))
        tcs = np.empty((t_len, hd))    # tanh(c)
        c = np.zeros(hd)
        for t in steps:
            z = pre[t] + wh @ h
            a = _sigmoid(z)
            a[gate] = np.tanh(z[gate])
            c = a[hd:2 * hd] * c + a[:hd] * a[gate]
            tc = np.tanh(c)
            h = a[3 * hd:] * tc
            acts[t], cs[t], tcs[t], hs[t] = a, c, tc, h

    def bwd(g):
        dpre = np.empty_like(pre)
        dh = np.zeros(hd)
        if cell == "tanh":
            dact = 1.0 - hs * hs
            for t in reversed(steps):
                dpre[t] = dz = (g[t] + dh) * dact[t]
                dh = dz @ wh
        else:
            dact = acts * (1.0 - acts)
            dact[:, gate] = 1.0 - acts[:, gate] ** 2
            dc_dh = acts[:, 3 * hd:] * (1.0 - tcs * tcs)
            c_prev = _previous(cs, reverse)
            dc = np.zeros(hd)
            for t in reversed(steps):
                a, dz = acts[t], dpre[t]
                dht = g[t] + dh
                dc = dht * dc_dh[t] + dc
                dz[:hd] = dc * a[gate]
                dz[hd:2 * hd] = dc * c_prev[t]
                dz[gate] = dc * a[:hd]
                dz[3 * hd:] = dht * tcs[t]
                dz *= dact[t]
                dc = dc * a[hd:2 * hd]
                dh = dz @ wh
        _accum(x, dpre @ wx)
        _accum(w_x, dpre.T @ xv)
        _accum(w_h, dpre.T @ _previous(hs, reverse))
        _accum(b, dpre.sum(axis=0))
    return _record(Tensor(hs), (x, w_x, w_h, b), bwd)


def fused(values, inputs: Sequence[Tensor], grads) -> Tensor:
    """An op computed outside this module, recorded as one tape entry.

    grads(g) maps the output gradient to one gradient per input, in
    order. It runs only when the output is reachable from the loss.
    """
    def bwd(g):
        for t, gt in zip(inputs, grads(g)):
            _accum(t, gt)
    return _record(Tensor(values), tuple(inputs), bwd)
