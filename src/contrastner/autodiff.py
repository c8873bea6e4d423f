"""Reverse-mode autodiff over dense float64 numpy arrays.

Every op records itself on a single module-level tape. backward() replays
the tape once in reverse, accumulating into .grad, then clears the tape.
Tensors are 0-d scalars, 1-d vectors, or 2-d matrices; nothing higher.
A whole recurrent layer is one op (recurrent), and callers can record
their own fused ops with a hand-written backward (fused).
"""
from __future__ import annotations

import functools
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
        # 0.0 + g, not a copy of g: a -0.0 entry becomes +0.0
        t.grad = np.add(g, 0.0, out=np.empty_like(t.values))
    else:
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
    """a @ b for matrix/vector operands. The backward forms the gradient
    product only for an operand that requires grad."""
    av, bv = a.values, b.values
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

        def bwd(g):
            if a.requires_grad:
                _accum(a, g @ bv.T)
            if b.requires_grad:
                _accum(b, av.T @ g)
    elif av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

        def bwd(g):
            if a.requires_grad:
                _accum(a, np.outer(g, bv))
            if b.requires_grad:
                _accum(b, av.T @ g)
    elif av.ndim == 1 and bv.ndim == 2:
        if av.shape[0] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

        def bwd(g):
            if a.requires_grad:
                _accum(a, bv @ g)
            if b.requires_grad:
                _accum(b, np.outer(av, g))
    else:
        raise ValueError(f"matmul needs matrix/vector operands, got {av.shape} @ {bv.shape}")
    return _record(Tensor(av @ bv), (a, b), bwd)


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

def pack(lengths, n_rows: int, reverse: bool = False) -> tuple:
    """Time-major schedule for scanning sequences laid end to end in n_rows rows.

    lengths lists the sequences in row order; None means one sequence of
    n_rows. Returns (perm, steps, order). order lists the sequences by
    descending length, ties in input order. Step t of the scan reads the
    packed rows steps[t] = (start, end) of perm: the row at step t of each
    sequence still live, in that order, so the live sequences at step t are
    a prefix of those at step t - 1. reverse reads each sequence from its
    last row to its first.
    """
    lens = [n_rows] if lengths is None else list(lengths)
    if (not lens or sum(lens) != n_rows
            or any(not isinstance(n, (int, np.integer)) or n < 1 for n in lens)):
        raise ValueError(f"sequence lengths must be positive integers summing to "
                         f"{n_rows} rows, got {lengths!r}")
    lens = np.array(lens)
    order = np.argsort(-lens, kind="stable")
    ends = np.cumsum(lens)
    first = (ends - 1 if reverse else ends - lens)[order]   # row of step 0
    t = np.arange(lens[order[0]])[:, None]
    live = t < lens[order]                       # (step, sequence); a prefix per step
    bounds = np.cumsum(live.sum(axis=1)).tolist()
    perm = (first + (-t if reverse else t))[live]
    return perm, list(zip([0] + bounds[:-1], bounds)), order.tolist()


def _block(start: int, n: int):
    return start if n == 1 else slice(start, start + n)


@functools.lru_cache(maxsize=64)
def _scan_plan(lengths, n_rows: int, reverse: bool) -> tuple:
    """(perm, n_seq, blocks, prev_rows) of a recurrent scan, see pack.

    The state buffer holds n_seq zero rows, the states before step 0, then
    the state after each packed row. Per step, a block holds the index of
    its packed rows and of their previous states; one row is indexed by an
    int, so that its ops run on vectors. prev_rows[r] is the previous state
    of row r of x. perm is a slice for one sequence, so that it makes views.
    Cached: training scans the same few sentence lengths over and over.
    """
    perm, steps, _ = pack(lengths, n_rows, reverse)
    n_seq = steps[0][1]
    prev = [0] + [s + n_seq for s, _ in steps[:-1]]
    blocks = [(_block(s, e - s), _block(q, e - s)) for (s, e), q in zip(steps, prev)]
    prev_rows = np.empty(n_rows, dtype=np.int64)
    prev_rows[perm] = np.concatenate([np.arange(q, q + e - s)
                                      for (s, e), q in zip(steps, prev)])
    if n_seq == 1:
        perm = slice(None, None, -1) if reverse else slice(None)
    return perm, n_seq, blocks, prev_rows


def recurrent(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor,
              cell: str = "tanh", reverse: bool = False, lengths=None) -> Tensor:
    """A recurrent layer over the rows of x, recorded as one tape entry.

    The input projection x @ w_x.T + b is one matrix product over every
    timestep; only h @ w_h.T runs step by step. The tanh cell is
    h = tanh(z). The lstm cell packs z in row blocks [input, forget, cell,
    output], each `hidden` wide. lengths splits the rows of x into
    sequences laid end to end (default: one sequence); they are scanned in
    lockstep, one matrix product per step (see pack). reverse scans each
    sequence from its last row to its first. Row r of the (rows, hidden)
    output is the state after reading row r of x, in either direction. The
    backward is backpropagation through time, written out by hand.
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
    n_rows = xv.shape[0]
    perm, n_seq, blocks, prev_rows = _scan_plan(
        None if lengths is None else tuple(lengths), n_rows, reverse)
    p = (xv @ wx.T + bv)[perm]         # row k is the projection of row perm[k] of x
    hs = np.zeros((n_seq + n_rows, hd))
    states = hs[n_seq:]                # row k is the state after packed row k
    wh_t = wh.T
    if cell == "tanh":
        for k, j in blocks:
            states[k] = np.tanh(p[k] + hs[j] @ wh_t)
    else:
        gate = slice(2 * hd, 3 * hd)
        acts = p                       # i, f, g, o activations overwrite each row
        cs = np.zeros((n_seq + n_rows, hd))   # cell states, laid out as hs
        c_states = cs[n_seq:]
        tcs = np.empty((n_rows, hd))   # tanh(c)
        for k, j in blocks:
            z = p[k] + hs[j] @ wh_t
            a = _sigmoid(z)
            a[..., gate] = np.tanh(z[..., gate])
            c = a[..., hd:2 * hd] * cs[j] + a[..., :hd] * a[..., gate]
            tc = np.tanh(c)
            acts[k], c_states[k], tcs[k] = a, c, tc
            states[k] = a[..., 3 * hd:] * tc
    out = np.empty((n_rows, hd))
    out[perm] = states

    def bwd(g):
        dp = np.empty((n_rows, width))
        dhs = np.zeros((n_seq + n_rows, hd))   # gradient into each state, laid out as hs
        dstates = dhs[n_seq:]
        dstates[:] = g[perm]           # steps add the gradient through w_h
        if cell == "tanh":
            dact = 1.0 - states * states
            for k, j in reversed(blocks):
                dp[k] = dz = dstates[k] * dact[k]
                dhs[j] += dz @ wh
        else:
            dact = acts * (1.0 - acts)
            dact[:, gate] = 1.0 - acts[:, gate] ** 2
            dc_dh = acts[:, 3 * hd:] * (1.0 - tcs * tcs)
            dcs = np.zeros((n_seq + n_rows, hd))   # gradient into each cell state
            dc_states = dcs[n_seq:]
            for k, j in reversed(blocks):
                a, dz, dht = acts[k], dp[k], dstates[k]
                dc = dht * dc_dh[k] + dc_states[k]
                dz[..., :hd] = dc * a[..., gate]
                dz[..., hd:2 * hd] = dc * cs[j]
                dz[..., gate] = dc * a[..., :hd]
                dz[..., 3 * hd:] = dht * tcs[k]
                dz *= dact[k]
                dcs[j] = dc * a[..., hd:2 * hd]
                dhs[j] += dz @ wh
        # weight gradients sum over x's rows in their order, whatever the packing
        dpre = np.empty_like(dp)
        dpre[perm] = dp
        _accum(x, dpre @ wx)
        _accum(w_x, dpre.T @ xv)
        _accum(w_h, dpre.T @ hs[prev_rows])
        _accum(b, dpre.sum(axis=0))
    return _record(Tensor(out), (x, w_x, w_h, b), bwd)


def fused(values, inputs: Sequence[Tensor], grads) -> Tensor:
    """An op computed outside this module, recorded as one tape entry.

    grads(g) maps the output gradient to one gradient per input, in
    order. It runs only when the output is reachable from the loss.
    """
    def bwd(g):
        for t, gt in zip(inputs, grads(g)):
            _accum(t, gt)
    return _record(Tensor(values), tuple(inputs), bwd)
