"""Reverse-mode autodiff over dense float64 numpy arrays.

Every op records itself on a single module-level tape. backward() replays
the tape once in reverse, accumulating into .grad, then clears the tape.
Tensors are 0-d scalars, 1-d vectors, or 2-d matrices; nothing higher.
The ops are the ones the pipeline records, each in the operand shapes it
uses. A whole recurrent layer is one op (recurrent), and callers record
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
    """A value and, after backward, its gradient.

    grad is None until a backward reaches the tensor. sgd_step zeroes it in
    place and the next backward adds into that array again: each training
    step reuses a parameter's grad array, and a reference to an old grad
    sees it zeroed and refilled.
    """
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

    Tensors not reachable from loss keep their grad (None if never reached).
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
    """a @ b for a matrix a and a matrix or vector b. The backward forms the
    gradient product only for an operand that requires grad."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim not in (1, 2) or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul needs a matrix @ a matrix or vector, got "
                         f"{av.shape} @ {bv.shape}")

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ bv.T if bv.ndim == 2 else np.outer(g, bv))
        if b.requires_grad:
            _accum(b, av.T @ g)
    return _record(Tensor(av @ bv), (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ValueError(f"add shape mismatch: {av.shape} + {bv.shape}")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)
    return _record(Tensor(av + bv), (a, b), bwd)


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

def _sigmoid(v, out):
    """Logistic function of v written into out, which may be v itself; exp
    is taken only of non-positive arguments.

    With e = exp(-|v|) <= 1, max(e, v >= 0) is 1 where v >= 0 and e
    elsewhere (NaN stays NaN), so out is 1 / (1 + e) or e / (1 + e).
    """
    e = np.abs(v, out=np.empty_like(v))
    np.exp(np.negative(e, out=e), out=e)
    np.maximum(e, v >= 0, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0
    out = Tensor(np.where(mask, x.values, 0.0))

    def bwd(g):
        _accum(x, g * mask)
    return _record(out, (x,), bwd)


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

def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join matrices with one row count side by side."""
    arrs = [p.values for p in parts]
    if not arrs or any(a.ndim != 2 or a.shape[0] != arrs[0].shape[0] for a in arrs):
        raise ValueError(f"concat needs matrices with one row count, got "
                         f"{[a.shape for a in arrs]}")
    out = Tensor(np.concatenate(arrs, axis=1))

    def bwd(g):
        off = 0
        for p, a in zip(parts, arrs):
            _accum(p, g[:, off:off + a.shape[1]])
            off += a.shape[1]
    return _record(out, tuple(parts), bwd)


def index(t: Tensor, ids: np.ndarray) -> Tensor:
    """The rows of t at ids, a 1-d integer array. Anything else, and
    negative or out-of-range ids, raise IndexError. The backward
    scatter-adds, so repeated ids accumulate."""
    n = t.values.shape[0]
    if (not isinstance(ids, np.ndarray) or ids.ndim != 1 or ids.dtype.kind not in "iu"
            or (ids.size > 0 and not 0 <= ids.min() <= ids.max() < n)):
        raise IndexError(f"index needs a 1-d array of row ids below {n}, got {ids!r}")
    out = Tensor(t.values[ids])

    def bwd(g):
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.values)
            np.add.at(t.grad, ids, g)
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
    # Each step writes only into rows of the buffers below, in place.
    p = (xv @ wx.T + bv)[perm]         # row k is the projection of row perm[k] of x
    hs = np.zeros((n_seq + n_rows, hd))
    states = hs[n_seq:]                # row k is the state after packed row k
    wh_t = wh.T
    if cell == "tanh":
        for k, j in blocks:
            z = p[k]
            z += hs[j] @ wh_t
            np.tanh(z, out=states[k])
    else:
        gate, o = slice(2 * hd, 3 * hd), slice(3 * hd, None)
        acts = p                       # i, f, g, o activations overwrite each row
        cs = np.zeros((n_seq + n_rows, hd))   # cell states, laid out as hs
        c_states = cs[n_seq:]
        tcs = np.empty((n_rows, hd))   # tanh(c)
        for k, j in blocks:
            a = p[k]
            a += hs[j] @ wh_t
            g = np.tanh(a[..., gate], out=tcs[k])   # held there until tanh(c)
            _sigmoid(a, out=a)
            a[..., gate] = g
            c = np.multiply(a[..., hd:2 * hd], cs[j], out=c_states[k])
            c += a[..., :hd] * a[..., gate]
            np.multiply(a[..., o], np.tanh(c, out=tcs[k]), out=states[k])
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
                dz = np.multiply(dstates[k], dact[k], out=dp[k])
                dhs[j] += dz @ wh
        else:
            dact = acts * (1.0 - acts)
            dact[:, gate] = 1.0 - acts[:, gate] ** 2
            dc_dh = acts[:, o] * (1.0 - tcs * tcs)
            dcs = np.zeros((n_seq + n_rows, hd))   # gradient into each cell state
            dc_states = dcs[n_seq:]
            for k, j in reversed(blocks):
                a, dz, dht = acts[k], dp[k], dstates[k]
                do = dz[..., o]        # holds dht * dc_dh until the output gate's turn
                dc = dc_states[k]
                dc += np.multiply(dht, dc_dh[k], out=do)
                np.multiply(dc, a[..., gate], out=dz[..., :hd])
                np.multiply(dc, cs[j], out=dz[..., hd:2 * hd])
                np.multiply(dc, a[..., :hd], out=dz[..., gate])
                np.multiply(dht, tcs[k], out=do)
                dz *= dact[k]
                np.multiply(dc, a[..., hd:2 * hd], out=dcs[j])
                dhs[j] += dz @ wh
        # weight gradients sum over x's rows in their order, whatever the packing
        if n_seq == 1:
            dpre = dp[perm]            # perm is a slice: a view
        else:
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
