"""Contrastive fine-tuning of the sentence encoder.

Each training pair contributes one anchor (query encoder) and one positive
(key encoder, no gradients). The positive cosine similarity is stacked on
top of cosines against a fixed-size FIFO queue of past keys, and the loss
is the InfoNCE objective with the positive at index 0:

    loss = logsumexp(m / tau) - m[0] / tau

The queue rotates by one after each pair: eldest out, current key in.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .corpus import SentencePair
from .params import ParamStore, sgd_step

@dataclass
class WclConfig:
    temperature: float = 0.07
    queue_size: int = 4096          # number of negatives kept
    epochs: int = 5
    lr: float = 0.05
    seed: int = 0
    momentum: float = 0.999         # key <- m*key + (1-m)*query after each step

    def validate(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.queue_size < 1:
            raise ValueError(f"queue size must be >= 1, got {self.queue_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")


@dataclass
class WclLog:
    epoch_losses: list = field(default_factory=list)
    steps: int = 0
    queue: Optional["NegativeQueue"] = None  # final state, for inspection


def init_head(store: ParamStore, d_in: int, n_types: int,
              rng: Optional[np.random.Generator] = None):
    """Two-layer projection, parameters head.*: d_in -> d_in (relu) -> n_types."""
    rng = rng or np.random.default_rng(0)
    store.add("head.w1", rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_in)))
    store.add("head.b1", np.zeros(d_in))
    store.add("head.w2", rng.normal(0.0, 1.0 / np.sqrt(d_in), (n_types, d_in)))
    store.add("head.b2", np.zeros(n_types))


def project(store: ParamStore, v: ad.Tensor) -> ad.Tensor:
    h = ad.relu(ad.add(ad.matmul(store["head.w1"], v), store["head.b1"]))
    return ad.add(ad.matmul(store["head.w2"], h), store["head.b2"])


def similarity(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Cosine: normalize both sides, then dot."""
    return ad.dot(ad.normalize(a), ad.normalize(b))


class NegativeQueue:
    """FIFO of past key vectors at unit length, fixed size, oldest first.

    A mirrored ring: every row is held twice, at i and at i + size, in one
    (2 * size, dim) buffer, and head is the row index of the eldest entry.
    rows[head:head + size] is then the whole queue, eldest first, as a
    contiguous view. A rotation writes the unit key twice and moves head.
    rotations counts every rotation, so that a holder of a view can tell
    that the queue has moved since.
    """

    def __init__(self, size: int, dim: int, rng: np.random.Generator):
        if size < 1:
            raise ValueError(f"queue size must be >= 1, got {size}")
        self.size = size
        self.dim = dim
        units = _unit_rows(rng.standard_normal((size, dim)))
        self._rows = _page_aligned(2 * size, dim)
        self._rows[:size] = self._rows[size:] = units
        self._head = 0
        self.rotations = 0

    def __len__(self):
        return self.size

    def rotate(self, key: np.ndarray):
        """Dequeue the eldest vector, enqueue the new key at unit length."""
        key = np.asarray(key, dtype=np.float64)
        if key.shape != (self.dim,):
            raise ValueError(f"key shape {key.shape} does not match queue dim {self.dim}")
        h = self._head
        self._rows[h] = self._rows[h + self.size] = _unit_rows(key[None, :])[0]
        self._head = (h + 1) % self.size
        self.rotations += 1

    def as_matrix(self) -> np.ndarray:
        """A read-only (size, dim) view of the unit rows (a zero row stays
        zero), eldest row first."""
        view = self._rows[self._head:self._head + self.size]
        view.flags.writeable = False
        return view


def _page_aligned(rows: int, cols: int) -> np.ndarray:
    """An empty (rows, cols) float64 array that starts on a memory page, so
    that the speed of reading it does not follow where the heap placed it."""
    pad = mmap.PAGESIZE // 8
    raw = np.empty(rows * cols + pad)
    skip = (-raw.ctypes.data % mmap.PAGESIZE) // 8
    return raw[skip:skip + rows * cols].reshape(rows, cols)


def _unit_rows(q: np.ndarray) -> np.ndarray:
    """Each row over its L2 norm; rows of norm <= 1e-9 become zero."""
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    return np.where(norms > 1e-9, q / np.maximum(norms, 1e-30), 0.0)


class StaleQueueError(RuntimeError):
    """The queue rotated between build_msim and the backward pass."""


def build_msim(pos: ad.Tensor, queue: NegativeQueue, anchor: ad.Tensor) -> ad.Tensor:
    """Similarity vector [positive, negatives...] of length queue size + 1.

    Queue entries are constants; gradients flow only through the anchor
    (and whatever produced the positive score). One tape entry. The
    negatives are a view of the queue, so the backward needs the queue as
    it was here: rotate only after backward, or it raises StaleQueueError.
    """
    if queue is None or len(queue) == 0:
        raise ValueError("negative queue is not initialized")
    q, a = queue.as_matrix(), ad.normalize(anchor)
    out = np.empty(len(queue) + 1)
    out[0] = pos.values
    out[1:] = q @ a.values
    rotations = queue.rotations

    def grads(g):
        if queue.rotations != rotations:
            raise StaleQueueError(
                f"negative queue rotated {queue.rotations - rotations} time(s) "
                f"between build_msim and backward; rotate after backward")
        return g[0], q.T @ g[1:]
    return ad.fused(out, (pos, a), grads)


def info_nce(m: ad.Tensor, tau: float) -> ad.Tensor:
    """Contrastive loss with the positive at index 0, as one tape entry:
    logsumexp(s) - s[0] with s = m / tau."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if m.values.ndim != 1 or m.values.size == 0:
        raise ValueError(f"info_nce needs a non-empty vector, got shape {m.values.shape}")
    c = 1.0 / tau
    s = m.values * c
    mx = s.max()
    lse = mx + np.log(np.sum(np.exp(s - mx)))
    softmax = np.exp(s - lse)

    def grads(g):
        ds = g * softmax
        ds[0] += g * -1.0
        return (ds * c,)
    return ad.fused(lse + s[0] * -1.0, (m,), grads)


def train_wcl(pairs: Sequence[SentencePair], vocab: enc.Vocab,
              query: ParamStore, key: ParamStore, config: WclConfig) -> WclLog:
    """Fine-tune the query encoder and head on sentence pairs.

    Per pair: project and normalize both sides (key side without taping),
    score positive and queue negatives, take the InfoNCE loss,
    backpropagate, rotate the queue with the new key, step the query side
    only, then move the key toward the query by the configured momentum.
    Returns per-epoch mean losses.
    """
    config.validate()
    if not pairs:
        raise ValueError("no training pairs")
    n_types = query["head.b2"].values.shape[0]
    rng = np.random.default_rng(config.seed)
    queue = NegativeQueue(config.queue_size, n_types, rng)
    log = WclLog(queue=queue)
    order = list(range(len(pairs)))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        for idx in order:
            pair = pairs[idx]
            anchor = ad.normalize(project(
                query, enc.pool(enc.encode(query, vocab, pair.sentence))))
            with ad.no_grad():
                pos_key = ad.normalize(project(
                    query, enc.pool(enc.encode(key, vocab, pair.positive))))
            pos = ad.dot(anchor, pos_key)
            msim = build_msim(pos, queue, anchor)
            loss = info_nce(msim, config.temperature)
            if not np.isfinite(loss.values):
                raise RuntimeError(
                    f"non-finite loss at pair {idx}, epoch {epoch}")
            ad.backward(loss)
            queue.rotate(pos_key.values)   # after backward: msim's grads read the queue
            sgd_step(query, config.lr)
            enc.update_key(key, query, config.momentum)
            log.steps += 1
            total += loss.item()
        log.epoch_losses.append(total / len(pairs))
    return log
