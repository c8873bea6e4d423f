"""Token vocabulary and a small bidirectional recurrent sentence encoder.

The encoder stands in for the heavyweight masked-language-model backbone:
an embedding lookup feeding one tanh recurrent layer per direction, the
two final hidden states concatenated per token. A query copy is trained;
a key copy follows it by momentum, key <- m*key + (1-m)*query.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .params import ParamStore

PAD, UNK = "<pad>", "<unk>"
RESERVED = (PAD, UNK)


class Vocab:
    """Token-to-id mapping with reserved padding id 0 and unknown id 1."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._tokens = list(RESERVED)
        self._ids = {PAD: 0, UNK: 1}
        for tok in tokens:
            if tok not in self._ids:
                self._ids[tok] = len(self._tokens)
                self._tokens.append(tok)

    pad_id = 0
    unk_id = 1

    def __len__(self):
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        return self._ids.get(token, self.unk_id)

    def token_of(self, idx: int) -> str:
        return self._tokens[idx]

    @classmethod
    def from_sentences(cls, token_lists) -> "Vocab":
        """Every distinct token in first-occurrence order (min frequency 1)."""
        return cls(tok for toks in token_lists for tok in toks)

    def save(self, path):
        """One non-reserved token per line; line order is id order."""
        with open(path, "w", encoding="utf-8") as f:
            for tok in self._tokens[len(RESERVED):]:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as f:
            return cls([line.rstrip("\n") for line in f if line.rstrip("\n")])


def param_shapes(vocab_size: int, emb_dim: int, hidden: int, prefix: str = "enc.") -> dict:
    """The shape of every encoder parameter, in store order."""
    shapes = {prefix + "embed": (vocab_size, emb_dim)}
    for d in ("fwd.", "bwd."):
        shapes |= {prefix + d + "w_x": (hidden, emb_dim),
                   prefix + d + "w_h": (hidden, hidden), prefix + d + "b": (hidden,)}
    return shapes


def init_encoder(store: ParamStore, prefix: str, vocab_size: int,
                 emb_dim: int, hidden: int, rng: np.random.Generator):
    """Add N(0, 0.5) embeddings, N(0, 1/sqrt(columns)) matrices and zero biases."""
    if emb_dim < 1 or hidden < 1:
        raise ValueError(f"emb_dim and hidden must be >= 1, got {emb_dim} and {hidden}")
    for name, shape in param_shapes(vocab_size, emb_dim, hidden, prefix).items():
        scale = 0.5 if name == prefix + "embed" else 1.0 / np.sqrt(shape[-1])
        store.add(name, rng.normal(0.0, scale, shape) if len(shape) == 2 else np.zeros(shape))


def output_dim(store: ParamStore, prefix: str = "enc.") -> int:
    return 2 * store[prefix + "fwd.w_x"].values.shape[0]


def bidirectional(store: ParamStore, x: ad.Tensor, fwd_key: str, bwd_key: str,
                  cell: str = "tanh", lengths=None) -> ad.Tensor:
    """Recurrent states over the rows of x, (T, 2*hidden): a forward scan
    with the weights under fwd_key beside a reversed scan under bwd_key.
    lengths splits the rows into sequences laid end to end, as in
    ad.recurrent; each is scanned on its own."""
    fwd, bwd = (ad.recurrent(x, store[k + ".w_x"], store[k + ".w_h"], store[k + ".b"],
                             cell, reverse=rev, lengths=lengths)
                for k, rev in ((fwd_key, False), (bwd_key, True)))
    return ad.concat([fwd, bwd])


def encode(store: ParamStore, vocab: Vocab, tokens: Sequence[str],
           prefix: str = "enc.", lengths=None) -> ad.Tensor:
    """Contextual token matrix, one row per token, width 2*hidden.

    Unknown tokens take the unknown-id embedding. lengths splits tokens
    into sentences laid end to end (default: one sentence), each encoded
    on its own. Empty input, or an empty sentence, is rejected.
    """
    if not tokens:
        raise ValueError("encode of an empty sentence")
    ids = np.array([vocab.id_of(t) for t in tokens])
    x = ad.index(store[prefix + "embed"], ids)
    return bidirectional(store, x, prefix + "fwd", prefix + "bwd", lengths=lengths)


def pool(output: ad.Tensor) -> ad.Tensor:
    """Sentence vector: mean over the token rows."""
    return ad.mean_rows(output)


def init_key_from_query(store: ParamStore, prefix: str = "enc.") -> ParamStore:
    """Deep value copy of the encoder weights, detached from training."""
    return store.subset(prefix).copy()


def update_key(key: ParamStore, query: ParamStore, momentum: float):
    """Refresh key weights from query weights after a training step:
    key <- m*key + (1-m)*query for m in [0, 1].

    m = 1 keeps the key and m = 0 copies the query, exactly for finite
    weights other than -0.0.
    """
    m = float(momentum)
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum must lie in [0, 1], got {m}")
    for name, t in key.items():
        t.values *= m
        t.values += (1.0 - m) * query[name].values
