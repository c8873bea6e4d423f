"""Plain-numpy reference computations the benchmark checks the program against.

Nothing here calls the library's model, decoding or scoring code. The one
library call is `params.load_params`, which reads checkpoint weights, so the
reference keeps working if the checkpoint container changes format. The
sidecar files (`.vocab`, `.tags`) are read directly.
"""
from __future__ import annotations

import itertools

import numpy as np

PAD, UNK = "<pad>", "<unk>"


# ------------------------------------------------------------------ spans, F1

def spans(tags):
    """Entity chunks of a BIO tag sequence as (start, end, type) triples.

    Follows the conlleval reading: an I-X that does not continue an open X
    chunk opens a new one, and any O, B- or type change closes the open chunk.
    End indices are inclusive.
    """
    out = set()
    kind = None
    start = 0
    for i, tag in enumerate(list(tags) + ["O"]):
        prefix, typ = ("O", None) if tag == "O" else (tag[0], tag[2:])
        if kind is not None and (prefix != "I" or typ != kind):
            out.add((start, i - 1, kind))
            kind = None
        if prefix in ("B", "I") and kind is None:
            start, kind = i, typ
    return out


def micro_f1(gold_tags, pred_tags) -> float:
    """Exact-match span micro-F1 over aligned lists of tag sequences."""
    n_gold = n_pred = n_hit = 0
    for g, p in zip(gold_tags, pred_tags, strict=True):
        gs, ps = spans(g), spans(p)
        n_gold += len(gs)
        n_pred += len(ps)
        n_hit += len(gs & ps)
    return 2.0 * n_hit / (n_gold + n_pred) if n_gold + n_pred else 0.0


# ------------------------------------------------------------- checkpoints

def load_weights(path) -> dict:
    """Checkpoint arrays by name, read through the library's loader."""
    from contrastner.params import load_params
    return {name: np.array(t.values) for name, t in load_params(path).items()}


def read_vocab(path) -> dict:
    """Token -> id from a `.vocab` sidecar: ids 0 and 1 are pad and unknown."""
    ids = {PAD: 0, UNK: 1}
    with open(path, encoding="utf-8") as f:
        for line in f:
            tok = line.rstrip("\n")
            if tok and tok not in ids:
                ids[tok] = len(ids)
    return ids


def read_lines(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip()]


# ---------------------------------------------------------------- forward

def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _tanh_rnn(x, w_x, w_h, b):
    proj = x @ w_x.T + b
    h = np.zeros(w_h.shape[0])
    out = np.empty((len(x), len(h)))
    for t in range(len(x)):
        h = np.tanh(proj[t] + w_h @ h)
        out[t] = h
    return out


def _lstm(x, w_x, w_h, b):
    n = w_h.shape[1]
    proj = x @ w_x.T + b
    h = np.zeros(n)
    c = np.zeros(n)
    out = np.empty((len(x), n))
    for t in range(len(x)):
        z = proj[t] + w_h @ h
        i, f, o = _sigmoid(z[:n]), _sigmoid(z[n:2 * n]), _sigmoid(z[3 * n:])
        c = f * c + i * np.tanh(z[2 * n:3 * n])
        h = o * np.tanh(c)
        out[t] = h
    return out


def _bidirectional(cell, x, w, fwd, bwd):
    f = cell(x, w[fwd + ".w_x"], w[fwd + ".w_h"], w[fwd + ".b"])
    r = cell(x[::-1], w[bwd + ".w_x"], w[bwd + ".w_h"], w[bwd + ".b"])[::-1]
    return np.concatenate([f, r], axis=1)


def encode(w, vocab, tokens):
    """(T, 2*hidden) contextual token states of the tanh encoder."""
    ids = [vocab.get(tok, 1) for tok in tokens]
    return _bidirectional(_tanh_rnn, w["enc.embed"][ids], w, "enc.fwd", "enc.bwd")


def emissions(w, vocab, tokens):
    """(T, K) tag scores: encoder, BiLSTM, linear emission layer."""
    feats = _bidirectional(_lstm, encode(w, vocab, tokens), w, "lstm.f", "lstm.b")
    return feats @ w["emit.w"]


def sentence_vector(w, vocab, tokens):
    """Unit-length projection of the mean-pooled encoder states."""
    v = encode(w, vocab, tokens).mean(axis=0)
    h = np.maximum(w["head.w1"] @ v + w["head.b1"], 0.0)
    out = w["head.w2"] @ h + w["head.b2"]
    return out / np.linalg.norm(out)


# ---------------------------------------------------------------- decoding
#
# Transition table layout: (K+2, K+2) with row K the start tag and column
# K+1 the stop tag.

def path_score(emis, trans, ids) -> float:
    k = emis.shape[1]
    score = trans[k, ids[0]] + trans[ids[-1], k + 1]
    for t, tag in enumerate(ids):
        score += emis[t, tag]
        if t:
            score += trans[ids[t - 1], tag]
    return float(score)


def viterbi(emis, trans):
    """(best score, best path) by max-sum dynamic programming."""
    n_steps, k = emis.shape
    best = trans[k, :k] + emis[0]
    back = []
    for t in range(1, n_steps):
        cand = best[:, None] + trans[:k, :k]
        back.append(cand.argmax(axis=0))
        best = cand.max(axis=0) + emis[t]
    final = best + trans[:k, k + 1]
    tag = int(final.argmax())
    path = [tag]
    for ptr in reversed(back):
        tag = int(ptr[tag])
        path.append(tag)
    return float(final.max()), path[::-1]


def brute_force_best(emis, trans):
    """Best score over every tag path, by enumeration. For short inputs."""
    n_steps, k = emis.shape
    return max(path_score(emis, trans, ids)
               for ids in itertools.product(range(k), repeat=n_steps))


# ------------------------------------------------------------------- files

def read_conll(path) -> list:
    """(tokens, tags) per sentence of a token-first, tag-last column file."""
    out, tokens, tags = [], [], []
    with open(path, encoding="utf-8") as f:
        for line in list(f) + [""]:
            fields = line.split()
            if fields:
                tokens.append(fields[0])
                tags.append(fields[-1])
            elif tokens:
                out.append((tokens, tags))
                tokens, tags = [], []
    return out
