"""BiLSTM feature extractor with a linear-chain CRF output layer.

The transition table is (K+2)x(K+2) over the K real tags plus a virtual
start tag (row K) and stop tag (column K+1). Training minimizes the
negative log-likelihood logZ - score(gold path); decoding is Viterbi.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .corpus import TaggedSentence
from .params import ParamStore, sgd_step

NEG_INF = -1e30  # stands in for -inf; keeps exp/log backward NaN-free
# predict runs the encoder and BiLSTM over packed chunks of at most this many
# tokens (a longer sentence is a chunk of its own). It bounds the recurrent
# working set: at the default sizes (64 wide) one direction of a chunk takes
# ~1.3 MB. Viterbi then runs once over every chunk's emissions.
PREDICT_CHUNK_TOKENS = 256


@dataclass
class NerConfig:
    epochs: int = 10
    lr: float = 0.05
    seed: int = 0
    strict: bool = False

    def validate(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.lr < np.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")


@dataclass
class NerLog:
    epoch_losses: list = field(default_factory=list)
    steps: int = 0


@dataclass
class TagPath:
    ids: list
    score: float


def bio_tag_list(types: Sequence[str]) -> list:
    """Tag inventory in id order: O first, then B-X, I-X per type."""
    tags = ["O"]
    for t in types:
        tags.append("B-" + t)
        tags.append("I-" + t)
    return tags


def param_shapes(d_in: int, hidden: int, n_tags: int) -> dict:
    """The shape of every BiLSTM, emission and transition parameter, in store
    order. Gate weights are row blocks [input, forget, cell, output], each
    `hidden` rows tall."""
    shapes = {}
    for d in ("f", "b"):
        shapes |= {f"lstm.{d}.w_x": (4 * hidden, d_in),
                   f"lstm.{d}.w_h": (4 * hidden, hidden), f"lstm.{d}.b": (4 * hidden,)}
    return shapes | {"emit.w": (2 * hidden, n_tags), "crf.trans": (n_tags + 2, n_tags + 2)}


def init_tagger(store: ParamStore, d_in: int, hidden: int, n_tags: int,
                rng: np.random.Generator):
    """Add N(0, 1/sqrt(columns)) LSTM matrices, N(0, 1/sqrt(2*hidden))
    emissions, N(0, 0.01) transitions and zero biases to the store."""
    if hidden < 1:
        raise ValueError(f"hidden size must be >= 1, got {hidden}")
    for name, shape in param_shapes(d_in, hidden, n_tags).items():
        fan = 2 * hidden if name == "emit.w" else shape[-1]
        scale = 0.01 if name == "crf.trans" else 1.0 / np.sqrt(fan)
        store.add(name, rng.normal(0.0, scale, shape) if len(shape) == 2 else np.zeros(shape))


def bilstm_forward(store: ParamStore, inputs: ad.Tensor, lengths=None) -> ad.Tensor:
    """Per-token features: forward and backward final states, concatenated.

    Args:
        inputs: (T, d_in) matrix of token representations.
        lengths: splits the rows into sentences laid end to end, each run
            on its own (default: one sentence).

    Returns:
        (T, 2*hidden) feature matrix.
    """
    if inputs.values.ndim != 2 or inputs.values.shape[0] == 0:
        raise ValueError(f"bilstm_forward needs a (T, d) matrix with T >= 1, "
                         f"got shape {inputs.values.shape}")
    return enc.bidirectional(store, inputs, "lstm.f", "lstm.b", cell="lstm",
                             lengths=lengths)


def emissions(store: ParamStore, feats: ad.Tensor) -> ad.Tensor:
    """(T, K) tag scores from (T, 2*hidden) features."""
    return ad.matmul(feats, store["emit.w"])


def _logsumexp_rows(s: np.ndarray) -> np.ndarray:
    m = s.max(axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(s - m), axis=1, keepdims=True)))[:, 0]


def _check_crf_shapes(emis: np.ndarray, trans: np.ndarray):
    if emis.ndim != 2 or emis.shape[0] == 0:
        raise ValueError(f"emissions must be a (T, K) matrix with T >= 1, got {emis.shape}")
    n_tags = emis.shape[1]
    if trans.shape != (n_tags + 2, n_tags + 2):
        raise ValueError(f"transition shape {trans.shape} does not match "
                         f"{n_tags} tags (want {(n_tags + 2, n_tags + 2)})")


def crf_log_partition(emis: ad.Tensor, trans: ad.Tensor) -> ad.Tensor:
    """Log of the sum of exp scores over all tag paths, as one op.

    The forward is the alpha recursion. The backward runs the beta
    recursion: the emission gradient is the node marginals, the
    transition gradient the expected transition counts.

    Args:
        emis: (T, K) emission scores.
        trans: (K+2, K+2) transitions; row K is start, column K+1 is stop.

    Returns:
        scalar logZ.
    """
    e, tr = emis.values, trans.values
    _check_crf_shapes(e, tr)
    t_len, n_tags = e.shape
    start, stop, inner = tr[n_tags, :n_tags], tr[:n_tags, n_tags + 1], tr[:n_tags, :n_tags]
    alphas = np.empty((t_len, n_tags))  # log-sum of every prefix ending in tag j at t
    alphas[0] = e[0] + start
    for t in range(1, t_len):
        alphas[t] = e[t] + _logsumexp_rows(inner.T + alphas[t - 1])
    log_z = _logsumexp_rows((alphas[-1] + stop)[None])[0]

    def grads(g):
        betas = np.empty((t_len, n_tags))  # log-sum of every suffix after tag i at t
        betas[-1] = stop
        for t in range(t_len - 2, -1, -1):
            betas[t] = _logsumexp_rows(inner + e[t + 1] + betas[t + 1])
        node = np.exp(alphas + betas - log_z)
        pair = np.exp(alphas[:-1, :, None] + inner
                      + (e[1:] + betas[1:])[:, None, :] - log_z).sum(axis=0)
        d_trans = np.zeros_like(tr)
        d_trans[n_tags, :n_tags] = node[0]
        d_trans[:n_tags, n_tags + 1] = node[-1]
        d_trans[:n_tags, :n_tags] = pair
        return g * node, g * d_trans
    return ad.fused(log_z, (emis, trans), grads)


def path_score(emis: ad.Tensor, trans: ad.Tensor, tag_ids: Sequence[int]) -> ad.Tensor:
    """Score of one tag path, as one gather op: start + emissions + transitions + stop."""
    e, tr = emis.values, trans.values
    _check_crf_shapes(e, tr)
    t_len, n_tags = e.shape
    if len(tag_ids) != t_len:
        raise ValueError(f"path length {len(tag_ids)} does not match {t_len} tokens")
    for tid in tag_ids:
        if not 0 <= tid < n_tags:
            raise ValueError(f"tag id {tid} out of range for {n_tags} tags")
    steps = np.arange(t_len)
    tags = np.asarray(tag_ids, dtype=np.int64)
    rows = np.r_[n_tags, tags]          # start -> first tag ... last tag -> stop
    cols = np.r_[tags, n_tags + 1]

    def grads(g):
        d_emis = np.zeros_like(e)
        d_emis[steps, tags] = g
        d_trans = np.zeros_like(tr)
        np.add.at(d_trans, (rows, cols), g)
        return d_emis, d_trans
    return ad.fused(e[steps, tags].sum() + tr[rows, cols].sum(), (emis, trans), grads)


def crf_nll(emis: ad.Tensor, trans: ad.Tensor, tag_ids: Sequence[int]) -> ad.Tensor:
    """Negative log-likelihood of the gold path, logZ - score(path), as one
    tape entry over the two CRF ops."""
    lz, ps = crf_log_partition(emis, trans), path_score(emis, trans, tag_ids)
    return ad.fused(lz.values - ps.values, (lz, ps), lambda g: (g, -g))


def viterbi(emis: np.ndarray, trans: np.ndarray) -> TagPath:
    """Highest-scoring tag path of one sequence: viterbi_packed of one."""
    return viterbi_packed(emis, trans)[0]


def viterbi_packed(emis: np.ndarray, trans: np.ndarray, lengths=None) -> list:
    """Highest-scoring tag path of each sequence, by max-product dynamic
    programming over all of them at once.

    emis holds the (T_i, K) emissions of the sequences laid end to end and
    lengths their T_i (default: one sequence); the recursion steps them in
    lockstep, as ad.pack schedules. Ties break toward the smallest tag id at
    every argmax. Returns one TagPath per sequence, in input order. Plain
    numpy; decoding never needs gradients.
    """
    emis = np.asarray(emis, dtype=np.float64)
    trans = np.asarray(trans, dtype=np.float64)
    _check_crf_shapes(emis, trans)
    n_rows, n_tags = emis.shape
    perm, steps, order = ad.pack(lengths, n_rows)
    e = emis[perm]                               # packed rows, step by step
    start = trans[n_tags, :n_tags]
    stop = trans[:n_tags, n_tags + 1]
    inner = trans[:n_tags, :n_tags]
    delta = e[:steps[0][1]] + start              # one row per sequence
    back = np.zeros((n_rows, n_tags), dtype=np.int64)
    for s, t_end in steps[1:]:
        n = t_end - s
        arrive = delta[:n, :, None] + inner      # arrive[k, i, j]: from i into j
        back[s:t_end] = np.argmax(arrive, axis=1)   # first index wins ties
        delta[:n] = e[s:t_end] + arrive.max(axis=1)
    final = delta + stop
    tags = np.argmax(final, axis=1)
    packed_ids = np.empty(n_rows, dtype=np.int64)
    for s, t_end in reversed(steps):
        n = t_end - s
        packed_ids[s:t_end] = tags[:n]
        tags[:n] = back[np.arange(s, t_end), tags[:n]]
    ids = np.empty(n_rows, dtype=np.int64)
    ids[perm] = packed_ids
    scores = np.empty(len(order))
    scores[order] = final.max(axis=1)
    bounds = np.cumsum([n_rows] if lengths is None else lengths).tolist()
    return [TagPath(ids[lo:hi].tolist(), float(score))
            for lo, hi, score in zip([0] + bounds[:-1], bounds, scores)]


def transition_mask(tag_list: Sequence[str]) -> np.ndarray:
    """Additive mask, 0 for legal BIO transitions and NEG_INF for illegal.

    Illegal: entering I-X from anything other than B-X or I-X (including
    from the start tag).
    """
    n_tags = len(tag_list)
    mask = np.zeros((n_tags + 2, n_tags + 2))
    for j, to_tag in enumerate(tag_list):
        if not to_tag.startswith("I-"):
            continue
        want = to_tag[2:]
        mask[n_tags, j] = NEG_INF
        for i, from_tag in enumerate(tag_list):
            if from_tag == "B-" + want or from_tag == "I-" + want:
                continue
            mask[i, j] = NEG_INF
    return mask


def sentence_nll(store: ParamStore, vocab: enc.Vocab, sent: TaggedSentence,
                 tag_ids: Sequence[int], mask: Optional[np.ndarray] = None) -> ad.Tensor:
    """CRF negative log-likelihood of one sentence's gold tags; mask, if
    given, is added to the transitions (see transition_mask)."""
    feats = bilstm_forward(store, enc.encode(store, vocab, sent.tokens))
    emis = emissions(store, feats)
    trans = store["crf.trans"]
    if mask is not None:
        trans = ad.add(trans, ad.constant(mask))
    return crf_nll(emis, trans, tag_ids)


def train_ner(sentences: Sequence[TaggedSentence], vocab: enc.Vocab,
              store: ParamStore, tag_list: Sequence[str], config: NerConfig) -> NerLog:
    """Fit every parameter that takes gradients by per-sentence SGD; the
    others, such as a frozen encoder's, are neither taped nor stepped.

    Zero epochs leave every parameter untouched. A non-finite loss aborts
    with the epoch and sentence index.
    """
    config.validate()
    if not sentences:
        raise ValueError("no training sentences")
    tag_ids = {tag: i for i, tag in enumerate(tag_list)}
    gold = []
    for sent in sentences:
        try:
            gold.append([tag_ids[t] for t in sent.tags])
        except KeyError as e:
            raise ValueError(f"tag {e.args[0]!r} not in the tag inventory") from None
    mask = transition_mask(tag_list) if config.strict else None
    rng = np.random.default_rng(config.seed)
    order = list(range(len(sentences)))
    log = NerLog()
    for epoch in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        for idx in order:
            loss = sentence_nll(store, vocab, sentences[idx], gold[idx], mask)
            if not np.isfinite(loss.values):
                raise RuntimeError(f"non-finite loss at epoch {epoch}, sentence {idx}")
            ad.backward(loss)
            sgd_step(store, config.lr)
            log.steps += 1
            total += loss.item()
        log.epoch_losses.append(total / len(sentences))
    return log


def _length_sorted_chunks(token_lists) -> list:
    """Sentence indices sorted by length (stably), cut into runs of at most
    PREDICT_CHUNK_TOKENS tokens; a longer sentence is a run of its own."""
    chunks, size = [], 0
    for i in sorted(range(len(token_lists)), key=lambda i: len(token_lists[i])):
        if not chunks or size + len(token_lists[i]) > PREDICT_CHUNK_TOKENS:
            chunks.append([])
            size = 0
        chunks[-1].append(i)
        size += len(token_lists[i])
    return chunks


def predict(sentences, vocab: enc.Vocab, store: ParamStore,
            tag_list: Sequence[str], strict: bool = False) -> list:
    """Viterbi-decode token lists (or TaggedSentences) into TaggedSentences.

    The encoder and BiLSTM run over length-sorted chunks of sentences, one
    packed pass per chunk; then one viterbi_packed pass decodes every
    sentence at once. Its memory grows with tokens x tags (the backpointers);
    the chunks bound only the recurrent working set. The result is in input
    order.
    """
    trans = store["crf.trans"].values
    if strict:
        trans = trans + transition_mask(tag_list)
    token_lists = [sent.tokens if isinstance(sent, TaggedSentence) else list(sent)
                   for sent in sentences]
    order, emis = [], []
    with ad.no_grad():
        for chunk in _length_sorted_chunks(token_lists):
            lengths = [len(token_lists[i]) for i in chunk]
            tokens = [tok for i in chunk for tok in token_lists[i]]
            feats = bilstm_forward(
                store, enc.encode(store, vocab, tokens, lengths=lengths), lengths)
            emis.append(emissions(store, feats).values)
            order += chunk
    if not order:
        return []
    paths = viterbi_packed(np.concatenate(emis), trans,
                           [len(token_lists[i]) for i in order])
    out = [None] * len(token_lists)
    for i, path in zip(order, paths):
        out[i] = TaggedSentence(token_lists[i], [tag_list[t] for t in path.ids])
    return out
