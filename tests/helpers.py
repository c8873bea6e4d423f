"""Shared test utilities: the finite-difference gradient oracle and the
reference implementations that fast paths are pinned to."""
from typing import Iterable, Sequence

import numpy as np

from contrastner import autodiff as ad
from contrastner.corpus import DataError, TaggedSentence, bio_to_spans, validate_tags
from contrastner.kg import (
    DEFAULT_L_MAX, PotentialEntitySet, _tokens_of, enumerate_subphrases, is_acronym)


def rel_err(a, b, floor=1e-3):
    """Worst-case relative error with a small absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def fd_gradients(build, tensors, eps=1e-5, max_coords=None, rng=None):
    """Central finite differences of build() w.r.t. each tensor's entries.

    build must reconstruct the computation from the tensors' current
    .values. Returns (analytic, numeric, coords) lists aligned with
    `tensors`; when max_coords is set only that many randomly chosen
    coordinates per tensor are probed.
    """
    ad.reset_tape()
    loss = build()
    ad.backward(loss)
    analytic = []
    for t in tensors:
        g = np.zeros_like(t.values) if t.grad is None else t.grad.copy()
        analytic.append(g)
        t.grad = None

    def evaluate():
        with ad.no_grad():
            return float(build().values)

    numeric = []
    coords = []
    for t in tensors:
        flat = t.values.reshape(-1)
        if max_coords is not None and flat.size > max_coords:
            idx = rng.choice(flat.size, size=max_coords, replace=False)
        else:
            idx = np.arange(flat.size)
        fd = np.zeros(len(idx))
        for k, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + eps
            hi = evaluate()
            flat[i] = orig - eps
            lo = evaluate()
            flat[i] = orig
            fd[k] = (hi - lo) / (2 * eps)
        numeric.append(fd)
        coords.append(idx)
    return analytic, numeric, coords


def check_gradients(build, tensors, eps=1e-5, tol=1e-4, max_coords=None, rng=None):
    """Assert analytic grads match central finite differences."""
    analytic, numeric, coords = fd_gradients(build, tensors, eps, max_coords, rng)
    worst = 0.0
    for an, fd, idx in zip(analytic, numeric, coords):
        worst = max(worst, rel_err(an.reshape(-1)[idx], fd))
    assert worst < tol, f"gradient mismatch: worst relative error {worst:.3g}"
    return worst


# ---------------------------------------------------------------------------
# oracle ops: the general-shape ops that the reference graph and the
# finite-difference sweeps build from, each one tape entry through
# ad.fused. The library keeps only the op shapes its pipeline records.

def matmul(a, b):
    """a @ b for any vector or matrix operands."""
    a2, b2 = np.atleast_2d(a.values), b.values.reshape(b.shape[0], -1)

    def grads(g):
        g2 = np.reshape(g, (a2.shape[0], b2.shape[1]))
        return (g2 @ b2.T).reshape(a.shape), (a2.T @ g2).reshape(b.shape)
    return ad.fused(a.values @ b.values, (a, b), grads)


def add(a, b):
    """a + b; either side may broadcast over leading axes."""
    return ad.fused(a.values + b.values, (a, b), lambda g: [
        g.sum(axis=tuple(range(g.ndim - t.ndim))) for t in (a, b)])


def sub(a, b):
    return ad.fused(a.values - b.values, (a, b), lambda g: (g, -g))


def scale(a, c):
    return ad.fused(a.values * c, (a,), lambda g: (g * c,))


def mul(a, b):
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    return ad.fused(a.values * b.values, (a, b), lambda g: (g * b.values, g * a.values))


def tanh(x):
    y = np.tanh(x.values)
    return ad.fused(y, (x,), lambda g: (g * (1.0 - y * y),))


def sigmoid(x):
    y = ad._sigmoid(x.values, np.empty_like(x.values))
    return ad.fused(y, (x,), lambda g: (g * y * (1.0 - y),))


def logsumexp(v):
    """log sum exp of a non-empty vector, stable under shift."""
    if v.ndim != 1 or v.values.size == 0:
        raise ValueError(f"logsumexp needs a non-empty vector, got shape {v.shape}")
    m = v.values.max()
    out = m + np.log(np.sum(np.exp(v.values - m)))
    softmax = np.exp(v.values - out)
    return ad.fused(out, (v,), lambda g: (g * softmax,))


def tsum(x):
    return ad.fused(x.values.sum(), (x,), lambda g: (np.broadcast_to(g, x.shape),))


def concat(parts, axis=0):
    """Join tensors along axis; a scalar joins as a length-1 vector."""
    arrs = [np.atleast_1d(p.values) for p in parts]
    ends = np.cumsum([a.shape[axis] for a in arrs])[:-1]
    return ad.fused(np.concatenate(arrs, axis=axis), parts, lambda g: [
        gp.reshape(p.shape) for p, gp in zip(parts, np.split(g, ends, axis=axis))])


def index(t, key):
    """t[key] for any numpy key; repeated indices accumulate in the backward."""
    def grads(g):
        full = np.zeros_like(t.values)
        np.add.at(full, key, g)
        return (full,)
    return ad.fused(t.values[key], (t,), grads)


# ---------------------------------------------------------------------------
# reference graph: the per-timestep ops the fused recurrent and CRF ops
# replace, kept to pin them (values and gradients) to the unfused graph.
# A sequence is a list of row tensors here, one per token.

def ref_direction(store, key, xs, cell):
    """One recurrent direction over a list of row tensors, step by step."""
    w_x, w_h, b = store[key + ".w_x"], store[key + ".w_h"], store[key + ".b"]
    h_dim = w_h.values.shape[1]
    h = ad.constant(np.zeros(h_dim))
    c = ad.constant(np.zeros(h_dim))
    states = []
    for x in xs:
        z = add(add(matmul(w_x, x), matmul(w_h, h)), b)
        if cell == "tanh":
            h = tanh(z)
        else:
            i = sigmoid(index(z, slice(0, h_dim)))
            f = sigmoid(index(z, slice(h_dim, 2 * h_dim)))
            g = tanh(index(z, slice(2 * h_dim, 3 * h_dim)))
            o = sigmoid(index(z, slice(3 * h_dim, 4 * h_dim)))
            c = add(mul(f, c), mul(i, g))
            h = mul(o, tanh(c))
        states.append(h)
    return states


def ref_bidirectional(store, xs, fwd_key, bwd_key, cell):
    fwd = ref_direction(store, fwd_key, xs, cell)
    bwd = list(reversed(ref_direction(store, bwd_key, list(reversed(xs)), cell)))
    return [concat([f, b]) for f, b in zip(fwd, bwd)]


def ref_encode(store, vocab, tokens, prefix="enc."):
    embed = store[prefix + "embed"]
    xs = [index(embed, vocab.id_of(t)) for t in tokens]
    return ref_bidirectional(store, xs, prefix + "fwd", prefix + "bwd", "tanh")


def ref_bilstm_forward(store, rows):
    return ref_bidirectional(store, rows, "lstm.f", "lstm.b", "lstm")


def ref_emissions(store, rows):
    return [matmul(row, store["emit.w"]) for row in rows]


def ref_crf_log_partition(emis_rows, trans):
    n_tags = emis_rows[0].values.shape[0]
    start = index(trans, (n_tags, slice(0, n_tags)))
    stop = index(trans, (slice(0, n_tags), n_tags + 1))
    into = [index(trans, (slice(0, n_tags), j)) for j in range(n_tags)]
    alpha = add(emis_rows[0], start)
    for row in emis_rows[1:]:
        alpha = add(row, concat([logsumexp(add(col, alpha)) for col in into]))
    return logsumexp(add(alpha, stop))


def ref_path_score(emis_rows, trans, tag_ids):
    n_tags = emis_rows[0].values.shape[0]
    score = index(trans, (n_tags, tag_ids[0]))
    for t, tid in enumerate(tag_ids):
        score = add(score, index(emis_rows[t], tid))
        if t + 1 < len(tag_ids):
            score = add(score, index(trans, (tid, tag_ids[t + 1])))
    return add(score, index(trans, (tag_ids[-1], n_tags + 1)))


def ref_crf_nll(emis_rows, trans, tag_ids):
    return sub(ref_crf_log_partition(emis_rows, trans),
               ref_path_score(emis_rows, trans, tag_ids))


# ---------------------------------------------------------------------------
# reference scan: ad.recurrent as it was before its steps wrote in place,
# a fresh array per expression, kept verbatim to pin the in-place steps to
# the same bits (outputs and gradients).

def ref_sigmoid(v):
    """The logistic as np.where picks its numerator."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def ref_recurrent(x, w_x, w_h, b, cell="tanh", reverse=False, lengths=None):
    xv, wx, wh, bv = x.values, w_x.values, w_h.values, b.values
    hd = wh.shape[1]
    width = (4 if cell == "lstm" else 1) * hd
    n_rows = xv.shape[0]
    perm, n_seq, blocks, prev_rows = ad._scan_plan(
        None if lengths is None else tuple(lengths), n_rows, reverse)
    p = (xv @ wx.T + bv)[perm]
    hs = np.zeros((n_seq + n_rows, hd))
    states = hs[n_seq:]
    wh_t = wh.T
    if cell == "tanh":
        for k, j in blocks:
            states[k] = np.tanh(p[k] + hs[j] @ wh_t)
    else:
        gate = slice(2 * hd, 3 * hd)
        acts = p
        cs = np.zeros((n_seq + n_rows, hd))
        c_states = cs[n_seq:]
        tcs = np.empty((n_rows, hd))
        for k, j in blocks:
            z = p[k] + hs[j] @ wh_t
            a = ref_sigmoid(z)
            a[..., gate] = np.tanh(z[..., gate])
            c = a[..., hd:2 * hd] * cs[j] + a[..., :hd] * a[..., gate]
            tc = np.tanh(c)
            acts[k], c_states[k], tcs[k] = a, c, tc
            states[k] = a[..., 3 * hd:] * tc
    out = np.empty((n_rows, hd))
    out[perm] = states

    def bwd(g):
        dp = np.empty((n_rows, width))
        dhs = np.zeros((n_seq + n_rows, hd))
        dstates = dhs[n_seq:]
        dstates[:] = g[perm]
        if cell == "tanh":
            dact = 1.0 - states * states
            for k, j in reversed(blocks):
                dp[k] = dz = dstates[k] * dact[k]
                dhs[j] += dz @ wh
        else:
            dact = acts * (1.0 - acts)
            dact[:, gate] = 1.0 - acts[:, gate] ** 2
            dc_dh = acts[:, 3 * hd:] * (1.0 - tcs * tcs)
            dcs = np.zeros((n_seq + n_rows, hd))
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
        dpre = np.empty_like(dp)
        dpre[perm] = dp
        ad._accum(x, dpre @ wx)
        ad._accum(w_x, dpre.T @ xv)
        ad._accum(w_h, dpre.T @ hs[prev_rows])
        ad._accum(b, dpre.sum(axis=0))
    return ad._record(ad.Tensor(out), (x, w_x, w_h, b), bwd)


# ---------------------------------------------------------------------------
# reference span count: evaluation.count_matches as it was before it
# skipped the second extraction for a sentence predicted exactly, kept
# verbatim (with its DataError checks left out) to pin the fast path.

def ref_count_matches(gold, pred):
    from contrastner.evaluation import EvalCounts
    counts = EvalCounts()
    for g, p in zip(gold, pred):
        counts.tokens += len(g)
        counts.correct_tokens += sum(a == b for a, b in zip(g.tags, p.tags))
        gspans = bio_to_spans(g.tags)
        pspans = bio_to_spans(p.tags)
        counts.gold_spans += len(gspans)
        counts.pred_spans += len(pspans)
        counts.correct_spans += len(gspans & pspans)
        for s in gspans:
            counts.per_type.setdefault(s.type_, [0, 0, 0])[0] += 1
        for s in pspans:
            counts.per_type.setdefault(s.type_, [0, 0, 0])[1] += 1
        for s in gspans & pspans:
            counts.per_type.setdefault(s.type_, [0, 0, 0])[2] += 1
    return counts


# ---------------------------------------------------------------------------
# reference corpus I/O: the row-by-row reader and writer that the block
# parse and the joined write replace, kept verbatim to pin them to the same
# sentences, errors and bytes.

def ref_parse_conll(path, strict: bool = False, types=None):
    """Read a whitespace-column file into TaggedSentences: the token is the
    first field of a row and the tag the last.

    Blank lines end a sentence; lines whose first field is -DOCSTART- are
    skipped. With strict=True every tag must match the BIO grammar (over
    `types` when given), or DataError names the line. Each distinct tag is
    checked once, at its first line.
    """
    sentences = []
    tokens: list = []
    tags: list = []
    checked = set()

    def flush():
        if tokens:
            sentences.append(TaggedSentence(list(tokens), list(tags)))
            tokens.clear()
            tags.clear()

    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            fields = line.split()
            if not fields:
                flush()
                continue
            if fields[0] == "-DOCSTART-":
                flush()
                continue
            token, tag = fields[0], fields[-1]
            if strict and tag not in checked:
                try:
                    validate_tags([tag], types)
                except ValueError as e:
                    raise DataError(str(e), path=path, line=lineno) from None
                checked.add(tag)
            tokens.append(token)
            tags.append(tag)
    flush()
    return sentences


def ref_write_conll(sentences: Sequence[TaggedSentence], path):
    """Write token<space>tag lines with blank lines between sentences."""
    with open(path, "w", encoding="utf-8") as f:
        for i, sent in enumerate(sentences):
            if i:
                f.write("\n")
            for token, tag in zip(sent.tokens, sent.tags):
                f.write(f"{token} {tag}\n")


# ---------------------------------------------------------------------------
# reference KG correction: the quadratic harvest (one corpus scan per
# acronym) and claim pass (every PE surface at every token position) that
# the acronym-window index and the surface trie replace, kept verbatim to
# pin them to the same PE sets, lookup order and corrected tags.

def ref_expand_acronym(word: str, sentences: Iterable) -> list:
    """Corpus token windows whose initials spell the word, case-insensitively.

    Windows are len(word) consecutive tokens; each token's first letter
    must match the corresponding acronym letter. Returns distinct phrases
    in first-occurrence order.

    Example:
        expand_acronym("TEC", [["asked", "the", "European", "Commission"]])
        == ["the European Commission"]
    """
    n = len(word)
    letters = word.lower()
    out = []
    seen = set()
    for sent in sentences:
        tokens = _tokens_of(sent)
        for i in range(len(tokens) - n + 1):
            window = tokens[i:i + n]
            if all(w[:1].lower() == letters[k] for k, w in enumerate(window)):
                phrase = " ".join(window)
                if phrase not in seen:
                    seen.add(phrase)
                    out.append(phrase)
    return out


def ref_build_pe(sentences: Sequence, kg, l_max: int = DEFAULT_L_MAX) -> PotentialEntitySet:
    """Mine the potential-entity set for a corpus against a KG lookup.

    Acronyms (all-uppercase words) are expanded; every contiguous
    sub-phrase of each expansion is looked up, and an acronym whose full
    expansion resolves inherits the expansion's types under its own
    surface. Independently, every window of <= l_max consecutive
    capitalized tokens is looked up directly.
    """
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    pe = PotentialEntitySet()
    token_lists = [_tokens_of(s) for s in sentences]
    done = set()
    for tokens in token_lists:
        for w in tokens:
            if not is_acronym(w) or w in done:
                continue
            done.add(w)
            inherited = None
            for exp in ref_expand_acronym(w, token_lists):
                for sub in enumerate_subphrases(exp):
                    types = kg.lookup(sub)
                    if types:
                        pe.add(sub, types)
                        if sub == exp and inherited is None:
                            inherited = types
            own = kg.lookup(w)
            if own:
                pe.add(w, own)
            if inherited:
                pe.add(w, inherited)
    for tokens in token_lists:
        t = 0
        while t < len(tokens):
            if not tokens[t][:1].isupper():
                t += 1
                continue
            run = t
            while run < len(tokens) and tokens[run][:1].isupper():
                run += 1
            for length in range(1, min(l_max, run - t) + 1):
                for start in range(t, run - length + 1):
                    surface = " ".join(tokens[start:start + length])
                    types = kg.lookup(surface)
                    if types:
                        pe.add(surface, types)
            t = run
    return pe


def ref_claim_matches(tokens: Sequence[str], pe: PotentialEntitySet) -> list:
    """Non-overlapping PE occurrences, longest first, then leftmost."""
    candidates = []
    for surface in pe.surfaces():
        stoks = surface.split()
        length = len(stoks)
        if length == 0 or length > len(tokens):
            continue
        for start in range(len(tokens) - length + 1):
            if tokens[start:start + length] == stoks:
                candidates.append((start, length, surface))
    candidates.sort(key=lambda m: (-m[1], m[0]))
    taken = [False] * len(tokens)
    claimed = []
    for start, length, surface in candidates:
        if any(taken[start:start + length]):
            continue
        for i in range(start, start + length):
            taken[i] = True
        claimed.append((start, length, surface))
    claimed.sort()
    return claimed


def ref_modify_entities(sentences: Sequence[TaggedSentence],
                        pe: PotentialEntitySet) -> list:
    """Rewrite predicted tags that disagree with the potential-entity set.

    A PE occurrence is consistent when the prediction contains exactly
    that span with one of the surface's types; anything else (wrong type,
    wrong boundary, or all O) is overwritten with B-X/I-X... of the
    surface's resolved type. Token text is never changed, so the pass is
    idempotent. Matching is case-sensitive.
    """
    out = []
    for sent in sentences:
        spans = bio_to_spans(sent.tags)
        tags = list(sent.tags)
        for start, length, surface in ref_claim_matches(sent.tokens, pe):
            end = start + length - 1
            types = pe.types(surface)
            if any(s.start == start and s.end == end and s.type_ in types
                   for s in spans):
                continue
            resolved = pe.primary(surface)
            tags[start] = "B-" + resolved
            for i in range(start + 1, end + 1):
                tags[i] = "I-" + resolved
        out.append(TaggedSentence(list(sent.tokens), tags))
    return out


# ---------------------------------------------------------------------------
# reference contrastive step: the copy-per-step negative queue and the
# unfused similarity and loss that the mirrored ring and the fused
# build_msim and info_nce replace, with the training loop that used them
# (it rotates the queue before backward, which a copying queue allows).

class ref_NegativeQueue:
    """FIFO of past key vectors, fixed size, oldest first.

    A ring buffer: one preallocated (size, dim) array and the row index of
    the eldest entry.
    """

    def __init__(self, size: int, dim: int, rng: np.random.Generator):
        if size < 1:
            raise ValueError(f"queue size must be >= 1, got {size}")
        self.size = size
        self.dim = dim
        self._rows = rng.standard_normal((size, dim))
        self._head = 0

    def __len__(self):
        return self.size

    def rotate(self, key: np.ndarray):
        """Dequeue the eldest vector, enqueue a copy of the new key."""
        key = np.asarray(key, dtype=np.float64)
        if key.shape != (self.dim,):
            raise ValueError(f"key shape {key.shape} does not match queue dim {self.dim}")
        self._rows[self._head] = key
        self._head = (self._head + 1) % self.size

    def as_matrix(self) -> np.ndarray:
        """A fresh (size, dim) array, eldest row first."""
        return np.concatenate((self._rows[self._head:], self._rows[:self._head]))


def ref_build_msim(pos, queue, anchor):
    """Similarity vector [positive, negatives...] of length queue size + 1.

    Queue entries are constants; gradients flow only through the anchor
    (and whatever produced the positive score).
    """
    if queue is None or len(queue) == 0:
        raise ValueError("negative queue is not initialized")
    q = queue.as_matrix()
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    q = np.where(norms > 1e-9, q / np.maximum(norms, 1e-30), 0.0)
    a = ad.normalize(anchor)
    negs = ad.matmul(ad.constant(q), a)
    return concat([pos, negs])


def ref_info_nce(m, tau):
    """Contrastive loss with the positive at index 0."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    s = scale(m, 1.0 / tau)
    return sub(logsumexp(s), index(s, 0))


def ref_train_wcl(pairs, vocab, query, key, config):
    """contrast.train_wcl on the reference queue, similarity and loss."""
    from contrastner import encoder as enc
    from contrastner.contrast import WclLog, project
    from contrastner.params import sgd_step

    config.validate()
    if not pairs:
        raise ValueError("no training pairs")
    n_types = query["head.b2"].values.shape[0]
    rng = np.random.default_rng(config.seed)
    queue = ref_NegativeQueue(config.queue_size, n_types, rng)
    log = WclLog(queue=queue)
    order = list(range(len(pairs)))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        total = 0.0
        for idx in order:
            pair = pairs[idx]
            anchor = project(
                query, enc.pool(enc.encode(query, vocab, pair.sentence)))
            anchor = ad.normalize(anchor)
            with ad.no_grad():
                pos_key = project(
                    query, enc.pool(enc.encode(key, vocab, pair.positive)))
                pos_key = ad.normalize(pos_key)
            pos = ad.dot(anchor, pos_key)
            msim = ref_build_msim(pos, queue, anchor)
            queue.rotate(pos_key.values)
            loss = ref_info_nce(msim, config.temperature)
            if not np.isfinite(loss.values):
                raise RuntimeError(
                    f"non-finite loss at pair {idx}, epoch {epoch}")
            ad.backward(loss)
            sgd_step(query, config.lr)
            enc.update_key(key, query, config.momentum)
            log.steps += 1
            total += loss.item()
        log.epoch_losses.append(total / len(pairs))
    return log
