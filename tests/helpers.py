"""Shared test utilities: the finite-difference gradient oracle."""
import numpy as np

from contrastner import autodiff as ad


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
        z = ad.add(ad.add(ad.matmul(w_x, x), ad.matmul(w_h, h)), b)
        if cell == "tanh":
            h = ad.tanh(z)
        else:
            i = ad.sigmoid(ad.index(z, slice(0, h_dim)))
            f = ad.sigmoid(ad.index(z, slice(h_dim, 2 * h_dim)))
            g = ad.tanh(ad.index(z, slice(2 * h_dim, 3 * h_dim)))
            o = ad.sigmoid(ad.index(z, slice(3 * h_dim, 4 * h_dim)))
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
        states.append(h)
    return states


def ref_bidirectional(store, xs, fwd_key, bwd_key, cell):
    fwd = ref_direction(store, fwd_key, xs, cell)
    bwd = list(reversed(ref_direction(store, bwd_key, list(reversed(xs)), cell)))
    return [ad.concat([f, b]) for f, b in zip(fwd, bwd)]


def ref_encode(store, vocab, tokens, prefix="enc."):
    embed = store[prefix + "embed"]
    xs = [ad.index(embed, vocab.id_of(t)) for t in tokens]
    return ref_bidirectional(store, xs, prefix + "fwd", prefix + "bwd", "tanh")


def ref_bilstm_forward(store, rows):
    return ref_bidirectional(store, rows, "lstm.f", "lstm.b", "lstm")


def ref_emissions(store, rows):
    return [ad.matmul(row, store["emit.w"]) for row in rows]


def ref_crf_log_partition(emis_rows, trans):
    n_tags = emis_rows[0].values.shape[0]
    start = ad.index(trans, (n_tags, slice(0, n_tags)))
    stop = ad.index(trans, (slice(0, n_tags), n_tags + 1))
    into = [ad.index(trans, (slice(0, n_tags), j)) for j in range(n_tags)]
    alpha = ad.add(emis_rows[0], start)
    for row in emis_rows[1:]:
        alpha = ad.add(row, ad.concat([ad.logsumexp(ad.add(col, alpha)) for col in into]))
    return ad.logsumexp(ad.add(alpha, stop))


def ref_path_score(emis_rows, trans, tag_ids):
    n_tags = emis_rows[0].values.shape[0]
    score = ad.index(trans, (n_tags, tag_ids[0]))
    for t, tid in enumerate(tag_ids):
        score = ad.add(score, ad.index(emis_rows[t], tid))
        if t + 1 < len(tag_ids):
            score = ad.add(score, ad.index(trans, (tid, tag_ids[t + 1])))
    return ad.add(score, ad.index(trans, (tag_ids[-1], n_tags + 1)))


def ref_crf_nll(emis_rows, trans, tag_ids):
    return ad.sub(ref_crf_log_partition(emis_rows, trans),
                  ref_path_score(emis_rows, trans, tag_ids))
