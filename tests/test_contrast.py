"""Projection head, similarity, negative queue, InfoNCE, WCL training."""
import math
import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastner import autodiff as ad
from contrastner import contrast as ct
from contrastner import encoder as enc
from contrastner import synth
from contrastner.corpus import SentencePair
from contrastner.params import ParamStore

from helpers import (check_gradients, ref_build_msim, ref_info_nce, ref_NegativeQueue,
                     ref_train_wcl)


def identity_head(d: int) -> ParamStore:
    store = ParamStore()
    store.add("head.w1", np.eye(d))
    store.add("head.b1", np.zeros(d))
    store.add("head.w2", np.eye(d))
    store.add("head.b2", np.zeros(d))
    return store


def test_project_relu_passthrough():
    store = identity_head(2)
    out = ct.project(store, ad.constant([-1.0, 2.0]))
    assert np.allclose(out.values, [0.0, 2.0])


def test_project_zero_weights_yield_bias():
    store = ParamStore()
    store.add("head.w1", np.zeros((3, 3)))
    store.add("head.b1", np.zeros(3))
    store.add("head.w2", np.zeros((2, 3)))
    store.add("head.b2", [0.25, -0.5])
    out = ct.project(store, ad.constant([1.0, 2.0, 3.0]))
    assert np.allclose(out.values, [0.25, -0.5])


def test_project_dim_mismatch_rejected():
    store = identity_head(2)
    with pytest.raises(ValueError):
        out = ct.project(store, ad.constant([1.0, 2.0, 3.0]))
        ad.backward(ad.dot(out, out))


def test_project_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    store = ParamStore()
    ct.init_head(store, 4, 3, rng=rng)
    v = ad.Tensor(rng.normal(size=4) + 0.7, requires_grad=True)

    def build():
        out = ct.project(store, v)
        return ad.dot(out, out)

    check_gradients(build, store.tensors() + [v], rng=rng)


def test_similarity_examples():
    rng = np.random.default_rng(1)
    v = ad.constant(rng.normal(size=5))
    neg = ad.constant(-v.values)
    assert abs(ct.similarity(v, v).item() - 1.0) < 1e-12
    assert abs(ct.similarity(v, neg).item() + 1.0) < 1e-12
    a = ad.constant([1.0, 0.0])
    b = ad.constant([0.0, 1.0])
    assert ct.similarity(a, b).item() == 0.0


def test_similarity_range_and_zero_vector():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = ad.constant(rng.normal(size=4))
        b = ad.constant(rng.normal(size=4))
        s = ct.similarity(a, b).item()
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
    z = ad.constant([0.0, 0.0, 0.0, 0.0])
    assert ct.similarity(z, ad.constant([1.0, 0.0, 0.0, 0.0])).item() == 0.0


def test_queue_size_invariant_and_fifo():
    # the queue holds unit rows; keys along distinct axes keep the order visible
    rng = np.random.default_rng(3)
    q = ct.NegativeQueue(3, 2, rng)
    assert len(q) == 3
    init = q.as_matrix().copy()
    assert np.allclose(np.linalg.norm(init, axis=1), 1.0)
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    pushed = [axes[i] * (i + 2) for i in range(3)]
    q.rotate(pushed[0])
    assert len(q) == 3
    # first push evicts an init vector, never a pushed key
    assert any(np.array_equal(q.as_matrix()[i], axes[0]) for i in range(3))
    assert np.array_equal(q.as_matrix()[:2], init[1:])
    q.rotate(pushed[1])
    q.rotate(pushed[2])
    # after N-1 pushes the queue is exactly the pushed keys, oldest first
    assert np.array_equal(q.as_matrix(), axes[:3])
    more = [axes[i % 4] * (i + 1) for i in range(1, 8)]
    for key in more:
        q.rotate(key)
    assert np.array_equal(q.as_matrix(), axes[[1, 2, 3]])


def test_queue_stores_copies():
    rng = np.random.default_rng(4)
    q = ct.NegativeQueue(2, 2, rng)
    key = np.array([0.0, 3.0])
    q.rotate(key)
    key[:] = 99.0
    assert np.array_equal(q.as_matrix()[-1], [0.0, 1.0])


def test_queue_rejects_bad_shapes():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        ct.NegativeQueue(0, 2, rng)
    q = ct.NegativeQueue(2, 2, rng)
    with pytest.raises(ValueError):
        q.rotate(np.zeros(3))


def test_queue_matrix_is_a_read_only_view():
    q = ct.NegativeQueue(3, 2, np.random.default_rng(12))
    m = q.as_matrix()
    assert not m.flags.writeable and not m.flags.owndata
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


@pytest.mark.parametrize("size, dim", [(1, 1), (3, 2), (4096, 4), (5, 7)])
def test_queue_buffer_starts_on_a_page(size, dim):
    q = ct.NegativeQueue(size, dim, np.random.default_rng(size))
    assert q._rows.shape == (2 * size, dim) and q._rows.flags.c_contiguous
    assert q._rows.ctypes.data % mmap.PAGESIZE == 0
    assert np.array_equal(q._rows[:size], q._rows[size:])


def test_build_msim_orthogonal_negative():
    rng = np.random.default_rng(6)
    q = ct.NegativeQueue(1, 2, rng)
    q.rotate(np.array([0.0, 1.0]))
    anchor = ad.constant([1.0, 0.0])
    msim = ct.build_msim(ad.constant(0.9), q, anchor)
    assert np.allclose(msim.values, [0.9, 0.0])


def test_build_msim_all_equal_anchor():
    rng = np.random.default_rng(7)
    q = ct.NegativeQueue(4, 3, rng)
    anchor = np.array([0.6, -0.3, 1.2])
    for _ in range(4):
        q.rotate(anchor)
    msim = ct.build_msim(ad.constant(1.0), q, ad.constant(anchor))
    assert np.allclose(msim.values, np.ones(5))


def test_build_msim_matches_elementwise_similarity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        size = int(rng.integers(1, 6))
        dim = int(rng.integers(2, 5))
        q = ct.NegativeQueue(size, dim, rng)
        anchor = ad.constant(rng.normal(size=dim))
        pos = float(rng.normal())
        msim = ct.build_msim(ad.constant(pos), q, anchor)
        assert msim.values.shape == (size + 1,)
        assert msim.values[0] == pos
        for j in range(size):
            direct = ct.similarity(
                anchor, ad.constant(q.as_matrix()[j])).item()
            assert abs(msim.values[1 + j] - direct) < 1e-12


def test_build_msim_requires_queue():
    with pytest.raises(ValueError):
        ct.build_msim(ad.constant(0.5), None, ad.constant([1.0, 0.0]))


def test_info_nce_uniform_is_log_n():
    for n in (2, 10, 100):
        for tau in (1.0, 0.07):
            m = ad.constant(np.full(n, 0.37))
            loss = ct.info_nce(m, tau)
            assert abs(loss.item() - math.log(n)) < 1e-9


def test_info_nce_hand_evaluations():
    m = ad.constant([1.0, 0.0])
    assert abs(ct.info_nce(m, 1.0).item() - math.log(1 + math.exp(-1))) < 1e-12
    assert abs(ct.info_nce(m, 1.0).item() - 0.313262) < 1e-6
    sharp = ct.info_nce(ad.constant([1.0, 0.0]), 0.1).item()
    assert abs(sharp - math.log(1 + math.exp(-10))) < 1e-12
    assert abs(sharp - 4.54e-5) < 1e-7


def test_info_nce_rejects_bad_temperature():
    m = ad.constant([1.0, 0.0])
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError):
            ct.info_nce(m, tau)


def test_info_nce_positive_and_monotone():
    rng = np.random.default_rng(9)
    for _ in range(100):
        vals = rng.normal(size=6)
        loss = ct.info_nce(ad.constant(vals), 0.5).item()
        assert loss > 0.0
        bumped = vals.copy()
        bumped[0] += 0.1
        assert ct.info_nce(ad.constant(bumped), 0.5).item() < loss


def test_info_nce_shift_invariance():
    rng = np.random.default_rng(10)
    for _ in range(50):
        vals = rng.normal(size=5)
        base = ct.info_nce(ad.constant(vals), 0.3).item()
        shifted = ct.info_nce(ad.constant(vals + 7.5), 0.3).item()
        assert abs(base - shifted) < 1e-9


def test_info_nce_vanishes_when_positive_dominates():
    m = ad.constant([50.0, 0.0, 0.0])
    assert ct.info_nce(m, 1.0).item() < 1e-12


def test_info_nce_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    m = ad.Tensor(rng.normal(size=8), requires_grad=True)
    check_gradients(lambda: ct.info_nce(m, 0.2), [m], rng=rng)


def make_wcl_setup(seed=0, n_vocab_extra=10):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_vocab_extra)]
    vocab = enc.Vocab(words)
    store = ParamStore()
    enc.init_encoder(store, "enc.", len(vocab), emb_dim=6, hidden=4, rng=rng)
    ct.init_head(store, enc.output_dim(store, "enc."), 3, rng=rng)
    key = enc.init_key_from_query(store, "enc.")
    return vocab, store, key


@pytest.mark.parametrize("momentum", [1.0, 0.0])
def test_train_wcl_one_pair_frozen_key(momentum):
    vocab, store, key = make_wcl_setup()
    before_key = {n: t.values.copy() for n, t in key.items()}
    before_query = {n: t.values.copy() for n, t in store.items()}
    pairs = [SentencePair(["w0", "w1"], ["w1", "w0"])]
    config = ct.WclConfig(epochs=1, queue_size=2, lr=0.1, momentum=momentum,
                          seed=3)
    log = ct.train_wcl(pairs, vocab, store, key, config)
    assert log.steps == 1
    assert len(log.epoch_losses) == 1
    # momentum 1: key side bit-identical; momentum 0: bit-identical to the
    # stepped query encoder. The query side moved either way.
    want = before_key if momentum == 1.0 else {n: store[n].values for n in key.names()}
    for name, t in key.items():
        assert t.values.tobytes() == want[name].tobytes()
    moved = any(not np.array_equal(t.values, before_query[n])
                for n, t in store.items())
    assert moved
    # every query grad was stepped and zeroed in place; the key took none
    for t in store.tensors():
        assert t.grad.tobytes() == np.zeros_like(t.values).tobytes()
    for t in key.tensors():
        assert t.grad is None


def test_train_wcl_zero_epochs_no_steps():
    vocab, store, key = make_wcl_setup()
    before = {n: t.values.copy() for n, t in store.items()}
    pairs = [SentencePair(["w0"], ["w1"])]
    log = ct.train_wcl(pairs, vocab, store, key,
                       ct.WclConfig(epochs=0, queue_size=2))
    assert log.steps == 0 and log.epoch_losses == []
    for name, t in store.items():
        assert np.array_equal(t.values, before[name])


def test_train_wcl_deterministic():
    losses = []
    for _ in range(2):
        vocab, store, key = make_wcl_setup(seed=5)
        pairs = [SentencePair([f"w{i}"], [f"w{(i + 1) % 6}"])
                 for i in range(6)]
        config = ct.WclConfig(epochs=2, queue_size=3, lr=0.05, seed=11)
        log = ct.train_wcl(pairs, vocab, store, key, config)
        losses.append(tuple(log.epoch_losses))
    assert losses[0] == losses[1]


def test_train_wcl_queue_size_constant():
    vocab, store, key = make_wcl_setup()
    pairs = [SentencePair([f"w{i}", "w0"], [f"w{i}"]) for i in range(4)]
    config = ct.WclConfig(epochs=2, queue_size=3, lr=0.05)
    log = ct.train_wcl(pairs, vocab, store, key, config)
    assert len(log.queue) == 3


def test_train_wcl_rejects_empty_pairs():
    vocab, store, key = make_wcl_setup()
    with pytest.raises(ValueError):
        ct.train_wcl([], vocab, store, key, ct.WclConfig())


def test_wcl_config_validation():
    with pytest.raises(ValueError):
        ct.WclConfig(temperature=0.0).validate()
    with pytest.raises(ValueError):
        ct.WclConfig(queue_size=0).validate()
    for bad in (-0.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            ct.WclConfig(momentum=bad).validate()
    for edge in (0.0, 1.0):
        ct.WclConfig(momentum=edge).validate()
    ct.WclConfig().validate()


def test_train_wcl_loss_decreases_on_paraphrase_fixture():
    from contrastner import synth

    pairs = synth.pairs_fixture(seed=0, n_pairs=200)
    vocab = enc.Vocab.from_sentences(
        [p.sentence for p in pairs] + [p.positive for p in pairs])
    store = ParamStore()
    enc.init_encoder(store, "enc.", len(vocab), emb_dim=16, hidden=8,
                     rng=np.random.default_rng(0))
    ct.init_head(store, enc.output_dim(store, "enc."), 4,
                 rng=np.random.default_rng(1))
    key = enc.init_key_from_query(store, "enc.")
    config = ct.WclConfig(epochs=5, queue_size=256, lr=0.1, seed=0)
    log = ct.train_wcl(pairs, vocab, store, key, config)
    assert log.epoch_losses[-1] < log.epoch_losses[0]


def unit_rows(queue) -> np.ndarray:
    """The queue's rows at unit length; the reference queue holds them raw."""
    m = queue.as_matrix()
    return ct._unit_rows(m) if isinstance(queue, ref_NegativeQueue) else m


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@settings(max_examples=120, deadline=None)
@given(size=st.integers(1, 64), dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0.05, 2.0))
def test_queue_similarity_and_loss_match_reference_bit_for_bit(size, dim, seed, tau):
    # The reference runs in the old order (rotate, then backward) and
    # normalises its raw rows on every read; the new queue rotates after
    # backward and stores unit rows. Both queues first rotate a drawn 0..size
    # times unscored. Some keys are zero or below the 1e-9 norm floor.
    rng = np.random.default_rng(seed)
    new, ref = ct.NegativeQueue(size, dim, np.random.default_rng(seed)), \
        ref_NegativeQueue(size, dim, np.random.default_rng(seed))

    def draw_key():
        return rng.normal(size=dim) * rng.choice([0.0, 1e-12, 1.0], p=[0.05, 0.05, 0.9])
    for _ in range(int(rng.integers(0, size + 1))):
        key = draw_key()
        new.rotate(key)
        ref.rotate(key)
    for step in range(2 * size + int(rng.integers(0, size + 1))):
        a0, p0 = rng.normal(size=dim), float(rng.normal())
        key = draw_key()
        results = []
        for queue, msim_of, loss_of in ((new, ct.build_msim, ct.info_nce),
                                        (ref, ref_build_msim, ref_info_nce)):
            anchor, pos = ad.Tensor(a0, requires_grad=True), ad.Tensor(p0, requires_grad=True)
            msim = msim_of(pos, queue, anchor)
            if queue is ref:
                queue.rotate(key)
            loss = loss_of(msim, tau)
            ad.backward(loss)
            if queue is new:
                queue.rotate(key)
            results.append([bits(x) for x in (msim.values, loss.values, msim.grad,
                                              anchor.grad, pos.grad, unit_rows(queue))])
        assert results[0] == results[1], f"step {step}"


def test_train_wcl_matches_reference_loop_bit_for_bit():
    pairs = synth.pairs_fixture(seed=0, n_pairs=40)
    vocab = enc.Vocab.from_sentences(
        [p.sentence for p in pairs] + [p.positive for p in pairs])
    runs = []
    for train in (ct.train_wcl, ref_train_wcl):
        store = ParamStore()
        rng = np.random.default_rng(0)
        enc.init_encoder(store, "enc.", len(vocab), emb_dim=8, hidden=4, rng=rng)
        ct.init_head(store, enc.output_dim(store, "enc."), 4, rng=rng)
        key = enc.init_key_from_query(store, "enc.")
        config = ct.WclConfig(epochs=2, queue_size=64, lr=0.1, seed=3)
        log = train(pairs, vocab, store, key, config)
        runs.append(([bits(t.values) for t in store.tensors() + key.tensors()],
                     log.epoch_losses, bits(unit_rows(log.queue))))
    assert runs[0] == runs[1]


def test_rotating_before_backward_raises():
    rng = np.random.default_rng(13)
    for rotations in (1, 3):          # 3 is a full wrap: head is back where it was
        q = ct.NegativeQueue(3, 2, rng)
        anchor = ad.Tensor(rng.normal(size=2), requires_grad=True)
        loss = ct.info_nce(ct.build_msim(ad.constant(0.5), q, anchor), 0.1)
        for _ in range(rotations):
            q.rotate(rng.normal(size=2))
        with pytest.raises(ct.StaleQueueError, match="rotate after backward"):
            ad.backward(loss)
        assert ad.tape_size() == 0
    assert issubclass(ct.StaleQueueError, RuntimeError)


def test_train_wcl_tape_is_fifteen_entries_per_pair(monkeypatch):
    # encode and pool 5 (gather, two scans, concat, mean), project 5, the
    # anchor's normalize, the positive's dot, build_msim 2 (its normalize
    # and one fused op) and info_nce 1, whatever the queue size
    sizes = []
    backward = ad.backward

    def counting_backward(loss):
        sizes.append(ad.tape_size())
        backward(loss)
    monkeypatch.setattr(ad, "backward", counting_backward)
    vocab, store, key = make_wcl_setup()
    pairs = [SentencePair([f"w{i}", "w0", "w9"][:1 + i % 3], [f"w{i}"]) for i in range(6)]
    ct.train_wcl(pairs, vocab, store, key, ct.WclConfig(epochs=2, queue_size=64))
    assert sizes == [15] * 12
