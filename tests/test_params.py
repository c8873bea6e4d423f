"""ParamStore, SGD semantics, and checkpoint round-trips."""
import struct

import numpy as np
import pytest

from contrastner import autodiff as ad
from contrastner import contrast as ct
from contrastner import encoder as enc
from contrastner import synth
from contrastner import tagger as tg
from contrastner.params import MAGIC, ParamStore, load_params, save_params, sgd_step
import helpers


def test_sgd_basic_step():
    store = ParamStore()
    p = store.add("p", [1.0])
    grad = p.grad = np.array([0.5])
    sgd_step(store, 0.1)
    assert np.allclose(p.values, [0.95])
    assert p.grad is grad and grad.tolist() == [0.0]   # zeroed in place for the next backward


def test_sgd_lr_zero_is_identity():
    store = ParamStore()
    p = store.add("p", [1.0, 2.0])
    p.grad = np.array([5.0, -5.0])
    sgd_step(store, 0.0)
    assert p.values.tolist() == [1.0, 2.0]


def test_sgd_negative_lr_rejected():
    store = ParamStore()
    store.add("p", [1.0])
    with pytest.raises(ValueError):
        sgd_step(store, -0.1)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_sgd_non_finite_lr_rejected(lr):
    store = ParamStore()
    p = store.add("p", [1.0])
    p.grad = np.array([1.0])
    with pytest.raises(ValueError, match="learning rate must be finite"):
        sgd_step(store, lr)
    assert p.values.tolist() == [1.0]


def test_sgd_rejects_nonfinite_grad_naming_parameter():
    store = ParamStore()
    a = store.add("fine", [1.0])
    b = store.add("broken", [1.0])
    a.grad = np.array([1.0])
    b.grad = np.array([np.nan])
    with pytest.raises(ValueError, match="broken"):
        sgd_step(store, 0.1)
    # whole step rejected: nothing moved
    assert a.values.tolist() == [1.0]


def test_sgd_skips_parameters_without_grads():
    store = ParamStore()
    p = store.add("p", [1.0])
    q = store.add("q", [2.0])
    p.grad = np.array([1.0])
    sgd_step(store, 0.1)
    assert q.values.tolist() == [2.0]


def test_quadratic_convergence():
    # 200 steps of lr 0.1 on (p - 3)^2 from p = 0
    store = ParamStore()
    p = store.add("p", 0.0)
    for _ in range(200):
        diff = ad.add(p, ad.constant(-3.0))
        loss = helpers.mul(diff, diff)
        ad.backward(loss)
        sgd_step(store, 0.1)
    assert abs(float(p.values) - 3.0) < 1e-6


def _lifecycle_setup(trainer):
    """A tiny model and a closure that trains it with trainer, both seeded."""
    rng = np.random.default_rng(4)
    store = ParamStore()
    if trainer == "train_ner":
        train, _ = synth.ner_fixture(seed=1, n_train=5, n_test=0)
        vocab = enc.Vocab.from_sentences(s.tokens for s in train)
        tags = tg.bio_tag_list(["PER", "LOC", "ORG", "MISC"])
        enc.init_encoder(store, "enc.", len(vocab), emb_dim=4, hidden=3, rng=rng)
        tg.init_tagger(store, enc.output_dim(store), 3, len(tags), rng)
        return store, lambda: tg.train_ner(train, vocab, store, tags,
                                           tg.NerConfig(epochs=2, lr=0.1, seed=2))
    pairs = synth.pairs_fixture(seed=1, n_pairs=4)
    vocab = enc.Vocab.from_sentences(t for p in pairs for t in (p.sentence, p.positive))
    enc.init_encoder(store, "enc.", len(vocab), emb_dim=4, hidden=3, rng=rng)
    ct.init_head(store, enc.output_dim(store), 3, rng)
    key = enc.init_key_from_query(store)
    config = ct.WclConfig(epochs=2, queue_size=3, lr=0.1, momentum=0.5, seed=2)
    return store, lambda: ct.train_wcl(pairs, vocab, store, key, config)


@pytest.mark.parametrize("trainer", ["train_ner", "train_wcl"])
def test_in_place_grads_match_fresh_grads_bit_for_bit(trainer):
    """sgd_step zeroes each grad in place and the next backward adds into
    it; a reference run that drops every grad before each backward, so that
    each step starts from fresh arrays, must end on the same bits."""
    module = tg if trainer == "train_ner" else ct
    store, train = _lifecycle_setup(trainer)
    ref_store, ref_train = _lifecycle_setup(trainer)
    step, backward, held, steps = module.sgd_step, ad.backward, {}, []

    def checked_step(s, lr):
        step(s, lr)
        steps.append(lr)
        for name, t in s.items():
            assert held.setdefault(name, t.grad) is t.grad, name   # one array per parameter
            assert t.grad.tobytes() == np.zeros_like(t.values).tobytes(), name

    def fresh_backward(loss):
        for t in ref_store.tensors():
            t.grad = None
        backward(loss)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "sgd_step", checked_step)
        train()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "backward", fresh_backward)
        ref_train()
    assert len(steps) > 2 and len(held) == len(store)
    for name, t in store.items():
        assert t.values.tobytes() == ref_store[name].values.tobytes(), name


def test_duplicate_name_rejected():
    store = ParamStore()
    store.add("w", [1.0])
    with pytest.raises(ValueError):
        store.add("w", [2.0])


def test_subset_shares_tensors_and_copy_does_not():
    store = ParamStore()
    store.add("enc.w", [1.0])
    store.add("head.w", [2.0])
    sub = store.subset("enc.")
    assert sub.names() == ["enc.w"]
    assert sub["enc.w"] is store["enc.w"]
    dup = store.copy()
    dup["enc.w"].values[0] = 99.0
    assert store["enc.w"].values[0] == 1.0
    assert not dup["enc.w"].requires_grad


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("scalar", rng.normal())
    store.add("vec", rng.normal(size=7))
    store.add("mat", rng.normal(size=(3, 5)))
    path = tmp_path / "model.bin"
    save_params(store, path)
    loaded = load_params(path)
    assert loaded.names() == store.names()
    for name, t in store.items():
        assert t.values.shape == loaded[name].values.shape
        assert t.values.tobytes() == loaded[name].values.tobytes()
    # saving the loaded store reproduces the file byte for byte
    path2 = tmp_path / "model2.bin"
    save_params(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_magic_checked(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_params(path)


def test_checkpoint_truncation_detected(tmp_path):
    store = ParamStore()
    store.add("w", np.ones((4, 4)))
    path = tmp_path / "model.bin"
    save_params(store, path)
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_params(clipped)


def test_checkpoint_malformed_fields_raise_value_error(tmp_path):
    store = ParamStore()
    store.add("w", np.ones((2, 3)))
    path = tmp_path / "model.bin"
    save_params(store, path)
    good = path.read_bytes()
    header = MAGIC + struct.pack("<I", 1)
    # every truncation but the bare header, which is a valid empty checkpoint
    cases = [good[:cut] for cut in range(1, len(good)) if cut != len(header)]
    cases += [
        header + struct.pack("<I", 1) + b"\xff" + struct.pack("<II", 1, 1) + bytes(8),
        header + struct.pack("<I", 1) + b"w" + struct.pack("<III", 2, 2**32 - 1, 2**32 - 1),
        header + struct.pack("<I", 2**32 - 1) + b"w",
        header + struct.pack("<I", 1) + b"w" + struct.pack("<I", 2**32 - 1),
    ]
    for blob in cases:
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            load_params(path)


def test_checkpoint_starts_with_magic(tmp_path):
    store = ParamStore()
    store.add("w", [1.0])
    path = tmp_path / "model.bin"
    save_params(store, path)
    assert path.read_bytes()[:4] == MAGIC
