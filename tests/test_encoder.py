"""Vocab, bidirectional recurrent encoder, pooling, and key updates."""
import numpy as np
import pytest

from contrastner import autodiff as ad
from contrastner import encoder as enc
from contrastner.encoder import Vocab
from contrastner.params import ParamStore, save_params

from helpers import check_gradients


def make_encoder(rng, vocab_size=12, emb=5, hidden=4, prefix="enc."):
    store = ParamStore()
    enc.init_encoder(store, prefix, vocab_size, emb_dim=emb, hidden=hidden,
                     rng=rng)
    return store


def test_vocab_reserved_ids():
    vocab = Vocab(["apple", "banana"])
    assert Vocab.pad_id == 0 and Vocab.unk_id == 1
    assert vocab.id_of("apple") == 2
    assert vocab.id_of("banana") == 3
    assert vocab.id_of("cherry") == Vocab.unk_id
    assert len(vocab) == 4
    assert vocab.token_of(2) == "apple"


def test_vocab_from_sentences_first_occurrence_order():
    vocab = Vocab.from_sentences([["b", "a", "b"], ["c", "a"]])
    assert [vocab.id_of(t) for t in ("b", "a", "c")] == [2, 3, 4]


def test_vocab_save_load_round_trip(tmp_path):
    vocab = Vocab(["x", "y", "z"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    assert path.read_text(encoding="utf-8") == "x\ny\nz\n"
    loaded = Vocab.load(path)
    assert len(loaded) == len(vocab)
    for tok in ("x", "y", "z", "missing"):
        assert loaded.id_of(tok) == vocab.id_of(tok)


def test_encode_single_token_shape():
    rng = np.random.default_rng(0)
    store = make_encoder(rng, hidden=4)
    vocab = Vocab(["hello"] + [f"t{i}" for i in range(9)])
    out = enc.encode(store, vocab, ["hello"])
    assert out.values.shape == (1, 8)


def test_encode_output_dim():
    rng = np.random.default_rng(1)
    store = make_encoder(rng, hidden=6)
    assert enc.output_dim(store, "enc.") == 12


def test_encode_deterministic_and_oov():
    rng = np.random.default_rng(2)
    store = make_encoder(rng)
    vocab = Vocab(["a", "b"])
    with ad.no_grad():
        one = enc.encode(store, vocab, ["a", "zzz", "b"]).values
        two = enc.encode(store, vocab, ["a", "qqq", "b"]).values
    # distinct OOV tokens share the unknown id
    assert np.array_equal(one, two)


def test_encode_permutation_symmetry():
    # renaming vocab ids while permuting embedding rows to match is a no-op
    rng = np.random.default_rng(3)
    store = make_encoder(rng, vocab_size=7)
    tokens = ["a", "c", "b"]
    vocab = Vocab(["a", "b", "c", "d", "e"])
    with ad.no_grad():
        base = enc.encode(store, vocab, tokens).values.copy()

    perm_vocab = Vocab(["d", "c", "a", "e", "b"])
    permuted = store.copy()
    table = store["enc.embed"].values
    new_table = permuted["enc.embed"].values
    for tok in ("a", "b", "c", "d", "e"):
        new_table[perm_vocab.id_of(tok)] = table[vocab.id_of(tok)]
    with ad.no_grad():
        again = enc.encode(permuted, perm_vocab, tokens).values
    assert np.allclose(base, again)


def test_encode_bidirectional_witness():
    # changing only the final token must move row 0 (backward pass carries it)
    rng = np.random.default_rng(4)
    store = make_encoder(rng)
    vocab = Vocab(["a", "b", "c"])
    with ad.no_grad():
        one = enc.encode(store, vocab, ["a", "b", "b"]).values
        two = enc.encode(store, vocab, ["a", "b", "c"]).values
    assert not np.allclose(one[0], two[0])


def test_encode_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    store = make_encoder(rng, vocab_size=6, emb=4, hidden=3)
    vocab = Vocab(["a", "b", "c", "d"])
    tokens = ["a", "c", "b", "a"]

    def build():
        out = enc.encode(store, vocab, tokens)
        pooled = enc.pool(out)
        return ad.dot(pooled, pooled)

    check_gradients(build, list(store.tensors()), rng=rng, max_coords=40)


def test_pool_examples():
    one = ad.constant(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(enc.pool(one).values, [1.0, 2.0, 3.0])
    v = np.array([[2.0, -1.0], [-2.0, 1.0]])
    assert np.allclose(enc.pool(ad.constant(v)).values, [0.0, 0.0])
    m = np.array([[1.0, 1.0], [3.0, 3.0]])
    assert np.allclose(enc.pool(ad.constant(m)).values, [2.0, 2.0])


def test_pool_convex_hull_property():
    rng = np.random.default_rng(6)
    for _ in range(200):
        rows = rng.normal(size=(rng.integers(1, 6), 4))
        pooled = enc.pool(ad.constant(rows)).values
        assert np.all(pooled <= rows.max(axis=0) + 1e-12)
        assert np.all(pooled >= rows.min(axis=0) - 1e-12)


def test_init_key_from_query_deep_copy():
    rng = np.random.default_rng(7)
    store = make_encoder(rng)
    key = enc.init_key_from_query(store, "enc.")
    assert key.names() == store.subset("enc.").names()
    for name, t in key.items():
        assert np.array_equal(t.values, store[name].values)
        assert not t.requires_grad
    store["enc.embed"].values[0, 0] += 5.0
    assert key["enc.embed"].values[0, 0] != store["enc.embed"].values[0, 0]


def test_init_key_twice_identical():
    rng = np.random.default_rng(8)
    store = make_encoder(rng)
    k1 = enc.init_key_from_query(store, "enc.")
    k2 = enc.init_key_from_query(store, "enc.")
    for name in k1.names():
        assert np.array_equal(k1[name].values, k2[name].values)


def test_key_checkpoint_matches_query_bytes(tmp_path):
    rng = np.random.default_rng(9)
    store = make_encoder(rng)
    key = enc.init_key_from_query(store, "enc.")
    qpath, kpath = tmp_path / "q.bin", tmp_path / "k.bin"
    save_params(store.subset("enc."), qpath)
    save_params(key, kpath)
    assert qpath.read_bytes() == kpath.read_bytes()


def test_update_key_frozen():
    rng = np.random.default_rng(10)
    store = make_encoder(rng)
    key = enc.init_key_from_query(store, "enc.")
    before = {n: t.values.copy() for n, t in key.items()}
    store["enc.embed"].values += 1.0
    enc.update_key(key, store.subset("enc."), 1.0)
    for name, t in key.items():
        assert np.array_equal(t.values, before[name])
        assert t.values.tobytes() == before[name].tobytes()


def test_update_key_mirror():
    rng = np.random.default_rng(11)
    store = make_encoder(rng)
    key = enc.init_key_from_query(store, "enc.")
    store["enc.embed"].values += 3.0
    enc.update_key(key, store.subset("enc."), 0.0)
    for name, t in key.items():
        assert np.array_equal(t.values, store[name].values)
        # still a copy, not an alias
        assert t.values is not store[name].values


def test_update_key_momentum_halfway():
    store = ParamStore()
    store.add("enc.w", [2.0, 2.0])
    key = enc.init_key_from_query(store, "enc.")
    key["enc.w"].values[:] = 0.0
    enc.update_key(key, store.subset("enc."), momentum=0.5)
    assert np.allclose(key["enc.w"].values, [1.0, 1.0])


def test_update_key_momentum_bounds():
    store = ParamStore()
    store.add("enc.w", [1.0])
    key = enc.init_key_from_query(store, "enc.")
    for bad in (-0.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            enc.update_key(key, store.subset("enc."), momentum=bad)
    for edge in (0.0, 1.0):
        enc.update_key(key, store.subset("enc."), momentum=edge)


def test_update_key_momentum_near_one_barely_moves():
    store = ParamStore()
    store.add("enc.w", [10.0])
    key = enc.init_key_from_query(store, "enc.")
    key["enc.w"].values[:] = 0.0
    enc.update_key(key, store.subset("enc."), momentum=1 - 1e-12)
    assert abs(key["enc.w"].values[0]) < 1e-10


def test_key_receives_no_gradients():
    rng = np.random.default_rng(12)
    store = make_encoder(rng, vocab_size=6, emb=4, hidden=3)
    key = enc.init_key_from_query(store, "enc.")
    vocab = Vocab(["a", "b", "c", "d"])
    with ad.no_grad():
        pooled = enc.pool(enc.encode(key, vocab, ["a", "b"]))
    loss = ad.dot(ad.constant(pooled.values), ad.constant(pooled.values))
    for t in key.tensors():
        assert t.grad is None
    assert loss.values.shape == ()
