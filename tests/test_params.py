"""ParamStore, SGD semantics, and checkpoint round-trips."""
import struct

import numpy as np
import pytest

from contrastner import autodiff as ad
from contrastner.params import MAGIC, ParamStore, load_params, save_params, sgd_step
import helpers


def test_sgd_basic_step():
    store = ParamStore()
    p = store.add("p", [1.0])
    p.grad = np.array([0.5])
    sgd_step(store, 0.1)
    assert np.allclose(p.values, [0.95])
    assert p.grad is None


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
