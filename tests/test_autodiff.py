"""Op-level checks for the reverse-mode engine, closed forms first."""
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from contrastner import autodiff as ad
from contrastner.params import ParamStore, sgd_step
import helpers
from helpers import check_gradients, ref_recurrent, ref_sigmoid


def tensor(values):
    return ad.Tensor(values, requires_grad=True)


def test_logsumexp_of_zeros_is_ln2():
    out = helpers.logsumexp(tensor([0.0, 0.0]))
    assert abs(out.values - np.log(2)) < 1e-15
    ad.reset_tape()


def test_relu_definition():
    out = ad.relu(tensor([-1.0, 0.0, 2.0]))
    assert out.values.tolist() == [0.0, 0.0, 2.0]
    ad.reset_tape()


def test_normalize_3_4_5():
    out = ad.normalize(tensor([3.0, 4.0]))
    assert np.allclose(out.values, [0.6, 0.8], atol=1e-15)
    ad.reset_tape()


def test_normalize_tiny_norm_gives_zero_vector_and_zero_grad():
    x = tensor([1e-10, -1e-10])
    out = ad.normalize(x)
    assert np.all(out.values == 0.0)
    loss = helpers.tsum(out)
    ad.backward(loss)
    assert x.grad is None or np.all(x.grad == 0.0)


def test_sum_of_squares_gradient():
    x = tensor([1.0, 2.0, 3.0])
    loss = helpers.tsum(helpers.mul(x, x))
    ad.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_dot_gradients_are_the_other_operand():
    a = tensor([1.0, -2.0, 0.5])
    b = tensor([3.0, 0.0, 4.0])
    ad.backward(ad.dot(a, b))
    assert np.allclose(a.grad, b.values)
    assert np.allclose(b.grad, a.values)


def test_every_public_op_is_recorded_by_the_library():
    # autodiff keeps only the ops src/ calls; general-shape ops for oracles
    # live in tests/helpers.py. The tape API is for tests and the bench.
    src = "".join(p.read_text(encoding="utf-8")
                  for p in Path(ad.__file__).parent.glob("*.py"))
    public = {name for name, f in vars(ad).items() if not name.startswith("_")
              and (inspect.isfunction(f) or inspect.isclass(f))
              and f.__module__ == ad.__name__}
    assert sorted(n for n in public - {"reset_tape", "tape_size"}
                  if not re.search(rf"\bad\.{n}\b", src)) == []


def test_backward_requires_scalar():
    x = tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        ad.backward(x)
    ad.reset_tape()


def test_backward_clears_tape():
    x = tensor([1.0, 2.0])
    ad.backward(helpers.tsum(x))
    assert ad.tape_size() == 0


def test_unreachable_tensor_keeps_no_grad():
    x = tensor([1.0, 2.0])
    y = tensor([3.0, 4.0])
    ad.relu(y)  # on the tape but not feeding the loss
    ad.backward(helpers.tsum(x))
    assert x.grad is not None
    assert y.grad is None


def test_grad_accumulates_across_uses():
    x = tensor([2.0])
    loss = helpers.tsum(ad.add(x, x))
    ad.backward(loss)
    assert np.allclose(x.grad, [2.0])


def test_no_grad_blocks_taping():
    x = tensor([1.0, 2.0])
    with ad.no_grad():
        y = ad.relu(x)
    assert ad.tape_size() == 0
    assert not y.requires_grad


def test_matmul_shape_error_names_both_shapes():
    a = tensor(np.ones((2, 3)))
    b = tensor(np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
        ad.matmul(a, b)
    ad.reset_tape()


def test_add_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(tensor(np.ones(2)), tensor(np.ones(3)))
    with pytest.raises(ValueError, match=r"\(3, 2\).*\(2,\)"):
        ad.add(tensor(np.ones((3, 2))), tensor(np.ones(2)))   # no broadcasting
    ad.reset_tape()


def test_add_broadcasts_row_vector_over_matrix():
    m = tensor(np.zeros((3, 2)))
    v = tensor([1.0, 2.0])
    out = helpers.add(m, v)
    assert np.allclose(out.values, [[1, 2], [1, 2], [1, 2]])
    ad.backward(helpers.tsum(out))
    assert np.allclose(v.grad, [3.0, 3.0])
    assert np.allclose(m.grad, np.ones((3, 2)))


def test_logsumexp_empty_rejected():
    with pytest.raises(ValueError):
        helpers.logsumexp(tensor(np.zeros(0)))
    ad.reset_tape()


def test_logsumexp_stable_for_large_inputs():
    out = helpers.logsumexp(tensor([1000.0, 1000.0]))
    assert abs(out.values - (1000.0 + np.log(2))) < 1e-9
    ad.reset_tape()


def test_concat_promotes_scalars():
    s = tensor(2.5)
    v = tensor([1.0, 2.0])
    out = helpers.concat([s, v])
    assert out.values.tolist() == [2.5, 1.0, 2.0]
    ad.backward(helpers.tsum(out))
    assert s.grad.shape == ()
    assert float(s.grad) == 1.0


def test_index_out_of_range_rejected():
    # index is a row gather by a 1-d integer array: every other key is rejected
    m = tensor(np.ones((2, 2)))
    for key in (5, -1, (0, 7), (0, -1), np.array([0, 2]), np.array([-1]),
                slice(0, 3), slice(-1, None), (slice(0, 1), 2), (0, 0, 0),
                0, slice(0, 1), [0], np.array([[0]]), np.array([0.0])):
        with pytest.raises(IndexError):
            ad.index(m, key)
    with pytest.raises(IndexError):
        ad.index(tensor(np.ones(3)), slice(1, 4))
    ad.reset_tape()


def test_recurrent_rejects_bad_shapes_and_cells():
    x = tensor(np.ones((3, 2)))
    w_x, w_h, b = tensor(np.ones((4, 2))), tensor(np.ones((4, 4))), tensor(np.ones(4))
    with pytest.raises(ValueError, match="unknown recurrent cell"):
        ad.recurrent(x, w_x, w_h, b, cell="gru")
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.recurrent(x, w_x, w_h, b, cell="lstm")    # lstm needs 4 * hidden rows
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.recurrent(tensor(np.ones((0, 2))), w_x, w_h, b)
    ad.reset_tape()


def test_recurrent_rejects_bad_lengths():
    x = tensor(np.ones((5, 2)))
    w_x, w_h, b = tensor(np.ones((3, 2))), tensor(np.ones((3, 3))), tensor(np.ones(3))
    for lengths in ([2, 0, 3], [0, 5], [2, 2], [3, 3], [], [2.5, 2.5], [6, -1]):
        with pytest.raises(ValueError, match="lengths"):
            ad.recurrent(x, w_x, w_h, b, lengths=lengths)
    ad.reset_tape()


@pytest.mark.parametrize("cell", ["tanh", "lstm"])
@pytest.mark.parametrize("reverse", [False, True])
def test_packed_recurrent_equals_per_sequence_calls(cell, reverse):
    # one packed call against one call per sequence, stacked: values and
    # every gradient within 1e-12
    rng = np.random.default_rng(21)
    for lengths in ([3, 1, 5, 5, 2], [1], [4, 4], [1, 2, 3, 4, 5, 6]):
        d_in, hidden = 3, 4
        width = (4 if cell == "lstm" else 1) * hidden
        x = _rand(rng, sum(lengths), d_in)
        params = [_rand(rng, width, d_in), _rand(rng, width, hidden), _rand(rng, width)]
        probe = ad.constant(rng.normal(size=(sum(lengths), hidden)))

        def run(packed):
            if packed:
                out = ad.recurrent(x, *params, cell=cell, reverse=reverse, lengths=lengths)
            else:
                bounds = np.cumsum([0] + lengths)
                out = helpers.concat([ad.recurrent(helpers.index(x, slice(lo, hi)), *params,
                                                   cell=cell, reverse=reverse)
                                      for lo, hi in zip(bounds[:-1], bounds[1:])])
            loss = helpers.tsum(helpers.mul(out, probe))
            ad.backward(loss)
            grads = [t.grad for t in [x] + params]
            for t in [x] + params:
                t.grad = None
            return [out.values] + grads

        for got, want in zip(run(True), run(False)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12


def test_recurrent_is_one_tape_entry_per_direction():
    rng = np.random.default_rng(7)
    x = _rand(rng, 6, 3)
    w_x, w_h, b = _rand(rng, 8, 3), _rand(rng, 8, 2), _rand(rng, 8)
    for reverse in (False, True):
        ad.recurrent(x, w_x, w_h, b, cell="lstm", reverse=reverse)
    assert ad.tape_size() == 2
    ad.reset_tape()


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("cell", ["tanh", "lstm"])
@pytest.mark.parametrize("reverse", [False, True])
def test_recurrent_in_place_steps_match_allocating_loop_bitwise(cell, reverse):
    # outputs and every gradient bit for bit against the loop that made a
    # fresh array per expression: one sequence (T=1 included) and packed ones
    rng = np.random.default_rng(22)
    cases = [(1, None), (7, None), (5, [5]), (16, [3, 1, 5, 5, 2]), (3, [1, 1, 1]),
             (21, [1, 2, 3, 4, 5, 6])]
    for n_rows, lengths in cases:
        d_in, hidden = 3, 4
        width = (4 if cell == "lstm" else 1) * hidden
        x = _rand(rng, n_rows, d_in)
        x.values[0, 0] = -0.0
        params = [_rand(rng, width, d_in), _rand(rng, width, hidden), _rand(rng, width)]
        probe = rng.normal(size=(n_rows, hidden))

        def run(op):
            out = op(x, *params, cell=cell, reverse=reverse, lengths=lengths)
            ad.backward(ad.fused(float(np.sum(out.values * probe)), (out,),
                                 lambda g: (g * probe,)))
            grads = [t.grad for t in [x] + params]
            for t in [x] + params:
                t.grad = None
            return [_bits(v) for v in [out.values] + grads]

        assert run(ad.recurrent) == run(ref_recurrent)


def test_in_place_logistic_equals_where_form_bitwise():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300]
    v = np.concatenate([special, np.random.default_rng(3).normal(0, 20, 64)])
    want = _bits(ref_sigmoid(v))
    assert _bits(ad._sigmoid(v, np.empty_like(v))) == want
    w = v.copy()
    assert _bits(ad._sigmoid(w, out=w)) == want
    assert _bits(w) == want
    m = v[:72].reshape(8, 9).copy()    # a strided column block, as in the scan
    ad._sigmoid(m[:, 2:5], out=m[:, 2:5])
    assert _bits(m[:, 2:5]) == _bits(ref_sigmoid(v[:72].reshape(8, 9)[:, 2:5]))
    for s in special:
        assert _bits(ad._sigmoid(np.array(s), np.empty(()))) == _bits(ref_sigmoid(np.array(s)))


def test_sgd_step_hands_the_grad_array_to_the_next_backward():
    store = ParamStore()
    w = store.add("w", [[1.0, -2.0], [3.0, 0.5]])
    e = store.add("e", np.arange(6.0).reshape(3, 2))
    rows = np.array([2, 0, 2])

    def step():
        h = ad.matmul(ad.index(e, rows), w)
        ad.backward(ad.fused(float(h.values.sum()), (h,), lambda g: (np.full((3, 2), g),)))
        return w.grad, e.grad

    gw, ge = step()
    fresh = gw.copy(), ge.copy()
    sgd_step(store, 0.0)
    assert w.grad is gw and e.grad is ge         # kept, zeroed in place
    assert _bits(gw) == _bits(np.zeros((2, 2))) and _bits(ge) == _bits(np.zeros((3, 2)))
    again = step()
    assert again[0] is gw and again[1] is ge     # the same arrays, refilled
    assert _bits(again[0]) == _bits(fresh[0]) and _bits(again[1]) == _bits(fresh[1])
    w.grad = e.grad = None                       # dropped by hand: not reused
    third = step()
    assert third[0] is not gw and third[1] is not ge


def test_first_gradient_write_turns_negative_zero_positive():
    store = ParamStore()
    w = store.add("w", [1.0, 2.0])
    for _ in range(2):                           # a fresh array, then a reused one
        ad.backward(ad.fused(0.0, (w,), lambda g: (np.array([-0.0, 0.0]),)))
        assert not np.signbit(w.grad).any()
        sgd_step(store, 1.0)


# ---------------------------------------------------------------------------
# finite-difference property sweep over every op, the oracle ops included

def _rand(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


# numpy's key kinds for the oracle index; repeated indices accumulate
_KEYS = [1, (slice(None), 2), (2, 4), (slice(1, 3), slice(0, 2)), np.array([3, 0, 3]),
         (np.array([1, 1, 2]), np.array([0, 0, 4]))]

# (op, operand shapes): each case is tsum(tanh(op(operands))) at random operands
_OPS = [
    (ad.matmul, [(3, 4), (4, 2)]), (ad.matmul, [(3, 4), (4,)]), (ad.add, [(3, 4), (3, 4)]),
    (ad.dot, [(6,), (6,)]), (ad.relu, [(8,)]), (ad.normalize, [(5,)]),
    (ad.mean_rows, [(3, 4)]), (lambda a, b: ad.concat([a, b]), [(2, 3), (2, 2)]),
    (lambda m: ad.index(m, np.array([3, 0, 3])), [(4, 5)]),
    (helpers.matmul, [(3, 4), (4, 2)]), (helpers.matmul, [(3, 4), (4,)]),
    (helpers.matmul, [(4,), (4, 3)]), (helpers.matmul, [(4,), (4,)]),
    (helpers.add, [(3, 4), (4,)]), (helpers.sub, [(4,), (4,)]), (helpers.mul, [(5,), (5,)]),
    (lambda a: helpers.scale(a, -2.5), [(4,)]),
    (helpers.tanh, [(3, 3)]), (helpers.sigmoid, [(7,)]), (helpers.logsumexp, [(6,)]),
    (lambda a, b, c: helpers.concat([a, b, c]), [(3,), (), (2,)]),
    (lambda a, b: helpers.concat([a, b]), [(2, 3), (1, 3)]),
    (lambda a, b: helpers.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    (lambda m: helpers.concat([helpers.tsum(helpers.tanh(helpers.index(m, k)))
                               for k in _KEYS]), [(4, 5)]),
    (lambda v: helpers.concat([helpers.index(v, 3), helpers.index(v, slice(1, 4))]), [(6,)]),
]


def _recurrent_case(cell, reverse, t_len, lengths=None):
    def case(rng):
        d_in, hidden = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        width = (4 if cell == "lstm" else 1) * hidden
        x = _rand(rng, t_len, d_in)
        w_x, w_h, b = _rand(rng, width, d_in), _rand(rng, width, hidden), _rand(rng, width)
        probe = ad.constant(rng.normal(size=(t_len, hidden)))

        def build():
            out = ad.recurrent(x, w_x, w_h, b, cell=cell, reverse=reverse, lengths=lengths)
            return helpers.tsum(helpers.mul(out, probe))
        return [x, w_x, w_h, b], build
    return case


# packed: three sequences in unsorted order, one of a single row
_RECURRENT_CASES = [
    _recurrent_case(cell, reverse, t_len, lengths) for cell in ("tanh", "lstm")
    for reverse in (False, True)
    for t_len, lengths in ((1, None), (4, None), (7, (1, 4, 2)), (7, (2, 1, 4)))]


def test_every_op_matches_finite_differences():
    rng = np.random.default_rng(1234)
    for op, shapes in _OPS:
        for _ in range(8):
            xs = [_rand(rng, *shape) for shape in shapes]
            for x in xs:
                x.values[np.abs(x.values) < 1e-3] += 0.1   # clear of relu's kink
            check_gradients(lambda: helpers.tsum(helpers.tanh(op(*xs))), xs)
    for case in _RECURRENT_CASES:
        for _ in range(8):
            tensors, build = case(rng)
            check_gradients(build, tensors)


def test_random_op_chains_match_finite_differences():
    # deeper compositions: affine -> nonlinearity -> reduce, random shapes <= 8
    rng = np.random.default_rng(99)
    for _ in range(25):
        m, k, n = rng.integers(1, 8, size=3)
        w = _rand(rng, m, k)
        x = _rand(rng, k, n)
        b = _rand(rng, n)
        nonlin = [helpers.tanh, ad.relu, helpers.sigmoid][rng.integers(3)]

        def build():
            h = nonlin(helpers.add(ad.matmul(w, x), b))
            return helpers.logsumexp(ad.mean_rows(h)) if h.values.shape[1] > 1 \
                else helpers.tsum(h)
        check_gradients(build, [w, x, b])


def test_double_backward_contributions_accumulate():
    # same parameter used through two branches
    rng = np.random.default_rng(5)
    w = _rand(rng, 3, 3)

    def build():
        a = helpers.tsum(helpers.tanh(ad.matmul(w, w)))
        return a
    check_gradients(build, [w])
