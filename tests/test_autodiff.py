"""Tests of mvh.autodiff: its ops, their backward rules, the tape, Adam and the parameter utilities.

Every recording op (a public op that returns through `_result`) has exactly one entry in `OPS`, and a new op
needs that one entry and nothing else. An entry's sample builders take a leaf factory, so the finite-difference,
NaN, no-write and random-graph tests all run the same builders, each with leaves of its own. Its shape-error calls
are rows of `test_errors.py`'s shape-error test.
"""

import functools
import gc
import inspect
import math
import warnings
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

import mvh.autodiff as ad
from gradcheck import check_grads
from mvh.attention import AttentionParams
from mvh.autodiff import Adam, Tape, Tensor
from mvh.encoder import EncoderConfig, init_encoder_params
from mvh.errors import (
    NumericsError,
    ShapeError,
    TapeError,
    ValidationError,
)


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward examples

def test_matmul_identity():
    out = ad.matmul(t(np.eye(2)), t([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_case():
    out = ad.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_softmax_symmetry_and_singleton():
    np.testing.assert_allclose(ad.softmax(t([0.0, 0.0, 0.0])).data, [1 / 3] * 3, atol=1e-15)
    np.testing.assert_array_equal(ad.softmax(t([42.0])).data, [1.0])


def test_softmax_against_scalar_oracle():
    x = [1.0, 2.0, 3.0]
    denom = sum(math.exp(v) for v in x)
    expected = [math.exp(v) / denom for v in x]
    np.testing.assert_allclose(ad.softmax(t(x)).data, expected, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
def test_softmax_is_simplex_and_order_preserving(xs):
    y = ad.softmax(t(xs)).data
    assert np.all(y >= 0)
    assert abs(y.sum() - 1.0) <= 1e-12
    for i in range(len(xs)):
        for j in range(len(xs)):
            if xs[i] < xs[j]:
                assert y[i] <= y[j]
            if xs[j] - xs[i] > 1e-9:
                assert y[i] < y[j]


def test_elementwise_trivials():
    assert ad.tanh(t([0.0])).data[0] == 0.0
    assert ad.sigmoid(t([0.0])).data[0] == 0.5
    np.testing.assert_array_equal(ad.concat([t([1.0, 2.0]), t([3.0])]).data, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ad.relu(t([-1.0, 2.0])).data, [0.0, 2.0])


def test_add_and_mul_broadcast_like_numpy():
    m, row, col = np.arange(6.0).reshape(2, 3), np.array([1.0, 2.0, 3.0]), np.array([[2.0], [3.0]])
    np.testing.assert_array_equal(ad.add(t(m), t(row)).data, m + row)
    np.testing.assert_array_equal(ad.mul(t(col), t(m)).data, col * m)
    np.testing.assert_array_equal(ad.mul(t(m), t(0.5)).data, m * 0.5)


def test_broadcast_backward_sums_to_input_shapes():
    m = t(np.ones((2, 3)), grad=True)
    row = t([1.0, 2.0, 3.0], grad=True)
    col = t([[2.0], [3.0]], grad=True)
    with Tape() as tape:
        loss = ad.tensor_sum(ad.mul(ad.add(m, row), col))
    tape.backward(loss)
    np.testing.assert_array_equal(m.grad, [[2.0] * 3, [3.0] * 3])
    np.testing.assert_array_equal(row.grad, [5.0, 5.0, 5.0])
    np.testing.assert_array_equal(col.grad, [[9.0], [9.0]])


def test_nonfinite_forward_raises():
    big = t([1e308, 1e308])
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        ad.add(big, big)


def test_finite_check_does_not_sum_the_output():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be raised in place of the result
        out = ad.concat([t([1e308]), t([1e308])])  # finite elements whose sum overflows
        assert out.data.tolist() == [1e308, 1e308]
        with pytest.raises(NumericsError, match=r"^concat produced non-finite values$"):
            ad.concat([t([math.inf]), t([-math.inf])])  # a sum would meet inf - inf
        with pytest.raises(NumericsError, match=r"^tensor_sum produced non-finite values$"):
            ad.tensor_sum(t([1.0, math.nan]))  # a 0-d output


_M = np.arange(12.0).reshape(3, 4)
_M_NAN = np.where(_M == 7.0, math.nan, _M)
_V = np.arange(6.0)
_V_INF = np.where(_V == 4.0, -math.inf, _V)
_BIG = np.finfo(np.float64).max


@pytest.mark.parametrize("data", [
    pytest.param(np.zeros(0), id="empty"),
    pytest.param(np.zeros((0, 3)), id="empty_2d"),
    pytest.param(np.array(-0.0), id="0d"),
    pytest.param(np.array(math.nan), id="0d_nan"),
    pytest.param(np.array([_BIG]), id="one_element"),
    pytest.param(np.array([math.inf]), id="one_element_inf"),
    pytest.param(_M.T, id="transposed_view"),
    pytest.param(_M_NAN.T, id="transposed_view_nan"),
    pytest.param(_V[::-1], id="negative_stride_view"),
    pytest.param(_V_INF[::-2], id="negative_stride_view_inf"),
    pytest.param(np.array([1.0, math.nan, 2.0]), id="nan"),
    pytest.param(np.array([[1.0, math.inf], [2.0, 3.0]]), id="plus_inf"),
    pytest.param(np.array([1.0, 2.0, -math.inf]), id="minus_inf"),
    pytest.param(np.array([-0.0, 0.0, -0.0]), id="minus_zero"),
    pytest.param(np.array([_BIG, -_BIG, _BIG]), id="largest_finite"),
])
def test_finite_check_agrees_with_isfinite_all(data):
    # _result counts the finite elements against the size; np.isfinite(d).all() is the predicate it stands for
    if np.isfinite(data).all():
        assert ad._result(data, (), lambda g: None).data is data  # and the view itself was checked, not a copy
    else:
        with pytest.raises(NumericsError, match="produced non-finite values$"):
            ad._result(data, (), lambda g: None)


@pytest.mark.parametrize("view", [
    pytest.param(lambda x: ad.reshape(x, (3, 2)), id="reshape"),
    pytest.param(ad.transpose, id="transpose"),
])
def test_reshape_and_transpose_return_views(view):
    x = t(np.arange(6.0).reshape(2, 3))
    assert np.shares_memory(view(x).data, x.data)


# ---------------------------------------------------------------------------
# losses vs scalar-loop oracles

def test_bce_analytic_points():
    eps = 1e-9
    near_zero = ad.bce_loss(t([1.0 - eps]), t([1.0])).item()
    assert near_zero == pytest.approx(0.0, abs=1e-8)
    assert ad.bce_loss(t([0.5]), t([1.0])).item() == pytest.approx(math.log(2), abs=1e-12)


def test_bce_random_vs_scalar_loop():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.05, 0.95, size=5)
    y = rng.integers(0, 2, size=5).astype(float)
    expected = -sum(yi * math.log(pi) + (1 - yi) * math.log(1 - pi) for pi, yi in zip(p, y))
    assert ad.bce_loss(t(p), t(y)).item() == pytest.approx(expected, abs=1e-12)


def test_bce_rejects_nonbinary_target():
    with pytest.raises(ValidationError):
        ad.bce_loss(t([0.5]), t([0.3]))


def test_mse_cases():
    assert ad.mse_loss(t([1.0, 2.0]), t([1.0, 2.0])).item() == 0.0
    assert ad.mse_loss(t([1.0, 0.0]), t([0.0, 0.0])).item() == 1.0
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=6), rng.normal(size=6)
    expected = sum((x - y) ** 2 for x, y in zip(a, b))
    assert ad.mse_loss(t(a), t(b)).item() == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("index", [True, np.bool_(False), 1.0, 2.7, np.float64(1.0), "1", None],
                         ids=["bool", "numpy_bool", "float_integral", "float", "numpy_float", "str", "none"])
def test_non_integral_index_is_validation_error(index):
    # an integer argument, such as a seed, goes through errors._index, which takes no bool, float or str
    with pytest.raises(ValidationError, match="seed must be an integer"):
        ad.seeded_uniform("w", (3, 2), 2, index)


def test_numpy_integer_index_equals_python_int():
    expected = ad.seeded_uniform("w", (3, 2), 2, 2).data.tobytes()
    for i in (np.int64(2), np.int32(2), np.uint8(2)):
        assert ad.seeded_uniform("w", (3, 2), 2, i).data.tobytes() == expected


# ---------------------------------------------------------------------------
# backward: trivial cases, then finite differences for every op

def test_backward_sum_gives_ones():
    x = t([1.0, 2.0, 3.0], grad=True)
    with Tape() as tape:
        loss = ad.tensor_sum(x)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square():
    x = t([3.0], grad=True)
    with Tape() as tape:
        loss = ad.tensor_sum(ad.mul(x, x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [6.0])


def test_first_gradient_is_an_owned_buffer():
    # mean_pool hands x its first gradient, an owned np.full; mul's gradient must add to it, not replace it
    # (test_backward_writes_into_no_gradient checks that no op writes into a gradient it is handed)
    x = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], grad=True)
    with Tape() as tape:
        sq = ad.tensor_sum(ad.mul(x, x))
        loss = ad.add(sq, ad.tensor_sum(ad.mean_pool(x)))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * x.data + 0.5)
    # reshape hands x a view of y's gradient first; adding to x's must leave y's alone
    x = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], grad=True)
    with Tape() as tape:
        sq = ad.tensor_sum(ad.mul(x, x))
        y = ad.reshape(x, (3, 2))
        loss = ad.add(sq, ad.tensor_sum(ad.mul(y, y)))
    tape.backward(loss)
    np.testing.assert_array_equal(y.grad, 2.0 * y.data)
    np.testing.assert_array_equal(x.grad, 4.0 * x.data)


def test_backward_releases_the_graph():
    x = t([1.0, 2.0], grad=True)
    gc.disable()  # freed by reference counting alone, not by a cyclic collection
    try:
        with Tape() as tape:
            h = ad.tanh(x)
            loss = ad.tensor_sum(ad.mul(h, h))
        h_ref = weakref.ref(h.data)  # a Tensor has __slots__ and takes no weak reference; its array does
        del h
        tape.backward(loss)
        assert h_ref() is None and len(tape) == 0
        # and the records an attention bank keeps of its steps, which hold each step's alpha as returned
        args = _attend_args(np.random.default_rng(28))
        with Tape() as tape:
            steps = [ad.attend(**args) for _ in range(2)]
            loss = ad.tensor_sum(ad.add(steps[0][0], steps[1][0]))
        alpha_refs = [weakref.ref(alpha.data) for _, alpha in steps]
        del steps
        tape.backward(loss)
        assert [ref() for ref in alpha_refs] == [None, None] and len(tape) == 0
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, 2.0 * np.tanh([1.0, 2.0]) * (1.0 - np.tanh([1.0, 2.0]) ** 2), rtol=1e-15)


def test_backward_and_failure_release_the_shared_key_projection():
    args = _attend_args(np.random.default_rng(27))
    gc.disable()  # freed by reference counting alone, not by a cyclic collection
    try:
        with Tape() as tape:
            loss = ad.tensor_sum(ad.add(ad.attend(**args)[0], ad.attend(**args)[0]))
            proj_ref = weakref.ref(tape._nodes[0][0].data)  # the projection is the bank's first node
            tape.backward(loss)  # inside the block: backward, not leaving it, lets the memo go
            assert proj_ref() is None and len(tape) == 0 and not tape._projections
        with pytest.raises(ShapeError), Tape() as failed:
            ad.attend(**args)
            ad.attend(**{**args, "query": t(np.zeros(3))})
        assert len(failed) == 0 and not failed._projections
    finally:
        gc.enable()


def test_a_step_that_raises_frees_its_graph_and_consumes_its_tape():
    x = t([1.0, 2.0], grad=True)
    gc.disable()  # freed by reference counting alone, not by a cyclic collection
    try:
        with pytest.raises(NumericsError), Tape() as tape:
            h = ad.tanh(x)
            loss = ad.tensor_sum(ad.mul(h, h))
            h_ref = weakref.ref(h.data)  # only the nodes' closures still hold h
            del h
            ad.add(loss, t(np.nan))
        assert h_ref() is None and len(tape) == 0
    finally:
        gc.enable()
    with pytest.raises(TapeError, match="consumed by a backward pass or by an exception in its block"):
        tape.backward(loss)
    assert x.grad is None


def test_tape_consumed_twice_errors():
    x = t([1.0], grad=True)
    with Tape() as tape:
        loss = ad.tensor_sum(x)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_rejects_non_scalar():
    x = t([1.0, 2.0], grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_rejects_foreign_loss():
    x = t([1.0], grad=True)
    with Tape() as tape1:
        loss1 = ad.tensor_sum(x)
    with Tape() as tape2:
        ad.tensor_sum(x)
    with pytest.raises(TapeError):
        tape2.backward(loss1)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(TapeError):
            with Tape():
                pass


def test_active_tape_is_per_thread():
    w = t(np.eye(2), grad=True)
    x = t([1.0, 2.0])

    def other_thread():
        ad.matmul(w, x)  # no tape open in this thread: inference only
        with Tape() as own:
            ad.matmul(w, x)
        return len(own)

    with Tape() as tape, ThreadPoolExecutor(max_workers=1) as pool:
        own_nodes = pool.submit(other_thread).result(timeout=10)
    assert len(tape) == 0
    assert own_nodes == 1


# ---------------------------------------------------------------------------
# the op table: one entry per recording op, and the per-op tests derived from it

def _record(build, rng):
    """build(leaf)'s output, and the leaves it asked leaf(*shape, low=-1.0, high=1.0) for, in order: uniform
    draws from rng that require grad."""
    leaves = []

    def leaf(*shape, low=-1.0, high=1.0):
        leaves.append(Tensor(rng.uniform(low, high, size=shape), requires_grad=True))
        return leaves[-1]
    return build(leaf), leaves


def _replay(leaves):
    """A leaf factory that hands out `leaves` again, in order."""
    rest = iter(leaves)
    return lambda *shape, **bounds: next(rest)


class Op(NamedTuple):
    """One recording op. samples: {id: build(leaf) -> the op's output}; each builder calls this op alone.
    shape_errors: {id: (call(leaf), message pattern)}, each called with zero leaves. rel_tol: the gradcheck
    tolerance. in_graphs: whether random graphs draw the op's samples."""
    samples: dict
    shape_errors: dict = {}
    rel_tol: float = 1e-4
    in_graphs: bool = True


def _attend_zeros(keys, query, w_score, key_scale):
    """A shape-error call: attend on leaves of these shapes, with (5, 3) and (5, 2) weights."""
    return lambda z: ad.attend(z(*keys), z(*query), z(5, 3), z(5, 2), z(*w_score), z(*key_scale))


# The samples' shapes chain: a (4, 3) value can be keys, a (3,) one a query or a context, a (4,) one a key scale.
OPS = {
    "matmul": Op({"matmul": lambda leaf: ad.matmul(leaf(4, 3), leaf(3, 3)),
                  "matmul_vec": lambda leaf: ad.matmul(leaf(4, 3), leaf(3)),
                  "matmul_vec_mat": lambda leaf: ad.matmul(leaf(3), leaf(3, 3)),
                  "matmul_vec_vec": lambda leaf: ad.matmul(leaf(3), leaf(3))},
                 {"matmul_inner": (lambda z: ad.matmul(z(2, 3), z(2, 2)), r"\(2, 3\).*\(2, 2\)"),
                  "matmul_3d": (lambda z: ad.matmul(z(2, 2, 2), z(2)), "matmul needs 1-d or 2-d operands")},
                 rel_tol=1e-6),
    "transpose": Op({"transpose": lambda leaf: ad.transpose(leaf(3, 3))},
                    {"transpose_1d": (lambda z: ad.transpose(z(3)), "transpose needs a 2-d tensor")}),
    "reshape": Op({"reshape": lambda leaf: ad.reshape(leaf(4), (4, 1))},
                  {"reshape_size": (lambda z: ad.reshape(z(4), (3,)), r"cannot reshape \(4,\) into \(3,\)")}),
    "add": Op({"add": lambda leaf: ad.add(leaf(3), leaf(3)),
               "add_broadcast": lambda leaf: ad.add(leaf(4, 3), leaf(3)),
               "add_0d": lambda leaf: ad.add(leaf(), leaf()),  # as encoder.weighted_loss adds its terms
               "add_0d_broadcast": lambda leaf: ad.add(leaf(4, 3), leaf())},
              {"add_unbroadcastable": (lambda z: ad.add(z(4, 3), z(4)), r"\(4, 3\).*\(4,\)")}),
    "mul": Op({"mul": lambda leaf: ad.mul(leaf(3), leaf(3)),
               "mul_broadcast": lambda leaf: ad.mul(leaf(4, 1), leaf(4, 3)),
               "mul_scalar": lambda leaf: ad.mul(leaf(3), t(-2.5))},
              {"mul_unbroadcastable": (lambda z: ad.mul(z(4, 3), z(4)), r"\(4, 3\).*\(4,\)")}),
    "tanh": Op({"tanh": lambda leaf: ad.tanh(leaf(3))}),
    "sigmoid": Op({"sigmoid": lambda leaf: ad.sigmoid(leaf(3))}),
    "relu": Op({"relu": lambda leaf: ad.relu(leaf(8))}, in_graphs=False),
    "softmax": Op({"softmax": lambda leaf: ad.softmax(leaf(3))},
                  {"softmax_empty": (lambda z: ad.softmax(z(0)), "softmax needs a non-empty 1-d tensor")}),
    "attend": Op({"attend": lambda leaf: ad.attend(leaf(4, 3), leaf(3), leaf(2, 3), leaf(2, 3), leaf(1, 2), None)[0],
                  "attend_scaled": lambda leaf: ad.attend(leaf(4, 3), leaf(3), leaf(2, 3), leaf(2, 3), leaf(1, 2),
                                                          leaf(4, low=0.2, high=0.9))[0]},
                 {"attend_query_length": (_attend_zeros((4, 3), (3,), (1, 5), (4,)), "attend weights"),
                  "attend_w_score_shape": (_attend_zeros((4, 3), (2,), (5, 1), (4,)), "attend weights"),
                  "attend_empty_keys": (_attend_zeros((0, 3), (2,), (1, 5), (0,)), "attend needs non-empty"),
                  "attend_key_scale_shape": (_attend_zeros((4, 3), (2,), (1, 5), (4, 1)), "attend needs non-empty")}),
    "concat": Op({"concat": lambda leaf: ad.concat([leaf(3), leaf(3)]),
                  "concat_2d": lambda leaf: ad.concat([leaf(4, 3), leaf(1, 3)])},
                 {"concat_empty": (lambda z: ad.concat([]), "concat of zero tensors"),
                  "concat_trailing": (lambda z: ad.concat([z(2, 3), z(1, 4)]), "concat needs parts of shape"),
                  "concat_rank": (lambda z: ad.concat([z(3), z(1, 3)]), "concat needs parts of shape"),
                  "concat_0d": (lambda z: ad.concat([z()]), "concat needs parts of shape")}),
    "mean_pool": Op({"mean_pool": lambda leaf: ad.mean_pool(leaf(4, 3))},
                    {"mean_pool_1d": (lambda z: ad.mean_pool(z(3)), "mean_pool needs a 2-d tensor"),
                     "mean_pool_no_rows": (lambda z: ad.mean_pool(z(0, 3)), r"at least one row, got shape \(0, 3\)")}),
    "max_pool2d": Op({"max_pool2d": lambda leaf: ad.max_pool2d(leaf(2, 4, 4))},
                     {"max_pool2d_odd_side": (lambda z: ad.max_pool2d(z(1, 3, 4)), "max_pool2d needs")},
                     in_graphs=False),
    "conv2d": Op({"conv2d": lambda leaf: ad.conv2d(leaf(2, 6, 6), leaf(3, 2, 3, 3), leaf(3))},
                 {"conv2d_rank": (lambda z: ad.conv2d(z(4, 4), z(1, 1, 3, 3), z(1)), r"conv2d needs \(cin,h,w\)"),
                  "conv2d_channels": (lambda z: ad.conv2d(z(2, 4, 4), z(1, 1, 3, 3), z(1)), "conv2d channel mismatch"),
                  "conv2d_even_kernel": (lambda z: ad.conv2d(z(1, 4, 4), z(1, 1, 2, 2), z(1)),
                                         "odd kernels only, got 2x2"),
                  "conv2d_empty_image": (lambda z: ad.conv2d(z(1, 0, 4), z(1, 1, 3, 3), z(1)),
                                         r"conv2d needs an image of at least 1x1, got shape \(1, 0, 4\)")},
                 in_graphs=False),
    "conv_block": Op({"conv_block": lambda leaf: ad.conv_block(leaf(2, 6, 6), leaf(3, 2, 3, 3), leaf(3))},
                     {"conv_block_odd_side": (lambda z: ad.conv_block(z(1, 5, 4), z(1, 1, 3, 3), z(1)),
                                              r"conv_block needs \(cin, even h, even w\), got shape \(1, 5, 4\)"),
                      "conv_block_channels": (lambda z: ad.conv_block(z(2, 4, 4), z(1, 1, 3, 3), z(1)),
                                              "conv_block channel mismatch"),
                      "conv_block_even_kernel": (lambda z: ad.conv_block(z(1, 4, 4), z(1, 1, 2, 2), z(1)),
                                                 "conv_block supports odd kernels only, got 2x2")},
                     in_graphs=False),
    "tensor_sum": Op({"tensor_sum": lambda leaf: ad.tensor_sum(leaf(4, 3))}),
    "bce_loss": Op({"bce": lambda leaf: ad.bce_loss(leaf(5, low=0.1, high=0.9), t([0.0, 1.0, 1.0, 0.0, 1.0]))},
                   {"bce_loss_shapes": (lambda z: ad.bce_loss(z(1), z(2)), "bce_loss needs equal shapes")},
                   in_graphs=False),
    "mse_loss": Op({"mse": lambda leaf: ad.mse_loss(leaf(3), leaf(3))},
                   {"mse_loss_shapes": (lambda z: ad.mse_loss(z(1), z(2)), "mse_loss needs equal shapes")}),
}
SAMPLES = {case: (name, build) for name, op in OPS.items() for case, build in op.samples.items()}


def _recording_ops():
    """Names of the public ops of mvh.autodiff that return through _result."""
    return {f.__name__ for f in vars(ad).values()
            if inspect.isfunction(f) and f.__module__ == ad.__name__
            and not f.__name__.startswith("_") and "_result(" in inspect.getsource(f)}


def test_every_backward_rule_has_a_gradcheck_case():
    recording = _recording_ops()
    assert {"matmul", "conv2d", "attend"} <= recording
    assert set(OPS) == recording
    assert all(op.samples for op in OPS.values())
    assert len(SAMPLES) == sum(len(op.samples) for op in OPS.values())  # no sample id is used twice


@pytest.mark.parametrize("case", list(SAMPLES))
def test_each_op_matches_finite_differences(case):
    name, build = SAMPLES[case]
    rng = np.random.default_rng(zlib.crc32(case.encode()))  # the same inputs in every process
    out, leaves = _record(build, rng)
    w = Tensor(rng.normal(size=out.data.shape))
    check_grads(lambda: ad.tensor_sum(ad.mul(build(_replay(leaves)), w)), {f"leaf{i}": x for i, x in enumerate(leaves)},
                rel_tol=OPS[name].rel_tol)


@pytest.mark.parametrize("name", sorted(OPS))
def test_nan_input_raises_numerics_error_naming_the_op(name):
    for build in OPS[name].samples.values():
        _, leaves = _record(build, np.random.default_rng(0))
        leaves[0].data.flat[0] = np.nan  # no tape is open: the op only runs its forward
        with pytest.raises(NumericsError, match=rf"^{name} produced non-finite values$"):
            build(_replay(leaves))


@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_writes_into_no_gradient(name, monkeypatch):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for build in OPS[name].samples.values():
        with Tape() as tape:
            out, leaves = _record(build, rng)
        nodes = tape._nodes[::-1]  # every node the op records, in the order backward walks them
        assert nodes[0][0] is out
        gs = [np.array(rng.normal(size=node_out.data.shape)) for node_out, _ in nodes]  # one per node
        g_bytes = [g.tobytes() for g in gs]
        for g in gs:
            g.flags.writeable = False  # from here on a write into g raises
        added, accum = [], ad._accum  # every gradient the first pass hands over, in order

        def walk():
            for (_, backward), g in zip(nodes, gs):
                backward(g)

        def logged(x, grad):
            added.append((x, np.copy(grad)))
            accum(x, grad)
        with monkeypatch.context() as m:
            m.setattr(ad, "_accum", logged)
            walk()  # first gradients, handed over as they come
        first = [x.grad for x in leaves]
        for grad in first:
            assert type(grad) is np.ndarray
            grad.flags.writeable = False
        first_bytes = [grad.tobytes() for grad in first]
        walk()  # the same gradients again, added to the first ones
        assert [g.tobytes() for g in gs] == g_bytes
        expected = {id(x): grad for x, grad in zip(leaves, first)}
        for x, grad in added:  # 2 * first for a leaf handed one gradient, the sum of those it was handed for another
            if id(x) in expected:
                expected[id(x)] = expected[id(x)] + grad
        for x, grad, before in zip(leaves, first, first_bytes):
            assert grad.tobytes() == before
            np.testing.assert_array_equal(x.grad, expected[id(x)])


# ---------------------------------------------------------------------------
# random graphs of the samples, gradchecked whole

_GRAPH_SAMPLES = [case for case, (name, _) in SAMPLES.items() if OPS[name].in_graphs and name != "attend"]


@st.composite
def _graphs(draw):
    """(steps, used). A step is ("leaf", shape), or (sample id, *the earlier steps whose values are its leaves).
    Each other sample with chance 1/4 and one to four attend steps, in a drawn order, take per leaf an earlier
    value of its shape or a new leaf; an attend step may instead take an earlier one's bank and a query of its
    own. used holds some samples' steps, the last at least; the others miss the loss."""
    steps, shapes = [], []

    def value(shape):
        found = [i for i in reversed(range(len(steps))) if shapes[i] == shape]  # the latest first
        k = draw(st.integers(0, len(found)))
        if k < len(found):
            return found[k]
        steps.append(("leaf", shape))
        shapes.append(shape)
        return len(steps) - 1

    cases = []
    for case in ([case for case in _GRAPH_SAMPLES if draw(st.integers(0, 3)) == 0]
                 + [draw(st.sampled_from(["attend", "attend_scaled"])) for _ in range(draw(st.integers(1, 4)))]):
        cases.insert(draw(st.integers(0, len(cases))), case)
    for case in cases:
        out, leaves = _record(SAMPLES[case][1], np.random.default_rng(0))
        banks = [step for step in steps if step[0] == case and case.startswith("attend")]
        if banks and not draw(st.booleans()):
            bank = draw(st.sampled_from(banks))
            steps.append((case, bank[1], value((3,)), *bank[3:]))
        else:
            steps.append((case, *[value(x.data.shape) for x in leaves]))
        shapes.append(out.data.shape)
    ops = [i for i, step in enumerate(steps) if step[0] != "leaf"]
    return tuple(steps), tuple([i for i in ops if not draw(st.booleans())] or ops[-1:])


def _run(steps, leaf):
    """The value of each step: leaf(*shape) for ("leaf", shape), else its sample built on earlier values."""
    values = []
    for case, *args in steps:
        values.append(leaf(*args[0]) if case == "leaf" else SAMPLES[case][1](_replay([values[i] for i in args])))
    return values


_BANK = [("leaf", (4, 3)), ("leaf", (2, 3)), ("leaf", (2, 3)), ("leaf", (1, 2)), ("leaf", (4,))]  # keys, weights, scale


def _on_bank(scaled, query):
    return ("attend_scaled", 0, query, 1, 2, 3, 4) if scaled else ("attend", 0, query, 1, 2, 3)


def _shared_bank(scaled):
    """Three steps on one bank, each with a query leaf of its own and its context in the loss."""
    steps = list(_BANK)
    for _ in range(3):
        steps += [("leaf", (3,)), _on_bank(scaled, len(steps))]
    return tuple(steps), (6, 8, 10)


def _decoder_chain(scaled):
    """Step t's query is tanh(step t-1's context @ w_state), made after the bank's node: backward reaches that
    query's node before the bank's, so its gradient must be complete when the step's node runs."""
    steps, used = _BANK + [("leaf", (3,)), ("leaf", (3, 3))], []  # the first query, w_state
    for query in (5, 9, 12):
        steps += [_on_bank(scaled, query), ("matmul_vec_mat", len(steps), 6), ("tanh", len(steps) + 1)]
        used.append(len(steps) - 3)
    return tuple(steps), tuple(used)


_COMPOSITE = ((("leaf", (3, 3)), ("leaf", (3, 3)), ("leaf", (3,)), ("matmul_vec_mat", 2, 0), ("tanh", 3),
               ("matmul_vec_mat", 4, 1), ("sigmoid", 5)), (6,))  # sigmoid(tanh(x @ w1) @ w2)
_FROM_KEYS = ((*_BANK[:4], ("leaf", (3,)), ("matmul_vec", 0, 4), ("mean_pool", 0), ("attend_scaled", 0, 6, 1, 2, 3, 5)),
              (7,))  # the key scale keys @ v and the query mean_pool(keys)


def _check_graph(graph):
    """Gradcheck (steps, used) whole: the loss is the sum of the used values, each weighted."""
    steps, used = graph
    rng = np.random.default_rng(0)
    values, leaves = _record(lambda leaf: _run(steps, leaf), rng)
    weights = [Tensor(rng.normal(size=values[i].data.shape)) for i in used]

    def loss():  # the sum of the used values, each weighted
        values = _run(steps, _replay(leaves))
        return functools.reduce(ad.add, [ad.tensor_sum(ad.mul(values[i], w)) for i, w in zip(used, weights)])
    check_grads(loss, {f"leaf{i}": x for i, x in enumerate(leaves)})


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_graphs())
@example(_FROM_KEYS)
def test_random_graphs_match_finite_differences(graph):
    """Graphs of the samples of every op but relu and max_pool2d (kinks and ties), bce_loss (a clamp) and conv2d,
    which keep their fixed samples and loop oracles: leaves used twice, outputs that miss the loss, attend steps
    that share a bank, queries made from earlier contexts or from keys, and key scales made from keys."""
    _check_graph(graph)


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
def test_attend_shared_bank_matches_finite_differences(scaled):
    _check_graph(_shared_bank(scaled))


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
def test_attend_decoder_shaped_chain_matches_finite_differences(scaled):
    _check_graph(_decoder_chain(scaled))


def test_composite_graph_gradcheck():
    _check_graph(_COMPOSITE)


def test_check_grads_perturbs_a_transposed_leaf():
    x = Tensor(np.arange(1.0, 7.0).reshape(2, 3).T, requires_grad=True)
    assert not x.data.flags.c_contiguous  # reshape(-1) would copy it

    def halved():  # sum(x * x), whose backward hands over half the gradient
        return ad._result(np.add.reduce(x.data * x.data, axis=None), (x,), lambda g: ad._accum(x, g * x.data))

    check_grads(lambda: ad.tensor_sum(ad.mul(x, x)), {"x": x})
    with pytest.raises(AssertionError, match="gradient mismatches"):
        check_grads(halved, {"x": x})


# ---------------------------------------------------------------------------
# conv2d and max_pool2d against nested-loop oracles

def _conv_oracle(x, w, b, g):
    """Same-padding conv output and the x/w/b gradients of sum(out * g), by explicit loops."""
    cin, h, width = x.shape
    cout, _, kh, kw = w.shape
    out, dx, dw, db = np.zeros((cout, h, width)), np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
    for o in range(cout):
        for i in range(h):
            for j in range(width):
                acc = b[o]
                db[o] += g[o, i, j]
                for c in range(cin):
                    for di in range(kh):
                        for dj in range(kw):
                            y, z = i + di - kh // 2, j + dj - kw // 2
                            if 0 <= y < h and 0 <= z < width:
                                acc += w[o, c, di, dj] * x[c, y, z]
                                dx[c, y, z] += g[o, i, j] * w[o, c, di, dj]
                                dw[o, c, di, dj] += g[o, i, j] * x[c, y, z]
                out[o, i, j] = acc
    return out, dx, dw, db


CONV_CASES = [
    pytest.param(3, 5, 7, 2, 3, 3, False, True, id="nonsquare_3x3"),
    pytest.param(1, 4, 6, 3, 1, 1, False, True, id="1x1_cin1"),
    pytest.param(3, 3, 5, 2, 1, 3, False, True, id="1x3_cin3"),
    pytest.param(1, 6, 4, 2, 5, 3, False, True, id="5x3_cin1"),
    pytest.param(3, 6, 5, 2, 5, 3, True, True, id="5x3_cin3_view_input"),
    pytest.param(3, 4, 5, 2, 3, 3, False, False, id="x_without_grad"),
]


def _taped_conv(cin, h, width, cout, kh, kw, as_view, x_grad):
    """conv2d on seeded inputs, backpropagated from sum(out * g); returns (x, w, b, out)."""
    rng = np.random.default_rng(cin * 1000 + h * 100 + width * 10 + kh)
    xd = rng.normal(size=(h, width, cin)).transpose(2, 0, 1) if as_view else rng.normal(size=(cin, h, width))
    assert xd.flags.c_contiguous != as_view
    x = Tensor(xd, requires_grad=x_grad)
    w = t(rng.normal(size=(cout, cin, kh, kw)), grad=True)
    b = t(rng.normal(size=cout), grad=True)
    g = rng.normal(size=(cout, h, width))
    with Tape() as tape:
        out = ad.conv2d(x, w, b)
        loss = ad.tensor_sum(ad.mul(out, Tensor(g)))
    tape.backward(loss)
    return x, w, b, out


@pytest.mark.parametrize("cin, h, width, cout, kh, kw, as_view, x_grad", CONV_CASES)
def test_conv2d_matches_loop_oracle(cin, h, width, cout, kh, kw, as_view, x_grad):
    x, w, b, out = _taped_conv(cin, h, width, cout, kh, kw, as_view, x_grad)
    ref_out, ref_dx, ref_dw, ref_db = _conv_oracle(x.data, w.data, b.data, out.grad)
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.grad, ref_dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, ref_db, rtol=0, atol=1e-12)
    if x_grad:
        np.testing.assert_allclose(x.grad, ref_dx, rtol=0, atol=1e-12)
    else:
        assert x.grad is None


def _conv_strided(x, w, b, g):
    """The earlier conv2d kernel: a zero-bordered (h, w, cin) buffer, an as_strided
    im2col view, and col2im as nine shifted `+=` from zeros. Returns out, dx, dw, db."""
    cin, h, width = x.shape
    cout, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((h + 2 * ph, width + 2 * pw, cin))
    xp[ph:ph + h, pw:pw + width] = x.transpose(1, 2, 0)
    win = as_strided(xp, (h, width, cin, kh, kw), xp.strides + xp.strides[:2], writeable=False)
    cols = win.reshape(h * width, cin * kh * kw)
    wmat = w.reshape(cout, cin * kh * kw)
    out_mat = cols @ wmat.T + b
    gm = g.reshape(cout, h * width).T
    dcols = (gm @ wmat).reshape(h, width, cin, kh, kw)
    dxp = np.zeros_like(xp)
    for di in range(kh):
        for dj in range(kw):
            dxp[di:di + h, dj:dj + width] += dcols[:, :, :, di, dj]
    dx = dxp[ph:ph + h, pw:pw + width].transpose(2, 0, 1)
    return out_mat.T.reshape(cout, h, width), dx, (gm.T @ cols).reshape(w.shape), gm.sum(axis=0)


@pytest.mark.parametrize("cin, h, width, cout, kh, kw, as_view, x_grad", CONV_CASES)
def test_conv2d_bit_for_bit_equals_strided_kernel(cin, h, width, cout, kh, kw, as_view, x_grad):
    x, w, b, out = _taped_conv(cin, h, width, cout, kh, kw, as_view, x_grad)
    ref_out, ref_dx, ref_dw, ref_db = _conv_strided(x.data, w.data, b.data, out.grad)
    assert out.data.tobytes() == ref_out.tobytes()
    assert w.grad.tobytes() == ref_dw.tobytes()
    assert b.grad.tobytes() == ref_db.tobytes()
    if x_grad:
        assert x.grad.tobytes() == ref_dx.tobytes()
    else:
        assert x.grad is None


def test_max_pool2d_index_cache_is_read_only():
    with Tape() as tape:
        loss = ad.tensor_sum(ad.max_pool2d(t(np.ones((2, 4, 6)), grad=True)))
    tape.backward(loss)
    base = ad._pool_base(2, 4, 6)
    assert ad._pool_base(2, 4, 6) is base  # built once per shape
    np.testing.assert_array_equal(base, np.arange(2 * 4 * 6).reshape(2, 4, 6)[:, 0::2, 0::2])
    assert not base.flags.writeable
    with pytest.raises(ValueError):
        base[0, 0, 0] = 0


def test_conv2d_index_cache_is_read_only():
    ad.conv2d(t(np.ones((2, 4, 6))), t(np.ones((3, 2, 3, 3))), t(np.ones(3)))
    gather, scatter = ad._im2col_index(2, 4, 6, 3, 3)
    assert ad._im2col_index(2, 4, 6, 3, 3)[0] is gather  # built once per shape
    assert gather.shape == (4 * 6, 2 * 3 * 3) and scatter.shape == (gather.size,)
    for index in (gather, scatter):
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 0


def _pool_oracle(x):
    """2x2 window maxima and, per window, the cell of its first maximum in row-major order."""
    c, h, width = x.shape
    out, first = np.zeros((c, h // 2, width // 2)), {}
    for k in range(c):
        for i in range(h // 2):
            for j in range(width // 2):
                cells = [(k, 2 * i + a, 2 * j + d) for a in (0, 1) for d in (0, 1)]
                best = cells[0]
                for cell in cells[1:]:
                    if x[cell] > x[best]:
                        best = cell
                out[k, i, j], first[k, i, j] = x[best], best
    return out, first


@pytest.mark.parametrize("as_view", [False, True], ids=["contiguous", "transposed_view"])
def test_max_pool2d_ties_match_loop_oracle(as_view):
    rng = np.random.default_rng(17)
    hwc = np.maximum(rng.normal(size=(6, 4, 3)), 0.0)    # (h, w, c), relu'd as in the encoder
    hwc[0:2, 0:2, 0] = 2.5                                # all-equal window
    hwc[2:4, 0:2, 1] = 0.0                                # all-zero window
    hwc[0:2, 2:4, 2] = [[1.0, 3.0], [3.0, 0.5]]           # two positive corners tie
    hwc[4:6, 2:4, 0] = [[0.0, 0.5], [4.0, 4.0]]           # tie on the bottom row
    xd = hwc.transpose(2, 0, 1) if as_view else np.ascontiguousarray(hwc.transpose(2, 0, 1))
    assert xd.flags.c_contiguous != as_view
    x = Tensor(xd, requires_grad=True)
    g = np.arange(1.0, 1.0 + 3 * 3 * 2).reshape(3, 3, 2)  # a distinct non-zero gradient per window
    with Tape() as tape:
        out = ad.max_pool2d(x)
        loss = ad.tensor_sum(ad.mul(out, Tensor(g)))
    tape.backward(loss)
    ref_out, first = _pool_oracle(xd)
    np.testing.assert_array_equal(out.data, ref_out)
    expected = np.zeros_like(xd)
    for window, cell in first.items():
        expected[cell] = g[window]
    np.testing.assert_array_equal(x.grad, expected)


def _pool_free_mask(x, out, g):
    """The earlier max_pool2d backward: each corner in row-major order takes the
    windows it maximises that no earlier corner took."""
    dx, free = np.zeros_like(x), np.ones(out.shape, dtype=bool)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = (x[:, i::2, j::2] == out) & free
        free ^= hit
        np.copyto(dx[:, i::2, j::2], g, where=hit)
    return dx


def _tie_heavy(rng):
    """(3, 6, 8) values with flat regions, zeros and all-negative windows, as conv2d lays them out."""
    hwc = rng.normal(size=(6, 8, 3))
    hwc[0:4, 0:4, 0] = 1.5            # a flat region over four windows
    hwc[0:2, 4:8, 1] = -0.75          # flat and negative
    hwc[2:4, 0:4, 2] = 0.0            # zero windows
    hwc[4:6, 0:2, :] = -rng.uniform(0.1, 1.0, size=(2, 2, 3))  # all negative
    hwc[4:6, 2:4, 0] = [[-1.0, 0.0], [0.0, -2.0]]  # zero ties above negatives
    hwc[4:6, 4:6, 1] = [[0.5, -0.5], [2.0, 2.0]]   # tie on the bottom row
    return hwc.transpose(2, 0, 1)


@pytest.mark.parametrize("as_view", [False, True], ids=["contiguous", "channel_last_view"])
def test_max_pool2d_backward_bit_for_bit_equals_free_mask_kernel(as_view):
    rng = np.random.default_rng(23)
    xd = _tie_heavy(rng) if as_view else np.ascontiguousarray(_tie_heavy(rng))
    x = Tensor(xd, requires_grad=True)
    g = rng.normal(size=(3, 3, 4))
    with Tape() as tape:
        out = ad.max_pool2d(x)
        loss = ad.tensor_sum(ad.mul(out, Tensor(g)))
    tape.backward(loss)
    assert x.grad.tobytes() == _pool_free_mask(xd, out.data, out.grad).tobytes()


def test_pool_then_relu_equals_relu_then_pool():
    rng = np.random.default_rng(29)
    g = rng.normal(size=(3, 3, 4))  # both signs: a -0.0 may sit in a different cell of a window with max <= 0
    outs, grads = [], []
    for block in (lambda x: ad.max_pool2d(ad.relu(x)), lambda x: ad.relu(ad.max_pool2d(x))):
        x = Tensor(_tie_heavy(np.random.default_rng(31)), requires_grad=True)
        with Tape() as tape:
            out = block(x)
            loss = ad.tensor_sum(ad.mul(out, Tensor(g)))
        tape.backward(loss)
        outs.append(out.data)
        grads.append(x.grad)
    assert outs[0].tobytes() == outs[1].tobytes()
    np.testing.assert_array_equal(grads[0], grads[1])
    assert (grads[0] + 0.0).tobytes() == (grads[1] + 0.0).tobytes()  # + 0.0 maps -0.0 to 0.0 only


def _chain_block(x, w, b):
    return ad.relu(ad.max_pool2d(ad.conv2d(x, w, b)))


@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_without_grad"])
def test_conv_block_bit_for_bit_equals_the_chain(kernel, x_grad, monkeypatch):
    # conv outputs with _tie_heavy's windows: channel 0 flat and negative, 1 all zero, 2 and 3 copies of x's
    # channels 0 and 2 (flat regions, zeros, all-negative windows, ties), 4 a generic one
    rng = np.random.default_rng(41)
    xd, c = _tie_heavy(rng), kernel // 2
    wd = np.zeros((5, 3, kernel, kernel))
    wd[2, 0, c, c] = wd[3, 2, c, c] = 1.0
    wd[4] = rng.normal(size=(3, kernel, kernel))
    bd = np.array([-0.5, 0.0, 0.0, 0.0, rng.normal()])
    g = rng.normal(size=(5, 3, 4))  # both signs: relu's mask makes a -0.0 where g < 0, and pooling routes it
    conv_grads, conv_backward = [], ad._conv_backward  # the conv output's gradient: x, w and b sum the -0.0 away
    monkeypatch.setattr(ad, "_conv_backward", lambda grad, *rest: conv_grads.append(grad) or conv_backward(grad, *rest))
    results = []
    for block in (ad.conv_block, _chain_block):
        x, w, b = Tensor(xd, requires_grad=x_grad), t(wd, grad=True), t(bd, grad=True)
        with Tape() as tape:
            out = block(x, w, b)
            loss = ad.tensor_sum(ad.mul(out, Tensor(g)))
        tape.backward(loss)
        results.append([v.tobytes() for v in (out.data, w.grad, b.grad, x.grad, conv_grads[-1]) if v is not None])
        assert len(tape) == 0 and (x.grad is None) != x_grad
    assert results[0] == results[1]
    assert np.any(np.signbit(conv_grads[0]) & (conv_grads[0] == 0.0))


def test_conv_block_checks_the_conv_output_that_pool_and_relu_would_hide():
    # a -inf bias makes channel 1 of the conv output all -inf: pooling keeps it and relu makes it zeros
    x, w, b = t(np.ones((1, 4, 4))), t(np.ones((2, 1, 3, 3))), t([0.5, -math.inf], grad=True)
    with pytest.raises(NumericsError, match=r"^conv2d produced non-finite values$"):
        _chain_block(x, w, Tensor(b.data))
    with pytest.raises(NumericsError, match=r"^conv_block produced non-finite values$"):
        ad.conv_block(x, w, Tensor(b.data))
    with Tape() as tape, pytest.raises(NumericsError, match=r"^conv_block produced non-finite values at tape node 0$"):
        ad.conv_block(x, w, b)
    assert len(tape) == 0


def _sigmoid_masked(x):
    """The earlier sigmoid kernel: boolean-mask indexing into the two stable branches."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_bit_for_bit_equals_masked_kernel():
    rng = np.random.default_rng(37)
    values = np.concatenate([[800.0, -800.0, 0.0, -0.0, 709.0, -745.0, 1e-300, -1e-300, 36.0, -36.0],
                             rng.normal(scale=10.0, size=200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for data in (values, values.reshape(15, 14)[:, ::2]):
            x = Tensor(data, requires_grad=True)
            with Tape() as tape:
                out = ad.sigmoid(x)
                loss = ad.tensor_sum(ad.mul(out, Tensor(rng.normal(size=data.shape))))
            tape.backward(loss)
            ref = _sigmoid_masked(data)
            assert out.data.tobytes() == ref.tobytes()
            assert x.grad.tobytes() == (out.grad * ref * (1.0 - ref)).tobytes()


def test_numerics_error_gives_the_tape_node_index():
    a = t([1.0], grad=True)
    with Tape() as tape:
        b = ad.add(ad.mul(a, a), a)
        with pytest.raises(NumericsError, match=r"^add produced non-finite values at tape node 2$"):
            ad.add(b, t([np.nan]))
        with pytest.raises(NumericsError, match=r"^add produced non-finite values$"):
            ad.add(t([1.0]), t([np.nan]))  # no parent requires grad: it would not join the tape
    assert len(tape) == 2


def _per_step_attend(keys, query, w_key, w_query, w_score, key_scale):
    """The attention as four tape nodes per step: reshape and mul of the key scale, score-and-softmax, matmul."""
    scaled = keys if key_scale is None else ad.mul(ad.reshape(key_scale, (keys.data.shape[0], 1)), keys)
    kd, qd, wk, wq, ws = scaled.data, query.data, w_key.data, w_query.data, w_score.data
    n, d_a = kd.shape[0], wk.shape[0]
    hidden = np.tanh(kd @ wk.T + wq @ qd)
    alpha_data = ad._softmax_np((hidden @ ws.T).reshape(n))

    def bw(g):
        g_scores = (alpha_data * (g - np.dot(g, alpha_data))).reshape(n, 1)
        ad._accum(w_score, (hidden.T @ g_scores).T)
        g_pre = (g_scores @ ws) * (1.0 - hidden * hidden)
        if scaled.requires_grad:
            ad._accum(scaled, g_pre @ wk)
        ad._accum(w_key, (kd.T @ g_pre).T)
        g_proj = g_pre.sum(axis=0).reshape(d_a, 1)
        ad._accum(w_query, g_proj @ qd[None, :])
        if query.requires_grad:
            ad._accum(query, (wq.T @ g_proj).reshape(qd.shape))
    alpha = ad._result(alpha_data, (scaled, query, w_key, w_query, w_score), bw)
    return ad.matmul(alpha, keys), alpha


# bank(keys, w_key, w_query, w_score, key_scale) -> the step op query -> (context, alpha) over that key bank
BANKS = {
    "fused": lambda keys, *rest: lambda query: ad.attend(keys, query, *rest),
    "per_step": lambda keys, *rest: lambda query: _per_step_attend(keys, query, *rest),
}


def _three_steps(bank, scaled, used=(0, 1, 2)):
    """Outputs and leaf gradients of three steps on one key bank that share every weight, as the decoder's word
    steps do, through BANKS[bank]. The contexts of the steps in `used` reach the loss, each through the same
    readout; when none does, the loss is the sum of w_score's squares."""
    rng = np.random.default_rng(21)
    keys, w_key, w_query, w_score = (t(rng.normal(size=shape), grad=True) for shape in ((5, 3), (5, 3), (5, 4), (1, 5)))
    queries = [rng.normal(size=4) for _ in range(3)]
    scale, readout = rng.uniform(0.1, 0.9, size=5), rng.normal(size=3)
    key_scale = t(scale, grad=True) if scaled else None
    leaves = [keys, w_key, w_query, w_score] + ([key_scale] if scaled else [])
    outs = []
    with Tape() as tape:
        step_op = BANKS[bank](keys, w_key, w_query, w_score, key_scale)
        loss = None if used else ad.tensor_sum(ad.mul(w_score, w_score))
        for i, q in enumerate(queries):
            query = t(q, grad=True)
            leaves.append(query)
            context, alpha = step_op(query)
            outs += [context.data, alpha.data]
            if i in used:
                step = ad.tensor_sum(ad.mul(context, t(readout)))
                loss = step if loss is None else ad.add(loss, step)
    tape.backward(loss)
    return outs, [x.grad for x in leaves]


def _stacked_oracle(scaled):
    """_three_steps("fused", scaled) in plain numpy, summed as attend's bank node sums: each step's context
    gradient is the readout, and the steps are stacked in the order backward reaches them, the last first. Each
    query's gradient is the per-step chain's."""
    rng = np.random.default_rng(21)
    kd, wk, wq, ws = (rng.normal(size=shape) for shape in ((5, 3), (5, 3), (5, 4), (1, 5)))
    queries = [rng.normal(size=4) for _ in range(3)]
    s, g = rng.uniform(0.1, 0.9, size=5), rng.normal(size=3)
    sk = s[:, None] * kd if scaled else kd
    outs, steps, query_grads = [], [], []
    for qd in queries:
        hidden = np.tanh(sk @ wk.T + wq @ qd)
        alpha = ad._softmax_np((hidden @ ws.T).reshape(5))
        outs += [alpha @ kd, alpha]
        steps.insert(0, (g, alpha, hidden, qd))
        g_alpha = (g[None] @ kd.T).reshape(5)
        g_scores = (alpha * (g_alpha - np.dot(g_alpha, alpha))).reshape(5, 1)
        g_pre = (g_scores @ ws) * (1.0 - hidden * hidden)
        query_grads.append((wq.T @ np.add.reduce(g_pre, axis=0).reshape(5, 1)).reshape(4))
    G, A, H, Q = map(np.stack, zip(*steps))
    G_alpha = G @ kd.T
    G_scores = A * (G_alpha - np.add.reduce(G_alpha * A, axis=1, keepdims=True))
    G_pre = G_scores[:, :, None] * ws * (1.0 - H * H)
    G_proj = np.add.reduce(G_pre, axis=0)
    g_sk = G_proj @ wk
    grads = [A.T @ G + (g_sk * s[:, None] if scaled else g_sk), G_proj.T @ sk,
             np.add.reduce(G_pre, axis=1).T @ Q, G_scores.reshape(1, -1) @ H.reshape(-1, 5)]
    return outs, grads + ([(g_sk * kd).sum(axis=1)] if scaled else []) + query_grads


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
def test_attend_bit_for_bit_equals_unfused_chain(scaled):
    fused, oracle = _three_steps("fused", scaled), _stacked_oracle(scaled)
    assert [x.tobytes() for x in fused[0] + fused[1]] == [x.tobytes() for x in oracle[0] + oracle[1]]


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
def test_attend_matches_the_per_step_chain(scaled):
    # the bank sums the key side's gradients over stacked steps: outputs and query gradients byte-equal, others close
    (outs, grads), (ref_outs, ref_grads) = _three_steps("fused", scaled), _three_steps("per_step", scaled)
    assert [x.tobytes() for x in outs] == [x.tobytes() for x in ref_outs]
    assert len(grads) == len(ref_grads)
    assert [x.tobytes() for x in grads[-3:]] == [x.tobytes() for x in ref_grads[-3:]]
    for grad, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("used", [(0, 2), ()], ids=["middle_step_unused", "no_step_used"])
def test_attend_steps_whose_context_misses_the_loss(used, scaled):
    # a step whose context gets no gradient records nothing with its bank; with no such step the bank's node never runs
    (outs, grads), (ref_outs, ref_grads) = _three_steps("fused", scaled, used), _three_steps("per_step", scaled, used)
    assert [x.tobytes() for x in outs] == [x.tobytes() for x in ref_outs]
    assert [x is None for x in grads] == [x is None for x in ref_grads]
    assert grads[4 + scaled + 1] is None  # the middle query
    for grad, ref in zip(grads, ref_grads):
        if grad is not None:
            np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=0)
    if not used:  # only w_score has a gradient: its square's, which the bank adds nothing to
        assert [x is None for x in grads] == [i != 3 for i in range(len(grads))]
        assert grads[3].tobytes() == ref_grads[3].tobytes()


def _attend_args(rng, scaled=True):
    args = {"keys": t(rng.normal(size=(4, 3)), grad=True), "query": t(rng.normal(size=2), grad=True),
            "w_key": t(rng.normal(size=(5, 3)), grad=True), "w_query": t(rng.normal(size=(5, 2)), grad=True),
            "w_score": t(rng.normal(size=(1, 5)), grad=True)}
    return {**args, "key_scale": t(rng.uniform(0.2, 0.9, 4), grad=True) if scaled else None}


@pytest.mark.parametrize("other", ["keys", "key_scale", "w_key", "w_query", "w_score"])
def test_attend_shares_a_projection_only_on_the_same_bank(other):
    # a bank is its five tensor objects: another one with equal data gets its own projection
    args = _attend_args(np.random.default_rng(25))
    twin = {**args, other: t(args[other].data.copy(), grad=True)}
    with Tape() as tape:
        first = ad.attend(**args)[0]
        again = ad.attend(**args)[0]
        assert len(tape) == 3  # two steps and one projection
        apart = ad.attend(**twin)[0]
        assert len(tape) == 5  # a step and a projection of its own
    assert first.data.tobytes() == again.data.tobytes() == apart.data.tobytes()


def test_attend_shares_no_projection_across_tapes():
    args = _attend_args(np.random.default_rng(26))
    grads = []
    for _ in range(2):  # the same bank on a second tape: a projection of its own, so w_key gets its gradient again
        with Tape() as tape:
            loss = ad.tensor_sum(ad.add(ad.attend(**args)[0], ad.attend(**args)[0]))
        assert len(tape) == 5  # two steps, one projection, add and tensor_sum
        tape.backward(loss)
        grads.append(args["w_key"].grad)
        args["w_key"].grad = None
    assert grads[0] is not None and grads[0].tobytes() == grads[1].tobytes()


_BAD_QUERIES = (np.zeros(3), np.zeros((2, 2)))  # the bank of _attend_args takes a (2,) query


def _bank_grads_around_bad_queries(bad):
    """Gradients of the five bank tensors and the query of two attend steps on one bank, with attend called on each
    query in `bad` between them and its ShapeError caught inside the block; and the errors' messages."""
    args = _attend_args(np.random.default_rng(33))
    messages = []
    with Tape() as tape:
        first = ad.attend(**args)[0]
        nodes = len(tape)
        for query in bad:
            with pytest.raises(ShapeError) as err:
                ad.attend(**{**args, "query": t(query, grad=True)})
            messages.append(str(err.value))
        assert len(tape) == nodes and len(tape._projections) == 1
        steps = next(iter(tape._projections.values()))[1]
        second = ad.attend(**args)[0]
        loss = ad.tensor_sum(ad.mul(ad.add(first, second), ad.add(first, second)))
    assert not steps  # step records are made only by backward
    tape.backward(loss)
    return [args[name].grad for name in ("keys", "key_scale", "w_key", "w_query", "w_score", "query")], messages


def test_attend_on_a_known_bank_checks_the_query_and_records_nothing_for_a_bad_one():
    # a step on a memo'd bank checks only its query; a bad one raises what a fresh bank raises, and leaves no trace
    fresh = []
    for query in _BAD_QUERIES:
        args = _attend_args(np.random.default_rng(33))
        with pytest.raises(ShapeError) as err, Tape():
            ad.attend(**{**args, "query": t(query, grad=True)})
        fresh.append(str(err.value))
    assert "attend weights" in fresh[0] and "attend needs non-empty" in fresh[1]
    grads, messages = _bank_grads_around_bad_queries(_BAD_QUERIES)
    ref_grads, _ = _bank_grads_around_bad_queries([])
    assert messages == fresh
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]


@pytest.mark.parametrize("name, shape", [("key_scale", (4, 1)), ("w_score", (5, 1))])
def test_untaped_attend_checks_its_bank_on_every_call(name, shape):
    # no tape, no memo: a bank that passed once is checked again, even when the same tensor's data is rebound
    args = _attend_args(np.random.default_rng(34))
    ad.attend(**args)
    args[name].data = np.zeros(shape)
    with pytest.raises(ShapeError, match="attend"):
        ad.attend(**args)


def test_forward_determinism():
    rng1 = np.random.default_rng(123)
    rng2 = np.random.default_rng(123)
    a1 = ad.tanh(ad.matmul(t(rng1.normal(size=(3, 3))), t(rng1.normal(size=3))))
    a2 = ad.tanh(ad.matmul(t(rng2.normal(size=(3, 3))), t(rng2.normal(size=3))))
    assert a1.data.tobytes() == a2.data.tobytes()


# ---------------------------------------------------------------------------
# optimizers

def test_adam_first_step_moves_by_about_lr():
    # hand trace: m1=0.1, v1=1e-3, bias-corrected mhat=1, vhat=1 -> step = lr/(1+eps)
    w = t([2.0], grad=True)
    w.grad = np.array([1.0])
    opt = Adam(lr=1e-3)
    opt.step({"w": w})
    assert w.data[0] == pytest.approx(2.0 - 1e-3, abs=1e-8)


@pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
def test_adam_rejects_non_positive_or_non_finite_lr(lr):
    with pytest.raises(ValidationError, match="learning rate"):
        Adam(lr=lr)


def test_nan_gradient_names_parameter():
    w = t([1.0], grad=True)
    w.grad = np.array([np.nan])
    with pytest.raises(NumericsError, match="enc.w0"):
        Adam().step({"enc.w0": w})


def _per_parameter_adam_step(opt, params):
    """The oracle: Adam.step as one update per parameter on moments kept per name, before they went flat."""
    opt.t += 1
    b1c = 1.0 - ad.ADAM_BETA1 ** opt.t
    b2c = 1.0 - ad.ADAM_BETA2 ** opt.t
    for name in sorted(params):
        p = params[name]
        if p.grad is None:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for parameter '{name}'")
        m = opt.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            opt.m[name] = m
            opt.v[name] = np.zeros_like(p.data)
        v = opt.v[name]
        m *= ad.ADAM_BETA1
        m += (1.0 - ad.ADAM_BETA1) * g
        v *= ad.ADAM_BETA2
        v += (1.0 - ad.ADAM_BETA2) * g * g
        p.data -= opt.lr * (m / b1c) / (np.sqrt(v / b2c) + ad.ADAM_EPS)


def _encoder_params():
    return init_encoder_params(EncoderConfig(), 3)


def _attention_params():
    att = AttentionParams.init(32, 32, 32, 32, 32, 32, 5)
    return {**att.named(), "concept.embeddings": ad.seeded_uniform("concept.embeddings", (12, 32), 32, 5)}


_VISUAL = ("att.visual.w_v", "att.visual.w_s", "att.visual.w_a")
# parameters without a gradient at each step, in turn: none for the encoder; for the attention, the
# concat, early and late fusion schemes leave out the visual weights and w_late, w_late, and nothing
_NO_GRAD = {"encoder": [()], "attention": [(*_VISUAL, "att.late.w_late"), ("att.late.w_late",), ()]}


@pytest.mark.parametrize("case", sorted(_NO_GRAD))
def test_flat_adam_equals_per_parameter_oracle(case):
    params = _encoder_params() if case == "encoder" else _attention_params()
    assert len(params) == {"encoder": 10, "attention": 8}[case]
    twins = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}
    opt, oracle = Adam(lr=5e-3), SimpleNamespace(lr=5e-3, t=0, m={}, v={})
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    for step in range(24):
        missing = _NO_GRAD[case][step % len(_NO_GRAD[case])]
        for name, p in params.items():  # a gradient of two or more dims comes as a transposed view
            g = rng.normal(scale=10.0 ** rng.integers(-3, 2), size=p.data.shape[::-1]).T
            p.grad = twins[name].grad = None if name in missing else g
        opt.step(params)
        _per_parameter_adam_step(oracle, twins)
        for name in params:
            assert params[name].data.tobytes() == twins[name].data.tobytes(), (step, name)
    assert opt.t == oracle.t == 24 and sorted(oracle.m) == sorted(params)
    m, v, _ = opt.state(params)  # flat over sorted(params), the layout a checkpoint stores
    assert m.tobytes() == np.concatenate([oracle.m[name] for name in sorted(params)], axis=None).tobytes()
    assert v.tobytes() == np.concatenate([oracle.v[name] for name in sorted(params)], axis=None).tobytes()


def test_flat_adam_moments_are_views_of_one_buffer():
    # state hands out the one flat m and v that step moves in place, so writing into them resumes a run
    params = _attention_params()
    rng = np.random.default_rng(7)
    opt, resumed = Adam(lr=5e-3), Adam(lr=5e-3)
    m, v, t = opt.state(params)
    assert m.shape == v.shape == (sum(p.data.size for p in params.values()),) and t == 0
    assert not np.shares_memory(m, v)
    for p in params.values():
        p.grad = rng.normal(size=p.data.shape)
    opt.step(params)
    again = opt.state(params)
    assert again[0] is m and again[1] is v and again[2] == 1 and m.any() and v.any()
    twins = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}
    rm, rv, _ = resumed.state(twins)
    rm[:], rv[:], resumed.t = m, v, opt.t
    for name, p in params.items():
        p.grad = twins[name].grad = rng.normal(size=p.data.shape)
    opt.step(params)
    resumed.step(twins)
    assert (rm.tobytes(), rv.tobytes(), resumed.t) == (m.tobytes(), v.tobytes(), opt.t)
    for name in params:
        assert twins[name].data.tobytes() == params[name].data.tobytes(), name


def test_nan_gradient_in_a_run_names_it_and_moves_nothing():
    params = _encoder_params()
    names = sorted(params)
    rng = np.random.default_rng(31)
    opt = Adam(lr=5e-3)
    for p in params.values():
        p.grad = rng.normal(size=p.data.shape)
    opt.step(params)
    bad = names[len(names) // 2]
    params[bad].grad = params[bad].grad.copy()
    params[bad].grad.flat[1] = np.nan
    m, v, _ = opt.state(params)
    before = {name: p.data.tobytes() for name, p in params.items()}, m.tobytes(), v.tobytes()
    with pytest.raises(NumericsError, match=rf"^non-finite gradient for parameter '{bad}'$"):
        opt.step(params)
    assert opt.t == 1
    assert ({name: p.data.tobytes() for name, p in params.items()}, m.tobytes(), v.tobytes()) == before


@pytest.mark.parametrize("later", [
    pytest.param(lambda a, b: {"a": a}, id="a_name_dropped"),
    pytest.param(lambda a, b: {"a": a, "b": b, "c": t([1.0], grad=True)}, id="a_name_added"),
    pytest.param(lambda a, b: {"a": a, "c": b}, id="a_name_changed"),
    pytest.param(lambda a, b: {"a": a, "b": t(np.zeros((1, 2)), grad=True)}, id="a_shape_changed"),
])
def test_flat_adam_refuses_another_layout(later):
    a, b = t([1.0, 2.0], grad=True), t([3.0, 4.0], grad=True)
    opt = Adam()
    opt.step({"a": a, "b": b})
    with pytest.raises(ValidationError, match="laid out"):
        opt.step(later(a, b))


def test_clip_global_norm():
    a = t([3.0], grad=True)
    b = t([4.0], grad=True)
    a.grad, b.grad = np.array([3.0]), np.array([4.0])
    norm = ad.clip_global_norm({"a": a, "b": b}, 1.0)
    assert norm == pytest.approx(5.0)
    assert math.hypot(a.grad[0], b.grad[0]) == pytest.approx(1.0)


def test_clip_global_norm_whose_squares_overflow_clips_instead_of_zeroing():
    # 1e200 ** 2 overflows float64, but the norm itself and the clipped gradients are finite
    a, b = t([0.0, 0.0], grad=True), t([0.0, 0.0], grad=True)
    a.grad, b.grad = np.array([1e200, 0.0]), np.array([3.0, 4.0])
    norm = ad.clip_global_norm({"a": a, "b": b}, 5.0)
    assert norm == pytest.approx(1e200, rel=1e-12)
    assert math.hypot(*a.grad, *b.grad) == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(a.grad, [5.0, 0.0], rtol=1e-12)
    np.testing.assert_allclose(b.grad, [1.5e-199, 2e-199], rtol=1e-12)
    # a norm above float64's largest value is inf, and the finite gradients are still clipped, not zeroed
    a.grad, b.grad = np.array([1.5e308, 0.0]), np.array([0.0, 1.5e308])
    assert ad.clip_global_norm({"a": a, "b": b}, 5.0) == math.inf
    np.testing.assert_allclose(np.concatenate([a.grad, b.grad]), [5 / math.sqrt(2), 0, 0, 5 / math.sqrt(2)],
                               rtol=1e-12)


def test_clip_global_norm_leaves_a_non_finite_gradient_for_adam_to_name():
    a, b = t([0.0, 0.0], grad=True), t([0.0], grad=True)
    a.grad, b.grad = np.array([math.inf, 1.0]), np.array([2.0])
    assert ad.clip_global_norm({"a": a, "b": b}, 5.0) == math.inf  # no factor of 0 meets the inf
    assert a.grad.tolist() == [math.inf, 1.0] and b.grad.tolist() == [2.0]
    with pytest.raises(NumericsError, match="^non-finite gradient for parameter 'a'$"):
        Adam().step({"a": a, "b": b})


@pytest.mark.parametrize("max_norm", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_clip_global_norm_rejects_non_positive_max_norm(max_norm):
    a = t([3.0], grad=True)
    a.grad = np.array([3.0])
    with pytest.raises(ValidationError, match="max_norm"):
        ad.clip_global_norm({"a": a}, max_norm)
    assert a.grad[0] == 3.0


def test_clip_global_norm_scales_a_shared_gradient_once():
    p, q = t([3.0, 0.0], grad=True), t([0.0, 4.0], grad=True)
    with Tape() as tape:
        loss = ad.tensor_sum(ad.mul(ad.add(p, q), t([3.0, 4.0])))
    tape.backward(loss)
    assert p.grad is q.grad  # add hands its output's gradient to both inputs
    norm = ad.clip_global_norm({"p": p, "q": q}, 1.0)
    assert norm == math.sqrt(50.0)
    for x in (p, q):
        np.testing.assert_allclose(x.grad, np.array([3.0, 4.0]) / math.sqrt(50.0), rtol=1e-15)


def test_grad_of_a_0d_tensor_is_an_array():
    a, b = t(2.0, grad=True), t(3.0, grad=True)
    with Tape() as tape:
        loss = ad.add(ad.mul(a, b), ad.tanh(ad.mul(a, a)))  # a's second gradient adds two numpy scalars
    tape.backward(loss)
    for x, expected in ((a, 3.0 + 4.0 * (1.0 - math.tanh(4.0) ** 2)), (b, 2.0)):
        assert type(x.grad) is np.ndarray and x.grad.shape == ()
        assert x.grad == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("seed", [-1, 2.5, None], ids=["negative", "fraction", "none"])
def test_seeded_uniform_rejects_negative_or_non_integer_seed(seed):
    with pytest.raises(ValidationError, match="seed"):
        ad.seeded_uniform("dec.w", (3, 4), fan_in=4, seed=seed)


@pytest.mark.parametrize("fan_in", [0, -4, 0.5], ids=["zero", "negative", "fraction"])
def test_seeded_uniform_rejects_fan_in_below_one(fan_in):
    with pytest.raises(ValidationError, match="fan_in"):
        ad.seeded_uniform("dec.w", (3, 4), fan_in=fan_in, seed=9)


def test_seeded_uniform_is_name_keyed_and_deterministic():
    p1 = ad.seeded_uniform("dec.w", (3, 4), fan_in=4, seed=9)
    p2 = ad.seeded_uniform("dec.w", (3, 4), fan_in=4, seed=9)
    q = ad.seeded_uniform("dec.v", (3, 4), fan_in=4, seed=9)
    assert p1.data.tobytes() == p2.data.tobytes()
    assert p1.data.tobytes() != q.data.tobytes()
    assert np.abs(p1.data).max() <= 0.5
    assert ad.seeded_uniform("dec.w", 3, fan_in=4, seed=9).data.shape == (3,)  # one int is a 1-d shape


def test_reshape_reads_a_lone_int_as_a_1d_shape_like_seeded_uniform():
    x = t(np.arange(4.0).reshape(2, 2), grad=True)
    with Tape() as tape:
        y = ad.reshape(x, 4)
        loss = ad.tensor_sum(ad.mul(y, t([1.0, 2.0, 3.0, 4.0])))
    tape.backward(loss)
    assert y.data.shape == (4,) == ad.seeded_uniform("dec.w", 4, fan_in=1, seed=0).data.shape
    np.testing.assert_array_equal(x.grad, [[1.0, 2.0], [3.0, 4.0]])
