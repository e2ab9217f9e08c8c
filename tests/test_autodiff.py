import gc
import inspect
import math
import warnings
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 2))))


def test_softmax_symmetry_and_singleton():
    np.testing.assert_allclose(ad.softmax(t([0.0, 0.0, 0.0])).data, [1 / 3] * 3, atol=1e-15)
    np.testing.assert_array_equal(ad.softmax(t([42.0])).data, [1.0])


def test_softmax_against_scalar_oracle():
    x = [1.0, 2.0, 3.0]
    denom = sum(math.exp(v) for v in x)
    expected = [math.exp(v) / denom for v in x]
    np.testing.assert_allclose(ad.softmax(t(x)).data, expected, atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ShapeError):
        ad.softmax(t(np.zeros(0)))


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


@pytest.mark.parametrize("op", [ad.add, ad.mul])
def test_non_broadcastable_shapes_raise_shape_error(op):
    with pytest.raises(ShapeError, match=r"\(4, 3\).*\(4,\)"):
        op(t(np.zeros((4, 3))), t(np.zeros(4)))


def test_concat_rejects_mismatched_trailing_shapes():
    with pytest.raises(ShapeError):
        ad.concat([t(np.zeros((2, 3))), t(np.zeros((1, 4)))])
    with pytest.raises(ShapeError):
        ad.concat([t(np.zeros(3)), t(np.zeros((1, 3)))])
    with pytest.raises(ShapeError):
        ad.concat([t(1.0)])


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


def test_mse_shape_error():
    with pytest.raises(ShapeError):
        ad.mse_loss(t([1.0]), t([1.0, 2.0]))


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
    # mean_pool hands x a read-only broadcast first; adding mul's gradient must not write into it
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


def _weighted(out, rng):
    w = Tensor(rng.normal(size=out.data.shape))
    return ad.tensor_sum(ad.mul(out, w)) if out.data.shape != () else out


def test_matmul_gradcheck_tight():
    rng = np.random.default_rng(0)
    a = t(rng.normal(size=(3, 4)), grad=True)
    b = t(rng.normal(size=(4, 2)), grad=True)
    w = Tensor(rng.normal(size=(3, 2)))
    check_grads(lambda: ad.tensor_sum(ad.mul(ad.matmul(a, b), w)), {"a": a, "b": b}, rel_tol=1e-6)


# gradcheck case -> the op whose backward rule it checks
GRADCHECK_OPS = {
    "matmul_vec": ad.matmul, "add": ad.add, "add_broadcast": ad.add, "mul": ad.mul,
    "mul_broadcast": ad.mul, "mul_scalar": ad.mul, "tanh": ad.tanh, "sigmoid": ad.sigmoid,
    "relu": ad.relu, "softmax": ad.softmax, "concat": ad.concat, "concat_2d": ad.concat,
    "reshape": ad.reshape, "transpose": ad.transpose, "mean_pool": ad.mean_pool,
    "max_pool2d": ad.max_pool2d, "conv2d": ad.conv2d, "bce": ad.bce_loss, "mse": ad.mse_loss,
    "tensor_sum": ad.tensor_sum, "attend": ad.attend, "attend_scaled": ad.attend,
}


@pytest.mark.parametrize("name", list(GRADCHECK_OPS))
def test_each_op_matches_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # the same inputs in every process
    op = GRADCHECK_OPS[name]
    if name == "matmul_vec":
        a = t(rng.normal(size=(3, 4)), grad=True)
        x = t(rng.normal(size=4), grad=True)
        build = lambda: _weighted(op(a, x), np.random.default_rng(1))
        params = {"a": a, "x": x}
    elif name == "add":
        a, b = t(rng.normal(size=5), grad=True), t(rng.normal(size=5), grad=True)
        build = lambda: _weighted(op(a, b), np.random.default_rng(1))
        params = {"a": a, "b": b}
    elif name == "add_broadcast":
        m = t(rng.normal(size=(4, 3)), grad=True)
        v = t(rng.normal(size=3), grad=True)
        build = lambda: _weighted(op(m, v), np.random.default_rng(1))
        params = {"m": m, "v": v}
    elif name == "mul":
        a, b = t(rng.normal(size=5), grad=True), t(rng.normal(size=5), grad=True)
        build = lambda: _weighted(op(a, b), np.random.default_rng(1))
        params = {"a": a, "b": b}
    elif name == "mul_broadcast":
        col = t(rng.normal(size=(4, 1)), grad=True)
        m = t(rng.normal(size=(4, 3)), grad=True)
        build = lambda: _weighted(op(col, m), np.random.default_rng(1))
        params = {"col": col, "m": m}
    elif name == "mul_scalar":
        a = t(rng.normal(size=5), grad=True)
        build = lambda: _weighted(op(a, t(-2.5)), np.random.default_rng(1))
        params = {"a": a}
    elif name in ("tanh", "sigmoid"):
        a = t(rng.normal(size=6), grad=True)
        build = lambda: _weighted(op(a), np.random.default_rng(1))
        params = {"a": a}
    elif name == "relu":
        vals = rng.normal(size=8)
        vals[np.abs(vals) < 0.05] = 0.5  # keep clear of the kink
        a = t(vals, grad=True)
        build = lambda: _weighted(op(a), np.random.default_rng(1))
        params = {"a": a}
    elif name == "softmax":
        a = t(rng.normal(size=6), grad=True)
        build = lambda: _weighted(op(a), np.random.default_rng(1))
        params = {"a": a}
    elif name == "concat":
        a, b = t(rng.normal(size=3), grad=True), t(rng.normal(size=2), grad=True)
        build = lambda: _weighted(op([a, b]), np.random.default_rng(1))
        params = {"a": a, "b": b}
    elif name == "concat_2d":
        a = t(rng.normal(size=(2, 3)), grad=True)
        b = t(rng.normal(size=(1, 3)), grad=True)
        build = lambda: _weighted(op([a, b]), np.random.default_rng(1))
        params = {"a": a, "b": b}
    elif name == "reshape":
        a = t(rng.normal(size=(2, 3)), grad=True)
        build = lambda: _weighted(op(a, (6,)), np.random.default_rng(1))
        params = {"a": a}
    elif name == "transpose":
        a = t(rng.normal(size=(2, 3)), grad=True)
        build = lambda: _weighted(op(a), np.random.default_rng(1))
        params = {"a": a}
    elif name == "mean_pool":
        a = t(rng.normal(size=(4, 3)), grad=True)
        build = lambda: _weighted(op(a), np.random.default_rng(1))
        params = {"a": a}
    elif name == "max_pool2d":
        a = t(rng.normal(size=(2, 4, 4)), grad=True)
        build = lambda: _weighted(op(a), np.random.default_rng(1))
        params = {"a": a}
    elif name == "conv2d":
        x = t(rng.normal(size=(2, 6, 6)), grad=True)
        w = t(rng.normal(size=(3, 2, 3, 3)) * 0.5, grad=True)
        b = t(rng.normal(size=3), grad=True)
        build = lambda: _weighted(op(x, w, b), np.random.default_rng(1))
        params = {"x": x, "w": w, "b": b}
    elif name == "bce":
        p = t(rng.uniform(0.1, 0.9, size=5), grad=True)
        y = t(rng.integers(0, 2, size=5).astype(float))
        build = lambda: op(p, y)
        params = {"p": p}
    elif name == "mse":
        a, b = t(rng.normal(size=5), grad=True), t(rng.normal(size=5), grad=True)
        build = lambda: op(a, b)
        params = {"a": a, "b": b}
    elif name in ("attend", "attend_scaled"):  # attend_scaled: a row scale on the keys that takes a gradient
        params = {"keys": t(rng.normal(size=(4, 3)), grad=True), "query": t(rng.normal(size=2), grad=True),
                  "w_key": t(rng.normal(size=(5, 3)), grad=True), "w_query": t(rng.normal(size=(5, 2)), grad=True),
                  "w_score": t(rng.normal(size=(1, 5)), grad=True)}
        if name == "attend_scaled":
            params["key_scale"] = t(rng.uniform(0.2, 0.9, 4), grad=True)
        args = list(params.values()) + ([None] if name == "attend" else [])
        build = lambda: _weighted(op(*args)[0], np.random.default_rng(1))
    else:  # tensor_sum
        a = t(rng.normal(size=(2, 3)), grad=True)
        build = lambda: op(a)
        params = {"a": a}
    check_grads(build, params, rel_tol=1e-4)


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


def _recording_ops():
    """Names of the public ops of mvh.autodiff that return through _result."""
    return {f.__name__ for f in vars(ad).values()
            if inspect.isfunction(f) and f.__module__ == ad.__name__
            and not f.__name__.startswith("_") and "_result(" in inspect.getsource(f)}


def test_every_backward_rule_has_a_gradcheck_case():
    recording = _recording_ops()
    assert {"matmul", "conv2d", "attend"} <= recording
    assert recording - {op.__name__ for op in GRADCHECK_OPS.values()} == set()


def _nan(*shape):
    x = np.ones(shape)
    x.flat[0] = np.nan
    return Tensor(x)


def _ones(*shape):
    return Tensor(np.ones(shape))


# op -> a call of it with a NaN in one input
NAN_CALLS = {
    "matmul": lambda: ad.matmul(_nan(2, 3), _ones(3)),
    "transpose": lambda: ad.transpose(_nan(2, 3)),
    "reshape": lambda: ad.reshape(_nan(2, 3), (6,)),
    "add": lambda: ad.add(_ones(3), _nan(3)),
    "mul": lambda: ad.mul(_nan(2, 3), _ones(3)),
    "tanh": lambda: ad.tanh(_nan(3)),
    "sigmoid": lambda: ad.sigmoid(_nan(3)),
    "relu": lambda: ad.relu(_nan(3)),
    "softmax": lambda: ad.softmax(_nan(3)),
    "attend": lambda: ad.attend(_nan(4, 3), _ones(2), _ones(5, 3), _ones(5, 2), _ones(1, 5), _ones(4))[0],
    "concat": lambda: ad.concat([_ones(2), _nan(3)]),
    "mean_pool": lambda: ad.mean_pool(_nan(4, 3)),
    "max_pool2d": lambda: ad.max_pool2d(_nan(2, 4, 4)),
    "conv2d": lambda: ad.conv2d(_nan(2, 6, 6), _ones(3, 2, 3, 3), _ones(3)),
    "tensor_sum": lambda: ad.tensor_sum(_nan(2, 3)),
    "bce_loss": lambda: ad.bce_loss(_nan(3), Tensor(np.zeros(3))),
    "mse_loss": lambda: ad.mse_loss(_ones(3), _nan(3)),
}


@pytest.mark.parametrize("name", sorted(_recording_ops()))
def test_nan_input_raises_numerics_error_naming_the_op(name):
    assert name in NAN_CALLS, f"no NaN case for op {name}"
    with pytest.raises(NumericsError, match=rf"^{name} produced non-finite values$"):
        NAN_CALLS[name]()


@pytest.mark.parametrize("name", sorted(_recording_ops()))
def test_backward_writes_into_no_gradient(name, monkeypatch):
    # rerun NAN_CALLS[name] with finite inputs that require grad: its lambdas look up _nan and _ones when called
    assert name in NAN_CALLS, f"no call case for op {name}"
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    leaves = []

    def leaf(*shape):
        leaves.append(Tensor(rng.uniform(0.1, 0.9, size=shape), requires_grad=True))
        return leaves[-1]

    monkeypatch.setitem(globals(), "_nan", leaf)
    monkeypatch.setitem(globals(), "_ones", leaf)
    with Tape() as tape:
        out = NAN_CALLS[name]()
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


def test_numerics_error_gives_the_tape_node_index():
    a = t([1.0], grad=True)
    with Tape() as tape:
        b = ad.add(ad.mul(a, a), a)
        with pytest.raises(NumericsError, match=r"^add produced non-finite values at tape node 2$"):
            ad.add(b, t([np.nan]))
        with pytest.raises(NumericsError, match=r"^add produced non-finite values$"):
            ad.add(t([1.0]), t([np.nan]))  # no parent requires grad: it would not join the tape
    assert len(tape) == 2


@pytest.mark.parametrize("keys, query, w_score, key_scale", [
    pytest.param((4, 3), (3,), (1, 5), (4,), id="query_length"),
    pytest.param((4, 3), (2,), (5, 1), (4,), id="w_score_shape"),
    pytest.param((0, 3), (2,), (1, 5), (0,), id="empty_keys"),
    pytest.param((4, 3), (2,), (1, 5), (4, 1), id="key_scale_shape"),
])
def test_attend_shape_errors(keys, query, w_score, key_scale):
    with pytest.raises(ShapeError):
        ad.attend(t(np.zeros(keys)), t(np.zeros(query)), t(np.zeros((5, 3))), t(np.zeros((5, 2))),
                  t(np.zeros(w_score)), t(np.zeros(key_scale)))


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


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
def test_attend_shared_bank_matches_finite_differences(scaled):
    rng = np.random.default_rng(23)
    args = _attend_args(rng, scaled)
    queries = {f"q{i}": t(rng.normal(size=2), grad=True) for i in range(3)}

    def build():  # three queries on one bank
        loss = None
        for i, query in enumerate(queries.values()):
            step = _weighted(ad.attend(**{**args, "query": query})[0], np.random.default_rng(i))
            loss = step if loss is None else ad.add(loss, step)
        return loss

    params = {name: x for name, x in {**args, **queries}.items() if x is not None and name != "query"}
    check_grads(build, params, rel_tol=1e-4)


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


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
def test_attend_decoder_shaped_chain_matches_finite_differences(scaled):
    # step t's query is made on the tape from step t-1's context, after the bank's node: backward reaches that
    # query's node before the bank's, so its gradient must be complete when the step's node runs
    rng = np.random.default_rng(29)
    args = _attend_args(rng, scaled)
    w_state = t(rng.normal(size=(2, 3)), grad=True)  # the next state from a context: tanh(w_state @ context)

    def build():
        query, loss = args["query"], None  # the initial state
        for i in range(3):
            context = ad.attend(**{**args, "query": query})[0]
            step = _weighted(context, np.random.default_rng(i))
            loss = step if loss is None else ad.add(loss, step)
            query = ad.tanh(ad.matmul(w_state, context))
        return loss

    params = {name: x for name, x in {**args, "w_state": w_state}.items() if x is not None}
    check_grads(build, params, rel_tol=1e-4)


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


def test_composite_graph_gradcheck():
    rng = np.random.default_rng(5)
    w1 = t(rng.normal(size=(4, 3)) * 0.7, grad=True)
    w2 = t(rng.normal(size=(2, 4)) * 0.7, grad=True)
    x = t(rng.normal(size=3), grad=True)
    y = Tensor(np.array([1.0, 0.0]))

    def build():
        h = ad.tanh(ad.matmul(w1, x))
        p = ad.sigmoid(ad.matmul(w2, h))
        return ad.bce_loss(p, y)

    check_grads(build, {"w1": w1, "w2": w2, "x": x}, rel_tol=1e-4)


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
    for name in params:
        assert opt.m[name].tobytes() == oracle.m[name].tobytes(), name
        assert opt.v[name].tobytes() == oracle.v[name].tobytes(), name


def test_flat_adam_moments_are_views_of_one_buffer():
    params = _attention_params()
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt = Adam()
    opt.step(params)
    assert sorted(opt.m) == sorted(opt.v) == sorted(params)
    offset = 0
    for name in sorted(params):
        for state, flat in ((opt.m, opt._m), (opt.v, opt._v)):
            assert state[name].shape == params[name].data.shape
            assert np.shares_memory(state[name], flat)
            assert state[name].ctypes.data == flat.ctypes.data + 8 * offset  # laid out in sorted order
        offset += params[name].data.size
    assert offset == opt._m.size == opt._v.size


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
    before = {name: (p.data.tobytes(), opt.m[name].tobytes(), opt.v[name].tobytes()) for name, p in params.items()}
    with pytest.raises(NumericsError, match=rf"^non-finite gradient for parameter '{bad}'$"):
        opt.step(params)
    assert opt.t == 1
    for name, p in params.items():
        assert (p.data.tobytes(), opt.m[name].tobytes(), opt.v[name].tobytes()) == before[name], name


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
