"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Ops are plain functions on `Tensor`s. While a `Tape` is active (used as a
context manager) every op whose inputs participate in grad registers a
backward closure on it; with no active tape the same ops run as pure
inference-mode numpy. Every op returns through `_result`, the one place
where an output joins the tape and is checked to be finite. One tape per
training step, consumed by a single backward pass.

Gradients are values: backward rules hand them over uncopied, so a `grad` may
be a view, read-only or shared, and no rule, optimizer or utility writes into one.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
from contextvars import ContextVar
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericsError, ShapeError, TapeError, ValidationError, _index, _shape

PROB_EPS = 1e-12  # clamp applied to probabilities before logs
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Tensor:
    """An n-d float64 value with optional gradient participation.

    `data` is float64 and may be a view of another tensor's data (`reshape`
    and `transpose` do not copy); `grad` is set during backward, only with
    requires_grad, and may be shared or read-only: replace it, never write into it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None  # tape that produced this tensor, if any

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)}, requires_grad={self.requires_grad})"


# A context variable, not a global: each thread sees only the tape it opened.
_ACTIVE_TAPE: ContextVar["Tape | None"] = ContextVar("mvh_active_tape", default=None)


class Tape:
    """Append-only record of backward rules for one forward pass.

    Construction order is execution order, so the node list is already topologically sorted; backward
    pops it once in reverse, and a consumed tape cannot be replayed. It keeps no node: each output refers
    back to its tape, so kept nodes would hold a step's whole graph until a cyclic garbage collection; an
    exception leaving the `with` block drops them and consumes the tape. Its memo of `attend`'s key banks,
    each the tensors (keys, key_scale, w_key, w_query, w_score) and mapped to the bank's node and the records
    of its steps, is reused by later calls on the same bank, cleared on leaving the block or starting
    backward. A bank's shapes are checked when its node is made; a later step checks only its query. The
    memo trusts that no op input's data is written, and no `.data` rebound, while its tape is open (`Adam`
    writes only after backward). A step's node wakes its bank's node by giving the bank's projection, a
    tensor internal to `attend`, a stand-in gradient: the read-only 0-d zero `_WAKE`, which carries nothing.
    A second memo, cleared with the first, keeps `attention.fuse`'s early-fusion banks, so that a sample's
    sentence steps share one bank and with it one projection node.
    """

    def __init__(self):
        self._nodes = []  # (output tensor, backward closure)
        self._projections = {}  # attend's banks: (keys, key_scale, w_key, w_query, w_score) -> (node, step records)
        self._stacks = {}  # early fusion's banks: (front local features, lateral local features) -> their concat
        self._consumed = False

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise TapeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPE.set(None)
        self._projections.clear()
        self._stacks.clear()
        if exc_type is not None:  # a failed step's graph is freed now, not by a cyclic collection
            self._nodes.clear()
            self._consumed = True
        return False

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss):
        """Populate .grad of every participating tensor reachable from loss."""
        if self._consumed:
            raise TapeError("tape already consumed by a backward pass or by an exception in its block")
        if not isinstance(loss, Tensor) or loss.data.shape != ():
            shape = getattr(loss, "shape", None)
            raise ShapeError(f"backward needs a scalar loss, got shape {shape}")
        if loss._tape is not self:
            raise TapeError("loss was not produced on this tape")
        self._consumed = True
        self._projections.clear()
        self._stacks.clear()
        loss.grad = np.ones((), dtype=np.float64)
        while self._nodes:
            out, fn = self._nodes.pop()
            if out.grad is not None:
                fn(out.grad)


def _result(data, parents, backward):
    """Wrap an op's output `data` in a Tensor.

    When a tape is active and any parent has requires_grad, the output joins that tape: `backward(g)` is
    recorded to push the output's gradient `g` into the parents. A non-finite `data` raises NumericsError
    naming the op (from `backward.__qualname__`) and the tape node it would have become. A 0-d output is
    checked by `math.isfinite`, any other by the count of its finite elements; not by its sum, which warns
    when finite values overflow or inf meets -inf, and under a strict warnings filter raises that warning instead.
    """
    out = Tensor(data)
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        for p in parents:
            if p.requires_grad:
                break
        else:
            tape = None
    d = out.data
    if not _all_finite(d):
        at = "" if tape is None else f" at tape node {len(tape._nodes)}"
        raise NumericsError(f"{backward.__qualname__.split('.')[0]} produced non-finite values{at}")
    if tape is not None:
        out.requires_grad = True
        out._tape = tape
        tape._nodes.append((out, backward))
    return out


def _all_finite(d):
    """Whether every value of the array (or numpy scalar) d is finite, found without summing it, which could warn."""
    return math.isfinite(d) if d.ndim == 0 else np.count_nonzero(np.isfinite(d)) == d.size


def _accum(t, g):
    if t.requires_grad:  # asarray: a product of 0-d arrays is a numpy scalar
        t.grad = np.asarray(g if t.grad is None else t.grad + g)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    """Matrix product. Accepts (m,k)x(k,n), (m,k)x(k,), (k,)x(k,n) and (k,)x(k,), which gives a 0-d result."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul needs 1-d or 2-d operands, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} vs {bd.shape}")
    out_data = ad @ bd
    def bw(g):
        A = ad if ad.ndim == 2 else ad[None, :]
        B = bd if bd.ndim == 2 else bd[:, None]
        G = g.reshape(A.shape[0], B.shape[1])
        _accum(a, (G @ B.T).reshape(ad.shape))
        _accum(b, (A.T @ G).reshape(bd.shape))
    return _result(out_data, (a, b), bw)


def transpose(x):
    """Transpose of a 2-d tensor, as a view of x's data."""
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got shape {x.data.shape}")
    return _result(x.data.T, (x,), lambda g: _accum(x, g.T))


def reshape(x, shape):
    """x's data in a new shape; a view whenever numpy can make one."""
    shape = _shape(shape, "reshape dim")
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"cannot reshape {x.data.shape} into {shape}")
    return _result(x.data.reshape(shape), (x,), lambda g: _accum(x, g.reshape(x.data.shape)))


# ---------------------------------------------------------------------------
# elementwise and structural ops


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op} needs equal shapes, got {a.data.shape} and {b.data.shape}")


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to an input's shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def add(a, b):
    """Elementwise sum under numpy broadcasting."""
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add cannot broadcast {a.data.shape} with {b.data.shape}") from None
    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))
    return _result(out_data, (a, b), bw)


def mul(a, b):
    """Elementwise product under numpy broadcasting."""
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul cannot broadcast {a.data.shape} with {b.data.shape}") from None
    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))
    return _result(out_data, (a, b), bw)


def tanh(x):
    out_data = np.tanh(x.data)
    return _result(out_data, (x,), lambda g: _accum(x, g * (1.0 - out_data * out_data)))


def _sigmoid_np(x):
    e = np.exp(-np.abs(x))  # 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) below: exp never overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x):
    out_data = _sigmoid_np(x.data)
    return _result(out_data, (x,), lambda g: _accum(x, g * out_data * (1.0 - out_data)))


def relu(x):
    return _result(np.maximum(x.data, 0.0), (x,), lambda g: _accum(x, g * (x.data > 0.0)))


def _softmax_np(x):
    e = np.exp(x - np.maximum.reduce(x))
    return e / np.add.reduce(e)


def softmax(x):
    """Probability simplex over a 1-d tensor, computed with max-subtraction."""
    if x.data.ndim != 1 or x.data.shape[0] < 1:
        raise ShapeError(f"softmax needs a non-empty 1-d tensor, got shape {x.data.shape}")
    out_data = _softmax_np(x.data)
    def bw(g):
        _accum(x, out_data * (g - np.dot(g, out_data)))
    return _result(out_data, (x,), bw)


_WAKE = np.zeros(())  # the stand-in gradient with which an attend step wakes its bank's node
_WAKE.flags.writeable = False


def attend(keys, query, w_key, w_query, w_score, key_scale):
    """Additive attention (Xu et al., 2015) over the n rows k_i of keys: one tape node per step, one per key bank.

    alpha = softmax_i(w_score . tanh(w_key (s_i k_i) + w_query q)) and context = alpha @ keys, for
    keys (n, d_k), query (d_q,), w_key (d_a, d_k), w_query (d_a, d_q), w_score (1, d_a) and key_scale
    s (n,), or None for none; the scale enters the scores only. Returns (context (d_k,), alpha (n,)):
    context is the step's tape node; alpha is an untaped Tensor, so no gradient flows back through it.
    On an active tape a bank, the objects (keys, key_scale, w_key, w_query, w_score), gets one node at its
    first step, shared by later ones: the key projection (s * keys) w_key^T, which does not depend on the
    query (Bahdanau et al., 2015, A.1.2). A step's node records its context gradient g with the bank and
    computes only the query's gradient, when the query takes one. The bank's node runs after every step's:
    it stacks its T recorded steps, in the order backward reached them, and computes the gradients of the
    five bank tensors through the contexts and the scores with one matmul or reduction each. A bank's shapes
    are checked when its node is made, and on every untaped call; a later step on it checks only its query.
    """
    kd, qd, wk, wq, ws = keys.data, query.data, w_key.data, w_query.data, w_score.data
    n = kd.shape[0] if kd.ndim == 2 else 0
    s = None if key_scale is None else key_scale.data
    tape, bank = _ACTIVE_TAPE.get(), (keys, key_scale, w_key, w_query, w_score)
    memo = None if tape is None else tape._projections.get(bank)
    # a memo'd bank's shapes were checked at its first step: a good query skips the check, a bad one fails it
    if memo is None or qd.ndim != 1 or qd.shape[0] != wq.shape[1]:
        if n < 1 or qd.ndim != 1 or (s is not None and s.shape != (n,)):
            raise ShapeError(f"attend needs non-empty (n, d_k) keys, a (d_q,) query and an (n,) key_scale, "
                             f"got {kd.shape}, {qd.shape} and {getattr(s, 'shape', None)}")
        if (wk.ndim != 2 or wk.shape[1] != kd.shape[1] or wq.shape != (wk.shape[0], qd.shape[0])
                or ws.shape != (1, wk.shape[0])):
            raise ShapeError(f"attend weights {wk.shape}, {wq.shape}, {ws.shape} do not fit "
                             f"keys {kd.shape} and query {qd.shape}")
    if memo is None:
        sk = kd if s is None else s[:, None] * kd    # (n, d_k) scaled keys
        steps = []                                   # (g, alpha, hidden, query) per step that got a gradient
        def bw_bank(_):                              # woken by its steps' stand-in gradient, _WAKE
            G, A, H, Q = map(np.array, zip(*steps))  # (T, d_k), (T, n), (T, n, d_a), (T, d_q); one copy each
            steps.clear()
            G_alpha = G @ kd.T
            G_scores = A * (G_alpha - np.add.reduce(G_alpha * A, axis=1, keepdims=True))
            _accum(w_score, G_scores.reshape(1, -1) @ H.reshape(-1, wk.shape[0]))
            G_pre = G_scores[:, :, None] * ws * (1.0 - H * H)
            _accum(w_query, np.add.reduce(G_pre, axis=1).T @ Q)
            G_proj = np.add.reduce(G_pre, axis=0)    # (n, d_a): the projection's gradient
            _accum(w_key, G_proj.T @ sk)
            ds = s is not None and key_scale.requires_grad
            if keys.requires_grad or ds:
                g_sk = G_proj @ wk                   # gradient of the scaled keys
                if ds:
                    _accum(key_scale, (g_sk * kd).sum(axis=1))
                _accum(keys, A.T @ G + (g_sk if s is None else g_sk * s[:, None]))
        memo = _result(sk @ wk.T, [x for x in bank if x is not None], bw_bank), steps
        if tape is not None:
            tape._projections[bank] = memo
    proj, steps = memo
    hidden = np.tanh(proj.data + wq @ qd)            # (n, d_a)
    alpha = _softmax_np((hidden @ ws.T).reshape(n))
    def bw(g):
        if proj.requires_grad:
            steps.append((g, alpha, hidden, qd))
            proj.grad = _WAKE
        # the query's gradient is due now, not in the bank's node: backward reaches the node of a query made
        # after the bank's (a decoder state) before the bank's
        if query.requires_grad:
            g_alpha = (g[None] @ kd.T).reshape(n)
            g_scores = (alpha * (g_alpha - np.dot(g_alpha, alpha))).reshape(n, 1)
            g_pre = (g_scores @ ws) * (1.0 - hidden * hidden)
            g_proj = np.add.reduce(g_pre, axis=0).reshape(wk.shape[0], 1)
            _accum(query, (wq.T @ g_proj).reshape(qd.shape))
    return _result(alpha @ kd, (query, proj), bw), Tensor(alpha)


def concat(parts):
    """Join tensors of equal trailing shape along axis 0."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    tail = parts[0].data.shape[1:]
    for p in parts:
        if p.data.ndim < 1 or p.data.shape[1:] != tail:
            raise ShapeError(f"concat needs parts of shape (n, *{tail}), got {p.data.shape}")
    def bw(g):
        i = 0
        for p in parts:
            n = p.data.shape[0]
            _accum(p, g[i:i + n])
            i += n
    return _result(np.concatenate([p.data for p in parts]), parts, bw)


# bench/layertrace.py wraps these three names; they go once its OPS list drops them.
add_row = add
vstack = concat


def scale(x, c):
    return mul(x, Tensor(c))


def mean_pool(x):
    """Mean over the rows of a (k,d) tensor."""
    if x.data.ndim != 2 or x.data.shape[0] < 1:
        raise ShapeError(f"mean_pool needs a 2-d tensor with at least one row, got shape {x.data.shape}")
    k = x.data.shape[0]  # the sum over k, then / k, is what np.mean computes
    return _result(np.add.reduce(x.data, axis=0) / k, (x,), lambda g: _accum(x, np.full(x.data.shape, g / k)))


@cache
def _pool_base(c, h, w):
    """Read-only flat index in a C-ordered (c, h, w) array of each 2x2 window's top-left cell."""
    base = np.arange(c * h * w).reshape(c, h, w)[:, 0::2, 0::2].copy()
    base.flags.writeable = False
    return base


def _pool_forward(xd):
    """The (c, h/2, w/2) 2x2 window maxima, C-ordered whatever xd's layout: mean_pool sums in memory order."""
    out = np.maximum(xd[:, 0::2, 0::2], xd[:, 0::2, 1::2], order="C")
    np.maximum(out, xd[:, 1::2, 0::2], out=out)
    np.maximum(out, xd[:, 1::2, 1::2], out=out)
    return out


def _pool_backward(xd, out, g):
    """The gradient of xd from that of its window maxima `out`: each window's goes to its first max."""
    w = xd.shape[2]
    # flat index in x of each window's first max, choosing corners from the last one back
    first = np.where(xd[:, 1::2, 0::2] == out, w, w + 1)
    first = np.where(xd[:, 0::2, 1::2] == out, 1, first)
    first = np.where(xd[:, 0::2, 0::2] == out, 0, first)
    first += _pool_base(*xd.shape)
    dx = np.zeros(xd.size)
    dx[first] = g
    return dx.reshape(xd.shape)


def max_pool2d(x):
    """2x2 non-overlapping max pooling of a (c,h,w) tensor; a window's gradient goes to its first max."""
    xd = x.data
    if xd.ndim != 3 or xd.shape[1] % 2 or xd.shape[2] % 2:
        raise ShapeError(f"max_pool2d needs (c, even h, even w), got shape {xd.shape}")
    out = _pool_forward(xd)
    return _result(out, (x,), lambda g: _accum(x, _pool_backward(xd, out, g)))


@cache
def _im2col_index(cin, h, width, kh, kw):
    """Read-only (gather, scatter) indices into x's cells, with cin*h*w for a zero outside the image.

    gather[i*w + j, (c*kh + di)*kw + dj] indexes x[c, i+di-kh//2, j+dj-kw//2]. scatter holds the same
    indices in tap-major (c, di, dj, pixel) order, in which every cell meets its taps in (di, dj) order.
    """
    pad = np.full((cin, h + kh - 1, width + kw - 1), cin * h * width)
    pad[:, kh // 2:kh // 2 + h, kw // 2:kw // 2 + width] = np.arange(cin * h * width).reshape(cin, h, width)
    win = sliding_window_view(pad, (kh, kw), axis=(1, 2))  # (cin, h, w, kh, kw)
    gather = win.transpose(1, 2, 0, 3, 4).reshape(h * width, cin * kh * kw)
    scatter = win.transpose(0, 3, 4, 1, 2).ravel()
    gather.flags.writeable = scatter.flags.writeable = False
    return gather, scatter


def _conv_forward(xd, wd, bd, op):
    """Same-padding stride-1 convolution of a (cin,h,w) array with (cout,cin,kh,kw), im2col one gather through a
    cached index (Chellapilla et al., 2006): the (cout, h, w) output, a view of the GEMM's, then the im2col columns,
    the kernel matrix and the col2im index, which `_conv_backward` reads."""
    if xd.ndim != 3 or wd.ndim != 4 or bd.ndim != 1:
        raise ShapeError(f"{op} needs (cin,h,w), (cout,cin,kh,kw), (cout,), got {xd.shape}, {wd.shape}, {bd.shape}")
    cin, h, width = xd.shape
    cout, cin2, kh, kw = wd.shape
    if cin2 != cin or bd.shape[0] != cout:
        raise ShapeError(f"{op} channel mismatch: input {xd.shape}, kernel {wd.shape}, bias {bd.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"{op} supports odd kernels only, got {kh}x{kw}")
    if h < 1 or width < 1:
        raise ShapeError(f"{op} needs an image of at least 1x1, got shape {xd.shape}")
    gather, scatter = _im2col_index(cin, h, width, kh, kw)
    cols = np.append(xd, 0.0).take(gather)  # im2col: one (cin, kh, kw) patch per pixel
    wmat = wd.reshape(cout, cin * kh * kw)
    out_mat = cols @ wmat.T
    out_mat += bd
    return out_mat.T.reshape(cout, h, width), cols, wmat, scatter


def _conv_backward(g, x, w, b, cols, wmat, scatter):
    """Push the (cout, h, w) output gradient g into x, w and b; col2im is one bincount scatter-add."""
    gm = g.reshape(wmat.shape[0], -1)
    _accum(b, gm.sum(axis=1))
    _accum(w, (gm @ cols).reshape(w.data.shape))
    if x.requires_grad:  # col2im adds in order: each cell's taps in (di, dj) order from 0.0
        dx = np.bincount(scatter, (wmat.T @ gm).ravel(), x.data.size + 1)
        _accum(x, dx[:-1].reshape(x.data.shape))


def conv2d(x, w, b):
    """Same-padding stride-1 convolution of (cin,h,w) with odd (cout,cin,kh,kw) kernels and a (cout,) bias."""
    out, *saved = _conv_forward(x.data, w.data, b.data, "conv2d")
    return _result(out, (x, w, b), lambda g: _conv_backward(g, x, w, b, *saved))


def conv_block(x, w, b):
    """relu(max_pool2d(conv2d(x, w, b))) to the bit, as one tape node; the conv output is checked before pooling."""
    if x.data.ndim == 3 and (x.data.shape[1] % 2 or x.data.shape[2] % 2):
        raise ShapeError(f"conv_block needs (cin, even h, even w), got shape {x.data.shape}")
    conv, *saved = _conv_forward(x.data, w.data, b.data, "conv_block")
    def bw(g):
        _conv_backward(_pool_backward(conv, pooled, g * (pooled > 0.0)), x, w, b, *saved)
    if not _all_finite(conv):
        _result(conv, (x, w, b), bw)  # raises the NumericsError that names conv_block
    pooled = _pool_forward(conv)
    return _result(np.maximum(pooled, 0.0), (x, w, b), bw)


def tensor_sum(x):
    """Sum of all elements, as a scalar tensor."""
    return _result(np.add.reduce(x.data, axis=None), (x,), lambda g: _accum(x, np.full(x.data.shape, g)))


# ---------------------------------------------------------------------------
# losses


def bce_loss(pred, target):
    """Summed binary cross entropy; predictions clamped to [1e-12, 1-1e-12]."""
    _same_shape(pred, target, "bce_loss")
    t = target.data
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValidationError("bce_loss targets must be exactly 0 or 1")
    p = np.clip(pred.data, PROB_EPS, 1.0 - PROB_EPS)
    out_data = -(t * np.log(p) + (1.0 - t) * np.log1p(-p)).sum()
    def bw(g):
        _accum(pred, g * (-(t / p) + (1.0 - t) / (1.0 - p)))
    return _result(out_data, (pred,), bw)


def mse_loss(a, b):
    """Summed squared difference (no mean)."""
    _same_shape(a, b, "mse_loss")
    d = a.data - b.data
    out_data = (d * d).sum()
    def bw(g):
        _accum(a, 2.0 * d * g)
        _accum(b, -2.0 * d * g)
    return _result(out_data, (a, b), bw)


# ---------------------------------------------------------------------------
# optimizers and parameter utilities


class Adam:
    """Adam (Kingma & Ba, 2015). Moments m and v are one flat array each, laid out over sorted(params) at the
    first step or `state`, and read through `state`; a later call over other names or shapes is a
    ValidationError. Nothing moves unless every gradient is finite; a parameter without one keeps its moments."""

    def __init__(self, lr=1e-3):
        if isinstance(lr, bool) or not (isinstance(lr, numbers.Real) and 0 < lr < math.inf):
            raise ValidationError(f"learning rate must be positive and finite, got {lr!r}")
        self.lr = lr
        self.t = 0
        self._layout = self._bounds = self._m = self._v = None  # set at the first step

    def state(self, params):
        """The flat m and v over sorted(params), laid out if need be, and t; write into them and set t to resume."""
        layout = [(name, params[name].data.shape) for name in sorted(params)]
        if self._layout is None:  # [(name, shape)] over sorted(params), each one's (start, stop), flat m and v
            ends = list(itertools.accumulate((math.prod(shape) for _, shape in layout), initial=0))
            self._layout, self._bounds = layout, list(zip(ends, ends[1:]))
            self._m, self._v = np.zeros(ends[-1]), np.zeros(ends[-1])
        elif layout != self._layout:
            raise ValidationError("Adam's state was laid out at its first step for other parameter names or shapes")
        return self._m, self._v, self.t

    def step(self, params):
        self.state(params)
        runs = []  # [(name, start, stop)] per run of consecutive parameters with a gradient
        for (name, shape), (lo, hi) in zip(self._layout, self._bounds):
            if (g := params[name].grad) is not None:
                if np.shape(g) != shape:
                    raise ShapeError(f"gradient of '{name}' has shape {np.shape(g)}, its parameter {shape}")
                if not runs or runs[-1][-1][2] != lo:
                    runs.append([])
                runs[-1].append((name, lo, hi))
        g = np.concatenate([params[n].grad for run in runs for n, _, _ in run], axis=None) if runs else np.zeros(0)
        if not np.isfinite(g).all():  # name the first parameter at fault, before any has moved
            bad = next(name for run in runs for name, _, _ in run if not np.isfinite(params[name].grad).all())
            raise NumericsError(f"non-finite gradient for parameter '{bad}'")
        self.t += 1
        b1c, b2c = 1.0 - ADAM_BETA1 ** self.t, 1.0 - ADAM_BETA2 ** self.t
        for run in runs:
            lo, hi = run[0][1], run[-1][2]
            m, v, gr, g = self._m[lo:hi], self._v[lo:hi], g[:hi - lo], g[hi - lo:]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * gr
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * gr * gr
            update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
            for name, a, b in run:
                params[name].data -= update[a - lo:b - lo].reshape(params[name].data.shape)


def zero_grads(params):
    for p in params.values():
        p.grad = None


def clip_global_norm(params, max_norm):
    """Scale all gradients so their joint L2 norm is at most max_norm, none if one is not finite; return the norm."""
    if isinstance(max_norm, bool) or not (isinstance(max_norm, numbers.Real) and max_norm > 0):
        raise ValidationError(f"max_norm must be positive, got {max_norm!r}")
    grads = [p.grad for p in params.values() if p.grad is not None]
    total = 0.0
    with np.errstate(over="ignore"):  # finite squares may overflow: then rescale by the largest |g|
        for g in grads:
            total += float((g * g).sum())
    top = 1.0
    if total == math.inf:
        if not all(np.isfinite(g).all() for g in grads):
            return total  # left unscaled: Adam.step names the parameter whose gradient is not finite
        top = max(float(np.abs(g).max(initial=0.0)) for g in grads)
        total = sum(float(((g / top) ** 2).sum()) for g in grads)
    root = math.sqrt(total)
    norm = top * root  # inf only when the norm itself exceeds float64; the factor below stays finite
    if norm > max_norm:
        factor = max_norm / top / root
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


def seeded_uniform(name, shape, fan_in, seed):
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init, seeded per tensor name.

    Keyed by (seed, sha256(name)) so initialization does not depend on
    creation order or on which other tensors a configuration instantiates.
    """
    if not isinstance(name, str):
        raise ValidationError(f"tensor name must be a string, got {name!r}")
    shape = _shape(shape, "shape dim")
    fan_in = _index(fan_in, math.inf, "fan_in", low=1)
    seed = _index(seed, math.inf, "seed")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, key))))
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
