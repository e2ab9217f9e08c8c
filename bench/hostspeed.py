"""How fast the host runs right now, from a fixed reference pass.

On a shared host the speed of a core drifts by 20% or more over seconds to
minutes, and process CPU time drifts with wall time, so it cannot be
subtracted out. The benchmark therefore runs this reference pass every
tenth of a second while it times, and scales each timing window by how long
the passes in and around it took against `REF_SECONDS`: the figures it
reports are those of a host on which one pass takes `REF_SECONDS`.

The pass is plain numpy and Python, independent of the `mvh` package, so a
change to the program never changes it. Different kinds of work slow by
different factors when the host is busy, so the pass mixes the three kinds
the workloads do: a small 3x3 convolution forward and backward (the
encoder), a chain of tiny numpy ops whose gradients are closures (the
autodiff tape), and n-gram counting and a longest-common-subsequence table
over tokens (the metrics). On a shared 2-core VM the mix followed all three
workloads better than any one part of it did.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REF_SECONDS = 0.0025  # one pass on the nominal host
REPEATS = 3           # each part of a pass is timed this many times; the median counts

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((8, 32, 32))
_W = _rng.standard_normal((16, 72))
_A = _rng.standard_normal((16, 16))
_WORDS = ("the heart size is normal no focal consolidation pleural effusion or pneumothorax "
          "lungs are clear mild cardiomegaly there is no acute cardiopulmonary abnormality").split()


def _conv_forward_backward():
    xp = np.pad(_X, ((0, 0), (1, 1), (1, 1)))
    cols = sliding_window_view(xp, (3, 3), axis=(1, 2)).transpose(1, 2, 0, 3, 4).reshape(1024, 72)
    g = np.maximum(cols @ _W.T, 0.0)                       # (1024, 16)
    pooled = g.T.reshape(16, 16, 2, 16, 2).max(axis=(2, 4))
    dw = g.T @ cols
    dcols = (g @ _W).reshape(32, 32, 8, 3, 3)
    dxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + 32, dj:dj + 32] += dcols[:, :, :, di, dj].transpose(2, 0, 1)
    return float(pooled[0, 0, 0] + dw[0, 0] + dxp[0, 1, 1])


def _tiny_op_chain():
    nodes, x = [], _A[0]
    for _ in range(40):
        y = np.tanh(_A @ x + 0.1)
        nodes.append(lambda g, y=y: g * (1.0 - y * y))
        x = y
    g = np.ones(16)
    for backward in reversed(nodes):
        g = backward(g)
    return float(g[0])


def _token_scoring():
    tokens = _WORDS * 2
    counts = {}
    for n in range(1, 5):
        for i in range(len(tokens) - n + 1):
            key = tuple(tokens[i:i + n])
            counts[key] = counts.get(key, 0) + 1
    prev = [0] * (len(_WORDS) + 1)
    for a in _WORDS:
        row = [0]
        for j, b in enumerate(reversed(_WORDS)):
            row.append(prev[j] + 1 if a == b else max(prev[j + 1], row[j]))
        prev = row
    return len(counts) + prev[-1]


_PARTS = (_conv_forward_backward, _tiny_op_chain, _token_scoring)


def slowdown():
    """Time of one reference pass over `REF_SECONDS`: 1.0 on the nominal host,
    above 1 on a slower one."""
    total = 0.0
    for part in _PARTS:
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            part()
            times.append(perf_counter() - t0)
        total += statistics.median(times)
    return total / REF_SECONDS
