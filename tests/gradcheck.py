"""Central finite-difference gradient checking used across the suite.

The numeric side recomputes the forward pass with no tape active, so it is
independent of the backward rules it checks.
"""

import numpy as np

from mvh.autodiff import Tape


def max_rel_err(analytic, numeric, floor=1e-2):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def check_grads(build, params, rel_tol=1e-4, eps=1e-5, sample=None, rng=None):
    """Compare tape gradients of build() against central differences.

    build: callable returning the scalar loss Tensor (fresh forward each call).
    params: {name: Tensor} checked tensors, of any writable layout.
    sample: optionally cap the number of elements checked per tensor.
    """
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}
    for p in params.values():
        p.grad = None

    failures = []
    for name, p in params.items():
        # indices into p.data itself: reshape(-1) copies a transposed or F-ordered leaf, and a write into the copy
        # would leave the leaf unperturbed
        idxs = list(np.ndindex(p.data.shape))
        if sample is not None and len(idxs) > sample:
            rng = rng or np.random.default_rng(0)
            idxs = [idxs[k] for k in sorted(rng.choice(len(idxs), size=sample, replace=False))]
        for i in idxs:
            old = p.data[i]
            p.data[i] = old + eps
            fp = build().item()
            p.data[i] = old - eps
            fm = build().item()
            p.data[i] = old
            n = (fp - fm) / (2.0 * eps)
            a = analytic[name][i]
            err = max_rel_err(np.array(a), np.array(n))
            if err >= rel_tol:
                failures.append(f"{name}[{i}]: analytic={a:.8g} numeric={n:.8g} rel_err={err:.3g}")
    assert not failures, "gradient mismatches:\n" + "\n".join(failures[:20])
