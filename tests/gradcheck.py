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
    params: {name: Tensor} checked tensors.
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
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        idxs = range(flat.size)
        if sample is not None and flat.size > sample:
            rng = rng or np.random.default_rng(0)
            idxs = sorted(rng.choice(flat.size, size=sample, replace=False))
        for i in idxs:
            old = flat[i]
            flat[i] = old + eps
            fp = build().item()
            flat[i] = old - eps
            fm = build().item()
            flat[i] = old
            n = (fp - fm) / (2.0 * eps)
            err = max_rel_err(np.array(a_flat[i]), np.array(n))
            if err >= rel_tol:
                failures.append(f"{name}[{i}]: analytic={a_flat[i]:.8g} numeric={n:.8g} rel_err={err:.3g}")
    assert not failures, "gradient mismatches:\n" + "\n".join(failures[:20])
