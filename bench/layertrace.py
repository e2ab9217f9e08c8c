"""Per-layer attribution timed from outside the program.

`LayerTrace` replaces the public functions of each `mvh` module with
wrappers that count calls and add up wall time, and puts the originals back
on exit. Callers inside the package look these functions up as module
attributes (`ad.matmul`, `visual_attend`, `bleu_n`, ...), so nested calls
are attributed too. Nothing in the package is edited; outside a `with`
block the program runs unwrapped.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from mvh import attention, autodiff, corpus, encoder, metrics

# autodiff ops reported as autodiff.op.<name>
OPS = ("matmul", "add", "add_row", "mul", "scale", "tanh", "sigmoid", "softmax", "reshape",
       "transpose", "concat", "vstack", "mean_pool", "tensor_sum", "bce_loss", "mse_loss")


class LayerTrace:
    """Busy seconds and call counts per span name, summed over traced calls."""

    def __init__(self, channels):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.tape_nodes = 0
        # conv2d spans are keyed by the kernel shape, which names the layer
        self._conv_names = {}
        cin = 1
        for i, cout in enumerate(channels):
            self._conv_names[(cout, cin, 3, 3)] = f"encoder.conv{i}"
            cin = cout
        self._saved = []

    def _targets(self):
        """(owner, attribute, span name or key function of the call's args)."""
        conv_name = lambda args: self._conv_names[tuple(args[1].data.shape)]
        fuse_name = lambda args: f"attention.fuse.{args[0]}"

        def backward_name(args):
            self.tape_nodes += len(args[0])
            return "autodiff.backward"

        yield from ((autodiff, op, f"autodiff.op.{op}") for op in OPS)
        yield from (
            (autodiff, "conv2d", conv_name),
            (autodiff, "relu", "encoder.relu"),
            (autodiff, "max_pool2d", "encoder.pool"),
            (autodiff, "clip_global_norm", "autodiff.clip"),
            (autodiff.Tape, "backward", backward_name),
            (autodiff.Adam, "step", "autodiff.adam"),
            (encoder, "encode", "encoder.encode"),
            (encoder, "encoder_loss", "encoder.loss"),
            (encoder, "fuse_view_predictions", "encoder.fuse_views"),
            (attention, "fuse", fuse_name),
            (attention, "visual_attend", "attention.visual_attend"),
            (attention, "concept_attend", "attention.concept_attend"),
            (metrics, "bleu_n", "metrics.bleu_n"),
            (metrics, "rouge_l", "metrics.rouge_l"),
            (metrics, "meteor_lite", "metrics.meteor_lite"),
            (metrics, "avg_auc", "metrics.avg_auc"),
            (metrics, "score_generation", "metrics.score_generation"),
            (corpus, "generate_dataset", "corpus.generate_dataset"),
            (corpus, "split_dataset", "corpus.split_dataset"),
            (corpus, "mine_concepts", "corpus.mine_concepts"),
        )

    def _wrap(self, fn, name):
        busy, calls = self.busy, self.calls

        def wrapper(*args, **kwargs):
            key = name(args) if callable(name) else name
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[key] += perf_counter() - t0
                calls[key] += 1
        return wrapper

    def __enter__(self):
        if self._saved:
            raise RuntimeError("LayerTrace is already installed")
        for owner, attr, name in self._targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        return self

    def __exit__(self, exc_type, exc, tb):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False
