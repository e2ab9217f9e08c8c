"""Multi-view fusion schemes plus the visual-sentence and concept-word attentions.

Visual attention scores each local region i as W_a . tanh(W_v v_i + W_s h_prev),
softmaxes over regions, and returns the attention-weighted region sum. Concept
attention does the same over concept embeddings, with each embedding row
scaled by its predicted concept probability before projection; the context
sums the unscaled rows. `fuse` builds a sentence step's context from the two
views by one of three schemes: concat, early or late (see its docstring).
Both attentions are `ad.attend` steps; its docstring says how steps on one key
bank share a tape node.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor, seeded_uniform
from .errors import ValidationError

FUSION_SCHEMES = ("concat", "early", "late")
# Field -> parameter name, in `named`'s order (clip_global_norm sums gradients in dict order).
_NAMES = {"w_v": "att.visual.w_v", "w_s": "att.visual.w_s", "w_a": "att.visual.w_a",
          "w_c": "att.concept.w_c", "w_w": "att.concept.w_w", "w_ac": "att.concept.w_ac",
          "w_late": "att.late.w_late"}


@dataclass
class AttentionParams:
    """Learned attention weights; shapes follow the config dims."""

    w_v: Tensor     # (d_a, d_v) visual projection
    w_s: Tensor     # (d_a, d_h_sent) sentence-state projection
    w_a: Tensor     # (1, d_a) visual score read-out
    w_c: Tensor     # (d_ac, d_c) concept projection
    w_w: Tensor     # (d_ac, d_h_word) word-state projection
    w_ac: Tensor    # (1, d_ac) concept score read-out
    w_late: Tensor  # (d_v, 2*d_v) late-fusion combine projection

    @classmethod
    def init(cls, d_v, d_h_sent, d_h_word, d_a, d_c, d_ac, seed):
        """Seeded weights; each one's fan-in is its shape[1], the width of the input it projects."""
        shapes = {"w_v": (d_a, d_v), "w_s": (d_a, d_h_sent), "w_a": (1, d_a), "w_c": (d_ac, d_c),
                  "w_w": (d_ac, d_h_word), "w_ac": (1, d_ac), "w_late": (d_v, 2 * d_v)}
        return cls(**{f: seeded_uniform(name, shapes[f], shapes[f][1], seed) for f, name in _NAMES.items()})

    def named(self):
        return {name: getattr(self, f) for f, name in _NAMES.items()}


def visual_attend(v, h_prev, params):
    """Attend over the k local region vectors given the previous sentence state.

    v: (k, d_v) Tensor, h_prev: (d_h_sent,) Tensor.
    Returns (v_att (d_v,), alpha (k,)).
    """
    return ad.attend(v, h_prev, params.w_v, params.w_s, params.w_a, None)


def concept_attend(c, concept_probs, h_w_prev, params):
    """Attend over concept embeddings scaled by their predicted probabilities.

    c: (p, d_c) Tensor, concept_probs: (p,) Tensor, h_w_prev: (d_h_word,) Tensor.
    Returns (c_att (d_c,), alpha_c (p,)).
    """
    return ad.attend(c, h_w_prev, params.w_c, params.w_w, params.w_ac, concept_probs)


def fuse(scheme, front, lat, h_prev, params, late_combine="project"):
    """Per-sentence-step context vector from the two encoder outputs.

    concat: both global features stitched together (2*d_v, no attention).
    early:  one attention pass over the stacked 2k-region bank (d_v), stacked once per pair of views on an
            active tape, so that its sentence steps share the bank's projection node.
    late:   per-view attention, then the two attended vectors, stacked, projected through w_late (d_v).
    """
    if late_combine != "project":  # a one-value knob bench/workloads.py still passes; ROADMAP item 4 drops it
        raise ValidationError(f"unknown late_combine {late_combine!r} (expected 'project')")
    if scheme == "concat":
        return ad.concat([front.global_feature, lat.global_feature])
    if scheme == "early":
        tape, views = ad._ACTIVE_TAPE.get(), (front.local_features, lat.local_features)
        stacks = {} if tape is None else tape._stacks
        if views not in stacks:
            stacks[views] = ad.concat(views)
        v_att, _ = visual_attend(stacks[views], h_prev, params)
        return v_att
    if scheme == "late":
        va_f, _ = visual_attend(front.local_features, h_prev, params)
        va_l, _ = visual_attend(lat.local_features, h_prev, params)
        return ad.matmul(params.w_late, ad.concat([va_f, va_l]))
    raise ValidationError(f"unknown fusion scheme '{scheme}' (expected one of {FUSION_SCHEMES})")

