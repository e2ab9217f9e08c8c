import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvh.autodiff as ad
from gradcheck import check_grads
from mvh.attention import FUSION_SCHEMES, AttentionParams, concept_attend, fuse, visual_attend
from mvh.autodiff import Tape, Tensor, seeded_uniform
from mvh.encoder import EncoderConfig, EncoderOutput, init_encoder_params
from mvh.errors import ShapeError, ValidationError


def make_params(d_v=3, d_h_sent=4, d_h_word=4, d_a=5, d_c=3, d_ac=5, seed=0):
    return AttentionParams.init(d_v, d_h_sent, d_h_word, d_a, d_c, d_ac, seed)


# (name, shape, fan_in) of every parameter, in dict order, written out independently of the inits' spec tables,
# for EncoderConfig(channels=(8, 16, 32), n_concepts=15) and AttentionParams.init(32, 16, 24, 8, 12, 20, seed).
_ENCODER_TABLE = [
    ("enc.conv0.w", (8, 1, 3, 3), 9), ("enc.conv0.b", (8,), 9),
    ("enc.conv1.w", (16, 8, 3, 3), 72), ("enc.conv1.b", (16,), 72),
    ("enc.conv2.w", (32, 16, 3, 3), 144), ("enc.conv2.b", (32,), 144),
    ("enc.obs.w", (14, 32), 32), ("enc.obs.b", (14,), 32),
    ("enc.concept.w", (15, 32), 32), ("enc.concept.b", (15,), 32),
]
_ATTENTION_TABLE = [
    ("att.visual.w_v", (8, 32), 32), ("att.visual.w_s", (8, 16), 16), ("att.visual.w_a", (1, 8), 8),
    ("att.concept.w_c", (20, 12), 12), ("att.concept.w_w", (20, 24), 24), ("att.concept.w_ac", (1, 20), 20),
    ("att.late.w_late", (32, 64), 64),
]


@pytest.mark.parametrize("seed", [0, 13301])
def test_parameter_tables_keep_names_order_shapes_and_init(seed):
    encoder = init_encoder_params(EncoderConfig(channels=(8, 16, 32), n_concepts=15), seed)
    attention = AttentionParams.init(32, 16, 24, 8, 12, 20, seed).named()  # six distinct dims
    for params, table in ((encoder, _ENCODER_TABLE), (attention, _ATTENTION_TABLE)):
        assert list(params) == [name for name, _, _ in table]  # clip_global_norm sums in this order
        for name, shape, fan_in in table:
            assert params[name].data.tobytes() == seeded_uniform(name, shape, fan_in, seed).data.tobytes(), name
            assert params[name].data.shape == shape and params[name].requires_grad, name


def scalar_oracle_visual(v, h, p):
    """Per-region python-loop evaluation of the attention math."""
    k, d_v = v.shape
    scores = []
    for i in range(k):
        inner = p.w_v.data @ v[i] + p.w_s.data @ h
        scores.append(float(p.w_a.data[0] @ np.tanh(inner)))
    exps = [math.exp(s - max(scores)) for s in scores]
    alpha = [e / sum(exps) for e in exps]
    v_att = sum(alpha[i] * v[i] for i in range(k))
    return np.array(v_att), np.array(alpha)


def scalar_oracle_concept(c, probs, h, p):
    n, d_c = c.shape
    scores = []
    for i in range(n):
        inner = p.w_c.data @ (probs[i] * c[i]) + p.w_w.data @ h
        scores.append(float(p.w_ac.data[0] @ np.tanh(inner)))
    exps = [math.exp(s - max(scores)) for s in scores]
    alpha = [e / sum(exps) for e in exps]
    c_att = sum(alpha[i] * c[i] for i in range(n))
    return np.array(c_att), np.array(alpha)


# visual attention -------------------------------------------------------------

def test_visual_attend_single_region():
    p = make_params()
    v = Tensor(np.array([[1.0, 2.0, 3.0]]))
    v_att, alpha = visual_attend(v, Tensor(np.zeros(4)), p)
    np.testing.assert_array_equal(alpha.data, [1.0])
    np.testing.assert_allclose(v_att.data, [1.0, 2.0, 3.0])


def test_visual_attend_zero_readout_is_uniform_mean():
    p = make_params()
    p.w_a.data[:] = 0.0
    rng = np.random.default_rng(0)
    v = rng.normal(size=(6, 3))
    v_att, alpha = visual_attend(Tensor(v), Tensor(rng.normal(size=4)), p)
    np.testing.assert_allclose(alpha.data, np.full(6, 1 / 6), atol=1e-12)
    np.testing.assert_allclose(v_att.data, v.mean(axis=0), atol=1e-12)


def test_visual_attend_matches_scalar_oracle():
    p = make_params()
    rng = np.random.default_rng(1)
    v = rng.normal(size=(5, 3))
    h = rng.normal(size=4)
    v_att, alpha = visual_attend(Tensor(v), Tensor(h), p)
    ov, oa = scalar_oracle_visual(v, h, p)
    np.testing.assert_allclose(v_att.data, ov, atol=1e-10)
    np.testing.assert_allclose(alpha.data, oa, atol=1e-10)


def test_visual_attend_empty_bank_rejected():
    p = make_params()
    with pytest.raises(ShapeError):
        visual_attend(Tensor(np.zeros((0, 3))), Tensor(np.zeros(4)), p)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_visual_attention_simplex_and_convex_hull(k, seed):
    p = make_params()
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(k, 3))
    v_att, alpha = visual_attend(Tensor(v), Tensor(rng.normal(size=4)), p)
    assert np.all(alpha.data >= 0)
    assert abs(alpha.data.sum() - 1.0) <= 1e-12
    for d in range(3):
        assert v[:, d].min() - 1e-12 <= v_att.data[d] <= v[:, d].max() + 1e-12


def test_permuting_regions_permutes_alpha_and_preserves_v_att():
    p = make_params()
    rng = np.random.default_rng(3)
    v = rng.normal(size=(5, 3))
    h = rng.normal(size=4)
    perm = np.array([3, 0, 4, 1, 2])
    v_att1, alpha1 = visual_attend(Tensor(v), Tensor(h), p)
    v_att2, alpha2 = visual_attend(Tensor(v[perm]), Tensor(h), p)
    np.testing.assert_allclose(alpha2.data, alpha1.data[perm], atol=1e-12)
    np.testing.assert_allclose(v_att2.data, v_att1.data, atol=1e-12)


def test_scaling_readout_preserves_argmax_region():
    p = make_params()
    rng = np.random.default_rng(4)
    v = rng.normal(size=(6, 3))
    h = rng.normal(size=4)
    _, alpha1 = visual_attend(Tensor(v), Tensor(h), p)
    p.w_a.data *= 7.5
    _, alpha2 = visual_attend(Tensor(v), Tensor(h), p)
    assert alpha1.data.argmax() == alpha2.data.argmax()


# concept attention --------------------------------------------------------------

def test_concept_attend_single_concept():
    p = make_params()
    c = Tensor(np.array([[0.5, -0.5, 1.0]]))
    c_att, alpha = concept_attend(c, Tensor(np.array([0.7])), Tensor(np.zeros(4)), p)
    np.testing.assert_array_equal(alpha.data, [1.0])
    np.testing.assert_allclose(c_att.data, [0.5, -0.5, 1.0])


def test_concept_attend_uniform_when_readout_zero_and_probs_equal():
    p = make_params()
    p.w_ac.data[:] = 0.0
    rng = np.random.default_rng(5)
    c = rng.normal(size=(4, 3))
    c_att, alpha = concept_attend(Tensor(c), Tensor(np.full(4, 0.5)), Tensor(rng.normal(size=4)), p)
    np.testing.assert_allclose(alpha.data, np.full(4, 0.25), atol=1e-12)
    np.testing.assert_allclose(c_att.data, c.mean(axis=0), atol=1e-12)


def test_concept_attend_matches_scalar_oracle():
    p = make_params()
    rng = np.random.default_rng(6)
    c = rng.normal(size=(5, 3))
    probs = rng.uniform(0.1, 0.9, size=5)
    h = rng.normal(size=4)
    c_att, alpha = concept_attend(Tensor(c), Tensor(probs), Tensor(h), p)
    oc, oa = scalar_oracle_concept(c, probs, h, p)
    np.testing.assert_allclose(c_att.data, oc, atol=1e-10)
    np.testing.assert_allclose(alpha.data, oa, atol=1e-10)


def test_concept_attend_no_concepts_is_shape_error():
    p = make_params()
    with pytest.raises(ShapeError):
        concept_attend(Tensor(np.zeros((0, 3))), Tensor(np.zeros(0)), Tensor(np.zeros(4)), p)


# fusion ------------------------------------------------------------------------

def _enc_output(local):
    local_t = Tensor(np.asarray(local, dtype=np.float64))
    return EncoderOutput(
        local_features=local_t,
        global_feature=ad.mean_pool(local_t),
        obs_probs=Tensor(np.full(14, 0.5)),
        concept_probs=Tensor(np.array([0.5])),
    )


def test_fuse_concat_is_feature_concatenation():
    front = _enc_output([[1.0, 2.0]])
    lat = _enc_output([[3.0, 4.0]])
    p = make_params(d_v=2)
    ctx = fuse("concat", front, lat, Tensor(np.zeros(4)), p)
    np.testing.assert_array_equal(ctx.data, [1.0, 2.0, 3.0, 4.0])


def test_fuse_early_identical_views_equals_duplicated_bank():
    rng = np.random.default_rng(7)
    local = rng.normal(size=(4, 3))
    h = Tensor(rng.normal(size=4))
    p = make_params()
    out = _enc_output(local)
    ctx = fuse("early", out, _enc_output(local), h, p)
    dup, _ = visual_attend(Tensor(np.vstack([local, local])), h, p)
    np.testing.assert_allclose(ctx.data, dup.data, atol=1e-12)


@pytest.mark.parametrize("grad", [False, True], ids=["frozen_views", "trained_views"])
def test_early_fusion_steps_on_one_sample_record_one_bank_projection(grad):
    # S sentence steps on one pair of views stack their bank once and project it once: S + 1 nodes, and the
    # stacking's own node when the views take a gradient; with a bank per step, 2S (or 3S)
    rng = np.random.default_rng(12)
    front, lat = (Tensor(rng.normal(size=(4, 3)), requires_grad=grad) for _ in range(2))
    views = [EncoderOutput(local, None, None, None) for local in (front, lat)]
    p = make_params()
    for steps in (1, 4):
        queries = [Tensor(rng.normal(size=4)) for _ in range(steps)]
        with Tape() as tape:
            contexts = [fuse("early", *views, h, p) for h in queries]
        banks = [fn for _, fn in tape._nodes if fn.__qualname__ == "attend.<locals>.bw_bank"]
        assert len(banks) == 1 and len(tape) == steps + 1 + grad
        for ctx, h in zip(contexts, queries):  # the same bits as an untaped step, which stacks its own bank
            assert ctx.data.tobytes() == fuse("early", *views, h, p).data.tobytes()


def test_fuse_late_projects_both_attended_views():
    rng = np.random.default_rng(8)
    front, lat = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    h = rng.normal(size=4)
    p = make_params()
    ctx = fuse("late", _enc_output(front), _enc_output(lat), Tensor(h), p)
    v_f, _ = scalar_oracle_visual(front, h, p)
    v_l, _ = scalar_oracle_visual(lat, h, p)
    np.testing.assert_allclose(ctx.data, p.w_late.data @ np.concatenate([v_f, v_l]), atol=1e-12)


def test_fuse_unknown_scheme_rejected():
    p = make_params()
    out = _enc_output(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        fuse("middle", out, out, Tensor(np.zeros(4)), p)
    for scheme in FUSION_SCHEMES:  # refused before any attention work, under every scheme
        with Tape() as tape, pytest.raises(ValidationError, match="late_combine 'median'"):
            fuse(scheme, out, out, Tensor(np.zeros(4)), p, late_combine="median")
        assert len(tape) == 0


# gradients through attention -----------------------------------------------------

def test_attention_tape_nodes_per_call():
    # T steps on one key bank record T + 1 nodes: one per step, and the bank's projection once
    p = make_params()
    rng = np.random.default_rng(11)
    v = Tensor(rng.normal(size=(4, 3)))
    c = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    probs = Tensor(rng.uniform(0.2, 0.8, size=4), requires_grad=True)
    for steps in (1, 3):
        with Tape() as visual:
            alphas = [visual_attend(v, Tensor(rng.normal(size=4)), p)[1] for _ in range(steps)]
        with Tape() as concept:
            alphas += [concept_attend(c, probs, Tensor(rng.normal(size=4)), p)[1] for _ in range(steps)]
        assert (len(visual), len(concept)) == (steps + 1, steps + 1)
        assert not any(alpha.requires_grad for alpha in alphas)


def test_attention_gradients_match_finite_differences():
    p = make_params()
    rng = np.random.default_rng(9)
    v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    h = Tensor(rng.normal(size=4), requires_grad=True)
    w = Tensor(rng.normal(size=3))

    def build():
        v_att, _ = visual_attend(v, h, p)
        return ad.tensor_sum(ad.mul(v_att, w))

    check_grads(build, {"v": v, "h": h, **p.named()}, rel_tol=1e-4)


def test_concept_attention_gradients_match_finite_differences():
    p = make_params()
    rng = np.random.default_rng(10)
    c = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    probs = Tensor(rng.uniform(0.2, 0.8, size=4), requires_grad=True)
    h = Tensor(rng.normal(size=4), requires_grad=True)
    w = Tensor(rng.normal(size=3))

    def build():
        c_att, _ = concept_attend(c, probs, h, p)
        return ad.tensor_sum(ad.mul(c_att, w))

    check_grads(build, {"c": c, "probs": probs, "h": h, **p.named()}, rel_tol=1e-4)
