import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvh.autodiff as ad
from gradcheck import check_grads
from mvh.autodiff import Tensor
from mvh.corpus import N_OBS, ConceptSet, generate_dataset
from mvh.encoder import (
    EncoderConfig,
    encode,
    encoder_loss,
    encoder_loss_parts,
    fuse_view_predictions,
    init_encoder_params,
)
from mvh.errors import NumericsError, ShapeError, ValidationError
from mvh.train import EncoderTrainer

TINY = EncoderConfig(image_size=8, channels=(2, 3), n_concepts=2)


def tiny_params(seed=0):
    return init_encoder_params(TINY, seed)


def test_config_geometry():
    cfg = EncoderConfig()
    assert cfg.k == 16 and cfg.map_side == 4 and cfg.d_v == 32
    assert TINY.k == 4 and TINY.d_v == 3
    with pytest.raises(ValidationError):
        EncoderConfig(image_size=30)


@pytest.mark.parametrize("kwargs, message", [
    pytest.param({"channels": ()}, "at least one conv layer", id="no_channels"),
    pytest.param({"channels": (8, -16, 32)}, "channel count -16", id="negative_channels"),
    pytest.param({"channels": (0, 16, 32)}, "channel count 0", id="zero_channels"),
    pytest.param({"channels": (8, 16.5, 32)}, "channel count must be an integer", id="fractional_channels"),
    pytest.param({"n_concepts": -1}, "n_concepts -1", id="negative_concepts"),
    pytest.param({"n_concepts": 0}, "n_concepts 0", id="no_concepts"),
])
def test_config_with_unusable_sizes_is_validation_error(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        EncoderConfig(**kwargs)


def test_zero_heads_give_half_probabilities():
    params = tiny_params()
    params["enc.obs.w"].data[:] = 0.0
    params["enc.obs.b"].data[:] = 0.0
    out = encode(Tensor(np.zeros((1, 8, 8))), params, TINY)
    np.testing.assert_allclose(out.obs_probs.data, np.full(N_OBS, 0.5), atol=1e-15)


def test_output_shapes_and_global_is_mean_of_locals():
    params = tiny_params()
    rng = np.random.default_rng(0)
    out = encode(Tensor(rng.uniform(size=(1, 8, 8))), params, TINY)
    assert out.local_features.data.shape == (TINY.k, TINY.d_v)
    assert out.global_feature.data.shape == (TINY.d_v,)
    np.testing.assert_allclose(out.global_feature.data,
                               out.local_features.data.mean(axis=0), atol=1e-9)
    assert np.all(out.obs_probs.data > 0) and np.all(out.obs_probs.data < 1)


def test_wrong_image_size_is_shape_error():
    with pytest.raises(ShapeError):
        encode(Tensor(np.zeros((1, 6, 6))), tiny_params(), TINY)


# the untaped path ------------------------------------------------------------------------

def _encode(image, params, config, taped):
    """encode's outputs on the taped path, under a tape, or the untaped one."""
    if not taped:
        return encode(image, params, config)
    with ad.Tape():
        return encode(image, params, config)


@pytest.mark.parametrize("config", [EncoderConfig(), EncoderConfig(image_size=8, channels=(4,), n_concepts=3), TINY],
                         ids=["default", "one_layer", "tiny"])
@pytest.mark.parametrize("seed", [0, 1, 13301])
def test_an_untaped_encode_equals_a_taped_one_bit_for_bit(config, seed):
    params = init_encoder_params(config, seed)
    size = config.image_size
    image = Tensor(np.random.default_rng(seed).uniform(size=(1, size, size)))
    untaped, taped = _encode(image, params, config, False), _encode(image, params, config, True)
    for name, out in vars(untaped).items():
        ref = getattr(taped, name).data
        assert out.data.shape == ref.shape and out.data.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("shapes", [
    pytest.param({"enc.conv0.w": (2, 2, 3, 3)}, id="conv_kernel_channels"),
    pytest.param({"enc.conv1.w": (3, 2, 2, 2)}, id="even_conv_kernel"),
    pytest.param({"enc.conv1.b": (4,)}, id="conv_bias"),
    pytest.param({"enc.conv1.w": (4, 2, 3, 3), "enc.conv1.b": (4,)}, id="last_conv_width"),
    pytest.param({"enc.obs.w": (N_OBS, 4)}, id="head_weight"),
    pytest.param({"enc.concept.w": (2, 3, 1)}, id="head_weight_3d"),
    pytest.param({"enc.obs.b": (N_OBS - 1,)}, id="head_bias"),
])
@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_a_wrong_shaped_parameter_is_shape_error_on_both_paths(shapes, taped):
    params = tiny_params()
    params.update({name: Tensor(np.zeros(shape), requires_grad=True) for name, shape in shapes.items()})
    with pytest.raises(ShapeError):
        _encode(Tensor(np.zeros((1, 8, 8))), params, TINY, taped)


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_a_non_finite_conv_weight_is_numerics_error_naming_conv_block_on_both_paths(taped):
    params = tiny_params()
    params["enc.conv1.w"].data[0, 0, 1, 1] = math.nan
    with pytest.raises(NumericsError, match="^conv_block produced non-finite values"):
        _encode(Tensor(np.full((1, 8, 8), 0.5)), params, TINY, taped)


@pytest.mark.parametrize("values, op", [
    # every local feature about 1e9, so the head sums 32 products of about 1e309
    pytest.param({"enc.conv2.b": 1e9, "enc.obs.w": 1e300}, "matmul", id="head_weight"),
    # every local feature about 1e308, so the mean sums 16 of them
    pytest.param({"enc.conv2.b": 1e308}, "mean_pool", id="feature_sum"),
])
def test_an_overflow_in_an_untaped_encode_is_numerics_error_not_a_warning(values, op):
    params = init_encoder_params(EncoderConfig(), 3)
    for name, value in values.items():
        params[name].data[:] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning would be raised in place of the NumericsError
        with pytest.raises(NumericsError, match=f"^{op} produced non-finite values$"):
            encode(Tensor(np.full((1, 32, 32), 0.5)), params, EncoderConfig())


# loss ---------------------------------------------------------------------------

def _outputs_for_probs(probs):
    t = Tensor(np.asarray(probs, dtype=np.float64))
    from mvh.encoder import EncoderOutput
    return EncoderOutput(None, None, t, None)


def test_identical_views_zero_cvc():
    labels = Tensor(np.ones(3))
    out = _outputs_for_probs([0.7, 0.6, 0.5])
    _, _, cvc = encoder_loss_parts(out, _outputs_for_probs([0.7, 0.6, 0.5]), labels)
    assert cvc.item() == 0.0


def test_loss_boundary_case_dominated_by_wrong_view():
    near_one = _outputs_for_probs(np.full(N_OBS, 1 - 1e-9))
    near_zero = _outputs_for_probs(np.full(N_OBS, 1e-9))
    labels = Tensor(np.ones(N_OBS))
    lam = 2.0
    loss = encoder_loss(near_one, near_zero, labels, lam).item()
    bce_lat = -N_OBS * math.log(1e-9)
    assert loss == pytest.approx(bce_lat + lam * N_OBS, rel=1e-6)


def test_loss_matches_scalar_loop_oracle():
    rng = np.random.default_rng(1)
    pf = rng.uniform(0.05, 0.95, size=N_OBS)
    pl = rng.uniform(0.05, 0.95, size=N_OBS)
    y = rng.integers(0, 2, size=N_OBS).astype(float)
    lam = 0.37
    expected = 0.0
    for j in range(N_OBS):
        expected -= y[j] * math.log(pf[j]) + (1 - y[j]) * math.log(1 - pf[j])
        expected -= y[j] * math.log(pl[j]) + (1 - y[j]) * math.log(1 - pl[j])
        expected += lam * (pf[j] - pl[j]) ** 2
    got = encoder_loss(_outputs_for_probs(pf), _outputs_for_probs(pl), Tensor(y), lam).item()
    assert got == pytest.approx(expected, abs=1e-10)


def test_loss_nonnegative_and_reduces_to_bce_at_lambda_zero():
    rng = np.random.default_rng(2)
    pf = rng.uniform(0.05, 0.95, size=N_OBS)
    pl = rng.uniform(0.05, 0.95, size=N_OBS)
    y = rng.integers(0, 2, size=N_OBS).astype(float)
    l0 = encoder_loss(_outputs_for_probs(pf), _outputs_for_probs(pl), Tensor(y), 0.0).item()
    bce_f, bce_l, _ = encoder_loss_parts(_outputs_for_probs(pf), _outputs_for_probs(pl), Tensor(y))
    assert l0 >= 0
    assert l0 == pytest.approx(bce_f.item() + bce_l.item(), abs=1e-12)


# view fusion -----------------------------------------------------------------------

def test_fuse_view_predictions_hand_case():
    fused = fuse_view_predictions(Tensor(np.array([0.2, 0.9])), Tensor(np.array([0.7, 0.1])))
    np.testing.assert_array_equal(fused.data, [0.7, 0.9])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)), min_size=1, max_size=14))
def test_fuse_view_predictions_properties(pairs):
    a = Tensor(np.array([x for x, _ in pairs]))
    b = Tensor(np.array([y for _, y in pairs]))
    ab = fuse_view_predictions(a, b).data
    ba = fuse_view_predictions(b, a).data
    np.testing.assert_array_equal(ab, ba)                       # commutative
    np.testing.assert_array_equal(fuse_view_predictions(a, a).data, a.data)  # idempotent
    bumped = fuse_view_predictions(Tensor(np.minimum(a.data + 0.005, 1.0)), b).data
    assert np.all(bumped >= ab)                                 # monotone


def test_fuse_view_predictions_shape_error():
    with pytest.raises(ShapeError):
        fuse_view_predictions(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# full-graph gradient check (tiny config) ------------------------------------------------

def test_full_encoder_gradcheck_tiny_config():
    params = tiny_params(seed=4)
    rng = np.random.default_rng(4)
    front = Tensor(rng.uniform(0.1, 0.9, size=(1, 8, 8)))
    lat = Tensor(rng.uniform(0.1, 0.9, size=(1, 8, 8)))
    labels = Tensor(rng.integers(0, 2, size=N_OBS).astype(float))

    def build():
        return encoder_loss(encode(front, params, TINY), encode(lat, params, TINY), labels, 1.0)

    check_grads(build, params, rel_tol=1e-4, sample=40)


# tape nodes ------------------------------------------------------------------------------

def test_a_training_step_records_one_node_per_conv_block_and_an_untaped_encode_none(monkeypatch):
    # a view: three conv blocks, the map's reshape and transpose, the mean, two heads of three ops: 12 nodes;
    # the loss: two BCEs, the CVC term, its weight's mul and two adds. A node per conv, pool and relu makes 42.
    lengths, backward = [], ad.Tape.backward
    monkeypatch.setattr(ad.Tape, "backward", lambda tape, loss: lengths.append(len(tape)) or backward(tape, loss))
    sample = generate_dataset(3, 10)[0]
    EncoderTrainer(EncoderConfig(), ConceptSet(["chest"]), 3).step(sample)
    assert lengths == [30]
    ops, result = [], ad._result
    monkeypatch.setattr(ad, "_result", lambda data, parents, bw: ops.append(bw) or result(data, parents, bw))
    out = encode(Tensor(sample.frontal_image), init_encoder_params(EncoderConfig(), 3), EncoderConfig())
    assert ops == []  # the untaped path runs the ops' kernels, not the ops
    assert all(x._tape is None and not x.requires_grad for x in vars(out).values())


# bit-reproducible training ---------------------------------------------------------------

def _trained(samples):
    """The trainer after six steps of the default encoder from its seeded init, one per sample, and its records."""
    trainer = EncoderTrainer(EncoderConfig(), ConceptSet(["chest"]), 3)
    records = [r[:4] for r in itertools.islice(trainer.train(samples, 1), 6)]  # all but the wall time
    return trainer, records


def _assert_same_training(run1, run2):
    """Equal records, and params and Adam moments equal byte for byte, after six steps that moved the params."""
    (tr1, records1), (tr2, records2) = run1, run2
    p1, p2, opt1, opt2 = tr1.params, tr2.params, tr1.opt, tr2.opt
    assert records1 == records2 and len(records1) == 6
    assert p1["enc.conv0.w"].data.tobytes() != init_encoder_params(EncoderConfig(), 3)["enc.conv0.w"].data.tobytes()
    assert sorted(p1) == sorted(p2) and opt1.t == opt2.t == 6
    for name in p1:
        assert p1[name].data.tobytes() == p2[name].data.tobytes(), name
    (m1, v1, _), (m2, v2, _) = opt1.state(p1), opt2.state(p2)
    assert m1.tobytes() == m2.tobytes() and v1.tobytes() == v2.tobytes()


def test_training_is_bit_reproducible_from_a_seed():
    # the smallest corpus the generator makes, generated anew for each run
    _assert_same_training(_trained(generate_dataset(3, 10)), _trained(generate_dataset(3, 10)))

