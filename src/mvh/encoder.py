"""Small convolutional multi-view image encoder.

Three conv -> 2x2-max-pool -> relu blocks produce a (d_v, sqrt(k), sqrt(k)) feature map whose spatial cells
are the k local region vectors. Each block is one `ad.conv_block`, and so one tape node. It checks the conv
output to be finite before pooling: the pool drops three cells of each window and relu zeroes the negatives
left, so a -inf there would not reach the output. Pooling first gives the values and gradients of conv -> relu
-> pool (max and relu commute; a zero gradient's sign aside) with relu on a quarter of the cells. Observation
and concept heads are single fully connected layers with sigmoids on the average-pooled global feature. The
training loss is the two views' summed BCE plus a cross-view consistency penalty on the prediction gap.

`encode` has two paths, chosen by whether a tape is active. Under one, it runs the autodiff ops, which record
the gradients training needs. With none, nothing would record them, so it runs the ops' own kernels on plain
arrays (`_infer`), with no Tensor, closure or check per op: the same outputs to the bit, the same ShapeError
for a bad shape, and a NumericsError naming the op wherever a non-finite value can first appear.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, seeded_uniform
from .corpus import N_OBS
from .errors import NumericsError, ShapeError, ValidationError, _index


@dataclass
class EncoderConfig:
    image_size: int = 32
    channels: tuple = (8, 16, 32)
    n_concepts: int = 1

    def __post_init__(self):
        if not isinstance(self.channels, (tuple, list)) or not self.channels:
            raise ValidationError(f"channels must list at least one conv layer, got {self.channels!r}")
        self.image_size = _index(self.image_size, math.inf, "image_size", low=1)
        self.channels = tuple(_index(c, math.inf, "channel count", low=1) for c in self.channels)
        self.n_concepts = _index(self.n_concepts, math.inf, "n_concepts", low=1)
        stride = 2 ** len(self.channels)
        if self.image_size % stride:  # else image_size >= stride, so the feature map is not empty
            raise ValidationError(
                f"image_size {self.image_size} not divisible by total pooling stride {stride}")

    @property
    def map_side(self):
        return self.image_size // (2 ** len(self.channels))

    @property
    def k(self):
        return self.map_side ** 2

    @property
    def d_v(self):
        return self.channels[-1]


@dataclass
class EncoderOutput:
    local_features: Tensor   # (k, d_v)
    global_feature: Tensor   # (d_v,) mean of the local rows
    obs_probs: Tensor        # (14,) in (0, 1)
    concept_probs: Tensor    # (p,) in (0, 1)


def _param_specs(config):
    """(name, shape, fan_in) of each parameter of the conv stack and both heads, each declared once here."""
    specs, cin = [], 1
    for i, cout in enumerate(config.channels):
        specs += [(f"enc.conv{i}.w", (cout, cin, 3, 3), cin * 9), (f"enc.conv{i}.b", (cout,), cin * 9)]
        cin = cout
    for head, n_out in (("obs", N_OBS), ("concept", config.n_concepts)):
        specs += [(f"enc.{head}.w", (n_out, config.d_v), config.d_v), (f"enc.{head}.b", (n_out,), config.d_v)]
    return specs


def init_encoder_params(config, seed):
    """Seeded parameter dict for the conv stack and both heads."""
    return {name: seeded_uniform(name, shape, fan_in, seed) for name, shape, fan_in in _param_specs(config)}


def encode(image, params, config):
    """Forward pass for one view; image is a (1, size, size) Tensor in [0,1]. Taped only while a tape is active."""
    expected = (1, config.image_size, config.image_size)
    if image.data.shape != expected:
        raise ShapeError(f"expected image of shape {expected}, got {image.data.shape}")
    if ad._ACTIVE_TAPE.get() is None:
        return _infer(image.data, params, config)
    x = image
    for i in range(len(config.channels)):
        x = ad.conv_block(x, params[f"enc.conv{i}.w"], params[f"enc.conv{i}.b"])
    local = ad.transpose(ad.reshape(x, (config.d_v, config.k)))  # (k, d_v)
    global_feature = ad.mean_pool(local)
    obs_probs = ad.sigmoid(ad.add(ad.matmul(params["enc.obs.w"], global_feature), params["enc.obs.b"]))
    concept_probs = ad.sigmoid(
        ad.add(ad.matmul(params["enc.concept.w"], global_feature), params["enc.concept.b"]))
    return EncoderOutput(local, global_feature, obs_probs, concept_probs)


def _checked(d, op):
    """d, unless a value of it is not finite: then the NumericsError that the untaped op `op` raises."""
    if not ad._all_finite(d):
        raise NumericsError(f"{op} produced non-finite values")
    return d


def _infer(x, params, config):
    """`encode`'s untaped outputs, bit for bit, from the kernels of its ops run on the (1, size, size) array x.

    Each check is the op's: a shape an op refuses is its ShapeError, and a value is checked to be finite where a
    non-finite one can first appear, under the op's name. Numpy's overflow warnings are off, so such a value is
    reported by its check. Each block's im2col columns are freed as soon as its GEMM returns.
    """
    d_v, k = config.d_v, config.k
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(config.channels)):
            if x.shape[1] % 2 or x.shape[2] % 2:
                raise ShapeError(f"conv_block needs (cin, even h, even w), got shape {x.shape}")
            conv = ad._conv_forward(x, params[f"enc.conv{i}.w"].data, params[f"enc.conv{i}.b"].data, "conv_block")[0]
            x = np.maximum(ad._pool_forward(_checked(conv, "conv_block")), 0.0)
            del conv  # freed now, as conv_block's is on returning, not after the next block's GEMM
        if x.size != d_v * k:
            raise ShapeError(f"cannot reshape {x.shape} into {(d_v, k)}")
        local = x.reshape(d_v, k).T
        global_feature = _checked(np.add.reduce(local, axis=0) / k, "mean_pool")
        probs = []
        for head in ("obs", "concept"):
            w, b = params[f"enc.{head}.w"].data, params[f"enc.{head}.b"].data
            if w.ndim not in (1, 2) or w.shape[-1] != d_v:
                raise ShapeError(f"matmul needs a 1-d or 2-d operand of inner dimension {d_v}, got {w.shape}")
            z = _checked(w @ global_feature, "matmul")
            try:
                z = z + b
            except ValueError:
                raise ShapeError(f"add cannot broadcast {np.shape(z)} with {b.shape}") from None
            probs.append(ad._sigmoid_np(_checked(z, "add")))
    return EncoderOutput(Tensor(local), Tensor(global_feature), Tensor(probs[0]), Tensor(probs[1]))


def encoder_loss_parts(front, lat, labels):
    """The three loss terms (front BCE, lateral BCE, squared view gap)."""
    return (ad.bce_loss(front.obs_probs, labels),
            ad.bce_loss(lat.obs_probs, labels),
            ad.mse_loss(front.obs_probs, lat.obs_probs))


def weighted_loss(bce_f, bce_l, cvc, lambda_cvc):
    """The training loss bce_f + bce_l + lambda * cvc of encoder_loss_parts' terms; lambda 0 drops the CVC term."""
    if isinstance(lambda_cvc, bool) or not (isinstance(lambda_cvc, numbers.Real) and 0 <= lambda_cvc < math.inf):
        raise ValidationError(f"lambda_cvc must be a finite number >= 0, got {lambda_cvc!r}")
    return ad.add(ad.add(bce_f, bce_l), ad.mul(cvc, Tensor(lambda_cvc)))


def encoder_loss(front, lat, labels, lambda_cvc):
    """Summed BCE of both views plus lambda * squared view disagreement."""
    return weighted_loss(*encoder_loss_parts(front, lat, labels), lambda_cvc)


def fuse_view_predictions(front, lat):
    """Elementwise max of the two views' predicted probabilities (evaluation-time)."""
    if front.data.shape != lat.data.shape:
        raise ShapeError(f"view predictions disagree in shape: {front.data.shape} vs {lat.data.shape}")
    return Tensor(np.maximum(front.data, lat.data))
