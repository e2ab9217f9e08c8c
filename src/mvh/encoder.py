"""Small convolutional multi-view image encoder.

Three conv -> 2x2-max-pool -> relu blocks produce a (d_v, sqrt(k), sqrt(k))
feature map whose spatial cells are the k local region vectors. Pooling first
gives the values and gradients of conv -> relu -> pool (max and relu commute; a
zero gradient's sign aside) with relu on a quarter of the cells. Observation and
concept heads are single fully connected layers with sigmoids on the
average-pooled global feature. The training loss is the two views' summed
BCE plus a cross-view consistency penalty on the prediction gap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, seeded_uniform
from .corpus import N_OBS
from .errors import ShapeError, ValidationError, _index
from .pgm import write_pgm, write_text


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
    """Forward pass for one view; image is a (1, size, size) Tensor in [0,1]."""
    expected = (1, config.image_size, config.image_size)
    if image.data.shape != expected:
        raise ShapeError(f"expected image of shape {expected}, got {image.data.shape}")
    x = image
    for i in range(len(config.channels)):
        x = ad.relu(ad.max_pool2d(ad.conv2d(x, params[f"enc.conv{i}.w"], params[f"enc.conv{i}.b"])))
    local = ad.transpose(ad.reshape(x, (config.d_v, config.k)))  # (k, d_v)
    global_feature = ad.mean_pool(local)
    obs_probs = ad.sigmoid(ad.add(ad.matmul(params["enc.obs.w"], global_feature), params["enc.obs.b"]))
    concept_probs = ad.sigmoid(
        ad.add(ad.matmul(params["enc.concept.w"], global_feature), params["enc.concept.b"]))
    return EncoderOutput(local, global_feature, obs_probs, concept_probs)


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


def grad_cam(output, params, config, class_index):
    """Grad-CAM heatmap (map_side x map_side) of one class, from an `encode` output.

    The observation logit is linear in the mean of the k local rows, so its
    gradient at every map cell is obs.w[class] / k and Grad-CAM is CAM: relu
    of the local rows weighted by that, min-max normalized (all-zero stays zero).
    """
    class_index = _index(class_index, N_OBS, "grad_cam class index")
    if output.local_features.data.shape != (config.k, config.d_v):
        raise ShapeError(f"grad_cam needs ({config.k}, {config.d_v}) local features for this config, "
                         f"got {output.local_features.data.shape}")
    weights = params["enc.obs.w"].data[class_index] / config.k   # (d_v,)
    cam = np.maximum(output.local_features.data @ weights, 0.0).reshape(config.map_side, config.map_side)
    span = cam.max() - cam.min()
    if span > 0:
        cam = (cam - cam.min()) / span
    return cam


def export_heatmap(path_base, cam):
    """Write a heatmap as {base}.pgm plus {base}.csv of raw cell values."""
    write_pgm(str(path_base) + ".pgm", cam)
    write_text(str(path_base) + ".csv", "".join(",".join(repr(float(v)) for v in row) + "\n" for row in cam))
