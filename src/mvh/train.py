"""The encoder's training loop, and a checkpoint from which it resumes bit for bit.

A step on one sample: `encode` of both views under a `Tape`, the loss bce_f + bce_l + LAMBDA_CVC * cvc of
`encoder_loss_parts`, backward, `clip_global_norm` to CLIP_NORM, `Adam.step` at LR and `zero_grads`. It reads
only the sample's views and labels, and returns a StepRecord. A checkpoint is one .npz archive of each parameter
by name, Adam's flat `adam.m` and `adam.v` and its step count `adam.t`, the EncoderConfig as the integers
`config` = (image_size, n_concepts, *channels) and the concept tokens as the str array `concepts`. The step
reached is Adam's t, the epoch t // len(samples). A defective checkpoint raises CheckpointError naming its path.
"""

from collections import namedtuple
from time import perf_counter

import numpy as np

from . import autodiff as ad, encoder
from .corpus import ConceptSet
from .errors import CheckpointError, DataError, ValidationError, _index
from .pgm import read_arrays, write_arrays

LR, CLIP_NORM, LAMBDA_CVC = 5e-3, 5.0, 1.0
_STATE = ("adam.m", "adam.v", "adam.t", "config", "concepts")  # the members besides the parameters
StepRecord = namedtuple("StepRecord", "bce_frontal bce_lateral cvc grad_norm seconds")  # grad_norm before clipping


class EncoderTrainer:
    """The encoder's parameters and Adam state, with the config and the concepts they were made for."""

    def __init__(self, config, concepts, seed):
        if concepts.p != config.n_concepts:
            raise ValidationError(f"{concepts.p} concept tokens for a config of {config.n_concepts} concepts")
        self.config, self.concepts = config, concepts
        self.params, self.opt = encoder.init_encoder_params(config, seed), ad.Adam(lr=LR)

    def step(self, sample):
        start = perf_counter()
        with ad.Tape() as tape:
            front = encoder.encode(ad.Tensor(sample.frontal_image), self.params, self.config)
            lat = encoder.encode(ad.Tensor(sample.lateral_image), self.params, self.config)
            parts = encoder.encoder_loss_parts(front, lat, ad.Tensor(sample.obs_labels))
            loss = encoder.weighted_loss(*parts, LAMBDA_CVC)
        tape.backward(loss)
        norm = ad.clip_global_norm(self.params, CLIP_NORM)
        self.opt.step(self.params)
        ad.zero_grads(self.params)
        return StepRecord(*(p.item() for p in parts), norm, perf_counter() - start)

    def train(self, samples, epochs):
        """Yield the record of each step from Adam's t on, through `epochs` passes over the samples in order."""
        samples, epochs = list(samples), _index(epochs, np.inf, "epochs")
        for t in range(self.opt.t, epochs * len(samples)):
            yield self.step(samples[t % len(samples)])

    def save(self, path):
        (m, v, t), c = self.opt.state(self.params), self.config
        write_arrays(path, {**{name: p.data for name, p in self.params.items()}, "adam.m": m, "adam.v": v,
                            "adam.t": np.array(t), "config": np.array([c.image_size, c.n_concepts, *c.channels]),
                            "concepts": np.array(self.concepts.tokens)})

    @classmethod
    def load(cls, path):
        try:
            arrays = read_arrays(path)
            c, tokens = arrays.get("config", np.zeros(())), arrays.get("concepts", np.zeros(()))
            if c.ndim != 1 or c.size < 2 or tokens.dtype.kind != "U" or tokens.ndim != 1:
                raise ValidationError("config must hold (image_size, n_concepts, *channels), concepts 1-d str")
            trainer = cls(encoder.EncoderConfig(c[0], tuple(c[2:]), c[1]), ConceptSet(tokens.tolist()), 0)
            if odd := sorted(set(arrays) ^ {*trainer.params, *_STATE}):
                raise ValidationError(f"members {odd} are missing or not of this checkpoint")
            m, v, _ = trainer.opt.state(trainer.params)  # Adam's own flat moments, laid out as zeros
            for name, into in [*((n, p.data) for n, p in trainer.params.items()), ("adam.m", m), ("adam.v", v)]:
                if (got := arrays[name]).dtype != np.float64 or got.shape != into.shape:
                    raise ValidationError(f"{name} is {got.dtype} of shape {got.shape}, not float64 of {into.shape}")
                into[...] = got
            trainer.opt.t = _index(arrays["adam.t"][()], np.inf, "adam.t")
        except (DataError, ValidationError) as exc:  # a DataError names the path already
            raise CheckpointError(str(exc) if isinstance(exc, DataError) else f"{path}: {exc}") from None
        return trainer
