"""The encoder trainer: its step, a checkpoint that resumes training bit for bit, and the AUC training reaches."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from mvh import encoder, train
from mvh.autodiff import Tape, Tensor
from mvh.corpus import LABEL_NAMES, ConceptSet, generate_dataset, mine_concepts, split_dataset
from mvh.encoder import EncoderConfig, encode, encoder_loss, encoder_loss_parts, init_encoder_params
from mvh.errors import ValidationError
from mvh.metrics import avg_auc
from mvh.pgm import read_arrays
from mvh.train import LAMBDA_CVC, EncoderTrainer

CONFIG = EncoderConfig(image_size=16, channels=(2, 3), n_concepts=2)
CONCEPTS = ConceptSet(["edema", "chest"])
SAMPLES = generate_dataset(4, 10, image_size=16)
EPOCHS = 2  # N = 20 steps


def _state(trainer):
    """Every byte training moves: the params, Adam's flat m and v, and its t."""
    m, v, t = trainer.opt.state(trainer.params)
    return [p.data.tobytes() for p in trainer.params.values()], m.tobytes(), v.tobytes(), t


@pytest.fixture(scope="module")
def straight():
    trainer = EncoderTrainer(CONFIG, CONCEPTS, 5)
    records = list(trainer.train(SAMPLES, EPOCHS))
    return trainer, records


@pytest.mark.parametrize("k", [0, 7, 10], ids=["before_the_first_step", "mid_epoch", "epoch_boundary"])
def test_resume_from_a_checkpoint_is_byte_identical_to_straight_training(tmp_path, straight, k):
    trainer = EncoderTrainer(CONFIG, CONCEPTS, 5)
    first = list(itertools.islice(trainer.train(SAMPLES, EPOCHS), k))
    trainer.save(tmp_path / "ck.npz")
    resumed = EncoderTrainer.load(tmp_path / "ck.npz")
    assert resumed.opt.t == k and resumed.config == CONFIG and resumed.concepts.tokens == CONCEPTS.tokens
    rest = list(resumed.train(SAMPLES, EPOCHS))
    assert len(rest) == 2 * len(SAMPLES) - k and resumed.opt.t == 2 * len(SAMPLES)
    assert _state(resumed) == _state(straight[0])
    assert [r[:4] for r in first + rest] == [r[:4] for r in straight[1]]  # all but the wall time
    assert list(resumed.params) == list(straight[0].params)  # clip_global_norm sums in this order


def test_a_trained_state_needs_no_more_steps(tmp_path, straight):
    straight[0].save(tmp_path / "ck.npz")
    assert list(EncoderTrainer.load(tmp_path / "ck.npz").train(SAMPLES, EPOCHS)) == []


def test_checkpoint_holds_the_params_adam_config_and_concepts(tmp_path, straight):
    trainer = straight[0]
    trainer.save(tmp_path / "ck.npz")
    arrays = read_arrays(tmp_path / "ck.npz")
    assert sorted(arrays) == sorted([*trainer.params, "adam.m", "adam.v", "adam.t", "config", "concepts"])
    m, v, t = trainer.opt.state(trainer.params)
    assert arrays["adam.m"].tobytes() == m.tobytes() and arrays["adam.v"].tobytes() == v.tobytes()
    assert arrays["adam.t"].shape == () and arrays["adam.t"] == t == 20
    assert arrays["config"].tolist() == [16, 2, 2, 3] and arrays["concepts"].tolist() == ["edema", "chest"]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [5, 13301])
def test_trained_encoder_fuses_views_to_an_auc_above_0_95(seed):
    train_split, test_split = split_dataset(generate_dataset(seed, 500), 0.2, seed)
    concepts = mine_concepts([sent for s in train_split for sent in s.report], 5)
    trainer = EncoderTrainer(EncoderConfig(32, (8, 16, 32), concepts.p), concepts, seed)
    list(trainer.train(train_split, 15))

    def probs(image):
        return encode(Tensor(image), trainer.params, trainer.config).obs_probs

    fused = [encoder.fuse_view_predictions(probs(s.frontal_image), probs(s.lateral_image)).data for s in test_split]
    average, _ = avg_auc(fused, [s.obs_labels for s in test_split], LABEL_NAMES)
    assert average > 0.95, average


def test_a_step_records_the_loss_parts_the_norm_before_clipping_and_its_time(monkeypatch):
    monkeypatch.setattr(train, "CLIP_NORM", 1e-3)  # so that this step clips
    trainer, sample = EncoderTrainer(CONFIG, CONCEPTS, 5), SAMPLES[0]
    params = init_encoder_params(CONFIG, 5)
    with Tape() as tape:
        front = encode(Tensor(sample.frontal_image), params, CONFIG)
        lat = encode(Tensor(sample.lateral_image), params, CONFIG)
        parts = [p.item() for p in encoder_loss_parts(front, lat, Tensor(sample.obs_labels))]
        loss = encoder_loss(front, lat, Tensor(sample.obs_labels), LAMBDA_CVC)
    tape.backward(loss)
    norm = np.sqrt(sum(float((p.grad * p.grad).sum()) for p in params.values() if p.grad is not None))
    record = trainer.step(sample)
    assert list(record[:3]) == parts and parts[0] + parts[1] + LAMBDA_CVC * parts[2] == loss.item()
    assert record.grad_norm == pytest.approx(norm, rel=1e-12) and norm > 1.0
    assert record.seconds > 0 and trainer.opt.t == 1
    assert all(p.grad is None for p in trainer.params.values())


def test_a_step_reads_only_the_views_and_labels():
    # a label-only sample: no id and no report
    labelled = [SimpleNamespace(frontal_image=s.frontal_image, lateral_image=s.lateral_image, obs_labels=s.obs_labels)
                for s in SAMPLES[:3]]
    a, b = EncoderTrainer(CONFIG, CONCEPTS, 5), EncoderTrainer(CONFIG, CONCEPTS, 5)
    assert [r[:4] for r in a.train(labelled, 1)] == [r[:4] for r in b.train(SAMPLES[:3], 1)]
    assert _state(a) == _state(b)


def test_the_trainer_runs_the_encoder_through_module_attributes(monkeypatch):
    # a tracer that wraps encoder.encode sees both views of every step
    calls, encode_fn = [], encoder.encode
    monkeypatch.setattr(encoder, "encode", lambda *args: calls.append(args) or encode_fn(*args))
    EncoderTrainer(CONFIG, CONCEPTS, 5).step(SAMPLES[0])
    assert len(calls) == 2


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: EncoderTrainer(CONFIG, ConceptSet(["edema"]), 5), "1 concept tokens for a config of 2",
                 id="too_few_concepts"),
    pytest.param(lambda: list(EncoderTrainer(CONFIG, CONCEPTS, 5).train(SAMPLES, 1.5)), "epochs must be an integer",
                 id="fractional_epochs"),
    pytest.param(lambda: list(EncoderTrainer(CONFIG, CONCEPTS, 5).train(SAMPLES, -1)), "epochs -1",
                 id="negative_epochs"),
])
def test_trainer_arguments_are_validation_errors(make, message):
    with pytest.raises(ValidationError, match=message):
        make()
