"""The three benchmark workloads, driven through the public `mvh` API.

Each workload is built from a seed (set-up) and then runs *rounds*: one
round is one pass over a fixed list of samples, starting from the same
state, so every round does identical work and returns an identical summary.
Steps inside a round are timed by a `Meter`, which also counts steps that
raise an `MvhError` or fail a check.

Functions of the package are always called as module attributes
(`encoder.encode`, `ad.matmul`, ...) so that `LayerTrace` can wrap them.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import hostspeed
from mvh import attention, corpus, encoder, metrics
from mvh import autodiff as ad
from mvh.autodiff import Tape, Tensor
from mvh.errors import MvhError

N_SAMPLES = 500            # corpus size; the split keeps a fifth for test
TEST_FRACTION = 0.2
IMAGE_SIZE = 32
CHANNELS = (8, 16, 32)
CONCEPT_THRESHOLD = 5      # mine lexicon tokens seen at least this often in training reports
LAMBDA_CVC = 1.0
ENC_EPOCHS = 3             # one encoder training pass = this many epochs from a fresh init
ENC_LR = 5e-3
CLIP_NORM = 5.0
ATT_LR = 1e-3
D_H = 32                   # sentence and word state size
D_A = 32                   # visual attention size
D_C = 32                   # concept embedding size
D_AC = 32                  # concept attention size
N_STATES = 16              # rows in each seeded decoder-state table
ROWS = ("frontal", "lateral", "fused")  # single-view vs multi-view ablation rows
TRAIN_WINDOW = 50          # training steps per timing window
CALIBRATE_SECONDS = 0.1    # measure the host's speed at least this often while timing


class CheckFailed(Exception):
    """An output of the program is wrong (non-finite, out of range, unstable)."""


class Meter:
    """Per-step wall times grouped into windows, attempted and failed steps,
    and the host's slowdown measured along the way.

    A window closes after `window` successful steps, or when `close_window`
    is called at the end of a round, so window times also cover the work a
    round does between steps (such as scoring). At the first step boundary
    after every `CALIBRATE_SECONDS`, and whenever `calibrate` is called, the
    host's speed is measured (hostspeed.py); that time is left out of the
    windows. Each window records the mean slowdown of the measurement just
    before it and those during or right after it.
    """

    def __init__(self, window=None):
        self.window = window
        self.windows = []          # (seconds, [step seconds], slowdown) per closed window
        self.slowdowns = []        # every slowdown measured, in order
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ref_seconds = 0.0     # time spent measuring the host's speed
        self._steps = []
        self._window_ref = 0.0     # ... of it inside the open window
        self._window_first = 0     # index in `slowdowns` of the open window's first measurement
        self._start = self._calibrated = perf_counter()

    @contextmanager
    def step(self):
        self.attempted += 1
        t0 = perf_counter()
        try:
            yield
        except (MvhError, CheckFailed) as exc:
            self.failed += 1
            self.problems.append(f"step {self.attempted}: {type(exc).__name__}: {exc}")
        else:
            now = perf_counter()
            self._steps.append(now - t0)
            if now - self._calibrated >= CALIBRATE_SECONDS:
                self.calibrate()
            if self.window and len(self._steps) >= self.window:
                self.close_window()

    def calibrate(self):
        t0 = perf_counter()
        self.slowdowns.append(hostspeed.slowdown())
        self._calibrated = perf_counter()
        self._window_ref += self._calibrated - t0
        self.ref_seconds += self._calibrated - t0

    def close_window(self):
        seconds = perf_counter() - self._start - self._window_ref
        if self._steps:
            around = self.slowdowns[max(0, self._window_first - 1):]
            if len(around) < 2:
                self.calibrate()
                around = self.slowdowns[max(0, self._window_first - 1):]
            self.windows.append((seconds, self._steps, statistics.mean(around)))
        self._steps = []
        self._window_ref = 0.0
        self._window_first = len(self.slowdowns)
        self._start = perf_counter()

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def _finite(value, what):
    if not math.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {value}")
    return value


@dataclass
class Corpus:
    train: list
    test: list
    concepts: corpus.ConceptSet
    config: encoder.EncoderConfig
    train_labels: np.ndarray   # (n_train, 14), for nearest-report retrieval

    def nearest_report(self, probs):
        """The training report whose label vector is nearest `probs`."""
        return self.train[int(np.argmin(((self.train_labels - probs) ** 2).sum(axis=1)))].report


def build_corpus(seed, n_samples):
    samples = corpus.generate_dataset(seed, n_samples, image_size=IMAGE_SIZE)
    train, test = corpus.split_dataset(samples, TEST_FRACTION, seed)
    concepts = corpus.mine_concepts([sent for s in train for sent in s.report], CONCEPT_THRESHOLD)
    config = encoder.EncoderConfig(image_size=IMAGE_SIZE, channels=CHANNELS, n_concepts=concepts.p)
    return Corpus(train, test, concepts, config, np.array([s.obs_labels for s in train]))


def train_encoder(data, seed, meter):
    """One encoder training pass from the seeded init; returns (params, train_loss).

    train_loss is the mean loss over the final tenth of the pass's steps.
    """
    params = encoder.init_encoder_params(data.config, seed)
    opt = ad.Adam(lr=ENC_LR)
    losses = []
    for _ in range(ENC_EPOCHS):
        for s in data.train:
            with meter.step():
                with Tape() as tape:
                    front = encoder.encode(Tensor(s.frontal_image), params, data.config)
                    lat = encoder.encode(Tensor(s.lateral_image), params, data.config)
                    loss = encoder.encoder_loss(front, lat, Tensor(s.obs_labels), LAMBDA_CVC)
                tape.backward(loss)
                value = _finite(loss.item(), "encoder loss")
                ad.clip_global_norm(params, CLIP_NORM)
                opt.step(params)
                ad.zero_grads(params)
                losses.append(value)
    tenth = max(1, len(losses) // 10)
    return params, sum(losses[-tenth:]) / tenth


def _check_score_report(report, row):
    fields = {"bleu1": report.bleu1, "bleu2": report.bleu2, "bleu3": report.bleu3,
              "bleu4": report.bleu4, "meteor": report.meteor, "rouge_l": report.rouge_l,
              "avg_auc": report.avg_auc}
    fields.update({f"auc_{k}": v for k, v in report.per_label_auc.items() if k not in report.skipped_labels})
    bad = {k: v for k, v in fields.items() if not 0.0 <= v <= 1.0}
    if bad:
        raise CheckFailed(f"{row} row scores outside [0, 1]: {bad}")


def evaluate_pass(data, params, meter):
    """Encode every test sample, retrieve a report per ablation row, score the rows.

    Returns (bleu4, avg_auc) of the fused row, or None when scoring failed.
    """
    probs = {row: [] for row in ROWS}
    hyps = {row: [] for row in ROWS}
    refs, labels = [], []
    for s in data.test:
        with meter.step():
            front = encoder.encode(Tensor(s.frontal_image), params, data.config)
            lat = encoder.encode(Tensor(s.lateral_image), params, data.config)
            fused = encoder.fuse_view_predictions(front.obs_probs, lat.obs_probs)
            row_probs = (front.obs_probs.data, lat.obs_probs.data, fused.data)
            row_hyps = [data.nearest_report(p) for p in row_probs]
            for row, p, h in zip(ROWS, row_probs, row_hyps):
                probs[row].append(p)
                hyps[row].append(h)
            refs.append(s.report)
            labels.append(s.obs_labels)
    try:
        reports = {row: metrics.score_generation(hyps[row], refs, np.array(probs[row]),
                                                 np.array(labels), corpus.LABEL_NAMES)
                   for row in ROWS}
        for row, report in reports.items():
            _check_score_report(report, row)
    except (MvhError, CheckFailed) as exc:
        # the pass produced no usable scores, so none of its samples completed
        meter.failed += len(refs)
        meter.problems.append(f"scoring: {type(exc).__name__}: {exc}")
        return None
    return reports["fused"].bleu4, reports["fused"].avg_auc


class Workload:
    """Set-up shared by all workloads: the corpus and, unless `pretrain` is
    False, one encoder training pass whose result the rounds use."""

    pretrain = True
    window = None  # steps per timing window; None makes each round one window

    def __init__(self, seed, n_samples, trace=None):
        self.seed = seed
        self.setup_meter = Meter()  # it also measures the host's speed during set-up
        with trace if trace is not None else nullcontext():
            self.data = build_corpus(seed, n_samples)
        self.params = self.train_loss = None
        if self.pretrain:
            self.params, self.train_loss = train_encoder(self.data, seed, self.setup_meter)

    def round(self, meter):
        raise NotImplementedError

    def quality(self, meter):
        """(train_loss, bleu4, avg_auc) of the encoder this workload uses."""
        scored = evaluate_pass(self.data, self.params, meter)
        if scored is None:
            return None
        return (self.train_loss, *scored)


class EncoderTrain(Workload):
    """Round: one encoder training pass (ENC_EPOCHS epochs) from the seeded init."""

    pretrain = False
    window = TRAIN_WINDOW

    def round(self, meter):
        params, loss = train_encoder(self.data, self.seed, meter)
        if self.params is None:
            self.params, self.train_loss = params, loss
        return loss


class AttentionTrain(Workload):
    """Round: one pass over the training split feeding the attention layer the
    per-sentence fuse() and per-word concept_attend() traffic of a two-level
    decoder, from a fresh attention init, with the pretrained encoder frozen."""

    window = TRAIN_WINDOW

    def __init__(self, seed, n_samples, trace=None):
        super().__init__(seed, n_samples, trace)
        rng = np.random.default_rng(seed)
        self.sent_states = [Tensor(rng.uniform(-1.0, 1.0, D_H)) for _ in range(N_STATES)]
        self.word_states = [Tensor(rng.uniform(-1.0, 1.0, D_H)) for _ in range(N_STATES)]

    def round(self, meter):
        cfg = self.data.config
        att = attention.AttentionParams.init(cfg.d_v, D_H, D_H, D_A, D_C, D_AC, self.seed)
        embeddings = ad.seeded_uniform("concept.embeddings", (self.data.concepts.p, D_C), D_C, self.seed)
        params = {**att.named(), "concept.embeddings": embeddings}
        opt = ad.Adam(lr=ATT_LR)
        total = 0.0
        for i, s in enumerate(self.data.train):
            with meter.step():
                front = encoder.encode(Tensor(s.frontal_image), self.params, cfg)
                lat = encoder.encode(Tensor(s.lateral_image), self.params, cfg)
                scheme = attention.FUSION_SCHEMES[i % len(attention.FUSION_SCHEMES)]
                with Tape() as tape:
                    loss = None
                    for j, sentence in enumerate(s.report):
                        ctx = attention.fuse(scheme, front, lat, self.sent_states[j % N_STATES], att,
                                             late_combine="project")
                        loss = _add_square(loss, ctx)
                        for t in range(len(sentence) - 1):  # one word step per token after <start>
                            c_att, _ = attention.concept_attend(
                                embeddings, front.concept_probs, self.word_states[t % N_STATES], att)
                            loss = _add_square(loss, c_att)
                tape.backward(loss)
                total += _finite(loss.item(), "attention loss")
                opt.step(params)
                ad.zero_grads(params)
        return total


def _add_square(acc, v):
    sq = ad.tensor_sum(ad.mul(v, v))
    return sq if acc is None else ad.add(acc, sq)


class Evaluate(Workload):
    """Round: one evaluation pass over the test split with the pretrained encoder."""

    def round(self, meter):
        return evaluate_pass(self.data, self.params, meter)


WORKLOADS = {"encoder_train": EncoderTrain, "attention_train": AttentionTrain, "evaluate": Evaluate}
