"""Synthetic multi-view chest-image dataset, report tokenization, and
frequency-based concept mining.

Each of the 14 radiographic observations is rendered as a distinct geometric
pattern at a fixed grid cell; a sample's active observations appear in both
views (shared latent intensity, view-specific jitter) and drive the report
templates, so every label is recoverable from either image and every report
is recoverable from the labels plus the sampled template choices. A view is
rounded to 8-bit levels and kept as them, one byte a pixel; a sample's
`frontal_image` and `lateral_image` read the levels as floats in [0, 1].
"""

from __future__ import annotations

import math
import numbers
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, _index, _numbers

PAD, START, END, UNK = "<pad>", "<start>", "<end>", "<unk>"
SENTINELS = (PAD, START, END)  # structure tokens, dropped before a report is scored

SEVERITIES = ("mild", "moderate", "severe")
SEV_BINS = (0.68, 0.82)  # base-intensity cut points over [0.55, 0.95]

GRID = 4  # patterns live on a GRID x GRID cell layout
JITTER = 1  # a planted pattern shifts by up to this many pixels along each axis


@dataclass(frozen=True)
class ObservationSpec:
    name: str
    concept: str            # lexicon token the templates always mention
    cell: tuple             # (row, col) on the GRID, or None for the border frame
    shape: str
    templates: tuple        # two affirmative sentence variants, may hold {sev}
    negation: str           # sentence asserting absence, mentions the concept


OBSERVATIONS = (
    ObservationSpec(
        "enlarged_cardiomediastinum", "mediastinum", (1, 1), "vbar",
        ("there is {sev} widening of the mediastinum.",
         "{sev} prominence of the mediastinum is noted."),
        "the mediastinum is not widened."),
    ObservationSpec(
        "cardiomegaly", "cardiomegaly", (2, 1), "disk",
        ("there is {sev} cardiomegaly.",
         "{sev} cardiomegaly is again demonstrated."),
        "there is no cardiomegaly."),
    ObservationSpec(
        "lung_opacity", "opacity", (0, 2), "square",
        ("a {sev} opacity is seen in the right upper lobe.",
         "there is a {sev} opacity over the right mid lung."),
        "no focal opacity is seen."),
    ObservationSpec(
        "lung_lesion", "lesion", (0, 0), "x",
        ("a {sev} nodular lesion is present on the left.",
         "there is a {sev} lesion in the left upper zone."),
        "no lesion is identified."),
    ObservationSpec(
        "edema", "edema", (1, 0), "checker",
        ("there is {sev} pulmonary edema.",
         "{sev} interstitial edema is present."),
        "there is no edema."),
    ObservationSpec(
        "consolidation", "consolidation", (2, 2), "hbar",
        ("{sev} consolidation is seen at the right base.",
         "there is {sev} airspace consolidation."),
        "no consolidation is seen."),
    ObservationSpec(
        "pneumonia", "pneumonia", (2, 0), "ring",
        ("findings suggest {sev} pneumonia.",
         "{sev} pneumonia is suspected in the left lower lobe."),
        "no pneumonia is identified."),
    ObservationSpec(
        "atelectasis", "atelectasis", (3, 1), "diag",
        ("there is {sev} atelectasis at the left base.",
         "{sev} plate-like atelectasis is noted."),
        "no atelectasis is seen."),
    ObservationSpec(
        "pneumothorax", "pneumothorax", (0, 3), "vbar",
        ("a {sev} pneumothorax is present on the right.",
         "there is a {sev} apical pneumothorax."),
        "there is no pneumothorax."),
    ObservationSpec(
        "pleural_effusion", "effusion", (3, 2), "square",
        ("a {sev} pleural effusion is seen on the right.",
         "there is a {sev} right-sided pleural effusion."),
        "no pleural effusion is seen."),
    ObservationSpec(
        "pleural_other", "thickening", (1, 3), "ring",
        ("there is {sev} pleural thickening.",
         "{sev} pleural thickening is noted laterally."),
        "no pleural thickening is seen."),
    ObservationSpec(
        "fracture", "fracture", (3, 0), "cross",
        ("a {sev} rib fracture is identified.",
         "there is a {sev} fracture of a posterior rib."),
        "no fracture is identified."),
    ObservationSpec(
        "support_devices", "devices", (1, 2), "disk",
        ("support devices are in standard position.",
         "monitoring devices remain in place."),
        "no support devices are seen."),
    ObservationSpec(
        "no_finding", "clear", None, "frame",
        ("no acute cardiopulmonary abnormality.",
         "the chest is clear without acute abnormality."),
        ""),
)

LABEL_NAMES = tuple(o.name for o in OBSERVATIONS)
N_OBS = len(OBSERVATIONS)
NO_FINDING = N_OBS - 1
PATHOLOGY_INDICES = tuple(range(NO_FINDING))

IMPRESSIONS = (
    "the lungs are well expanded and clear.",      # no active pathology
    "otherwise the chest is unremarkable.",        # exactly one
    "multiple abnormalities are present.",         # two or more
)
ARTIFACT_SENTENCE = "comparison is made to the prior xxxx."

CONCEPT_LEXICON = tuple(o.concept for o in OBSERVATIONS[:NO_FINDING]) + ("chest", "lungs")

PATHOLOGY_RATE = 0.13
MAX_ACTIVE = 4
ARTIFACT_RATE = 0.02
LATERAL_FACTOR = 0.8
FRONTAL_NOISE = 0.08
LATERAL_NOISE = 0.15
_MAXVAL = 255  # a pixel is kept as an 8-bit level 0 .. 255


@dataclass(frozen=True, eq=False)  # identity equality: a field-wise == would compare the views as arrays
class MultiViewSample:
    """One study: two views as 8-bit levels, 14 labels, and a report read from report_text alone."""

    frontal_levels: np.ndarray     # (1, s, s) read-only uint8; a pixel is its level / _MAXVAL
    lateral_levels: np.ndarray
    obs_labels: np.ndarray         # (14,) in {0, 1}
    report_text: str

    @property
    def frontal_image(self):  # (1, s, s) float64 in [0, 1], a new array on each read
        return self.frontal_levels / _MAXVAL

    @property
    def lateral_image(self):
        return self.lateral_levels / _MAXVAL

    @cached_property
    def report(self):  # token sentences incl. <start>/<end>, cached: frozen fields cannot make it stale
        return tokenize(self.report_text)


# ---------------------------------------------------------------------------
# pattern geometry


def _shape_mask(shape, b):
    ii, jj = np.mgrid[0:b, 0:b]
    c = (b - 1) / 2.0
    if shape == "square":
        return np.ones((b, b), dtype=bool)
    if shape == "disk":
        return (ii - c) ** 2 + (jj - c) ** 2 <= (b / 2.0) ** 2
    if shape == "ring":
        r2 = (ii - c) ** 2 + (jj - c) ** 2
        return (r2 <= (b / 2.0) ** 2) & (r2 >= (b / 4.0) ** 2)
    if shape == "cross":
        band = max(1, b // 3)
        lo, hi = (b - band) // 2, (b - band) // 2 + band
        return ((ii >= lo) & (ii < hi)) | ((jj >= lo) & (jj < hi))
    if shape == "hbar":
        band = max(1, b // 3)
        lo = (b - band) // 2
        return (ii >= lo) & (ii < lo + band)
    if shape == "vbar":
        band = max(1, b // 3)
        lo = (b - band) // 2
        return (jj >= lo) & (jj < lo + band)
    if shape == "diag":
        return np.abs(ii - jj) <= max(1, b // 4)
    if shape == "checker":
        return ((ii // 2) + (jj // 2)) % 2 == 0
    if shape == "x":
        w = max(1, b // 4)
        return (np.abs(ii - jj) <= w) | (np.abs(ii + jj - (b - 1)) <= w)
    raise ValidationError(f"unknown pattern shape '{shape}'")


def _image_size(image_size):
    """image_size as an int, if the GRID of patterns fits it: at least 16 and divisible by 8."""
    if _index(image_size, math.inf, "image_size", low=16) % 8:
        raise ValidationError(f"image_size {image_size} does not fit the pattern grid (needs a multiple of 8)")
    return int(image_size)


def _patterns(image_size):
    """Each observation's (mask, corner): a grid cell's (b, b) shape mask and its box's top-left pixel before
    jitter, or the whole-image border frame and None."""
    frame = np.zeros((image_size, image_size), dtype=bool)
    w = max(1, image_size // 16)
    frame[:w, :] = frame[-w:, :] = frame[:, :w] = frame[:, -w:] = True
    cs = image_size // GRID
    return [(frame, None) if spec.cell is None
            else (_shape_mask(spec.shape, cs - 2), (spec.cell[0] * cs + 1, spec.cell[1] * cs + 1))
            for spec in OBSERVATIONS]


# ---------------------------------------------------------------------------
# report rendering


def severity_word(base_intensity):
    if (x := _numbers(base_intensity)) is None or x.shape != () or not math.isfinite(x):
        raise ValidationError(f"intensity must be a finite number, got {base_intensity!r}")
    if base_intensity < SEV_BINS[0]:
        return SEVERITIES[0]
    if base_intensity < SEV_BINS[1]:
        return SEVERITIES[1]
    return SEVERITIES[2]


def render_report(obs_labels, intensities, variant_picks, negation_picks, artifact=False):
    """Assemble the report text for a label vector.

    Active observations contribute their template sentence (severity from the
    shared latent intensity), then negations for the picked inactive
    pathologies, then a deterministic impression. All-zero labels therefore
    yield only normal-finding sentences. Labels are 0 or 1, intensities and
    variant picks are dicts keyed by observation index, each pick indexing
    one of its templates, and negation picks are distinct indices of inactive
    pathologies.
    """
    for what, arg in (("intensities", intensities), ("variant picks", variant_picks)):
        if not isinstance(arg, dict):
            raise ValidationError(f"{what} must be a dict keyed by observation index, got {arg!r}")
    if not np.iterable(negation_picks):
        raise ValidationError(f"negation picks must be an iterable of indices, got {negation_picks!r}")
    if (labels := _numbers(obs_labels)) is None or labels.shape != (N_OBS,):
        raise ValidationError(f"report labels must be {N_OBS} numbers, got {obs_labels!r}")
    labels = labels.tolist()
    if bad := [v for v in labels if v not in (0, 1)]:
        raise ValidationError(f"report labels must be 0 or 1, got {bad[0]!r}")
    picks = [_index(j, NO_FINDING, "negation pick") for j in negation_picks]
    for j in picks:
        if labels[j] or picks.count(j) > 1:
            raise ValidationError(f"negation pick {j} must be a distinct inactive pathology")
    sentences = []
    for j in range(N_OBS):
        if labels[j]:
            spec = OBSERVATIONS[j]
            tmpl = spec.templates[_index(variant_picks.get(j, 0), len(spec.templates), "variant pick")]
            sentences.append(tmpl.format(sev=severity_word(intensities.get(j, 0.7))))
    for j in sorted(picks):
        sentences.append(OBSERVATIONS[j].negation)
    if artifact:
        sentences.append(ARTIFACT_SENTENCE)
    n_path = int(sum(labels[:NO_FINDING]))
    sentences.append(IMPRESSIONS[min(n_path, 2)])
    return " ".join(sentences)


# ---------------------------------------------------------------------------
# image rendering


def _render_view(rng, patterns, active, intensities, factor, noise_level):
    """One view's read-only 8-bit levels: noise, then each active pattern's mask * level stamped by maximum
    into its jittered box, rounded to _MAXVAL's levels.

    Stamping the box alone gives the bits of a maximum with a whole-image mask * level: outside the box
    that product is +0.0, and the noise canvas is already >= 0 there. The frame's jitter is drawn too,
    and moves nothing, so every seeded draw keeps its place.
    """
    canvas = rng.uniform(0.0, noise_level, size=patterns[NO_FINDING][0].shape)  # the frame spans the image
    for j in active:
        jr, jc = rng.integers(-JITTER, JITTER + 1), rng.integers(-JITTER, JITTER + 1)
        level = intensities[j] * factor * rng.uniform(0.92, 1.0)
        mask, corner = patterns[j]
        r0, c0 = (0, 0) if corner is None else (corner[0] + jr, corner[1] + jc)
        box = canvas[r0:r0 + len(mask), c0:c0 + len(mask)]
        np.maximum(box, mask * level, out=box)
    # Every seeded output depends on this rounding, done in place, and on an image read dividing by _MAXVAL:
    # multiplying by 1 / _MAXVAL instead changes the last bit of 24 of the 256 levels.
    canvas *= _MAXVAL
    levels = np.round(canvas, out=canvas).astype(np.uint8)
    levels.flags.writeable = False
    return levels


def generate_dataset(seed, n_samples, image_size=32):
    """Deterministically generate n_samples multi-view samples with reports."""
    n_samples = _index(n_samples, math.inf, "sample count", low=10)
    image_size = _image_size(image_size)
    rng = np.random.default_rng(_index(seed, math.inf, "seed"))
    patterns = _patterns(image_size)
    samples = []
    for _ in range(n_samples):
        labels = np.zeros(N_OBS)
        draws = rng.random(len(PATHOLOGY_INDICES))
        active = [j for j in PATHOLOGY_INDICES if draws[j] < PATHOLOGY_RATE]
        if len(active) > MAX_ACTIVE:
            active = sorted(rng.choice(active, size=MAX_ACTIVE, replace=False).tolist())
        labels[active] = 1.0
        if not active:
            labels[NO_FINDING] = 1.0
        planted = active if active else [NO_FINDING]

        intensities = {j: float(rng.uniform(0.55, 0.95)) for j in planted}
        inactive = [j for j in PATHOLOGY_INDICES if not labels[j]]
        negations = sorted(rng.choice(inactive, size=2, replace=False).tolist())
        variants = {j: int(rng.integers(0, 2)) for j in planted}
        artifact = bool(rng.random() < ARTIFACT_RATE)

        text = render_report(labels, intensities, variants, negations, artifact)
        frontal = _render_view(rng, patterns, planted, intensities, 1.0, FRONTAL_NOISE)
        lateral = _render_view(rng, patterns, planted, intensities, LATERAL_FACTOR, LATERAL_NOISE)
        samples.append(MultiViewSample(
            frontal_levels=frontal[None, :, :],
            lateral_levels=lateral[None, :, :],
            obs_labels=labels,
            report_text=text,
        ))
    return samples


# ---------------------------------------------------------------------------
# tokenization and concept mining

_XXXX = re.compile(r"x{2,}$")
_DROP = re.compile(r"[^a-z0-9.\s-]+")  # \s is exactly what str.split() splits on


def tokenize(text):
    """Lowercase, split sentences on '.', clean tokens, wrap with sentinels.

    Punctuation is stripped except within-word hyphens; de-identification
    runs of x become <unk>. A text that is not a str, or yields no sentence,
    raises ValidationError.
    """
    if not isinstance(text, str):
        raise ValidationError(f"report text must be a string, got {text!r}")
    sentences = []
    for raw in _DROP.sub("", text.lower()).split("."):
        tokens = [UNK if tok.startswith("xx") and _XXXX.fullmatch(tok) else tok
                  for tok in (t.strip("-") for t in raw.split()) if tok]
        if tokens:
            sentences.append([START] + tokens + [END])
    if not sentences:
        raise ValidationError(f"no sentences left after tokenizing {text!r}")
    return sentences


class ConceptSet:
    """Mined concept tokens ordered by descending corpus frequency."""

    def __init__(self, tokens):
        if not tokens:
            raise ValidationError("concept mining produced an empty concept set")
        self.tokens = list(tokens)

    @property
    def p(self):
        return len(self.tokens)


_LEXICON = frozenset(CONCEPT_LEXICON)


def mine_concepts(corpus_sentences, threshold):
    """Lexicon tokens with corpus frequency >= threshold, most frequent first."""
    threshold = _index(threshold, math.inf, "concept threshold", low=1)
    counts = Counter(tok for sent in corpus_sentences for tok in sent if tok in _LEXICON)
    return ConceptSet(sorted((t for t, c in counts.items() if c >= threshold), key=lambda t: (-counts[t], t)))


def split_dataset(samples, test_fraction=0.2, seed=0):
    """Disjoint, exhaustive, seed-deterministic sample-level split; neither side may be empty."""
    if not (isinstance(test_fraction, numbers.Real) and 0 < test_fraction < 1):
        raise ValidationError(f"test fraction must be in (0,1), got {test_fraction}")
    samples = list(samples)  # an iterator is read once
    rng = np.random.default_rng(_index(seed, math.inf, "seed"))
    order = rng.permutation(len(samples))
    n_test = int(round(len(samples) * test_fraction))
    if not 0 < n_test < len(samples):
        raise ValidationError(f"test fraction {test_fraction} of {len(samples)} samples leaves an empty split")
    test_idx = set(order[:n_test].tolist())
    train = [s for i, s in enumerate(samples) if i not in test_idx]
    test = [s for i, s in enumerate(samples) if i in test_idx]
    return train, test

