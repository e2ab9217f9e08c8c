"""Synthetic multi-view chest-image dataset, report tokenization, vocabulary
construction, and frequency-based concept mining.

Each of the 14 radiographic observations is rendered as a distinct geometric
pattern at a fixed grid cell; a sample's active observations appear in both
views (shared latent intensity, view-specific jitter) and drive the report
templates, so every label is recoverable from either image and every report
is recoverable from the labels plus the sampled template choices.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ValidationError
from .pgm import read_pgm, write_pgm

PAD, START, END, UNK = "<pad>", "<start>", "<end>", "<unk>"
RESERVED = (PAD, START, END, UNK)
SENTINELS = (PAD, START, END)  # structure tokens, dropped before a report is shown or scored
PAD_ID, START_ID, END_ID, UNK_ID = 0, 1, 2, 3

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
MIN_SENTENCES = 3  # a loaded report needs at least this many sentences
MIN_WORD_COUNT = 3  # rarer corpus words map to <unk>

PATHOLOGY_RATE = 0.13
MAX_ACTIVE = 4
ARTIFACT_RATE = 0.02
LATERAL_FACTOR = 0.8
FRONTAL_NOISE = 0.08
LATERAL_NOISE = 0.15


@dataclass
class MultiViewSample:
    sample_id: str
    frontal_image: np.ndarray      # (1, s, s) in [0, 1]
    lateral_image: np.ndarray
    obs_labels: np.ndarray         # (14,) in {0, 1}
    report: list                   # token sentences incl. <start>/<end>
    report_text: str


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
    raise ConfigError(f"unknown pattern shape '{shape}'")


def pattern_pixels(obs_index, image_size, jitter=(0, 0)):
    """Boolean (s,s) mask of observation obs_index's pattern at a given jitter."""
    spec = OBSERVATIONS[obs_index]
    mask = np.zeros((image_size, image_size), dtype=bool)
    if spec.cell is None:  # whole-image border frame
        w = max(1, image_size // 16)
        mask[:w, :] = mask[-w:, :] = True
        mask[:, :w] = mask[:, -w:] = True
        return mask
    cs = image_size // GRID
    b = cs - 2
    sm = _shape_mask(spec.shape, b)
    r0 = spec.cell[0] * cs + 1 + jitter[0]
    c0 = spec.cell[1] * cs + 1 + jitter[1]
    r0 = min(max(r0, 0), image_size - b)
    c0 = min(max(c0, 0), image_size - b)
    mask[r0:r0 + b, c0:c0 + b] = sm
    return mask


def pattern_mask(obs_index, image_size):
    """Union of the pattern over all jitters, i.e. where it can appear."""
    mask = np.zeros((image_size, image_size), dtype=bool)
    for dr in range(-JITTER, JITTER + 1):
        for dc in range(-JITTER, JITTER + 1):
            mask |= pattern_pixels(obs_index, image_size, (dr, dc))
    return mask


# ---------------------------------------------------------------------------
# report rendering


def severity_word(base_intensity):
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
    yield only normal-finding sentences.
    """
    sentences = []
    for j in range(N_OBS):
        if obs_labels[j] >= 1:
            spec = OBSERVATIONS[j]
            tmpl = spec.templates[variant_picks.get(j, 0) % len(spec.templates)]
            sentences.append(tmpl.format(sev=severity_word(intensities.get(j, 0.7))))
    for j in sorted(negation_picks):
        sentences.append(OBSERVATIONS[j].negation)
    if artifact:
        sentences.append(ARTIFACT_SENTENCE)
    n_path = int(sum(obs_labels[j] for j in PATHOLOGY_INDICES))
    sentences.append(IMPRESSIONS[min(n_path, 2)])
    return " ".join(sentences)


# ---------------------------------------------------------------------------
# image rendering


def _render_view(rng, image_size, active, intensities, factor, noise_level):
    canvas = rng.uniform(0.0, noise_level, size=(image_size, image_size))
    for j in active:
        jr, jc = rng.integers(-JITTER, JITTER + 1), rng.integers(-JITTER, JITTER + 1)
        level = intensities[j] * factor * rng.uniform(0.92, 1.0)
        mask = pattern_pixels(j, image_size, (jr, jc))
        canvas = np.maximum(canvas, mask * level)
    return np.round(canvas * 255.0) / 255.0


def generate_dataset(seed, n_samples, image_size=32):
    """Deterministically generate n_samples multi-view samples with reports."""
    if n_samples < 10:
        raise ValidationError(f"need at least 10 samples, got {n_samples}")
    if image_size < 16 or image_size % 8:
        raise ConfigError(
            f"image_size {image_size} too small for the pattern grid (needs >= 16, divisible by 8)")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
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
        frontal = _render_view(rng, image_size, planted, intensities, 1.0, FRONTAL_NOISE)
        lateral = _render_view(rng, image_size, planted, intensities, LATERAL_FACTOR, LATERAL_NOISE)
        samples.append(MultiViewSample(
            sample_id=f"s{i:05d}",
            frontal_image=frontal[None, :, :],
            lateral_image=lateral[None, :, :],
            obs_labels=labels,
            report=tokenize(text),
            report_text=text,
        ))
    return samples


# ---------------------------------------------------------------------------
# tokenization and vocabulary

_XXXX = re.compile(r"x{2,}$")
_KEEP = re.compile(r"[^a-z0-9-]+")


def tokenize(text):
    """Lowercase, split sentences on '.', clean tokens, wrap with sentinels.

    Punctuation is stripped except within-word hyphens; de-identification
    runs of x become <unk>.
    """
    if not text or not text.strip():
        raise DataError("empty report text")
    sentences = []
    for raw in text.lower().split("."):
        tokens = []
        for tok in raw.split():
            tok = _KEEP.sub("", tok).strip("-")
            if not tok:
                continue
            if _XXXX.fullmatch(tok):
                tok = UNK
            tokens.append(tok)
        if tokens:
            sentences.append([START] + tokens + [END])
    if not sentences:
        raise DataError(f"no sentences left after tokenizing {text!r}")
    return sentences


def detokenize(sentences, id_to_token=None):
    """Render token sentences one per line, sentinels dropped, single spaces."""
    lines = []
    for sent in sentences:
        toks = [id_to_token[t] if id_to_token is not None else t for t in sent]
        lines.append(" ".join(t for t in toks if t not in SENTINELS))
    return "\n".join(lines)


def _ranked(tokens, min_count):
    """(token, count) pairs of the tokens seen at least min_count times, most frequent first, ties by token."""
    return sorted(((t, c) for t, c in Counter(tokens).items() if c >= min_count), key=lambda tc: (-tc[1], tc[0]))


class Vocabulary:
    """Bidirectional token<->id map with reserved sentinel ids 0..3."""

    def __init__(self, tokens_with_counts):
        self.id_to_token = list(RESERVED) + [t for t, _ in tokens_with_counts]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        self.counts = dict(tokens_with_counts)

    @classmethod
    def build(cls, corpus_sentences):
        if not corpus_sentences:
            raise DataError("cannot build a vocabulary from an empty corpus")
        return cls(_ranked((tok for sent in corpus_sentences for tok in sent if tok not in RESERVED),
                           MIN_WORD_COUNT))

    def id(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def token(self, idx):
        return self.id_to_token[idx]

    def encode(self, sentence):
        return [self.id(t) for t in sentence]

    def __len__(self):
        return len(self.id_to_token)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token


class ConceptSet:
    """Mined concept tokens ordered by descending corpus frequency."""

    def __init__(self, tokens_with_counts):
        if not tokens_with_counts:
            raise ConfigError("concept mining produced an empty concept set")
        self.tokens = [t for t, _ in tokens_with_counts]
        self.counts = dict(tokens_with_counts)

    @property
    def p(self):
        return len(self.tokens)

    def indicator(self, sentences):
        """Binary vector of which concepts literally occur in the report."""
        present = {tok for sent in sentences for tok in sent}
        return np.array([1.0 if t in present else 0.0 for t in self.tokens])


_LEXICON = frozenset(CONCEPT_LEXICON)


def mine_concepts(corpus_sentences, threshold):
    """Lexicon tokens with corpus frequency >= threshold, most frequent first."""
    if threshold < 1:
        raise ValidationError(f"concept threshold must be >= 1, got {threshold}")
    return ConceptSet(_ranked((tok for sent in corpus_sentences for tok in sent if tok in _LEXICON), threshold))


def split_dataset(samples, test_fraction=0.2, seed=0):
    """Disjoint, exhaustive, seed-deterministic sample-level split."""
    if not 0 < test_fraction < 1:
        raise ValidationError(f"test fraction must be in (0,1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_test = int(round(len(samples) * test_fraction))
    test_idx = set(order[:n_test].tolist())
    train = [s for i, s in enumerate(samples) if i not in test_idx]
    test = [s for i, s in enumerate(samples) if i in test_idx]
    return train, test


# ---------------------------------------------------------------------------
# dataset persistence: images/{id}_{f|l}.pgm, reports/{id}.txt, labels.csv,
# vocab.txt, concepts.txt. A sample's concept targets are not stored: they are
# concepts.indicator(sample.report).

_SAMPLE_ID = re.compile(r"[A-Za-z0-9_-]+")  # also names the sample's files, so no path separators
_LABELS_HEADER = ["sample_id", *LABEL_NAMES]


def save_dataset(directory, samples, vocab, concepts):
    directory = Path(directory)
    (directory / "images").mkdir(parents=True, exist_ok=True)
    (directory / "reports").mkdir(parents=True, exist_ok=True)
    for s in samples:
        write_pgm(directory / "images" / f"{s.sample_id}_f.pgm", s.frontal_image[0])
        write_pgm(directory / "images" / f"{s.sample_id}_l.pgm", s.lateral_image[0])
        (directory / "reports" / f"{s.sample_id}.txt").write_text(s.report_text + "\n", encoding="utf-8")
    with open(directory / "labels.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_LABELS_HEADER)
        for s in samples:
            writer.writerow([s.sample_id, *(str(int(v)) for v in s.obs_labels)])
    _write_counts(directory / "vocab.txt", vocab.id_to_token, vocab.counts)
    _write_counts(directory / "concepts.txt", concepts.tokens, concepts.counts)


def _write_counts(path, tokens, counts):
    """One `token count` line per token, in order; a token without a count gets 0."""
    path.write_text("".join(f"{tok} {counts.get(tok, 0)}\n" for tok in tokens), encoding="utf-8")


def _read_counts(path):
    """(token, count) pairs from a file of `token count` lines."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    rows, seen = [], set()
    for n, line in enumerate(lines, 1):
        try:
            token, count = line.split()
            count = int(count)
        except ValueError:
            raise DataError(f"{path}:{n}: expected 'token count', got {line!r}") from None
        if count < 0:
            raise DataError(f"{path}:{n}: count of {token!r} is negative ({count})")
        if token in seen:
            raise DataError(f"{path}:{n}: token {token!r} repeats an earlier line")
        seen.add(token)
        rows.append((token, count))
    return rows


def load_dataset(directory):
    """Load a persisted dataset; returns (samples, vocab, concepts)."""
    directory = Path(directory)
    labels_path = directory / "labels.csv"
    if not labels_path.exists():
        raise DataError(f"no dataset at {directory} (missing labels.csv)")

    vocab_rows = _read_counts(directory / "vocab.txt")
    if tuple(t for t, _ in vocab_rows[:len(RESERVED)]) != RESERVED:
        raise DataError(f"{directory / 'vocab.txt'}: the first lines must be {' '.join(RESERVED)}, in that order")
    vocab = Vocabulary(vocab_rows[len(RESERVED):])
    concept_rows = _read_counts(directory / "concepts.txt")
    if not concept_rows:
        raise DataError(f"{directory / 'concepts.txt'} lists no concepts")
    concepts = ConceptSet(concept_rows)

    samples, seen, size = [], set(), None
    with open(labels_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _LABELS_HEADER:
            raise DataError(f"{labels_path}: header must be sample_id and the {N_OBS} label names in order, "
                            f"got {header}")
        for row in reader:
            where = f"{labels_path}:{reader.line_num}"
            if len(row) != len(_LABELS_HEADER):
                raise DataError(f"{where}: expected {len(_LABELS_HEADER)} fields, got {len(row)}")
            sid = row[0]
            if not _SAMPLE_ID.fullmatch(sid):
                raise DataError(f"{where}: sample id {sid!r} must match {_SAMPLE_ID.pattern}")
            if sid in seen:
                raise DataError(f"{where}: sample id {sid!r} repeats an earlier row")
            seen.add(sid)
            try:
                values = [float(v) for v in row[1:]]
                text = (directory / "reports" / f"{sid}.txt").read_text(encoding="utf-8").strip()
                frontal = read_pgm(directory / "images" / f"{sid}_f.pgm")
                lateral = read_pgm(directory / "images" / f"{sid}_l.pgm")
            except (ValueError, OSError) as exc:
                raise DataError(f"{where}: sample {sid!r}: {exc}") from None
            if any(v not in (0.0, 1.0) for v in values):
                raise DataError(f"{where}: label values must be 0 or 1, got {row[1:]}")
            size = size or (frontal.shape[0],) * 2  # every view is square, sized like the first frontal
            if frontal.shape != size or lateral.shape != size:
                raise DataError(f"{where}: sample {sid!r} has views of {frontal.shape} and "
                                f"{lateral.shape}, expected {size}")
            sentences = tokenize(text)
            if len(sentences) < MIN_SENTENCES:
                raise DataError(f"report {sid} has fewer than {MIN_SENTENCES} sentences")
            samples.append(MultiViewSample(
                sample_id=sid,
                frontal_image=frontal[None, :, :],
                lateral_image=lateral[None, :, :],
                obs_labels=np.array(values),
                report=sentences,
                report_text=text,
            ))
    return samples, vocab, concepts
