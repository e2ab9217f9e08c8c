"""Corpus-level text-generation metrics and ROC-AUC for the observation heads.

All text metrics operate on token sequences (any hashable tokens); sentence
sentinels are stripped before scoring, and multi-sentence reports are scored
as one flattened sequence per report.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import SENTINELS
from .errors import ValidationError

BLEU_ORDER = 4


def _flatten(report):
    """Flatten a report (sequence of sentences, or one flat sequence) to tokens."""
    if report and isinstance(report[0], (list, tuple)):
        flat = [tok for sent in report for tok in sent]
    else:
        flat = list(report)
    return [tok for tok in flat if tok not in SENTINELS]


def _token_pairs(hypotheses, references, op):
    """Flattened (hypothesis, reference) token lists of a non-empty, equal-count set."""
    if len(hypotheses) == 0:
        raise ValidationError(f"{op} needs a non-empty hypothesis set")
    if len(hypotheses) != len(references):
        raise ValidationError(
            f"{op} needs equal counts, got {len(hypotheses)} hypotheses and {len(references)} references")
    return [(_flatten(h), _flatten(r)) for h, r in zip(hypotheses, references)]


def _ngrams(tokens):
    """Counts of every n-gram of orders 1..BLEU_ORDER, keyed by token tuple."""
    return Counter(tuple(tokens[i:i + n])
                   for n in range(1, BLEU_ORDER + 1) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references):
    """Corpus-level [BLEU-1, ..., BLEU-4] with clipped counts, geometric mean
    over orders 1..n, and brevity penalty exp(1-r/c) when c < r.

    BLEU-n is 0 once an order at or below n has no match."""
    pairs = _token_pairs(hypotheses, references, "bleu")
    matched, total = [0] * BLEU_ORDER, [0] * BLEU_ORDER
    for h, rf in pairs:
        for gram, count in (_ngrams(h) & _ngrams(rf)).items():  # & keeps the clipped count
            matched[len(gram) - 1] += count
        for k in range(BLEU_ORDER):
            total[k] += max(0, len(h) - k)

    c = sum(len(h) for h, _ in pairs)
    r = sum(len(rf) for _, rf in pairs)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c) if c > 0 else 0.0
    scores, log_sum = [], 0
    for n, (m, t) in enumerate(zip(matched, total), 1):
        if m == 0:
            break
        log_sum += math.log(m / t)
        scores.append(bp * math.exp(log_sum / n))
    return scores + [0.0] * (BLEU_ORDER - len(scores))


def bleu_n(hypotheses, references, n):
    """BLEU-n alone: `bleu(hypotheses, references)[n - 1]`."""
    if not 1 <= n <= BLEU_ORDER:
        raise ValidationError(f"BLEU order must be in 1..{BLEU_ORDER}, got {n}")
    return bleu(hypotheses, references)[n - 1]


def _mean_over_pairs(hypotheses, references, op, score):
    """Mean of score(hyp, ref) over the pairs; a pair with an empty side scores 0."""
    pairs = _token_pairs(hypotheses, references, op)
    return sum(score(h, rf) if h and rf else 0.0 for h, rf in pairs) / len(pairs)


def _rouge_pair(hyp, ref):
    """LCS F-measure (beta = 1) of two non-empty token lists."""
    prev = [0] * (len(ref) + 1)  # classic O(len(hyp)*len(ref)) dynamic program
    for x in hyp:
        cur = [0]
        for j, y in enumerate(ref, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    lcs = prev[-1]
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return 2.0 * p * r / (p + r)


def rouge_l(hypotheses, references):
    """LCS F-measure with beta=1, averaged over hypothesis/reference pairs."""
    return _mean_over_pairs(hypotheses, references, "rouge_l", _rouge_pair)


def _align(hyp, ref):
    """Exact-match unigram alignment, greedily preferring the ref position that
    continues the previous match; returns (matches, chunks)."""
    used = [False] * len(ref)
    matches = chunks = 0
    prev_ref = None
    for tok in hyp:
        candidates = [j for j, rtok in enumerate(ref) if rtok == tok and not used[j]]
        if not candidates:
            prev_ref = None
            continue
        if prev_ref is not None and prev_ref + 1 in candidates:
            j = prev_ref + 1
        else:  # the match does not extend the previous one, so it opens a chunk
            j = candidates[0]
            chunks += 1
        used[j] = True
        matches += 1
        prev_ref = j
    return matches, chunks


def _meteor_pair(hyp, ref):
    """METEOR-lite of two non-empty token lists."""
    m, chunks = _align(hyp, ref)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = 10.0 * p * r / (r + 9.0 * p)
    return f_mean * (1.0 - 0.5 * (chunks / m) ** 3)


def meteor_lite(hypotheses, references):
    """Exact-match METEOR variant: F_mean = 10PR/(R+9P), fragmentation
    penalty 0.5*(chunks/matches)^3, no stemming or synonymy."""
    return _mean_over_pairs(hypotheses, references, "meteor_lite", _meteor_pair)


def roc_auc(scores, labels):
    """P(random positive outscores random negative), ties counted 0.5.

    This is the Mann-Whitney U statistic over P*N. Each positive is located
    among the sorted negatives by binary search, so it takes O(n log n) time
    and O(n) memory, and U is an exact half-integer sum.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError(f"roc_auc needs matching 1-d arrays, got {scores.shape} and {labels.shape}")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValidationError("roc_auc labels must be binary")
    if np.isnan(scores).any():
        raise ValidationError("roc_auc scores must not be NaN")
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    if len(pos) == 0 or len(neg) == 0:
        raise ValidationError("roc_auc needs at least one positive and one negative")
    below = np.searchsorted(neg, pos, side="left")  # negatives each positive outscores
    upto = np.searchsorted(neg, pos, side="right")
    greater = below.sum()
    ties = (upto - below).sum()
    return (greater + 0.5 * ties) / (len(pos) * len(neg))


def avg_auc(score_matrix, label_matrix, label_names):
    """Mean per-label AUC of two (n >= 1, len(label_names)) matrices, skipping single-class labels.

    Returns (average, {name: auc, or nan where skipped}). Any other invalid
    column, such as a NaN score or a non-binary label, raises ValidationError.
    """
    score_matrix = np.asarray(score_matrix, dtype=np.float64)
    label_matrix = np.asarray(label_matrix)
    if (score_matrix.ndim != 2 or score_matrix.shape[0] < 1 or score_matrix.shape[1] != len(label_names)
            or label_matrix.shape != score_matrix.shape):
        raise ValidationError(f"avg_auc needs score and label matrices of shape (n >= 1, {len(label_names)}), "
                              f"got {score_matrix.shape} and {label_matrix.shape}")
    per_label = {}
    vals = []
    for j, name in enumerate(label_names):
        labels = label_matrix[:, j]
        if labels.min() == labels.max():
            per_label[name] = float("nan")
            continue
        auc = roc_auc(score_matrix[:, j], labels)
        per_label[name] = float(auc)
        vals.append(auc)
    if not vals:
        raise ValidationError("avg_auc undefined: every label is single-class")
    return float(sum(vals) / len(vals)), per_label


@dataclass
class ScoreReport:
    """One evaluation row: text metrics plus per-label and average AUC."""

    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    meteor: float
    rouge_l: float
    per_label_auc: dict
    avg_auc: float

    @property
    def skipped_labels(self):
        """The labels whose AUC is undefined (NaN), in label order."""
        return [name for name, auc in self.per_label_auc.items() if math.isnan(auc)]

    def _columns(self):
        """(column, CSV text) pairs in column order."""
        scores = [("bleu1", self.bleu1), ("bleu2", self.bleu2), ("bleu3", self.bleu3), ("bleu4", self.bleu4),
                  ("meteor", self.meteor), ("rouge_l", self.rouge_l)]
        scores += [(f"auc_{name}", auc) for name, auc in self.per_label_auc.items()]
        scores.append(("avg_auc", self.avg_auc))
        return [(col, repr(v)) for col, v in scores] + [("skipped_labels", ";".join(self.skipped_labels))]

    def csv_header(self):
        return ",".join(col for col, _ in self._columns())

    def csv_row(self):
        return ",".join(text for _, text in self._columns())


def score_generation(hypotheses, references, score_matrix, label_matrix, label_names):
    """Full ScoreReport for one system run."""
    avg, per_label = avg_auc(score_matrix, label_matrix, label_names)
    return ScoreReport(*bleu(hypotheses, references),
                       meteor=meteor_lite(hypotheses, references),
                       rouge_l=rouge_l(hypotheses, references),
                       per_label_auc=per_label,
                       avg_auc=avg)
