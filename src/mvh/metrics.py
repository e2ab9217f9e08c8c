"""Corpus-level text-generation metrics and ROC-AUC for the observation heads.

All text metrics operate on token sequences (any hashable tokens); sentence
sentinels are stripped before scoring, and multi-sentence reports are scored
as one flattened sequence per report.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

SENTINELS = ("<pad>", "<start>", "<end>")


def _flatten(report):
    """Flatten a report (sequence of sentences, or one flat sequence) to tokens."""
    if report and isinstance(report[0], (list, tuple)):
        flat = [tok for sent in report for tok in sent]
    else:
        flat = list(report)
    return [tok for tok in flat if tok not in SENTINELS]


def _check_pairs(hypotheses, references, op):
    if len(hypotheses) == 0:
        raise ValidationError(f"{op} needs a non-empty hypothesis set")
    if len(hypotheses) != len(references):
        raise ValidationError(
            f"{op} needs equal counts, got {len(hypotheses)} hypotheses and {len(references)} references")


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(hypotheses, references, n):
    """Corpus-level BLEU with clipped counts, geometric mean over orders 1..n,
    and brevity penalty exp(1-r/c) when c < r."""
    if not 1 <= n <= 4:
        raise ValidationError(f"BLEU order must be in 1..4, got {n}")
    _check_pairs(hypotheses, references, "bleu")
    hyp_tokens = [_flatten(h) for h in hypotheses]
    ref_tokens = [_flatten(r) for r in references]

    c = sum(len(h) for h in hyp_tokens)
    r = sum(len(rf) for rf in ref_tokens)
    precisions = []
    for order in range(1, n + 1):
        matched = 0
        total = 0
        for h, rf in zip(hyp_tokens, ref_tokens):
            hc = _ngrams(h, order)
            rc = _ngrams(rf, order)
            matched += sum(min(count, rc[gram]) for gram, count in hc.items())
            total += sum(hc.values())
        if total == 0 or matched == 0:
            return 0.0
        precisions.append(matched / total)

    log_mean = sum(math.log(p) for p in precisions) / n
    bp = 1.0 if c >= r else math.exp(1.0 - r / c) if c > 0 else 0.0
    return bp * math.exp(log_mean)


def _lcs_len(a, b):
    # classic O(len(a)*len(b)) dynamic program
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge_l(hypotheses, references):
    """LCS F-measure with beta=1, averaged over hypothesis/reference pairs."""
    _check_pairs(hypotheses, references, "rouge_l")
    scores = []
    for h, rf in zip(hypotheses, references):
        ht, rt = _flatten(h), _flatten(rf)
        if not ht or not rt:
            scores.append(0.0)
            continue
        lcs = _lcs_len(ht, rt)
        if lcs == 0:
            scores.append(0.0)
            continue
        p = lcs / len(ht)
        r = lcs / len(rt)
        scores.append(2.0 * p * r / (p + r))
    return sum(scores) / len(scores)


def _align_greedy(hyp, ref):
    """Exact-match unigram alignment, greedily preferring runs that continue
    the previous mapping; returns aligned (hyp_pos, ref_pos) pairs."""
    used = [False] * len(ref)
    pairs = []
    prev_ref = None
    for i, tok in enumerate(hyp):
        candidates = [j for j, rtok in enumerate(ref) if rtok == tok and not used[j]]
        if not candidates:
            prev_ref = None
            continue
        if prev_ref is not None and prev_ref + 1 in candidates:
            j = prev_ref + 1
        else:
            j = candidates[0]
        used[j] = True
        pairs.append((i, j))
        prev_ref = j
    return pairs


def _count_chunks(pairs):
    chunks = 0
    prev = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def meteor_lite(hypotheses, references):
    """Exact-match METEOR variant: F_mean = 10PR/(R+9P), fragmentation
    penalty 0.5*(chunks/matches)^3, no stemming or synonymy."""
    _check_pairs(hypotheses, references, "meteor_lite")
    scores = []
    for h, rf in zip(hypotheses, references):
        ht, rt = _flatten(h), _flatten(rf)
        if not ht or not rt:
            scores.append(0.0)
            continue
        pairs = _align_greedy(ht, rt)
        m = len(pairs)
        if m == 0:
            scores.append(0.0)
            continue
        p = m / len(ht)
        r = m / len(rt)
        f_mean = 10.0 * p * r / (r + 9.0 * p)
        penalty = 0.5 * (_count_chunks(pairs) / m) ** 3
        scores.append(f_mean * (1.0 - penalty))
    return sum(scores) / len(scores)


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

    Returns (average, {name: auc or nan}, skipped names). Any other invalid
    column, such as a NaN score or a non-binary label, raises ValidationError.
    """
    score_matrix = np.asarray(score_matrix, dtype=np.float64)
    label_matrix = np.asarray(label_matrix)
    if (score_matrix.ndim != 2 or score_matrix.shape[0] < 1 or score_matrix.shape[1] != len(label_names)
            or label_matrix.shape != score_matrix.shape):
        raise ValidationError(f"avg_auc needs score and label matrices of shape (n >= 1, {len(label_names)}), "
                              f"got {score_matrix.shape} and {label_matrix.shape}")
    per_label = {}
    skipped = []
    vals = []
    for j, name in enumerate(label_names):
        labels = label_matrix[:, j]
        if labels.min() == labels.max():
            per_label[name] = float("nan")
            skipped.append(name)
            continue
        auc = roc_auc(score_matrix[:, j], labels)
        per_label[name] = float(auc)
        vals.append(auc)
    if not vals:
        raise ValidationError("avg_auc undefined: every label is single-class")
    return float(sum(vals) / len(vals)), per_label, skipped


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
    skipped_labels: list = field(default_factory=list)

    def csv_header(self):
        cols = ["bleu1", "bleu2", "bleu3", "bleu4", "meteor", "rouge_l"]
        cols += [f"auc_{name}" for name in self.per_label_auc]
        cols += ["avg_auc", "skipped_labels"]
        return ",".join(cols)

    def csv_row(self):
        vals = [repr(self.bleu1), repr(self.bleu2), repr(self.bleu3), repr(self.bleu4),
                repr(self.meteor), repr(self.rouge_l)]
        vals += [repr(v) for v in self.per_label_auc.values()]
        vals += [repr(self.avg_auc), ";".join(self.skipped_labels)]
        return ",".join(vals)


def score_generation(hypotheses, references, score_matrix, label_matrix, label_names):
    """Full ScoreReport for one system run."""
    avg, per_label, skipped = avg_auc(score_matrix, label_matrix, label_names)
    return ScoreReport(
        bleu1=bleu_n(hypotheses, references, 1),
        bleu2=bleu_n(hypotheses, references, 2),
        bleu3=bleu_n(hypotheses, references, 3),
        bleu4=bleu_n(hypotheses, references, 4),
        meteor=meteor_lite(hypotheses, references),
        rouge_l=rouge_l(hypotheses, references),
        per_label_auc=per_label,
        avg_auc=avg,
        skipped_labels=skipped,
    )
