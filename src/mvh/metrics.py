"""Corpus-level text-generation metrics and ROC-AUC for the observation heads.

A report is a list of sentences, each a list of hashable tokens, as
`corpus.tokenize` makes it; a text metric scores its sentences as one sequence,
sentinels stripped, and refuses any other form (a str, a tuple, an array, a
flat token list) with a ValidationError naming the op. `_token_pairs`
checks and flattens reports and gives each token an int id as a dict key (equal
hash and ==), so BLEU, ROUGE-L and METEOR agree on which tokens are the same;
`score_generation` calls it once for the cores (`_bleu`, `_mean`). `bleu`, `bleu_n`,
`rouge_l` and `meteor_lite` are checked entry points over the same cores.
`_bleu` counts and clips the n-grams of all pairs in one integer-coded numpy
pass; ROUGE-L and METEOR score pair by pair. `avg_auc` is the one AUC entry
point: it checks its matrices whole, then scores each two-class column with
`_auc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .corpus import SENTINELS
from .errors import ValidationError, _index, _numbers

BLEU_ORDER = 4


def _flatten(report, op):
    """A report's tokens, sentinels dropped; a report that is not a list of list sentences raises ValidationError."""
    if not (isinstance(report, list) and all(isinstance(sent, list) for sent in report)):
        raise ValidationError(f"{op} needs each report as a list of sentences, each a list of tokens")
    return [tok for sent in report for tok in sent if tok not in SENTINELS]


def _token_pairs(hypotheses, references, op):
    """Flattened (hypothesis, reference) token-id lists of a non-empty, equal-count set. Each distinct token, as a
    dict key, has one id: the number of tokens before its first one (h0, r0, h1, ...), so below the total count."""
    if len(hypotheses) == 0:
        raise ValidationError(f"{op} needs a non-empty hypothesis set")
    if len(hypotheses) != len(references):
        raise ValidationError(
            f"{op} needs equal counts, got {len(hypotheses)} hypotheses and {len(references)} references")
    ids, position = {}, count()
    try:
        return [tuple(list(map(ids.setdefault, _flatten(report, op), position)) for report in pair)
                for pair in zip(hypotheses, references)]
    except TypeError:  # such as a list token
        raise ValidationError(f"{op} needs reports of hashable tokens") from None


def _bleu(pairs):
    """Corpus-level [BLEU-1, ..., BLEU-4] of checked, token-id pairs, in one integer pass.

    Each token id is below n_tok, the total token count (`_token_pairs`). With all reports end to end,
    a position's order-1 code is (its pair, its token) and its order-(n+1) code is (its order-n code, the
    token n places ahead), each renumbered densely by `np.unique`, so no key exceeds n_tok * max(n_tok,
    pairs) and int64 cannot overflow. One `np.bincount` per order splits each code's count by side: the
    clipped matches are the sum of the minima, the n-gram total the hypothesis side's sum.
    """
    reports = [side for pair in pairs for side in pair]  # h0, r0, h1, r1, ...
    lengths = np.array([len(rep) for rep in reports], dtype=np.int64)
    n_tok = int(lengths.sum())
    tok = np.fromiter(chain.from_iterable(reports), np.int64, n_tok)
    report = np.repeat(np.arange(len(reports)), lengths)
    left = np.cumsum(lengths)[report] - np.arange(n_tok)  # tokens from a position to its report's end
    side = report % 2

    c, r = int(lengths[0::2].sum()), int(lengths[1::2].sum())
    bp = 1.0 if c >= r else math.exp(1.0 - r / c) if c > 0 else 0.0
    scores, log_sum = [], 0
    pos, code = np.arange(n_tok), report // 2
    for n in range(1, BLEU_ORDER + 1):
        live = left[pos] >= n
        pos, code = pos[live], code[live]
        grams, code = np.unique(code * n_tok + tok[pos + n - 1], return_inverse=True)
        counts = np.bincount(2 * code + side[pos], minlength=2 * len(grams)).reshape(-1, 2)
        m, t = int(counts.min(axis=1).sum()), int(counts[:, 0].sum())
        if m == 0:
            break
        log_sum += math.log(m / t)
        scores.append(bp * math.exp(log_sum / n))
    return scores + [0.0] * (BLEU_ORDER - len(scores))


def bleu(hypotheses, references):
    """Corpus-level [BLEU-1, ..., BLEU-4] with clipped counts, geometric mean
    over orders 1..n, and brevity penalty exp(1-r/c) when c < r.

    BLEU-n is 0 once an order at or below n has no match."""
    return _bleu(_token_pairs(hypotheses, references, "bleu"))


def bleu_n(hypotheses, references, n):
    """BLEU-n alone: `bleu(hypotheses, references)[n - 1]`."""
    n = _index(n, BLEU_ORDER + 1, "BLEU order", low=1)
    return bleu(hypotheses, references)[n - 1]


def _mean(pairs, score):
    """Mean of score(hyp, ref) over checked, token-id pairs; a pair with an empty side scores 0."""
    return sum(score(h, rf) if h and rf else 0.0 for h, rf in pairs) / len(pairs)


def _rouge_pair(hyp, ref):
    """LCS F-measure (beta = 1) of two non-empty token lists.

    The LCS length comes from the bit-parallel recurrence of Allison & Dix
    (1986) in the form of Hyyro (2004). Bit j of `mask[x]` is set where
    ref[j] is x, and `row` starts with all len(ref) bits set. Each hypothesis
    token x takes `u = row & mask[x]` and `row = ((row + u) | (row - u)) & full`;
    afterwards the LCS is len(ref) minus the set bits of `row`. That is
    O(len(hyp)) big-int operations on len(ref)-bit ints, not the
    O(len(hyp) * len(ref)) cells of the dynamic-programming table.
    """
    mask = {}
    for j, y in enumerate(ref):
        mask[y] = mask.get(y, 0) | 1 << j
    full = row = (1 << len(ref)) - 1
    for x in hyp:
        u = row & mask.get(x, 0)
        row = ((row + u) | (row - u)) & full
    lcs = len(ref) - row.bit_count()
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return 2.0 * p * r / (p + r)


def rouge_l(hypotheses, references):
    """LCS F-measure with beta=1, averaged over hypothesis/reference pairs."""
    return _mean(_token_pairs(hypotheses, references, "rouge_l"), _rouge_pair)


def _align(hyp, ref):
    """Exact-match unigram alignment, greedily preferring the ref position that
    continues the previous match, else the first unused one; returns (matches, chunks).

    The reference is indexed once as {token: unused positions, ascending}, so
    each hypothesis token scans only the positions of its own token."""
    free = {}
    for j, rtok in enumerate(ref):
        free.setdefault(rtok, []).append(j)
    matches = chunks = 0
    prev_ref = None
    for tok in hyp:
        candidates = free.get(tok)
        if not candidates:
            prev_ref = None
            continue
        if prev_ref is not None and prev_ref + 1 in candidates:
            j = prev_ref + 1
        else:  # the match does not extend the previous one, so it opens a chunk
            j = candidates[0]
            chunks += 1
        candidates.remove(j)
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
    return _mean(_token_pairs(hypotheses, references, "meteor_lite"), _meteor_pair)


def _auc(scores, labels):
    """AUC of one column that avg_auc has checked: float64 scores, no NaN, 0/1 labels of both classes.

    P(random positive outscores random negative), ties counted 0.5: the Mann-Whitney U statistic over
    P*N. Each positive is located among the sorted negatives by binary search, so it takes O(n log n)
    time and O(n) memory, and U is an exact half-integer sum.
    """
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    below = np.searchsorted(neg, pos, side="left")  # negatives each positive outscores
    upto = np.searchsorted(neg, pos, side="right")
    greater = below.sum()
    ties = (upto - below).sum()
    return (greater + 0.5 * ties) / (len(pos) * len(neg))


def avg_auc(score_matrix, label_matrix, label_names):
    """Mean per-label AUC of two (n >= 1, len(label_names)) matrices, skipping single-class labels.

    Returns (average, {name: auc, or nan where skipped}). A value that is not a number
    (a string counts as none), a non-binary label or a NaN score anywhere, skipped
    columns included, raises ValidationError.
    """
    score_matrix, label_matrix = _numbers(score_matrix), _numbers(label_matrix)
    if score_matrix is None or label_matrix is None:  # such as strings, None or ragged rows
        raise ValidationError("avg_auc scores and labels must be matrices of numbers")
    score_matrix = score_matrix.astype(np.float64, copy=False)
    if (score_matrix.ndim != 2 or score_matrix.shape[0] < 1 or score_matrix.shape[1] != len(label_names)
            or label_matrix.shape != score_matrix.shape):
        raise ValidationError(f"avg_auc needs score and label matrices of shape (n >= 1, {len(label_names)}), "
                              f"got {score_matrix.shape} and {label_matrix.shape}")
    if not np.all((label_matrix == 0) | (label_matrix == 1)):  # a constant 2 or 0.5 column is not single-class
        raise ValidationError("avg_auc labels must be binary")
    if np.isnan(score_matrix).any():  # in a skipped single-class column too
        raise ValidationError("avg_auc scores must not be NaN")
    per_label = {}
    vals = []
    for j, name in enumerate(label_names):
        labels = label_matrix[:, j]
        if labels.min() == labels.max():
            per_label[name] = float("nan")
            continue
        auc = _auc(score_matrix[:, j], labels)
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


def score_generation(hypotheses, references, score_matrix, label_matrix, label_names):
    """Full ScoreReport for one system run."""
    avg, per_label = avg_auc(score_matrix, label_matrix, label_names)
    pairs = _token_pairs(hypotheses, references, "score_generation")
    return ScoreReport(*_bleu(pairs),
                       meteor=_mean(pairs, _meteor_pair),
                       rouge_l=_mean(pairs, _rouge_pair),
                       per_label_auc=per_label,
                       avg_auc=avg)
