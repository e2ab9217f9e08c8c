import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvh.errors import ValidationError
from mvh.metrics import (
    ScoreReport,
    avg_auc,
    bleu,
    bleu_n,
    meteor_lite,
    roc_auc,
    rouge_l,
    score_generation,
)


# independent scalar oracles -------------------------------------------------

def oracle_bleu(hyps, refs, n):
    """Plain-loop corpus BLEU for cross-checking."""
    precisions = []
    for order in range(1, n + 1):
        num = den = 0
        for h, r in zip(hyps, refs):
            hg = Counter(tuple(h[i:i + order]) for i in range(len(h) - order + 1))
            rg = Counter(tuple(r[i:i + order]) for i in range(len(r) - order + 1))
            num += sum(min(c, rg[g]) for g, c in hg.items())
            den += sum(hg.values())
        if den == 0 or num == 0:
            return 0.0
        precisions.append(num / den)
    c = sum(len(h) for h in hyps)
    r = sum(len(rf) for rf in refs)
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    return bp * math.exp(sum(math.log(p) for p in precisions) / n)


def oracle_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def _align_greedy(hyp, ref):
    """Greedy exact-match alignment preferring runs; aligned (hyp_pos, ref_pos) pairs."""
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


def oracle_meteor(hyps, refs):
    """METEOR-lite over flat token lists from an explicit alignment pair list."""
    scores = []
    for h, r in zip(hyps, refs):
        pairs = _align_greedy(h, r) if h and r else []
        m = len(pairs)
        if m == 0:
            scores.append(0.0)
            continue
        p, rr = m / len(h), m / len(r)
        f_mean = 10.0 * p * rr / (rr + 9.0 * p)
        scores.append(f_mean * (1.0 - 0.5 * (_count_chunks(pairs) / m) ** 3))
    return sum(scores) / len(scores)


# BLEU ------------------------------------------------------------------------

def test_bleu_identical_corpus_is_exactly_one():
    hyps = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w"]]
    for n in (1, 2, 3, 4):
        assert bleu_n(hyps, hyps, n) == 1.0


def test_bleu1_clipping_hand_case():
    # clipped unigram 1/3, c=3 > r=2 so BP=1
    score = bleu_n([["the", "the", "the"]], [["the", "cat"]], 1)
    assert score == pytest.approx(1 / 3, abs=1e-9)
    assert score == pytest.approx(0.3333, abs=5e-5)


def test_bleu_disjoint_vocab_is_zero():
    for n in (1, 2, 3, 4):
        assert bleu_n([["a", "b", "c"]], [["x", "y", "z"]], n) == 0.0


def test_bleu_brevity_penalty():
    # c=2 < r=4: p1=1, BP=exp(1-2) -- hand value
    score = bleu_n([["a", "b"]], [["a", "b", "c", "d"]], 1)
    assert score == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_bleu_matches_loop_oracle_on_random_corpora():
    rng = np.random.default_rng(0)
    vocab = list("abcdefg")
    hyps = [[vocab[i] for i in rng.integers(0, 7, size=rng.integers(3, 10))] for _ in range(8)]
    refs = [[vocab[i] for i in rng.integers(0, 7, size=rng.integers(3, 10))] for _ in range(8)]
    expected = [oracle_bleu(hyps, refs, n) for n in (1, 2, 3, 4)]
    for n in (1, 2, 3, 4):
        assert bleu_n(hyps, refs, n) == pytest.approx(expected[n - 1], abs=1e-12)
    assert bleu(hyps, refs) == pytest.approx(expected, abs=1e-12)


def test_bleu_is_zero_from_the_first_order_without_a_match():
    # bigrams ab and bc match, no trigram does: p1 = 3/5, p2 = 2/4, c=5 > r=3 so BP=1
    scores = bleu([["a", "b", "x", "b", "c"]], [["a", "b", "c"]])
    assert scores == pytest.approx([0.6, math.sqrt(0.6 * 0.5), 0.0, 0.0], abs=1e-12)
    assert scores[1] > 0 and scores[2] == scores[3] == 0.0


def test_bleu_strips_sentinels_and_flattens_sentences():
    hyp = [["<start>", "a", "b", "<end>"], ["<start>", "c", "<end>"]]
    ref = [["<start>", "a", "b", "<end>"], ["<start>", "c", "<end>"]]
    assert bleu_n([hyp], [ref], 2) == 1.0


def test_bleu_empty_hypothesis_set_rejected():
    with pytest.raises(ValidationError):
        bleu_n([], [], 1)


def test_bleu_monotone_in_order_when_precisions_positive():
    hyps = [["a", "b", "c", "d", "b", "c"]]
    refs = [["a", "b", "c", "e", "b", "c"]]
    scores = [bleu_n(hyps, refs, n) for n in (1, 2, 3)]
    assert scores[0] >= scores[1] >= scores[2] > 0


# ROUGE-L ----------------------------------------------------------------------

def test_rouge_identical():
    assert rouge_l([["a", "b", "c"]], [["a", "b", "c"]]) == 1.0


def test_rouge_hand_case():
    # LCS("a b c d", "a c d")=3, P=0.75, R=1.0 -> F1=0.857142857...
    score = rouge_l([["a", "b", "c", "d"]], [["a", "c", "d"]])
    assert score == pytest.approx(2 * 0.75 * 1.0 / 1.75, abs=1e-9)
    assert score == pytest.approx(0.8571, abs=5e-5)


def test_rouge_no_common_token():
    assert rouge_l([["a", "b"]], [["x", "y"]]) == 0.0


def test_rouge_matches_dp_oracle():
    rng = np.random.default_rng(5)
    vocab = list("abcd")
    for _ in range(20):
        h = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 9))]
        r = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 9))]
        lcs = oracle_lcs(h, r)
        if lcs == 0:
            expected = 0.0
        else:
            p, rr = lcs / len(h), lcs / len(r)
            expected = 2 * p * rr / (p + rr)
        assert rouge_l([h], [r]) == pytest.approx(expected, abs=1e-12)


# METEOR-lite -------------------------------------------------------------------

def test_meteor_identical_long():
    toks = list("abcdefghij")
    expected = 1.0 * (1.0 - 0.5 * (1 / 10) ** 3)
    assert meteor_lite([toks], [toks]) == pytest.approx(expected, abs=1e-12)


def test_meteor_zero_matches():
    assert meteor_lite([["a"]], [["b"]]) == 0.0


def test_meteor_hand_case():
    # P=1, R=0.75, chunks=1, m=3: F=10*0.75/(0.75+9)=0.76923..., pen=0.5/27
    score = meteor_lite([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
    f_mean = 10 * 1.0 * 0.75 / (0.75 + 9 * 1.0)
    expected = f_mean * (1 - 0.5 * (1 / 3) ** 3)
    assert score == pytest.approx(expected, abs=1e-9)
    assert score == pytest.approx(0.7550, abs=5e-5)


def test_meteor_fragmentation_penalty_hand_case():
    # hyp "a x b": matches a,b in ref "a b" form 2 chunks of size 1
    score = meteor_lite([["a", "x", "b"]], [["a", "b"]])
    p, r = 2 / 3, 1.0
    f_mean = 10 * p * r / (r + 9 * p)
    expected = f_mean * (1 - 0.5 * (2 / 2) ** 3)
    assert score == pytest.approx(expected, abs=1e-12)


# few distinct tokens, so the greedy alignment often has repeats to choose between
_small_vocab_report = st.lists(st.integers(0, 3), max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_small_vocab_report, _small_vocab_report), min_size=1, max_size=5))
@example([([0, 1, 0, 1, 0], [0, 0, 1, 1, 0]), ([], [1]), ([2, 2], [2, 2, 2])])
def test_meteor_equals_alignment_oracle_exactly(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert meteor_lite(hyps, refs) == oracle_meteor(hyps, refs)


# ROC-AUC -------------------------------------------------------------------------

def oracle_auc(scores, labels):
    """The O(P*N) definition: compare every positive with every negative."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * ties) / (len(pos) * len(neg))


# few distinct scores, so most draws have ties within and across the classes
_tied_scores = st.one_of(st.integers(0, 6).map(lambda i: i / 6), st.floats(0, 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_tied_scores, st.integers(0, 1)), min_size=2, max_size=60))
def test_auc_equals_pairwise_definition_exactly(pairs):
    scores = [s for s, _ in pairs]
    labels = [l for _, l in pairs]
    assume(len(set(labels)) == 2)
    assert roc_auc(scores, labels) == oracle_auc(scores, labels)


def test_auc_nan_score_rejected():
    with pytest.raises(ValidationError):
        roc_auc([0.1, float("nan"), 0.3], [0, 1, 1])


def test_auc_perfect_separation():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auc_hand_case():
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)


def test_auc_label_inversion_symmetry():
    scores = [0.1, 0.7, 0.3, 0.9, 0.5]
    labels = [0, 1, 0, 1, 1]
    flipped = [1 - l for l in labels]
    assert roc_auc(scores, labels) == pytest.approx(1 - roc_auc(scores, flipped), abs=1e-12)


def test_auc_ties_count_half():
    assert roc_auc([0.5, 0.5], [0, 1]) == pytest.approx(0.5)


def test_auc_single_class_rejected():
    with pytest.raises(ValidationError):
        roc_auc([0.1, 0.2], [1, 1])


def test_avg_auc_skips_undefined_labels():
    scores = np.array([[0.9, 0.4], [0.1, 0.6]])
    labels = np.array([[1, 1], [0, 1]])
    avg, per_label = avg_auc(scores, labels, ["first", "second"])
    assert avg == 1.0
    assert per_label["first"] == 1.0
    assert math.isnan(per_label["second"])


def _with_nan_score(scores, labels):
    scores[7, 1] = np.nan
    return scores, labels


@pytest.mark.parametrize("damage, message", [
    pytest.param(_with_nan_score, "NaN", id="nan_score"),
    pytest.param(lambda s, l: (s[:, :2], l), "shape", id="too_few_score_columns"),
    pytest.param(lambda s, l: (s[:40], l), "shape", id="row_count_mismatch"),
])
def test_avg_auc_malformed_input_is_validation_error(damage, message):
    rng = np.random.default_rng(12)
    scores, labels = damage(rng.uniform(size=(50, 3)), rng.integers(0, 2, size=(50, 3)))
    with pytest.raises(ValidationError, match=message):
        avg_auc(scores, labels, ["a", "b", "c"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=4, max_size=24))
# 1.0 and the float below it: a squashing map like tanh(3 * s) rounds them to one score
@example([(1.0, 1), (0.9999999999999999, 0), (0.0, 0), (0.5, 1)])
def test_auc_invariant_under_monotone_transform(pairs):
    scores = [s for s, _ in pairs]
    labels = [l for _, l in pairs]
    if len(set(labels)) < 2:
        return
    base = roc_auc(scores, labels)
    # strictly increasing on [0, 1] and exact in floating point, so no two distinct scores merge
    warped = roc_auc([s if s < 0.5 else 4.0 * s for s in scores], labels)
    assert warped == pytest.approx(base, abs=1e-12)


# invariances across metrics ----------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8), min_size=1, max_size=4))
def test_text_metrics_invariant_under_token_relabeling(seqs):
    hyps = seqs
    refs = [list(reversed(s)) for s in seqs]
    relabel = {i: i + 100 for i in range(6)}
    hyps2 = [[relabel[t] for t in s] for s in hyps]
    refs2 = [[relabel[t] for t in s] for s in refs]
    for n in (1, 2):
        assert bleu_n(hyps, refs, n) == pytest.approx(bleu_n(hyps2, refs2, n), abs=1e-12)
    assert rouge_l(hyps, refs) == pytest.approx(rouge_l(hyps2, refs2), abs=1e-12)
    assert meteor_lite(hyps, refs) == pytest.approx(meteor_lite(hyps2, refs2), abs=1e-12)


def test_score_report_csv_round():
    report = ScoreReport(1.0, 0.5, 0.25, 0.125, 0.3, 0.4,
                         {"mass": math.nan, "edema": 0.9, "nodule": math.nan, "pneumonia": 0.8}, 0.85)
    assert report.skipped_labels == ["mass", "nodule"]
    header = report.csv_header()
    row = report.csv_row()
    assert header.split(",")[:6] == ["bleu1", "bleu2", "bleu3", "bleu4", "meteor", "rouge_l"]
    assert "auc_edema" in header and "avg_auc" in header
    assert len(header.split(",")) == len(row.split(","))
    columns = dict(zip(header.split(","), row.split(",")))
    assert columns == {"bleu1": "1.0", "bleu2": "0.5", "bleu3": "0.25", "bleu4": "0.125", "meteor": "0.3",
                       "rouge_l": "0.4", "auc_mass": "nan", "auc_edema": "0.9", "auc_nodule": "nan",
                       "auc_pneumonia": "0.8", "avg_auc": "0.85",
                       "skipped_labels": "mass;nodule"}


def test_score_generation_oracle_hypotheses():
    refs = [[["a", "b", "c", "d"]], [["e", "f", "g", "h"]]]
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    labels = np.array([[1, 0], [0, 1]])
    report = score_generation(refs, refs, scores, labels, ["one", "two"])
    assert report.bleu1 == report.bleu4 == 1.0
    assert report.avg_auc == 1.0
