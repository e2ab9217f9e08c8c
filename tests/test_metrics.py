import dataclasses
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvh import metrics
from mvh.corpus import END, LABEL_NAMES, PAD, SENTINELS, START
from mvh.errors import ValidationError
from mvh.metrics import (
    BLEU_ORDER,
    ScoreReport,
    avg_auc,
    bleu,
    bleu_n,
    meteor_lite,
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


def _strip(report):
    return [tok for tok in report if tok not in SENTINELS]


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


def test_bleu_is_zero_from_the_first_order_without_a_match():
    # bigrams ab and bc match, no trigram does: p1 = 3/5, p2 = 2/4, c=5 > r=3 so BP=1
    scores = bleu([["a", "b", "x", "b", "c"]], [["a", "b", "c"]])
    assert scores == pytest.approx([0.6, math.sqrt(0.6 * 0.5), 0.0, 0.0], abs=1e-12)
    assert scores[1] > 0 and scores[2] == scores[3] == 0.0


def test_bleu_strips_sentinels_and_flattens_sentences():
    hyp = [["<start>", "a", "b", "<end>"], ["<start>", "c", "<end>"]]
    ref = [["<start>", "a", "b", "<end>"], ["<start>", "c", "<end>"]]
    assert bleu_n([hyp], [ref], 2) == 1.0


def test_tuple_tokens_are_not_split_into_sentences():
    # only a list is a sentence, so a report of one tuple token is one token, not the sentence ["a", "b"]
    assert bleu([[("a", "b")]], [["a", "b"]]) == [0.0] * BLEU_ORDER
    assert bleu([[("a", "b"), "c"]], [[("a", "b"), "c"]]) == [1.0, 1.0, 0.0, 0.0]


# few distinct tokens and short reports, so every order has matches, misses and reports too short for it;
# the tokens mix ints, strings, tuples, sentinels and the dict-equal 1, 1.0 and True, which must match
_token = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b", ("a",), ("a", 1), ("a", True), 1.0, True]),
                   st.sampled_from(SENTINELS))
_short_report = st.lists(_token, max_size=9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_short_report, _short_report), min_size=1, max_size=8))
@example([([0, 1, 2], [0, 1, 2, 3])])
@example([([0], [0]), ([], [1, 2]), ([1, 2, 3], [1, 2])])
@example([([1, "a", True], [True, "a", 1.0]), (["a", ("a", 1)], [("a", True), "a"])])
@example([([], [])])
@example([([], []), ([], []), ([], [])])
@example([([START, END], [START, PAD, END]), ([PAD], [])])
def test_bleu_matches_loop_oracle_on_random_corpora(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    # bleu strips the sentinels before scoring; the oracle counts what it is given
    expected = [oracle_bleu([_strip(h) for h in hyps], [_strip(r) for r in refs], n)
                for n in range(1, BLEU_ORDER + 1)]
    assert bleu(hyps, refs) == expected
    assert [bleu_n(hyps, refs, n) for n in range(1, BLEU_ORDER + 1)] == expected


def test_bleu_ngram_codes_do_not_overflow_with_many_distinct_tokens():
    # 2**17 distinct tokens, numbered in order of first occurrence: a 4-gram code t0*V**3 + t1*V**2 + t2*V + t3
    # with V = 2**17 maps t0 and t0 + 2**13 onto one int64 value, since 2**13 * V**3 = 2**64
    vocab = 2 ** 17
    hyps = [list(range(vocab)), [0, 1, 2, 3]]
    refs = [[], [2 ** 13, 1, 2, 3]]  # its three last unigrams, two bigrams and one trigram match; no 4-gram does
    scores = bleu(hyps, refs)
    assert scores == [oracle_bleu(hyps, refs, n) for n in range(1, BLEU_ORDER + 1)]
    assert scores[2] > 0 and scores[3] == 0.0


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


def _rouge_from_lcs(lcs, hyp_len, ref_len):
    if lcs == 0:
        return 0.0
    p, r = lcs / hyp_len, lcs / ref_len
    return 2.0 * p * r / (p + r)


def _report_pair(k):
    """Two reports over k distinct tokens, each of a length drawn uniformly from 1..150."""
    report = st.integers(1, 150).flatmap(lambda n: st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return st.tuples(report, report)


# 3-5 distinct tokens, so matches are dense and the reference's masks cross 64 and 128 bits
@settings(max_examples=150, deadline=None)
@given(st.integers(3, 5).flatmap(_report_pair))
@example(([0] * 64 + [1], [1] + [0] * 64))
@example(([0, 1, 2] * 50, [2, 1, 0] * 43))
@example(([3, 1, 4, 1, 0, 2, 4] * 20, [1, 0, 4, 2] * 32 + [3]))
def test_rouge_matches_dp_oracle(pair):
    h, r = pair
    assert rouge_l([h], [r]) == _rouge_from_lcs(oracle_lcs(h, r), len(h), len(r))


def test_rouge_closed_form_on_long_reports():
    # the O(len(hyp) * len(ref)) table would fill 4M cells for each of these pairs
    rng = np.random.default_rng(9)
    report = [f"w{i}" for i in rng.integers(0, 5, size=2000)]
    assert rouge_l([report], [report]) == 1.0
    distinct = list(range(2000))
    assert rouge_l([distinct], [distinct[::-1]]) == _rouge_from_lcs(1, 2000, 2000)
    assert _rouge_from_lcs(1, 2000, 2000) == pytest.approx(1 / 2000, abs=1e-15)


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


def column_auc(scores, labels):
    """avg_auc of a one-label matrix: the AUC of that one column."""
    avg, _ = avg_auc(np.reshape(scores, (-1, 1)), np.reshape(labels, (-1, 1)), ["only"])
    return avg


# few distinct scores, so most draws have ties within and across the classes
_tied_scores = st.one_of(st.integers(0, 6).map(lambda i: i / 6), st.floats(0, 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_tied_scores, st.integers(0, 1)), min_size=2, max_size=60))
def test_auc_equals_pairwise_definition_exactly(pairs):
    scores = [s for s, _ in pairs]
    labels = [l for _, l in pairs]
    assume(len(set(labels)) == 2)
    assert column_auc(scores, labels) == oracle_auc(scores, labels)


def test_auc_nan_score_rejected():
    with pytest.raises(ValidationError, match="NaN"):
        column_auc([0.1, float("nan"), 0.3], [0, 1, 1])


def test_auc_perfect_separation():
    assert column_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auc_hand_case():
    assert column_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)


def test_auc_label_inversion_symmetry():
    scores = [0.1, 0.7, 0.3, 0.9, 0.5]
    labels = [0, 1, 0, 1, 1]
    flipped = [1 - l for l in labels]
    assert column_auc(scores, labels) == pytest.approx(1 - column_auc(scores, flipped), abs=1e-12)


def test_auc_ties_count_half():
    assert column_auc([0.5, 0.5], [0, 1]) == pytest.approx(0.5)


def test_auc_single_class_rejected():
    with pytest.raises(ValidationError, match="every label is single-class"):
        column_auc([0.1, 0.2], [1, 1])


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


def _with_nan_score_in_single_class_column(scores, labels):
    labels[:, 1] = 0  # a column avg_auc skips
    scores[7, 1] = np.nan
    return scores, labels


@pytest.mark.parametrize("damage, message", [
    pytest.param(_with_nan_score, "NaN", id="nan_score"),
    pytest.param(_with_nan_score_in_single_class_column, "NaN", id="nan_score_in_skipped_column"),
    pytest.param(lambda s, l: (s[:, :2], l), "shape", id="too_few_score_columns"),
    pytest.param(lambda s, l: (s[:40], l), "shape", id="row_count_mismatch"),
    # constant columns that are not 0/1 must not be skipped as single-class
    pytest.param(lambda s, l: (s, np.where(np.arange(3) == 1, 2.0, l)), "binary", id="constant_2"),
    pytest.param(lambda s, l: (s, np.where(np.arange(3) == 1, 0.5, l)), "binary", id="constant_half"),
    pytest.param(lambda s, l: (np.full(s.shape, "a"), l), "matrices of numbers", id="letter_scores"),
    pytest.param(lambda s, l: (s.astype(str), l), "matrices of numbers", id="numeric_string_scores"),
    pytest.param(lambda s, l: ([*s.tolist()[:-1], [0.5]], l), "matrices of numbers", id="ragged_scores"),
    pytest.param(lambda s, l: (s, l.astype(str)), "matrices of numbers", id="string_labels"),
    pytest.param(lambda s, l: (s, None), "matrices of numbers", id="no_labels"),
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
    base = column_auc(scores, labels)
    # strictly increasing on [0, 1] and exact in floating point, so no two distinct scores merge
    warped = column_auc([s if s < 0.5 else 4.0 * s for s in scores], labels)
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


def test_score_report_skipped_labels_are_its_nan_labels_in_order():
    report = ScoreReport(1.0, 0.5, 0.25, 0.125, 0.3, 0.4,
                         {"mass": math.nan, "edema": 0.9, "nodule": math.nan, "pneumonia": 0.8}, 0.85)
    assert report.skipped_labels == ["mass", "nodule"]


def test_score_generation_oracle_hypotheses():
    refs = [[["a", "b", "c", "d"]], [["e", "f", "g", "h"]]]
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    labels = np.array([[1, 0], [0, 1]])
    report = score_generation(refs, refs, scores, labels, ["one", "two"])
    assert report.bleu1 == report.bleu4 == 1.0
    assert report.avg_auc == 1.0


# golden scores -------------------------------------------------------------------

def _golden_corpus(seed):
    """{"H": (reports, labels), "R": ...} of one seed from data/golden_scorer_corpus.txt.

    The file freezes the corpus the scorers were pinned on, so the golden test does not follow the
    generator: the test split of split_dataset(generate_dataset(seed, 60, image_size=16), seed=seed)
    as references, and as hypotheses the training samples picked by random.Random(seed).choice.
    """
    rows = {"H": ([], []), "R": ([], [])}
    for line in (Path(__file__).parent / "data" / "golden_scorer_corpus.txt").read_text().splitlines():
        row_seed, side, labels, report = line.split(" ", 3)
        if row_seed == str(seed):
            rows[side][0].append([sentence.split() for sentence in report.split(" | ")])
            rows[side][1].append([float(v) for v in labels])
    return {side: (reports, np.array(labels)) for side, (reports, labels) in rows.items()}


def _golden_report(seed):
    """Score the frozen corpus, with hypothesis labels plus seeded noise as the predicted scores."""
    corpus = _golden_corpus(seed)
    (hyps, hyp_labels), (refs, ref_labels) = corpus["H"], corpus["R"]
    noise = np.random.default_rng(seed).uniform(size=(len(refs), len(LABEL_NAMES)))
    return score_generation(hyps, refs, 0.6 * hyp_labels + 0.4 * noise, ref_labels, LABEL_NAMES)


# repr of every ScoreReport field, recorded with the dynamic-programming LCS and the linear-scan
# alignment that oracle_lcs and _align_greedy implement; a faster scorer must leave every bit alone
GOLDEN_SCORES = {
    3: {
        "bleu1": "0.4934597252718301",
        "bleu2": "0.34498349404028505",
        "bleu3": "0.2605068004303737",
        "bleu4": "0.2033094184803114",
        "meteor": "0.39592238175862476",
        "rouge_l": "0.4056933593831607",
        "per_label_auc": ("{'enlarged_cardiomediastinum': 0.15, 'cardiomegaly': 0.0, 'lung_opacity': 0.7, "
                          "'lung_lesion': 0.7, 'edema': 0.7142857142857143, "
                          "'consolidation': 0.45454545454545453, 'pneumonia': 0.375, 'atelectasis': 1.0, "
                          "'pneumothorax': 0.5454545454545454, 'pleural_effusion': 0.03125, "
                          "'pleural_other': nan, 'fracture': 0.8181818181818182, 'support_devices': 0.6, "
                          "'no_finding': 0.18181818181818182}"),
        "avg_auc": "0.48234890109890105",
    },
    7: {
        "bleu1": "0.46433528393948803",
        "bleu2": "0.32730835540753606",
        "bleu3": "0.24531892626948462",
        "bleu4": "0.189291695211461",
        "meteor": "0.37891322575135405",
        "rouge_l": "0.382277383230673",
        "per_label_auc": ("{'enlarged_cardiomediastinum': 0.85, 'cardiomegaly': 0.45454545454545453, "
                          "'lung_opacity': 0.9, 'lung_lesion': 0.8, 'edema': 0.0, 'consolidation': 0.35, "
                          "'pneumonia': 0.2857142857142857, 'atelectasis': 0.2, 'pneumothorax': nan, "
                          "'pleural_effusion': 0.6363636363636364, 'pleural_other': 0.5185185185185185, "
                          "'fracture': 0.7037037037037037, 'support_devices': 0.5, 'no_finding': nan}"),
        "avg_auc": "0.5165704665704666",
    },
    11: {
        "bleu1": "0.42244224422442245",
        "bleu2": "0.3095345586844417",
        "bleu3": "0.24341899121560048",
        "bleu4": "0.1954244819697692",
        "meteor": "0.33244076908225184",
        "rouge_l": "0.3618927661954019",
        "per_label_auc": ("{'enlarged_cardiomediastinum': 0.6363636363636364, 'cardiomegaly': nan, "
                          "'lung_opacity': nan, 'lung_lesion': nan, 'edema': 0.4, 'consolidation': 0.5, "
                          "'pneumonia': 1.0, 'atelectasis': 0.45454545454545453, "
                          "'pneumothorax': 0.37037037037037035, 'pleural_effusion': 0.15, "
                          "'pleural_other': 0.15, 'fracture': 0.6363636363636364, "
                          "'support_devices': 0.7777777777777778, 'no_finding': 0.3333333333333333}"),
        "avg_auc": "0.49170492806856436",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SCORES))
def test_score_generation_golden_corpus_bit_for_bit(seed):
    report = _golden_report(seed)
    assert {f.name: repr(getattr(report, f.name)) for f in dataclasses.fields(report)} == GOLDEN_SCORES[seed]


def test_score_generation_flattens_each_report_once_and_agrees_with_the_entry_points(monkeypatch):
    corpus = _golden_corpus(3)
    (hyps, hyp_labels), (refs, ref_labels) = corpus["H"], corpus["R"]
    flatten, flattened = metrics._flatten, []
    monkeypatch.setattr(metrics, "_flatten", lambda report: flattened.append(report) or flatten(report))
    report = score_generation(hyps, refs, hyp_labels, ref_labels, LABEL_NAMES)
    assert len(flattened) == 2 * len(refs)
    monkeypatch.undo()
    assert [report.bleu1, report.bleu2, report.bleu3, report.bleu4] == bleu(hyps, refs)
    assert (report.meteor, report.rouge_l) == (meteor_lite(hyps, refs), rouge_l(hyps, refs))
