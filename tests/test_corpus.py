from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvh.corpus import (
    CONCEPT_LEXICON,
    IMPRESSIONS,
    LABEL_NAMES,
    MIN_SENTENCES,
    MIN_WORD_COUNT,
    N_OBS,
    NO_FINDING,
    OBSERVATIONS,
    RESERVED,
    END_ID,
    START_ID,
    UNK_ID,
    ConceptSet,
    Vocabulary,
    detokenize,
    generate_dataset,
    load_dataset,
    mine_concepts,
    pattern_mask,
    render_report,
    save_dataset,
    split_dataset,
    tokenize,
)
from mvh.errors import ConfigError, DataError, ValidationError
from mvh.pgm import read_pgm, write_pgm

DATA = Path(__file__).parent / "data"


# tokenization ----------------------------------------------------------------

def test_tokenize_simple_sentence():
    assert tokenize("No acute disease.") == [["<start>", "no", "acute", "disease", "<end>"]]


def test_tokenize_splits_on_periods():
    assert len(tokenize("A. B.")) == 2


def test_tokenize_replaces_deidentification_runs():
    sents = tokenize("Compared to XXXX there is edema.")
    assert sents[0] == ["<start>", "compared", "to", "<unk>", "there", "is", "edema", "<end>"]


def test_tokenize_keeps_inner_hyphens_strips_punctuation():
    sents = tokenize("There is a right-sided effusion, (small).")
    assert "right-sided" in sents[0]
    assert "small" in sents[0]
    assert not any("(" in t or "," in t for t in sents[0])


def test_tokenize_empty_text_is_data_error():
    with pytest.raises(DataError):
        tokenize("   ")
    with pytest.raises(DataError):
        tokenize("... .. .")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=8))
def test_tokenize_detokenize_round_trip_on_clean_words(words):
    text = " ".join(words) + "."
    assert detokenize(tokenize(text)) == " ".join(words)


# vocabulary -------------------------------------------------------------------

def test_vocabulary_min_count_boundary():
    assert MIN_WORD_COUNT == 3
    corpus = tokenize("cat dog. cat dog. cat bird.")
    vocab = Vocabulary.build(corpus)
    assert vocab.id("cat") >= 4          # occurs 3 times: included
    assert vocab.id("dog") == UNK_ID     # occurs twice: dropped
    assert vocab.id("bird") == UNK_ID


def test_vocabulary_reserved_ids_stable_across_rebuilds():
    corpus = tokenize("a b c. a b c. a b c.")
    v1 = Vocabulary.build(corpus)
    v2 = Vocabulary.build(corpus)
    assert v1.id_to_token[:4] == ["<pad>", "<start>", "<end>", "<unk>"]
    assert v1 == v2


def test_vocabulary_encode_uses_unk():
    corpus = tokenize("a a a.")
    vocab = Vocabulary.build(corpus)
    assert vocab.encode(["<start>", "a", "zzz", "<end>"]) == [START_ID, 4, UNK_ID, END_ID]


# golden preprocessing contract (acceptance criterion 9 backing) -----------------

def test_preprocessing_golden_files():
    raw = (DATA / "fixture_reports.txt").read_text(encoding="utf-8").splitlines()
    tokenized = [tokenize(line) for line in raw]
    kept = [r for r in tokenized if len(r) >= MIN_SENTENCES]
    assert len(kept) == 3 and len(tokenized) == 4  # the 2-sentence report is rejected

    rendered = "\n".join(" | ".join(" ".join(s) for s in report) for report in kept) + "\n"
    assert rendered == (DATA / "golden_tokens.txt").read_text(encoding="utf-8")

    vocab = Vocabulary.build([s for report in kept for s in report])
    vocab_rendered = "".join(f"{t} {vocab.counts.get(t, 0)}\n" for t in vocab.id_to_token)
    assert vocab_rendered == (DATA / "golden_vocab.txt").read_text(encoding="utf-8")

    # min-count-3 words map to <unk>; sentinels wrap every sentence
    ids = vocab.encode(kept[0][0])
    assert ids == [START_ID, 4, 5, 6, UNK_ID, END_ID]


# concept mining ------------------------------------------------------------------

def test_mine_concepts_threshold_boundary_and_ordering():
    corpus = tokenize("edema edema edema. fracture fracture. edema fracture pneumonia.")
    cs = mine_concepts(corpus, threshold=3)
    assert cs.tokens == ["edema", "fracture"]  # 4 and 3 occurrences, desc order
    cs2 = mine_concepts(corpus, threshold=4)
    assert cs2.tokens == ["edema"]


def test_mine_concepts_tie_broken_lexicographically():
    corpus = tokenize("edema fracture. fracture edema.")
    cs = mine_concepts(corpus, threshold=2)
    assert cs.tokens == ["edema", "fracture"]


def test_mine_concepts_empty_is_config_error():
    with pytest.raises(ConfigError):
        mine_concepts(tokenize("nothing clinical here."), threshold=5)


def _ranked_oracle(corpus, keep, min_count):
    """Count every kept token with a plain loop, then order by count (descending), ties by token."""
    counts = {}
    for sent in corpus:
        for tok in sent:
            if keep(tok):
                counts[tok] = counts.get(tok, 0) + 1
    by_token = sorted((t, c) for t, c in counts.items() if c >= min_count)
    return sorted(by_token, key=lambda tc: -tc[1])  # stable, so equal counts stay in token order


# reserved, lexicon and plain tokens; few of them, so counts tie and sit on the thresholds
_TOKENS = st.sampled_from(["<start>", "<end>", "<pad>", "<unk>", "edema", "fracture", "chest", "lungs",
                           "opacity", "is", "no", "the"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_TOKENS, max_size=8), min_size=1, max_size=8), st.integers(1, 6))
def test_vocabulary_and_concepts_match_a_count_then_sort_loop(corpus, threshold):
    vocab = Vocabulary.build(corpus)
    expected = _ranked_oracle(corpus, lambda t: t not in RESERVED, MIN_WORD_COUNT)
    assert vocab.id_to_token == [*RESERVED, *(t for t, _ in expected)]
    assert vocab.counts == dict(expected)

    expected = _ranked_oracle(corpus, lambda t: t in CONCEPT_LEXICON, threshold)
    if not expected:
        with pytest.raises(ConfigError):
            mine_concepts(corpus, threshold)
        return
    concepts = mine_concepts(corpus, threshold)
    assert concepts.tokens == [t for t, _ in expected]
    assert concepts.counts == dict(expected)
    assert list(concepts.counts) == concepts.tokens


def test_concept_indicator_matches_literal_presence():
    cs = ConceptSet([("edema", 10), ("fracture", 10)])
    report = tokenize("there is edema. no change.")
    np.testing.assert_array_equal(cs.indicator(report), [1.0, 0.0])


# generator -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(seed=5, n_samples=40, image_size=32)


def test_generator_is_deterministic(small_dataset):
    again = generate_dataset(seed=5, n_samples=40, image_size=32)
    for a, b in zip(small_dataset, again):
        assert a.sample_id == b.sample_id
        assert a.report_text == b.report_text
        assert a.frontal_image.tobytes() == b.frontal_image.tobytes()
        assert a.lateral_image.tobytes() == b.lateral_image.tobytes()


def test_generator_seed_changes_output():
    a = generate_dataset(seed=5, n_samples=10)
    b = generate_dataset(seed=6, n_samples=10)
    assert any(x.report_text != y.report_text or x.frontal_image.tobytes() != y.frontal_image.tobytes()
               for x, y in zip(a, b))


def test_generator_input_validation():
    with pytest.raises(ValidationError):
        generate_dataset(seed=0, n_samples=5)
    with pytest.raises(ConfigError):
        generate_dataset(seed=0, n_samples=10, image_size=12)


def test_every_sample_has_three_sentences_and_both_views(small_dataset):
    for s in small_dataset:
        assert len(s.report) >= MIN_SENTENCES
        assert s.frontal_image.shape == (1, 32, 32)
        assert s.lateral_image.shape == (1, 32, 32)
        assert s.frontal_image.min() >= 0.0 and s.frontal_image.max() <= 1.0


def test_active_labels_have_planted_patterns_in_both_views(small_dataset):
    for s in small_dataset:
        for j in range(N_OBS):
            if s.obs_labels[j] >= 1:
                mask = pattern_mask(j, 32)
                assert s.frontal_image[0][mask].max() > 0.3, (s.sample_id, LABEL_NAMES[j])
                assert s.lateral_image[0][mask].max() > 0.3, (s.sample_id, LABEL_NAMES[j])


def test_no_finding_is_exactly_absence_of_pathology(small_dataset):
    for s in small_dataset:
        pathology = s.obs_labels[:NO_FINDING].sum()
        assert s.obs_labels[NO_FINDING] == (1.0 if pathology == 0 else 0.0)


def test_all_zero_labels_render_only_normal_templates():
    text = render_report(np.zeros(N_OBS), {}, {}, [4, 5], artifact=False)
    sentences = [t + "." for t in text.split(". ")]
    sentences[-1] = sentences[-1].rstrip(".") + "."
    normal = {o.negation for o in OBSERVATIONS} | set(IMPRESSIONS)
    for sent in sentences:
        assert sent in normal, sent


def test_severity_word_tracks_intensity():
    labels = np.zeros(N_OBS)
    labels[4] = 1.0
    mild = render_report(labels, {4: 0.60}, {4: 0}, [1, 2])
    severe = render_report(labels, {4: 0.90}, {4: 0}, [1, 2])
    assert "mild" in mild and "severe" in severe


def test_concept_lexicon_terms_appear_in_generated_reports(small_dataset):
    corpus = [sent for s in small_dataset for sent in s.report]
    cs = mine_concepts(corpus, threshold=1)
    assert cs.p >= 10 and set(cs.tokens) <= set(CONCEPT_LEXICON)


def test_every_pathology_sentence_mentions_its_concept():
    for spec in OBSERVATIONS[:NO_FINDING]:
        for sentence in (*spec.templates, spec.negation):
            tokens = [tok for sent in tokenize(sentence.format(sev="mild")) for tok in sent]
            assert spec.concept in tokens, (spec.name, sentence)


# split -----------------------------------------------------------------------------

def test_split_ratio_and_partition():
    samples = generate_dataset(seed=2, n_samples=100, image_size=16)
    train, test = split_dataset(samples, 0.2, seed=3)
    assert len(train) == 80 and len(test) == 20
    ids = {s.sample_id for s in samples}
    assert {s.sample_id for s in train} | {s.sample_id for s in test} == ids
    assert {s.sample_id for s in train} & {s.sample_id for s in test} == set()


def test_split_deterministic_per_seed():
    samples = generate_dataset(seed=2, n_samples=50, image_size=16)
    t1, _ = split_dataset(samples, 0.2, seed=7)
    t2, _ = split_dataset(samples, 0.2, seed=7)
    t3, _ = split_dataset(samples, 0.2, seed=8)
    assert [s.sample_id for s in t1] == [s.sample_id for s in t2]
    assert [s.sample_id for s in t1] != [s.sample_id for s in t3]


def test_split_fraction_validated():
    samples = generate_dataset(seed=2, n_samples=10, image_size=16)
    with pytest.raises(ValidationError):
        split_dataset(samples, 0.0, seed=0)


# persistence -------------------------------------------------------------------------

def test_dataset_round_trip(tmp_path, small_dataset):
    corpus = [sent for s in small_dataset for sent in s.report]
    vocab = Vocabulary.build(corpus)
    concepts = mine_concepts(corpus, threshold=2)
    save_dataset(tmp_path, small_dataset, vocab, concepts)

    loaded, vocab2, concepts2 = load_dataset(tmp_path)
    assert vocab2 == vocab
    assert vocab2.counts == vocab.counts
    assert concepts2.tokens == concepts.tokens
    assert concepts2.counts == concepts.counts
    assert [s.sample_id for s in loaded] == [s.sample_id for s in small_dataset]
    for a, b in zip(small_dataset, loaded):
        np.testing.assert_array_equal(a.obs_labels, b.obs_labels)
        np.testing.assert_allclose(a.frontal_image, b.frontal_image, atol=1e-12)
        assert a.report == b.report


def _fields(sample):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v) for k, v in vars(sample).items()}


def test_save_leaves_samples_alone_and_any_concept_set_loads(tmp_path, small_dataset):
    samples = small_dataset[:10]
    before = [_fields(s) for s in samples]
    corpus = [sent for s in small_dataset for sent in s.report]
    vocab = Vocabulary.build(corpus)
    wide, narrow = mine_concepts(corpus, threshold=1), mine_concepts(corpus, threshold=10)
    assert wide.p > narrow.p
    for name, concepts in (("wide", wide), ("narrow", narrow)):
        save_dataset(tmp_path / name, samples, vocab, concepts)
        assert [_fields(s) for s in samples] == before
        loaded, _, concepts2 = load_dataset(tmp_path / name)
        assert concepts2.tokens == concepts.tokens
        assert [s.report for s in loaded] == [s.report for s in samples]


def test_load_missing_dataset_raises(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path / "nope")


@pytest.mark.parametrize("name", ["vocab.txt", "concepts.txt"])
@pytest.mark.parametrize("bad_line", ["", "onlytoken", "token notanumber"])
def test_load_malformed_count_line_is_data_error(tmp_path, small_dataset, name, bad_line):
    corpus = [sent for s in small_dataset for sent in s.report]
    save_dataset(tmp_path, small_dataset[:10], Vocabulary.build(corpus), mine_concepts(corpus, threshold=2))
    path = tmp_path / name
    path.write_text(path.read_text(encoding="utf-8") + bad_line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=name):
        load_dataset(tmp_path)


def _append_line(path, line):
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")


def _swap_header_fields(path, i, j):
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[0].split(",")
    fields[i], fields[j] = fields[j], fields[i]
    lines[0] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set_first_row_field(path, index, value):
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[index] = value
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _repeat_line(path, index):
    _append_line(path, path.read_text(encoding="utf-8").splitlines()[index])


def _move_line_to_end(path, index):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.append(lines.pop(index))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set_count(path, index, count):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = f"{lines[index].split()[0]} {count}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _add_concept_columns(d):
    """Rewrite labels.csv in the older layout that also stored each concept's 0/1 target per sample."""
    tokens = [line.split()[0] for line in (d / "concepts.txt").read_text(encoding="utf-8").splitlines()]
    lines = (d / "labels.csv").read_text(encoding="utf-8").splitlines()
    rows = [",".join([lines[0], *tokens])]
    for line in lines[1:]:
        report = tokenize((d / "reports" / f"{line.split(',')[0]}.txt").read_text(encoding="utf-8"))
        present = {tok for sent in report for tok in sent}
        rows.append(",".join([line, *("1" if t in present else "0" for t in tokens)]))
    (d / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def _move_first_sample(d, sid):
    """Rename sample s00000 to `sid` in labels.csv and move its files to where that id points."""
    _set_first_row_field(d / "labels.csv", 0, sid)
    for old, new in ((d / "reports" / "s00000.txt", d / "reports" / f"{sid}.txt"),
                     (d / "images" / "s00000_f.pgm", d / "images" / f"{sid}_f.pgm"),
                     (d / "images" / "s00000_l.pgm", d / "images" / f"{sid}_l.pgm")):
        new.parent.mkdir(parents=True, exist_ok=True)
        old.rename(new)


@pytest.mark.parametrize("damage", [
    pytest.param(lambda d: _append_line(d / "labels.csv", ""), id="blank_row"),
    pytest.param(lambda d: _set_first_row_field(d / "labels.csv", 1, "yes"), id="non_numeric_label"),
    pytest.param(lambda d: _set_first_row_field(d / "labels.csv", 1, "0.5"), id="fractional_label"),
    pytest.param(lambda d: _set_first_row_field(d / "labels.csv", 2, "2"), id="label_above_one"),
    pytest.param(lambda d: _set_first_row_field(d / "labels.csv", 3, "nan"), id="nan_label"),
    pytest.param(lambda d: (d / "concepts.txt").write_text("", encoding="utf-8"), id="empty_concepts"),
    pytest.param(lambda d: _repeat_line(d / "vocab.txt", 4), id="repeated_vocab_token"),
    pytest.param(lambda d: _move_first_sample(d, "../x/r"), id="sample_id_escapes_directory"),
    pytest.param(lambda d: _move_first_sample(d, "s 0"), id="sample_id_with_space"),
    pytest.param(lambda d: _repeat_line(d / "labels.csv", 1), id="repeated_sample_id"),
    pytest.param(lambda d: write_pgm(d / "images" / "s00000_l.pgm", np.zeros((16, 16))),
                 id="lateral_smaller_than_frontal"),
    pytest.param(lambda d: [write_pgm(d / "images" / f"s00000_{v}.pgm", np.zeros((32, 16))) for v in "fl"],
                 id="non_square_views"),
    pytest.param(lambda d: [write_pgm(d / "images" / f"s00001_{v}.pgm", np.zeros((16, 16))) for v in "fl"],
                 id="second_sample_other_size"),
    pytest.param(lambda d: (d / "labels.csv").write_text("", encoding="utf-8"), id="empty_labels"),
    pytest.param(lambda d: _append_line(d / "labels.csv", "s00001,1"), id="short_row"),
    pytest.param(lambda d: (d / "reports" / "s00000.txt").unlink(), id="missing_report"),
    pytest.param(lambda d: (d / "images" / "s00000_l.pgm").unlink(), id="missing_lateral_image"),
    pytest.param(lambda d: (d / "vocab.txt").unlink(), id="missing_vocab"),
    pytest.param(lambda d: _swap_header_fields(d / "labels.csv", 1, 2), id="swapped_label_columns"),
    pytest.param(_add_concept_columns, id="concept_columns_in_header"),
    pytest.param(lambda d: _move_line_to_end(d / "vocab.txt", 3), id="reserved_tokens_reordered"),
    pytest.param(lambda d: _set_count(d / "concepts.txt", 0, -6), id="negative_count"),
])
def test_load_malformed_dataset_is_data_error(tmp_path, small_dataset, damage):
    corpus = [sent for s in small_dataset for sent in s.report]
    save_dataset(tmp_path, small_dataset[:3], Vocabulary.build(corpus), mine_concepts(corpus, threshold=2))
    damage(tmp_path)
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def test_read_pgm_truncated_header_is_data_error(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_text("P2\n4 4\n", encoding="utf-8")
    with pytest.raises(DataError, match="truncated"):
        read_pgm(path)


def test_read_pgm_non_integer_header_is_data_error(tmp_path):
    path = tmp_path / "bad.pgm"
    write_pgm(path, np.zeros((2, 2)))
    path.write_text(path.read_text(encoding="utf-8").replace("2 2", "2 two", 1), encoding="utf-8")
    with pytest.raises(DataError, match="non-integer"):
        read_pgm(path)


@pytest.mark.parametrize("text", [
    pytest.param("P2\n-2 -2\n255\n0 0 0 0\n", id="negative_size"),
    pytest.param("P2\n0 2\n255\n", id="zero_width"),
    pytest.param("P2\n2 2\n0\n0 0 0 0\n", id="maxval_zero"),
    pytest.param("P2\n2 2\n65536\n0 0 0 0\n", id="maxval_too_large"),
    pytest.param("P2\n2 2\n255\n0 300 0 0\n", id="pixel_above_maxval"),
    pytest.param("P2\n2 2\n255\n0 -1 0 0\n", id="negative_pixel"),
])
def test_read_pgm_invalid_header_or_pixel_is_data_error(tmp_path, text):
    path = tmp_path / "bad.pgm"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError):
        read_pgm(path)
