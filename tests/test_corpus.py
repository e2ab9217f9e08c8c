import hashlib
import io
import re
import zipfile
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvh.corpus import (
    CONCEPT_LEXICON,
    IMPRESSIONS,
    JITTER,
    LABEL_NAMES,
    N_OBS,
    NO_FINDING,
    OBSERVATIONS,
    END,
    START,
    UNK,
    _patterns,
    _shape_mask,
    generate_dataset,
    mine_concepts,
    render_report,
    split_dataset,
    tokenize,
)
from mvh.errors import DataError, ValidationError
from mvh.pgm import read_arrays, write_arrays

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


def test_tokenize_empty_text_is_validation_error():
    with pytest.raises(ValidationError, match="no sentences left"):
        tokenize("   ")
    with pytest.raises(ValidationError, match="no sentences left"):
        tokenize("... .. .")


@pytest.mark.parametrize("text", [123, b"a. b. c.", None], ids=["int", "bytes", "none"])
def test_tokenize_non_string_is_validation_error(text):
    with pytest.raises(ValidationError, match="report text must be a string"):
        tokenize(text)


_KEEP = re.compile(r"[^a-z0-9-]+")


def _tokenize_token_by_token(text):
    """The reference tokenizer: split first, then clean each token on its own."""
    sentences = []
    for raw in text.lower().split("."):
        tokens = []
        for tok in raw.split():
            tok = _KEEP.sub("", tok).strip("-")
            if tok:
                tokens.append(UNK if re.fullmatch(r"x{2,}", tok) else tok)
        if tokens:
            sentences.append([START, *tokens, END])
    if not sentences:
        raise ValidationError("no sentences left")
    return sentences


def _tokens_or_validation_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ValidationError:
        return ValidationError


_TEXT_PIECES = [*"aAbBeEzZxX09-.,;:!?()/'_", "xx", "xxxx", "XXX",
                " ", "\t", "\n", "\x1c", "\xa0", "\u3000", "İ", "é"]  # str.split() splits on \x1c too


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=30).map("".join))
def test_tokenize_matches_a_token_by_token_loop(text):
    """Same sentences, and ValidationError on the same texts; 'İ' lowercases to 'i' plus a combining mark."""
    assert (_tokens_or_validation_error(tokenize, text)
            == _tokens_or_validation_error(_tokenize_token_by_token, text))


# golden preprocessing contract (acceptance criterion 9 backing) -----------------

def test_preprocessing_golden_files():
    raw = (DATA / "fixture_reports.txt").read_text(encoding="utf-8").splitlines()
    tokenized = [tokenize(line) for line in raw]
    kept = [r for r in tokenized if len(r) >= 3]
    assert len(kept) == 3 and len(tokenized) == 4  # the 2-sentence report is rejected

    rendered = "\n".join(" | ".join(" ".join(s) for s in report) for report in kept) + "\n"
    assert rendered == (DATA / "golden_tokens.txt").read_text(encoding="utf-8")


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


def test_mine_concepts_empty_is_validation_error():
    with pytest.raises(ValidationError):
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
def test_concepts_match_a_count_then_sort_loop(corpus, threshold):
    expected = _ranked_oracle(corpus, lambda t: t in CONCEPT_LEXICON, threshold)
    if not expected:
        with pytest.raises(ValidationError):
            mine_concepts(corpus, threshold)
        return
    concepts = mine_concepts(corpus, threshold)
    assert concepts.tokens == [t for t, _ in expected]


# generator -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(seed=5, n_samples=40, image_size=32)


def test_generator_is_deterministic(small_dataset):
    again = generate_dataset(seed=5, n_samples=40, image_size=32)
    for a, b in zip(small_dataset, again):
        assert a.report_text == b.report_text
        assert a.frontal_image.tobytes() == b.frontal_image.tobytes()
        assert a.lateral_image.tobytes() == b.lateral_image.tobytes()


def _sha256_of_samples(samples):
    h = hashlib.sha256()
    for s in samples:
        for part in (s.frontal_image, s.lateral_image, s.obs_labels):
            h.update(part.tobytes())
        h.update(s.report_text.encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed, n_samples, image_size, digest", [
    (7, 20, 16, "4a1e750abcdc778beef9247ec3ce966042c5c2689dfdc2eb6aac15bf05d29215"),
    (2, 30, 32, "131094c9f665a306892c220c228f34d2cffeb300ed9457f03e6bcd04351dade0"),
    (1, 40, 64, "3d8e745b36c799c296179482a54dcd7dcad931dca6497d378cc72eb5193a2a50"),
])
def test_generator_bytes_are_pinned(seed, n_samples, image_size, digest):
    """Every view pixel, label and report character of three seeded calls, one size each."""
    assert _sha256_of_samples(generate_dataset(seed, n_samples, image_size)) == digest


def test_generator_builds_each_shape_mask_once_per_call(monkeypatch):
    built = []
    monkeypatch.setattr("mvh.corpus._shape_mask", lambda shape, b: built.append(shape) or _shape_mask(shape, b))
    generate_dataset(3, 200)
    assert len(built) <= NO_FINDING  # one per grid observation


def test_generator_seed_changes_output():
    a = generate_dataset(seed=5, n_samples=10)
    b = generate_dataset(seed=6, n_samples=10)
    assert any(x.report_text != y.report_text or x.frontal_image.tobytes() != y.frontal_image.tobytes()
               for x, y in zip(a, b))


def test_generator_input_validation():
    with pytest.raises(ValidationError):
        generate_dataset(seed=0, n_samples=5)
    with pytest.raises(ValidationError):
        generate_dataset(seed=0, n_samples=10, image_size=12)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: generate_dataset(-1, 10), "seed -1", id="generate_negative_seed"),
    pytest.param(lambda: generate_dataset(2.5, 10), "seed must be an integer", id="generate_fractional_seed"),
    pytest.param(lambda: generate_dataset(0, 10.5), "sample count must be an integer", id="fractional_count"),
    pytest.param(lambda: split_dataset(generate_dataset(2, 10, image_size=16), 0.2, seed=-1), "seed -1",
                 id="split_negative_seed"),
])
def test_negative_or_non_integer_seed_or_count_is_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_every_sample_has_three_sentences_and_both_views(small_dataset):
    for s in small_dataset:
        assert len(s.report) >= 3
        assert s.frontal_image.shape == (1, 32, 32)
        assert s.lateral_image.shape == (1, 32, 32)
        assert s.frontal_image.min() >= 0.0 and s.frontal_image.max() <= 1.0


@pytest.mark.parametrize("view", ["frontal", "lateral"])
def test_views_are_kept_as_read_only_bytes(small_dataset, view):
    for s in small_dataset:
        levels = getattr(s, f"{view}_levels")
        assert levels.dtype == np.uint8 and levels.shape == (1, 32, 32) and levels.nbytes == 32 ** 2
    with pytest.raises(ValueError, match="read-only"):
        levels[0, 0, 0] = 1


@pytest.mark.parametrize("view", ["frontal", "lateral"])
def test_an_image_read_is_a_new_array_of_the_levels_over_255(small_dataset, view):
    levels = getattr(small_dataset[0], f"{view}_levels")
    first = getattr(small_dataset[0], f"{view}_image")
    assert first.dtype == np.float64 and first.tobytes() == (levels / 255).tobytes()
    first[...] = 7.0  # a write into one read leaves the sample unchanged
    again = getattr(small_dataset[0], f"{view}_image")
    assert again is not first and again.tobytes() == (levels / 255).tobytes()


def _where_pattern_can_appear(j, image_size):
    """Observation j's pattern pixels over all jitters, as a whole-image mask."""
    pattern, corner = _patterns(image_size)[j]
    if corner is None:
        return pattern
    where = np.zeros((image_size, image_size), dtype=bool)
    b = len(pattern)
    for dr in range(-JITTER, JITTER + 1):
        for dc in range(-JITTER, JITTER + 1):
            where[corner[0] + dr:corner[0] + dr + b, corner[1] + dc:corner[1] + dc + b] |= pattern
    return where


def test_active_labels_have_planted_patterns_in_both_views(small_dataset):
    for i, s in enumerate(small_dataset):
        for j in range(N_OBS):
            if s.obs_labels[j] >= 1:
                mask = _where_pattern_can_appear(j, 32)
                assert s.frontal_image[0][mask].max() > 0.3, (i, LABEL_NAMES[j])
                assert s.lateral_image[0][mask].max() > 0.3, (i, LABEL_NAMES[j])


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
    assert set(train) | set(test) == set(samples)  # samples compare by identity
    assert set(train) & set(test) == set()


def test_split_deterministic_per_seed():
    samples = generate_dataset(seed=2, n_samples=50, image_size=16)
    t1, _ = split_dataset(samples, 0.2, seed=7)
    t2, _ = split_dataset(samples, 0.2, seed=7)
    t3, _ = split_dataset(samples, 0.2, seed=8)
    assert t1 == t2  # samples compare by identity
    assert t1 != t3


def test_split_reads_an_iterator_once():
    samples = generate_dataset(seed=2, n_samples=20, image_size=16)
    from_list = split_dataset(samples, 0.2, seed=3)
    from_iter = split_dataset(iter(samples), 0.2, seed=3)
    assert from_iter == from_list  # samples compare by identity


def test_split_fraction_validated():
    samples = generate_dataset(seed=2, n_samples=10, image_size=16)
    with pytest.raises(ValidationError):
        split_dataset(samples, 0.0, seed=0)


@pytest.mark.parametrize("fraction", [0.01, 0.99])
def test_split_leaving_a_side_empty_is_validation_error(fraction):
    samples = generate_dataset(seed=2, n_samples=10, image_size=16)
    with pytest.raises(ValidationError, match="empty"):
        split_dataset(samples, fraction, seed=0)


# samples -----------------------------------------------------------------------------------

def test_report_is_read_from_report_text(small_dataset):
    text = " there is no edema.\n no fracture is identified.\tthe lungs are well expanded and clear.  "
    sample = replace(small_dataset[0], report_text=text)
    assert small_dataset[0].report != tokenize(text)
    assert sample.report == tokenize(text)


@pytest.mark.parametrize("field", ["frontal_levels", "lateral_levels", "obs_labels", "report_text", "report"])
def test_sample_fields_cannot_be_assigned(small_dataset, field):
    sample = replace(small_dataset[0])  # a copy, so a sample that can be assigned leaves the fixture intact
    with pytest.raises(FrozenInstanceError):
        setattr(sample, field, None)


def test_samples_compare_by_identity(small_dataset):
    sample = small_dataset[0]
    copy = replace(sample, frontal_levels=sample.frontal_levels.copy())
    assert (copy == sample) is False
    assert sample == sample
    assert {sample: 1}[sample] == 1


# file reads and writes -------------------------------------------------------------------------

def _npz_bytes(**arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)  # pickles an object array, as write_arrays does not
    return buf.getvalue()


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _flip_byte(data, at):
    data = bytearray(data)
    data[at] ^= 0xFF
    return bytes(data)


def _zip_bytes(**members):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return buf.getvalue()


_ARCHIVE = _npz_bytes(a=np.arange(6.0))


def test_arrays_round_trip_byte_for_byte(tmp_path):
    arrays = {"f": np.arange(12.0).reshape(3, 1, 4), "u8": np.arange(5, dtype=np.uint8), "b": np.array(True),
              "s": np.array(["s00001", "é\nx"]), "empty": np.zeros((0, 14))}
    write_arrays(tmp_path / "a.npz", arrays)
    back = read_arrays(tmp_path / "a.npz")
    assert list(back) == list(arrays)
    for name, a in arrays.items():
        assert (back[name].dtype, back[name].shape, back[name].tobytes()) == (a.dtype, a.shape, a.tobytes()), name


@pytest.mark.parametrize("name, make", [
    pytest.param("absent.npz", lambda path: None, id="missing"),
    pytest.param("folder.npz", lambda path: path.mkdir(), id="directory"),
    pytest.param("empty.npz", lambda path: path.write_bytes(b""), id="empty"),
    pytest.param("p2.npz", lambda path: path.write_text("P2\n2 2\n255\n0 0 0 0\n", encoding="utf-8"), id="not_a_zip"),
    pytest.param("cut.npz", lambda path: path.write_bytes(_ARCHIVE[:len(_ARCHIVE) // 2]), id="cut"),
    pytest.param("crc.npz", lambda path: path.write_bytes(_flip_byte(_ARCHIVE, _ARCHIVE.index(b"\x93NUMPY") + 130)),
                 id="bad_crc"),
    pytest.param("pickle.npz", lambda path: path.write_bytes(_npz_bytes(o=np.array([None, "x"], dtype=object))),
                 id="pickled_member"),
    pytest.param("junk.npz", lambda path: path.write_bytes(_zip_bytes(**{"a.npy": b"not an array"})),
                 id="member_not_npy"),
    pytest.param("bare.npz", lambda path: path.write_bytes(_npy_bytes(np.arange(3.0))), id="bare_npy"),
])
def test_read_arrays_unreadable_file_is_data_error_naming_the_path(tmp_path, name, make):
    make(tmp_path / name)
    with pytest.raises(DataError, match=f"cannot read .*{name}"):
        read_arrays(tmp_path / name)


@pytest.mark.parametrize("arrays", [
    pytest.param({"o": np.array([None], dtype=object)}, id="object_array"),
    pytest.param({"file": np.zeros(2)}, id="name_of_a_savez_argument"),
])
def test_write_arrays_refuses_what_it_cannot_write_and_writes_nothing(tmp_path, arrays):
    with pytest.raises(DataError, match="cannot write .*out.npz"):
        write_arrays(tmp_path / "out.npz", arrays)
    assert not (tmp_path / "out.npz").exists()
