"""One way to fail: every raise names an MvhError, argument values raise ValidationError, and only mvh.pgm opens files.

`mvh.pgm`'s readers and writers turn every failure to open, read or write a
file into a DataError naming the path. A module that opens a file some other
way, numpy's file functions included, would fail with a raw OSError or
ValueError instead, so the source is checked for such calls. The argument
checks live in `mvh.errors`, so the data and evaluation modules need nothing
from the autodiff engine; the source is checked for that too.
"""

import ast
import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import mvh
from mvh import corpus, errors, pgm
from mvh.autodiff import Adam, Tensor, clip_global_norm, reshape, seeded_uniform
from mvh.corpus import (
    N_OBS,
    generate_dataset,
    mine_concepts,
    render_report,
    split_dataset,
    tokenize,
)
from mvh.encoder import EncoderConfig, encode, encoder_loss, init_encoder_params
from mvh.errors import CheckpointError, MvhError, ShapeError, ValidationError
from mvh.metrics import bleu, bleu_n, meteor_lite, rouge_l, score_generation
from mvh.train import EncoderTrainer
from test_autodiff import OPS

_HYP = [[["the", "lungs", "are", "clear"]]]
_CORPUS = tokenize("there is no edema. edema is present. edema.")
_LABELS_ONE_ACTIVE = [0, 1] + [0] * 12  # cardiomegaly
_CONFIG16 = EncoderConfig(image_size=16, channels=(2, 3))
_VIEW = encode(Tensor(np.full((1, 16, 16), 0.5)), init_encoder_params(_CONFIG16, 0), _CONFIG16)


def _cvc_loss(lambda_cvc):
    return encoder_loss(_VIEW, _VIEW, Tensor(np.ones(N_OBS)), lambda_cvc)


def _score_generation(report):
    """score_generation of `report`, twice over, against _HYP's report, with one label that AUC can score."""
    return score_generation([report] * 2, _HYP * 2, np.array([[0.9], [0.1]]), np.array([[1], [0]]), ["edema"])


def _adam_twice(later):
    """An Adam step over one parameter 'v', then a step over `later`."""
    opt = Adam()
    opt.step({"v": Tensor(np.zeros(2), requires_grad=True)})
    opt.step(later)


def _adam_step_with_grad(grad):
    w = Tensor(np.zeros(2), requires_grad=True)
    w.grad = grad
    Adam().step({"w": w})


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: EncoderConfig(channels=8), "at least one conv layer", id="channels_int"),
    pytest.param(lambda: EncoderConfig(channels="8"), "at least one conv layer", id="channels_str"),
    pytest.param(lambda: bleu_n(_HYP, _HYP, 2.0), "BLEU order must be an integer", id="bleu_float_order"),
    pytest.param(lambda: bleu_n(_HYP, _HYP, 5), "BLEU order 5", id="bleu_order_above_4"),
    pytest.param(lambda: generate_dataset(0, 10, image_size=8), "image_size 8", id="generate_image_size_8"),
    pytest.param(lambda: generate_dataset(0, 10, image_size=20), "image_size 20", id="generate_image_size_20"),
    pytest.param(lambda: generate_dataset(0, 10, image_size=0), "image_size 0", id="generate_image_size_0"),
    pytest.param(lambda: generate_dataset(0, 10, image_size=32.0), "image_size must be an integer",
                 id="generate_image_size_float"),
    pytest.param(lambda: render_report([0] * 5, {}, {}, set()), "report labels must be 14 numbers",
                 id="render_report_short_labels"),
    pytest.param(lambda: render_report("0" * 14, {}, {}, set()), "report labels must be 14 numbers",
                 id="render_report_str_labels"),
    pytest.param(lambda: render_report([0, 2] + [0] * 12, {}, {}, set()),
                 r"report labels must be 0 or 1, got 2$", id="render_report_label_2"),
    pytest.param(lambda: render_report([0.5] + [0.0] * 13, {}, {}, set()), r"report labels must be 0 or 1, got 0\.5",
                 id="render_report_label_half"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {}, {}, [1, 2]),
                 "negation pick 1 must be a distinct inactive pathology", id="render_report_active_negation"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {}, {}, [2, 2]),
                 "negation pick 2 must be a distinct inactive pathology", id="render_report_repeated_negation"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {}, {}, [20]), "negation pick 20 out of range 0..12",
                 id="render_report_negation_20"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {}, {}, [13]), "negation pick 13 out of range 0..12",
                 id="render_report_negation_no_finding"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {}, {}, 5), "negation picks must be an iterable",
                 id="render_report_negation_picks_int"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {}, [0, 1], [2, 3]), "variant picks must be a dict",
                 id="render_report_variant_picks_list"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {}, {1: "a"}, [2, 3]),
                 "variant pick must be an integer, got 'a'", id="render_report_variant_pick_str"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {}, {1: 1.5}, [2, 3]),
                 r"variant pick must be an integer, got 1\.5", id="render_report_variant_pick_float"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {}, {1: 2}, [2, 3]), "variant pick 2 out of range 0..1",
                 id="render_report_variant_pick_2"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, [0.7], {}, [2, 3]), "intensities must be a dict",
                 id="render_report_intensities_list"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {1: "a"}, {}, [2, 3]),
                 "intensity must be a finite number, got 'a'", id="render_report_intensity_str"),
    pytest.param(lambda: render_report(_LABELS_ONE_ACTIVE, {1: math.nan}, {}, [2, 3]),
                 "intensity must be a finite number, got nan", id="render_report_intensity_nan"),
    pytest.param(lambda: _adam_twice({"w": Tensor(np.zeros(2), requires_grad=True)}), "laid out",
                 id="adam_other_names"),
    pytest.param(lambda: mine_concepts(_CORPUS, float("nan")), "concept threshold must be an integer",
                 id="concept_threshold_nan"),
    pytest.param(lambda: mine_concepts(_CORPUS, 2.5), "concept threshold must be an integer",
                 id="concept_threshold_float"),
    pytest.param(lambda: mine_concepts(_CORPUS, "3"), "concept threshold must be an integer",
                 id="concept_threshold_str"),
    pytest.param(lambda: mine_concepts(_CORPUS, True), "concept threshold must be an integer",
                 id="concept_threshold_bool"),
    pytest.param(lambda: mine_concepts(_CORPUS, 0), "concept threshold 0", id="concept_threshold_0"),
    pytest.param(lambda: split_dataset(generate_dataset(2, 10, image_size=16), "0.2"), "test fraction must be",
                 id="test_fraction_str"),
    pytest.param(lambda: split_dataset(generate_dataset(2, 10, image_size=16), None), "test fraction must be",
                 id="test_fraction_none"),
    pytest.param(lambda: Adam(lr="0.1"), "learning rate must be", id="adam_lr_str"),
    pytest.param(lambda: Adam(lr=None), "learning rate must be", id="adam_lr_none"),
    pytest.param(lambda: clip_global_norm({}, "5"), "max_norm must be", id="clip_max_norm_str"),
    pytest.param(lambda: seeded_uniform("w", (2, 2), "3", 0), "fan_in must be", id="seeded_uniform_fan_in_str"),
    pytest.param(lambda: seeded_uniform("w", (2, 2), True, 0), "fan_in must be", id="seeded_uniform_fan_in_bool"),
    pytest.param(lambda: seeded_uniform("w", (2, 2), 1.5, 0), "fan_in must be", id="seeded_uniform_fan_in_float"),
    pytest.param(lambda: seeded_uniform("w", (2, 2), math.inf, 0), "fan_in must be",
                 id="seeded_uniform_fan_in_inf"),
    pytest.param(lambda: Adam(lr=True), "learning rate must be", id="adam_lr_bool"),
    pytest.param(lambda: clip_global_norm({}, True), "max_norm must be", id="clip_max_norm_bool"),
    pytest.param(lambda: _cvc_loss("abc"), "lambda_cvc must be", id="lambda_cvc_str"),
    pytest.param(lambda: _cvc_loss([1.0, 2.0]), "lambda_cvc must be", id="lambda_cvc_list"),
    pytest.param(lambda: _cvc_loss(-1.0), "lambda_cvc must be", id="lambda_cvc_negative"),
    pytest.param(lambda: _cvc_loss(True), "lambda_cvc must be", id="lambda_cvc_bool"),
    pytest.param(lambda: _cvc_loss(None), "lambda_cvc must be", id="lambda_cvc_none"),
    pytest.param(lambda: _cvc_loss(math.inf), "lambda_cvc must be", id="lambda_cvc_inf"),
    pytest.param(lambda: _cvc_loss(math.nan), "lambda_cvc must be", id="lambda_cvc_nan"),
    pytest.param(lambda: seeded_uniform(3, (2, 2), 1, 0), "tensor name must be a string",
                 id="seeded_uniform_name_int"),
    pytest.param(lambda: seeded_uniform("w", (2, -2), 1, 0), "shape dim -2 out of range",
                 id="seeded_uniform_shape_negative"),
    pytest.param(lambda: seeded_uniform("w", "ab", 1, 0), "shape dim must be an integer",
                 id="seeded_uniform_shape_str"),
    pytest.param(lambda: reshape(Tensor(np.zeros(4)), (1.5, 4)), "reshape dim must be an integer",
                 id="reshape_float_dim"),
    pytest.param(lambda: reshape(Tensor(np.zeros(4)), (True, 4)), "reshape dim must be an integer",
                 id="reshape_bool_dim"),
    pytest.param(lambda: reshape(Tensor(np.zeros(4)), ("a", 4)), "reshape dim must be an integer",
                 id="reshape_str_dim"),
    pytest.param(lambda: reshape(Tensor(np.zeros(4)), (-1, -4)), "reshape dim -1 out of range",
                 id="reshape_negative_dims"),
    pytest.param(lambda: reshape(Tensor(np.zeros(4)), 4.0), "reshape dim must be an integer", id="reshape_float"),
    pytest.param(lambda: reshape(Tensor(np.zeros(4)), True), "reshape dim must be an integer", id="reshape_bool"),
    pytest.param(lambda: reshape(Tensor(np.zeros(4)), -4), "reshape dim -4 out of range", id="reshape_negative"),
    pytest.param(lambda: reshape(Tensor(np.zeros(4)), (2, "a")), "reshape dim must be an integer",
                 id="reshape_str_second_dim"),
    pytest.param(lambda: bleu(_HYP, _HYP * 2), "equal counts, got 1 hypotheses and 2 references",
                 id="bleu_unequal_counts"),
    pytest.param(lambda: bleu([[["a", ["b"]]]], [[["a"]]]), "bleu needs reports of hashable tokens",
                 id="bleu_list_token"),
    pytest.param(lambda: rouge_l([[["a", ["b"]]]], [[["a"]]]), "rouge_l needs reports of hashable tokens",
                 id="rouge_l_list_token"),
    pytest.param(lambda: meteor_lite([[["a", ["b"]]]], [[["a"]]]), "meteor_lite needs reports of hashable tokens",
                 id="meteor_lite_list_token"),
    # a report is a list of sentences, each a list of tokens; a text would be scored letter by letter
    *[pytest.param(functools.partial(score, report), f"{op} needs each report as a list of sentences",
                   id=f"{op}_{kind}_report")
      for op, score in (("bleu", lambda report: bleu([report], _HYP)),
                        ("rouge_l", lambda report: rouge_l([report], _HYP)),
                        ("meteor_lite", lambda report: meteor_lite([report], _HYP)),
                        ("score_generation", _score_generation))
      for kind, report in (("str", "the lungs are clear."), ("numpy", np.array(_HYP[0])))],
    pytest.param(lambda: bleu_n([_HYP[0][0]], _HYP, 1), "bleu needs each report as a list of sentences",
                 id="bleu_n_flat_report"),
    # len() would raise a raw TypeError on either
    pytest.param(lambda: bleu(None, _HYP), "bleu needs the hypotheses and the references as lists",
                 id="bleu_hypotheses_none"),
    pytest.param(lambda: bleu(iter(_HYP), _HYP), "bleu needs the hypotheses and the references as lists",
                 id="bleu_hypotheses_iterator"),
    pytest.param(lambda: score_generation(_HYP * 2, None, np.array([[0.9], [0.1]]), np.array([[1], [0]]), ["edema"]),
                 "score_generation needs the hypotheses and the references as lists",
                 id="score_generation_references_none"),
    pytest.param(lambda: corpus._shape_mask("hex", 4), "unknown pattern shape 'hex'", id="pattern_shape_unknown"),
])
def test_argument_values_are_validation_errors(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def _zeros(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _zeros(2).item(), r"item\(\) needs a one-element tensor", id="item_two_elements"),
    pytest.param(lambda: _adam_step_with_grad(np.zeros(3)),
                 r"gradient of 'w' has shape \(3,\), its parameter \(2,\)", id="adam_gradient_shape"),
    pytest.param(lambda: _adam_step_with_grad(np.zeros((2, 1))), r"gradient of 'w' has shape \(2, 1\)",
                 id="adam_gradient_broadcastable_shape"),
    *[pytest.param(functools.partial(call, _zeros), message, id=case)  # each autodiff op's, from its OPS entry
      for op in OPS.values() for case, (call, message) in op.shape_errors.items()],
])
def test_tensor_shapes_that_do_not_fit_are_shape_errors(call, message):
    with pytest.raises(ShapeError, match=message):
        call()


def _set(name, value):
    return lambda arrays: arrays.update({name: value})


def _pickled(path, arrays):
    arrays["concepts"] = np.array(["edema", None], dtype=object)
    np.savez(path, allow_pickle=True, **arrays)


@pytest.mark.parametrize("damage", [
    pytest.param(lambda path, arrays: path.unlink(), id="missing_file"),
    pytest.param(lambda path, arrays: path.write_text("not an archive"), id="not_an_archive"),
    pytest.param(_pickled, id="pickled_member"),
    pytest.param(lambda arrays: arrays.pop("adam.v"), id="missing_member"),
    pytest.param(lambda arrays: arrays.pop("enc.obs.b"), id="missing_parameter"),
    pytest.param(_set("notes", np.zeros(1)), id="extra_member"),
    pytest.param(lambda arrays: arrays.update({"enc.obs.w": arrays["enc.obs.w"].T}), id="parameter_shape"),
    pytest.param(lambda arrays: arrays.update({"enc.conv0.w": arrays["enc.conv0.w"].astype(np.float32)}),
                 id="parameter_dtype"),
    pytest.param(lambda arrays: arrays.update({"enc.conv0.b": arrays["enc.conv0.b"].astype(int)}),
                 id="parameter_int"),
    pytest.param(lambda arrays: arrays.update({"adam.m": arrays["adam.m"][:-1]}), id="m_too_short"),
    pytest.param(lambda arrays: arrays.update({"adam.v": np.append(arrays["adam.v"], 0.0)}), id="v_too_long"),
    pytest.param(lambda arrays: arrays.update({"adam.m": arrays["adam.m"].astype(np.float32)}), id="m_dtype"),
    pytest.param(_set("adam.t", np.array(-1)), id="t_negative"),
    pytest.param(_set("adam.t", np.array(3.0)), id="t_float"),
    pytest.param(_set("adam.t", np.array([3])), id="t_not_0d"),
    pytest.param(_set("config", np.array([30, 2, 2, 3])), id="config_size_refused"),
    pytest.param(_set("config", np.array([16, 2, 0, 3])), id="config_zero_channels"),
    pytest.param(_set("config", np.array([16, 2])), id="config_no_channels"),
    pytest.param(_set("config", np.array([16, 2, 2])), id="config_other_depth"),
    pytest.param(_set("config", np.array([16.0, 2.0, 2.0, 3.0])), id="config_float"),
    pytest.param(_set("config", np.array(16)), id="config_0d"),
    pytest.param(_set("config", np.array([16, 2, 2**61, 3])), id="config_channels_unrepresentable"),
    pytest.param(_set("concepts", np.array(["edema"])), id="fewer_tokens_than_n_concepts"),
    pytest.param(_set("concepts", np.array(["edema", "chest", "lungs"])), id="more_tokens_than_n_concepts"),
    pytest.param(_set("concepts", np.array([1, 2])), id="tokens_not_str"),
    pytest.param(_set("concepts", np.array([["edema", "chest"]])), id="tokens_2d"),
])
def test_checkpoint_defects_are_checkpoint_errors_naming_the_path(tmp_path, damage):
    path = tmp_path / "ck.npz"
    config = EncoderConfig(image_size=16, channels=(2, 3), n_concepts=2)
    EncoderTrainer(config, corpus.ConceptSet(["edema", "chest"]), 0).save(path)
    arrays = pgm.read_arrays(path)
    if damage.__code__.co_argcount == 2:  # damages the file
        damage(path, arrays)
    else:  # damages a member
        damage(arrays)
        pgm.write_arrays(path, arrays)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        EncoderTrainer.load(path)


_MVH_ERRORS = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, MvhError)}


def _raw_raises(tree):
    """Line numbers of raise statements that name no MvhError subclass; a bare re-raise names none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) not in _MVH_ERRORS:
                yield node.lineno


def test_every_raise_names_an_mvh_error():
    package = Path(mvh.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _raw_raises(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], "raise an MvhError subclass from mvh.errors, not a builtin exception"


def test_raise_check_sees_each_kind_of_raise():
    source = ("raise ValidationError('x')\nraise ValueError('x')\nraise\nraise DataError('x') from None\n"
              "raise KeyError\nraise ShapeError\nraise exc\nraise errors.TapeError('x')\nraise np.AxisError(1)\n")
    assert sorted(_raw_raises(ast.parse(source))) == [2, 3, 5, 7, 9]


_FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "tofile"}
_NUMPY_FILE_FUNCTIONS = {"load", "save", "savez", "savez_compressed", "loadtxt", "savetxt", "genfromtxt", "fromfile"}


def _file_access_calls(tree):
    """Line numbers of calls to open(), to a file method or to numpy's file I/O; pgm's own functions are allowed."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            yield node.lineno
        elif isinstance(func, ast.Attribute):
            owner = getattr(func.value, "id", None)
            if (func.attr in _FILE_METHODS and owner != "pgm"
                    or func.attr in _NUMPY_FILE_FUNCTIONS and owner in ("np", "numpy")):
                yield node.lineno


def test_only_pgm_opens_files():
    package = Path(mvh.__file__).parent
    found = [f"{path.name}:{line}"
             for path in sorted(package.glob("*.py")) if path.name != "pgm.py"
             for line in _file_access_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], "open files through mvh.pgm's readers and writers, not directly"


def test_file_access_check_sees_each_kind_of_call():
    source = ("open(p)\nio.open(p)\npath.read_text()\npath.write_text(t)\npath.read_bytes()\n"
              "path.write_bytes(b)\npgm.write_text(p, t)\nread_text(p)\nnp.load(p)\nnp.save(p, a)\n"
              "np.savez(p, a=a)\nnp.savez_compressed(p, a=a)\nnumpy.loadtxt(p)\nnp.savetxt(p, a)\n"
              "np.genfromtxt(p)\nnp.fromfile(p)\na.tofile(p)\npgm.read_arrays(p)\npgm.write_arrays(p, d)\n"
              "np.asarray(p)\nnp.frombuffer(b)\n")
    assert sorted(_file_access_calls(ast.parse(source))) == [1, 2, 3, 4, 5, 6, *range(9, 18)]


def _autodiff_imports(tree):
    """Line numbers of imports that name the autodiff module, relatively or as mvh.autodiff."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if any(m.strip(".") in ("autodiff", "mvh.autodiff") for m in modules):
            yield node.lineno


def test_data_and_metrics_do_not_import_autodiff():
    package = Path(mvh.__file__).parent
    found = [f"{name}:{line}" for name in ("corpus.py", "metrics.py", "pgm.py", "errors.py")
             for line in _autodiff_imports(ast.parse((package / name).read_text(encoding="utf-8")))]
    assert found == [], "take argument checks from mvh.errors, not from mvh.autodiff"


def test_autodiff_import_check_sees_each_kind_of_import():
    source = ("from .autodiff import _index\nfrom . import autodiff as ad\nimport mvh.autodiff\n"
              "from mvh.autodiff import Tensor\nfrom mvh import autodiff\nfrom .errors import _index\n"
              "import numpy\nfrom . import errors\n")
    assert sorted(_autodiff_imports(ast.parse(source))) == [1, 2, 3, 4, 5]
