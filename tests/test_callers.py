"""Every public function, class, method and module constant of `mvh` has a caller, or names the ROADMAP item that
gives it one.

A definition counts as called when a module of `src/mvh` or `bench/` loads its name, as a name or as an
attribute, or when `bench/layertrace.py` spells it in a string, since it looks functions up by name. Its own
definition, any other store of the name, and the tests do not count. Names are matched alone, not by owner, so
a method that shares its name with a name in use (`EncoderTrainer.train` with `Corpus.train`) counts as called.
"""

import ast
from pathlib import Path

import mvh

SRC = Path(mvh.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# definition -> the ROADMAP item that wires it
WIRED_LATER = {
    "train.EncoderTrainer": "item 4", "train.EncoderTrainer.save": "item 1b", "train.EncoderTrainer.load": "item 1b",
}


def _definitions(tree, module):
    """(qualified name, name) of each public top-level function, class and assigned name, tuple targets included,
    and of each public method."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for name in (n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)):
            if not name.startswith("_"):
                yield f"{module}.{name}", name
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree, strings):
    """Every name and attribute the tree loads, and with strings, every string constant it holds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _callerless():
    modules = sorted(SRC.glob("*.py"))
    used = {name for path in modules + sorted(BENCH.glob("*.py")) if not path.name.startswith("test_")
            for name in _references(ast.parse(path.read_text(encoding="utf-8")), path.name == "layertrace.py")}
    return sorted(qualified for path in modules
                  for qualified, name in _definitions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
                  if name not in used)


def test_every_public_name_has_a_caller_or_names_the_item_that_wires_it():
    # a name that gains a caller leaves the allow-list; a new name without one fails here
    assert _callerless() == sorted(WIRED_LATER)


def test_caller_check_sees_definitions_and_references():
    source = ("def f(): pass\ndef _g(): pass\nclass C:\n    def m(self): pass\n    def _n(self): pass\n"
              "    @property\n    def p(self): pass\nx = 1\nA, (B, _c) = 1, (2, 3)\nT: int = 4\n")
    assert list(_definitions(ast.parse(source), "mod")) == [("mod.f", "f"), ("mod.C", "C"), ("mod.C.m", "m"),
                                                             ("mod.C.p", "p"), ("mod.x", "x"), ("mod.A", "A"),
                                                             ("mod.B", "B"), ("mod.T", "T")]
    uses = "f(x)\nobj.m\n'g'\ndef h(): pass\ny = 2\nobj.z = 3\n"  # y and z are stored, not loaded
    assert sorted(_references(ast.parse(uses), strings=False)) == ["f", "m", "obj", "obj", "x"]
    assert sorted(_references(ast.parse(uses), strings=True)) == ["f", "g", "m", "obj", "obj", "x"]
