"""The package's public names, resolved on first use, and the README's
documented examples."""

import ast
import doctest
import importlib
import math
import re
from pathlib import Path

import operator

import pytest

import asmice
from asmice.asm import Asm
from asmice.brackets import BracketProduct, qdiff
from asmice.cyclotomic import cyclotomic_embed
from asmice.ice import IceState
from asmice.intpoly import IntPoly
from asmice.laurent import LaurentPoly, RatFunc
from asmice.matrices import RingMatrix

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_public_name_is_its_modules_object():
    for name in asmice.__all__:
        module = importlib.import_module(f"asmice.{asmice._MODULE_OF[name]}")
        assert getattr(asmice, name) is getattr(module, name)
        assert getattr(module, name).__module__ == module.__name__


def test_public_names_listed_once_and_in_dir():
    assert len(asmice.__all__) == len(set(asmice.__all__)) == 56
    assert set(asmice.__all__) <= set(dir(asmice))


def test_submodule_import_from_package():
    from asmice import chain
    assert chain is importlib.import_module("asmice.chain")
    assert asmice.chain is chain


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        asmice.no_such_name


def test_name_follows_its_modules_binding(monkeypatch):
    from asmice import transfer
    original = transfer.transfer_count
    monkeypatch.setattr(transfer, "transfer_count", len)
    assert asmice.transfer_count is len
    monkeypatch.undo()
    assert asmice.transfer_count is original


def test_readme_examples():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    examples = [b for b in blocks if ">>>" in b]
    assert examples
    runner = doctest.DocTestRunner()
    for i, text in enumerate(examples):
        test = doctest.DocTestParser().get_doctest(
            text, {}, f"README-{i}", str(README), 0)
        runner.run(test)
    assert runner.failures == 0 and runner.tries >= 4


def _selftest_by_name():
    """perfbench/selftest.py's BY_NAME, read from its source: {function:
    modules whose by-name import the tracer must wrap}."""
    tree = ast.parse((ROOT / "perfbench" / "selftest.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["BY_NAME"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/selftest.py defines no BY_NAME")


def _noqa_imports():
    """(name, module) of each import kept with "# noqa: F401"."""
    kept = []
    for path in sorted((ROOT / "src" / "asmice").glob("*.py")):
        for line in path.read_text().splitlines():
            if "# noqa: F401" in line:
                names = re.match(r"from \.\w+ import (\w+)\s+#", line)
                assert names, f"{path.name}: {line}"
                kept.append((names[1], path.stem))
    return kept


def test_unused_imports_are_the_traced_by_name_ones():
    # an import kept only for the benchmark's tracer names a function and
    # a module that the self-test still lists, and none other is kept
    by_name = _selftest_by_name()
    for name, module in _noqa_imports():
        assert module in by_name.get(name, ()), (name, module)


def _unread_imports(tree):
    """Names that the module's imports bind and that no expression of the
    module reads (a bare name, or the base of an attribute)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_every_import_is_read_but_the_traced_by_name_ones():
    # no linter runs on the package: an AST scan stands in for pyflakes'
    # unused-import check (F401), exempting only the noqa-kept imports
    unread = set()
    for path in sorted((ROOT / "src" / "asmice").glob("*.py")):
        unread.update((name, path.stem)
                      for name in _unread_imports(ast.parse(path.read_text())))
    assert unread == set(_noqa_imports())


def test_the_import_scan_sees_an_unread_import():
    tree = ast.parse("from fractions import Fraction\nimport os.path\n"
                     "from .laurent import LaurentPoly as L\nL.one()\n")
    assert _unread_imports(tree) == {"Fraction", "os"}


def _unread_privates(trees):
    """(name, module) of each module-level private name, a _x function,
    class or assignment but no dunder, that no module of trees ({module:
    ast}) reads: by a bare name in its own module, by `from .module import
    _x`, or as an attribute."""
    defined, read, attrs = set(), set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                names = []
            defined.update((name, module) for name in names
                           if name[0] == "_" and name[:2] != "__")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((node.id, module))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update((alias.name, node.module) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return {(name, module) for name, module in defined - read
            if name not in attrs}


def test_every_private_name_is_read_in_the_package():
    # a private helper that only tests or nothing reads is dead code
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "asmice").glob("*.py"))}
    assert _unread_privates(trees) == set()


def test_the_private_scan_sees_an_unread_name():
    trees = {"a": ast.parse("_kept = 1\n_orphan: int = 2\n__dunder__ = 3\n"
                            "def _used():\n    return _kept\n"
                            "class _Lone:\n    pass\n"
                            "def _by_attribute():\n    pass\n"),
             "b": ast.parse("from . import a\nfrom .a import _used\n"
                            "_used()\na._by_attribute()\n")}
    assert _unread_privates(trees) == {("_orphan", "a"), ("_Lone", "a")}


def _options(tree):
    """(owner, function, parameter, position) of each optional parameter
    of the functions and methods in tree.  owner is the class of a method
    and None for a function.  position is the index of the positional
    argument that passes it, a method's self or cls not counted, and None
    for a keyword-only parameter.  An __init__ is named by its class,
    whose call calls it, and has no owner."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and "staticmethod" not in [
                    d.id for d in child.decorator_list
                    if isinstance(d, ast.Name)]
                owner, name = cls, child.name
                if name == "__init__":
                    owner, name = None, cls
                first = len(positional) - len(args.defaults)
                found.extend((owner, name, p.arg, i - bound)
                             for i, p in enumerate(positional) if i >= first)
                found.extend((owner, name, p.arg, None) for p, d in
                             zip(args.kwonlyargs, args.kw_defaults) if d)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def _calls(trees, classes):
    """{called name: [(positional count, keyword names, receiver)]} over
    every call in trees, by the bare name or the attribute called.  A
    *args makes the count unbounded; a **kwargs puts None among the
    names.  receiver is the class, one of classes, that an attribute call
    names as its base (C.f(...), or cls.f(...) or self.f(...) inside the
    body of C), and None for any other call."""
    calls = {}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                base = getattr(getattr(f, "value", None), "id", None)
                base = cls if base in ("cls", "self") else base
                count = (math.inf if any(isinstance(a, ast.Starred)
                                         for a in child.args)
                         else len(child.args))
                calls.setdefault(name, []).append(
                    (count, {k.arg for k in child.keywords},
                     base if base in classes else None))
            visit(child, child.name if isinstance(child, ast.ClassDef)
                  else cls)

    for tree in trees:
        visit(tree, None)
    return calls


def _unset_options(defined, calling):
    """(module, function, parameter) of each optional parameter of a
    function in defined ({module: ast}) that no call in calling (asts)
    passes, by position or by keyword; a method f of class C is named
    C.f.  A call is matched to every function of its name, but a call
    whose receiver is a class defined in defined only to that class's
    method (_calls)."""
    classes = {node.name for tree in defined.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    calls = _calls(calling, classes)
    return {(module, f"{owner}.{name}" if owner else name, param)
            for module, tree in defined.items()
            for owner, name, param, position in _options(tree)
            if not any((position is not None and position < count
                        or param in keys or None in keys)
                       and receiver in (None, owner)
                       for count, keys, receiver in calls.get(name, ()))}


def package_sources():
    """{module stem: source} of the package's modules."""
    return {path.stem: path.read_text()
            for path in sorted((ROOT / "src" / "asmice").glob("*.py"))}


def test_every_option_is_set_by_some_call():
    # an option that no call in the package, its tests or its benchmark
    # sets is surface with no caller
    defined = {stem: ast.parse(text)
               for stem, text in package_sources().items()}
    calling = [ast.parse(path.read_text())
               for part in ("src", "tests", "perfbench")
               for path in sorted((ROOT / part).rglob("*.py"))]
    assert _unset_options(defined, calling) == set()


#: options that no call outside the tests sets, each with its reason
TEST_ONLY_OPTIONS = {
    ("chain", "ik_eps_ratfunc", "grid"):
        "the tests check the chain identities on non-standard grids",
    ("chain", "z_half_eps_brute", "grid"):
        "the tests check the chain identities on non-standard grids",
    ("cli", "main", "argv"): "the tests' entry point",
}


def _options_without_outside_caller(sources):
    """_unset_options for the package modules given as {stem: source},
    called from themselves and the benchmark only."""
    defined = {stem: ast.parse(text) for stem, text in sources.items()}
    calling = [*defined.values(),
               *(ast.parse(path.read_text())
                 for path in sorted((ROOT / "perfbench").rglob("*.py")))]
    return _unset_options(defined, calling)


def test_every_option_has_a_caller_outside_the_tests():
    # an option that only the tests set is surface for the tests alone,
    # unless it is listed with its reason
    assert _options_without_outside_caller(package_sources()) \
        == set(TEST_ONLY_OPTIONS)


def test_the_outside_caller_scan_sees_a_planted_orphan():
    sources = package_sources()
    signature = "def general_x_matrix(grid, s):"
    assert signature in sources["dets"]
    sources["dets"] = sources["dets"].replace(
        signature, "def general_x_matrix(grid, s, x=None):")
    assert _options_without_outside_caller(sources) \
        == {*TEST_ONLY_OPTIONS, ("dets", "general_x_matrix", "x")}


def test_the_option_scan_sees_an_orphan():
    defined = {"a": ast.parse(
        "def f(x, by_position=1, by_keyword=2, orphan=3, *, kw=4, lone=5):\n"
        "    def inner(y=1):\n        pass\n"
        "def starred(a=1):\n    pass\n"
        "def spread(a=1):\n    pass\n"
        "class C:\n"
        "    def __init__(self, given=1, unset=2):\n        pass\n"
        "    def method(self, a=1, b=2):\n        pass\n"
        "    @staticmethod\n"
        "    def static(a=1, b=2):\n        pass\n"
        "    def build(self, size=1):\n        pass\n"
        "    def grow(self, step=1):\n        pass\n"
        "    def shrink(self, by=1):\n        pass\n"
        "class D:\n"
        "    def build(self, size=1):\n        pass\n"
        "    def grow(self, step=1):\n        pass\n"
        "    def shrink(self, by=1):\n        pass\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls.grow(2)\n"
        "    def again(self):\n        return self.shrink(3)\n")}
    # a call on a class, or on cls or self inside it, sets only that
    # class's method: D.build, C.grow and C.shrink stay unset
    calling = [ast.parse("f(0, 1, by_keyword=2, kw=4)\nC(1)\n"
                         "obj.method(1)\nC.static(1)\nC.build(2)\n"
                         "starred(*args)\nspread(**kwargs)\n")]
    assert _unset_options(defined, calling + [defined["a"]]) == {
        ("a", "f", "orphan"), ("a", "f", "lone"), ("a", "inner", "y"),
        ("a", "C", "unset"), ("a", "C.method", "b"), ("a", "C.static", "b"),
        ("a", "D.build", "size"), ("a", "C.grow", "step"),
        ("a", "C.shrink", "by")}


@pytest.mark.parametrize("value", [
    Asm([[1]]), BracketProduct(2, 1, {1: 1}), cyclotomic_embed(24),
    IceState([[1]]), IntPoly.x(), LaurentPoly.var_power(1),
    RatFunc(LaurentPoly.var_power(1), qdiff(1)), RingMatrix([[1]])],
    ids=lambda value: type(value).__name__)
def test_a_foreign_operand_is_refused(value):
    # each operator declines an operand it cannot take, so Python raises
    # TypeError for arithmetic and falls back to identity for ==
    foreign = object()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((value, foreign), (foreign, value)):
            with pytest.raises(TypeError):
                op(a, b)
    assert value != foreign and foreign != value
    assert not (value == foreign or foreign == value)
