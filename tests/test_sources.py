"""Every module of the package compiles without a warning, every
function and class it defines is used, and every function the benchmark
tracer wraps exists."""

import ast
import importlib
import warnings
from collections import Counter
from pathlib import Path

import sl2magical

PACKAGE = Path(sl2magical.__file__).parent
TESTS = Path(__file__).parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def test_modules_compile_without_warnings():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def _references(tree):
    """Names a tree uses: variables, attributes, and the last dotted part of
    string constants (as in monkeypatch.setattr("pkg.module.name", ...))."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rsplit(".", 1)[-1]


def test_every_definition_is_referenced():
    """Each function and class defined in the package is referenced in the
    package or the tests outside its own definition (dunder methods, which
    the language calls, excepted)."""
    package = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    tests = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(TESTS.glob("*.py"))]
    used = Counter(name for tree in package + tests for name in _references(tree))
    unused = []
    for tree in package:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                own = sum(1 for name in _references(node) if name == node.name)
                if used[node.name] == own:
                    unused.append(node.name)
    assert unused == []


def test_traced_layers_exist():
    """Each "module.function" key of the tracer's LAYERS names a function
    of the package, so deleting a traced function fails here, not only in
    a traced benchmark run.  The keys are read from the tracer's source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (layers,) = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "LAYERS"]
    names = [ast.literal_eval(key) for key in layers.keys]
    assert names
    missing = []
    for name in names:
        module, function = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"sl2magical.{module}"), function, None)):
            missing.append(name)
    assert missing == []
