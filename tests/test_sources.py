"""Every module of the package compiles without a warning and holds no
assert statement, every function and class it defines has a caller in
the package, every name it imports at module level is used in it, none
imports dataclasses or importlib.resources, and every function the
benchmark tracer wraps exists."""

import ast
import importlib
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import sl2magical

PACKAGE = Path(sl2magical.__file__).parent
TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"

#: Definitions with no caller in the package yet, each kept for the open
#: ROADMAP item that gives it one.
EARMARKED = {
    "involution_sign": "item 6: the signs of the magical involution sigma_e",
    "admits_even_magical": "items 2, 6 and 7: a hand list to be checked or derived",
    "restricted_root_checksum": "item 3: a registered check of verify",
    "classify_family": "item 2: the family scan that lifts classify's size bound",
}


def test_modules_compile_without_warnings():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_no_assert_statement_in_src():
    """Every internal check raises AssertionError itself: python -O drops
    assert statements, and with them the check."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(func):
    """The names a function binds itself: its parameters and the names it
    assigns, those of the functions nested in it aside."""
    args = func.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if arg}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(tree, bound=frozenset()):
    """Names a tree uses: variables, attributes, and the last dotted part of
    string constants (as in monkeypatch.setattr("pkg.module.name", ...)).
    A variable bound as a parameter or local of a function it is in is
    that local, not a use of a definition of the same name."""
    if isinstance(tree, ast.Name):
        if tree.id not in bound:
            yield tree.id
    elif isinstance(tree, ast.Attribute):
        yield tree.attr
    elif isinstance(tree, ast.Constant) and isinstance(tree.value, str):
        yield tree.value.rsplit(".", 1)[-1]
    elif isinstance(tree, _SCOPES):
        bound = bound | _locals(tree)
    for node in ast.iter_child_nodes(tree):
        yield from _references(node, bound)


def _traced_layers():
    """The "module.function" keys of the tracer's LAYERS, read from its
    source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (layers,) = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "LAYERS"]
    return [ast.literal_eval(key) for key in layers.keys]


def _unreferenced(package, exempt):
    """The functions and classes defined in the trees of package, dunder
    methods and the exempt names aside, that no tree references outside
    their own definition."""
    used = Counter(name for tree in package for name in _references(tree))
    unused = []
    for tree in package:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                own = sum(1 for name in _references(node) if name == node.name)
                if used[node.name] == own and node.name not in exempt:
                    unused.append(node.name)
    return unused


def test_every_definition_is_referenced():
    """Each function and class defined in the package is referenced in the
    package outside its own definition; a test alone does not keep a
    definition.  Exempt are dunder methods, which the language calls, the
    functions the benchmark tracer wraps, and the EARMARKED names."""
    package = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    exempt = {name.rsplit(".", 1)[1] for name in _traced_layers()} | set(EARMARKED)
    assert _unreferenced(package, exempt) == []
    defined = {node.name for tree in package for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert set(EARMARKED) <= defined


SHADOWED = """
def multiplicity(part):
    return 2


def rows(multiplicity):
    half = lambda count: count // 2
    return half(multiplicity)


print(rows(4))
"""


def test_a_local_of_the_same_name_keeps_no_definition():
    """A definition whose name is used only as a parameter, here rows'
    multiplicity, is still reported dead."""
    assert _unreferenced([ast.parse(SHADOWED)], set()) == ["multiplicity"]


def test_traced_layers_exist():
    """Each "module.function" key of the tracer's LAYERS names a function
    of the package, so deleting a traced function fails here, not only in
    a traced benchmark run.  The keys are read from the tracer's source."""
    names = _traced_layers()
    assert names
    missing = []
    for name in names:
        module, function = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"sl2magical.{module}"), function, None)):
            missing.append(name)
    assert missing == []


def _module_imports(tree):
    """(bound name, line) of each module-level import of a tree, future
    imports aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


def test_every_module_import_is_used():
    """Each name a module of the package imports at module level is
    referenced in that module, so a deletion leaves no stale import."""
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = set(_references(tree))
        stale += [f"{path.name}:{line} {name}" for name, line in _module_imports(tree)
                  if name not in used]
    assert stale == []


def test_one_witness_constructor():
    """Every Witness the package reports is built by magical.orbit_witness,
    so the classical partitions and the curated exceptional records share
    one rule for the four fields; _replace() may change a built one."""
    builders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                builders += [f"{path.name}:{func.name}" for node in ast.walk(func)
                             if isinstance(node, ast.Call)
                             and getattr(node.func, "id", "") == "Witness"]
    assert builders == ["magical.py:orbit_witness"]


def test_no_module_imports_dataclasses():
    """The records generate no code when their classes are defined, which
    dataclasses would do on every import (records.py)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


SET_UP = """
import importlib, pkgutil, sys
sys.modules.pop("dataclasses", None)  # in case site imported it
import sl2magical
for info in pkgutil.iter_modules(sl2magical.__path__):
    importlib.import_module("sl2magical." + info.name)
from sl2magical import cli, dataset
dataset.load_records()
cli.build_parser()
print("dataclasses" in sys.modules)
"""


def test_set_up_leaves_dataclasses_unimported():
    """A fresh interpreter that imports every module, loads the dataset
    and builds the parser, the work of a command's set-up, never imports
    dataclasses."""
    env = {k: v for k, v in os.environ.items() if k != "MAGICAL_DATASET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SET_UP], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_no_module_imports_importlib_resources():
    """The shipped dataset is opened by its path in the package directory
    (dataset.load_records), so no module imports importlib.resources."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [f"{node.module}.{alias.name}" for alias in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.startswith("importlib.resources")]
    assert found == []


LOAD = """
import sys
from sl2magical import cli, crosscheck, dataset
dataset.load_records()
print("importlib.resources" in sys.modules)
"""


def test_loading_the_dataset_leaves_importlib_resources_unimported():
    """An interpreter started without site, which can import
    importlib.resources on its own, imports cli, crosscheck and dataset and
    loads the shipped dataset without importing importlib.resources."""
    env = {k: v for k, v in os.environ.items() if k != "MAGICAL_DATASET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-S", "-c", LOAD], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
