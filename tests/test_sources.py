"""Every module of the package compiles without a warning."""

import warnings
from pathlib import Path

import sl2magical


def test_modules_compile_without_warnings():
    paths = sorted(Path(sl2magical.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
