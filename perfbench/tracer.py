"""Spans and counters around the package's layer functions, from outside.

The package imports with ``from .x import f``, so one function object is
bound under several module namespaces (``linalg.integer_rank`` is also
``matrixoracle.integer_rank``).  install() rebinds every attribute of every
loaded package module that is the original object, so each call site goes
through the wrapper; uninstall() puts the originals back.  Nothing in the
package's source is edited.

Spans (name, start, end, parent) stay in memory for one pass.  A layer's
self time is its duration minus the time its child spans cover; calls run
on one thread, so children of one span never overlap.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from collections import Counter
from time import perf_counter
from types import ModuleType
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    out: Dict[str, float] = {}
    for s, c in zip(spans, covered):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
    return out


# Extra figure per layer: a value taken from each call's arguments and
# result, summed over the pass; a "_ratio" figure is divided by the calls.


class Extra(NamedTuple):
    metric: str
    value: Callable  # (tracer, name, args, result) -> number


def _cells(tracer: "Tracer", name: str, args, result) -> int:
    matrix = args[0]
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _new_args(tracer: "Tracer", name: str, args, result) -> int:
    """1 the first time this layer sees these arguments in the pass."""
    key = (name, args)
    if key in tracer.seen:
        return 0
    tracer.seen.add(key)
    return 1


def _magical(tracer: "Tracer", name: str, args, result) -> int:
    return int(result.verdict.is_magical)


def _items(tracer: "Tracer", name: str, args, result) -> int:
    return len(result)


PACKAGE = "sl2magical"

#: Layer boundaries: "module.function" of the package, with its extra figure.
LAYERS: Dict[str, Optional[Extra]] = {
    "cli.main": None,
    "crosscheck.run_all": None,
    "dataset.load_records": None,
    "dataset.evaluate_conditions": None,
    "magical.classify_realform": None,
    "magical.extended_magical_status": Extra("magical_ratio", _magical),
    "orbits.enumerate_signed_data": Extra("items", _items),
    "realforms.describe": None,
    "realforms.centralizer_realform": None,
    "sl2data.multiplicities_formula": Extra("distinct_ratio", _new_args),
    "rootsystems.build_root_system": None,
    "rootsystems.ad_grading": None,
    "moduli.rigidity_report": None,
    "matrixoracle.build_matrix_triple": Extra("distinct_ratio", _new_args),
    "matrixoracle.oracle_sl2_data": None,
    "matrixoracle.oracle_sigma_split": None,
    "linalg.integer_rank": Extra("cells", _cells),
}


def import_package(package: str = PACKAGE) -> List[ModuleType]:
    """Import the package and every module in it; return the modules."""
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{package}.{info.name}")
    return [m for n, m in list(sys.modules.items())
            if n == package or n.startswith(package + ".")]


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.seen: set = set()
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def reset(self) -> None:
        self.spans.clear()  # cleared in place: the wrappers hold this list
        self.counts.clear()
        self.seen.clear()

    def _wrap(self, name: str, fn: Callable, extra: Optional[Extra]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent)
            if extra is not None:
                counts[f"{name}.{extra.metric}"] += extra.value(self, name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = import_package()
        for name, extra in LAYERS.items():
            mod_name, fn_name = name.rsplit(".", 1)
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(name, orig, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def pass_counts(self) -> Dict[str, float]:
        """Counts of the pass so far: calls, errors and each layer's extra."""
        calls = Counter(s.name for s in self.spans)
        out: Dict[str, float] = {}
        for name, extra in LAYERS.items():
            n = calls[name]
            out[name + ".calls"] = n
            out[name + ".errors"] = self.counts[name + ".errors"]
            if extra is not None:
                metric = f"{name}.{extra.metric}"
                total = self.counts[metric]
                out[metric] = (total / n if n else 0.0) if metric.endswith("_ratio") else total
        return out

    def pass_self_times(self) -> Dict[str, float]:
        st = self_times(self.spans)
        return {name + ".self_s": st.get(name, 0.0) for name in LAYERS}
