"""Curated exceptional-orbit records and the (a)/(b)/(c) condition check.

Weighted Dynkin diagrams pin down exceptional nilpotent orbits, but the
real-form data needed by the extended-magical criterion (how the Cartan
involution splits the centralizer and the highest-weight spaces) comes
from the published tables of Djokovic.  This module ships the rows the
classification consults as one-record-per-line JSON and re-derives every
complex quantity (the multiplicities n_j, dim c, dim V_even) from the
diagram at load time; only genuinely real data is trusted from the file.

A record may lack columns its source table does not print.  Conditions
evaluated against absent columns come back false, flagged with an
"insufficient data" note instead of a guessed value.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Optional, Tuple, Union

from .errors import DatasetSchemaError, InconsistentGradingError, MissingDataError
from .realforms import EXCEPTIONAL_FORMS, CentralizerRealForm, describe
from .rootsystems import LieType, WeightedDynkinDiagram, ad_grading, build_root_system
from .sl2data import Sl2Data, module_multiplicities

#: Environment variable naming an alternative dataset file.
DATASET_ENV = "MAGICAL_DATASET"

_DATA_PACKAGE = "sl2magical"
_DATA_FILE = "data/exceptional_orbits.jsonl"

_REQUIRED_KEYS = ("realform", "wdd", "centralizer", "source_row")
_OPTIONAL_KEYS = ("dim_V_cap_h", "dim_c_cap_h", "dim_Veven_cap_m")

_FACTOR_RE = re.compile(r"^(so|su|sp|u)\((\d+)(?:,(\d+))?\)$")

#: dim of the compact group attached to a single-argument factor name.
_COMPACT_DIM = {
    "so": lambda n: n * (n - 1) // 2,
    "su": lambda n: n * n - 1,
    "sp": lambda n: n * (2 * n + 1),
    "u": lambda n: n * n,
}


def _parse_factor(token: str) -> Tuple[bool, Optional[int]]:
    """(is_compact, dim of the compact part when known)."""
    if token == "R":
        return False, 0
    m = _FACTOR_RE.match(token)
    if not m:
        raise DatasetSchemaError(f"unrecognized centralizer factor {token!r}")
    name, first, second = m.group(1), int(m.group(2)), m.group(3)
    if second is None:
        return True, _COMPACT_DIM[name](first)
    a, b = first, int(second)
    if a == 0 or b == 0:
        return True, _COMPACT_DIM[name](a + b)
    return False, None


def parse_centralizer(text: str) -> CentralizerRealForm:
    tokens = tuple(t.strip() for t in text.split("+"))
    if not all(tokens):
        raise DatasetSchemaError(f"malformed centralizer string {text!r}")
    compact = all(_parse_factor(t)[0] for t in tokens)
    return CentralizerRealForm(factors=tokens, is_compact=compact)


def _compact_part_dim(cz: CentralizerRealForm) -> Optional[int]:
    total = 0
    for token in cz.factors:
        is_compact, dim = _parse_factor(token)
        if dim is None:
            return None
        if is_compact:
            total += dim
    return total


@lru_cache(maxsize=None)
def _sl2_data_of(ambient: LieType, labels: Tuple[int, ...]) -> Sl2Data:
    wdd = WeightedDynkinDiagram(lie_type=ambient, labels=labels)
    return module_multiplicities(ad_grading(build_root_system(ambient), wdd))


@dataclass(frozen=True)
class ExceptionalOrbitRecord:
    realform: str
    wdd: Tuple[int, ...]
    dim_V_cap_h: Optional[int]
    dim_c_cap_h: Optional[int]
    dim_Veven_cap_m: Optional[int]
    centralizer_type: CentralizerRealForm
    source_row: str

    @property
    def ambient(self) -> LieType:
        return describe(self.realform).ambient

    def sl2_data(self) -> Sl2Data:
        """Multiplicities recomputed from the diagram, never read from disk."""
        return _sl2_data_of(self.ambient, self.wdd)

    @property
    def dim_v_even(self) -> int:
        """Sum of n_j over positive even weights."""
        return sum(m for j, m in self.sl2_data().n if j > 0 and j % 2 == 0)

    def slodowy_split(self) -> Tuple[int, Dict[int, int]]:
        """dim(c cap h) and the positive-weight dims a_w of the
        highest-weight spaces in m, read off the columns; they localize
        the involution only up to weight 2."""
        data = self.sl2_data()
        if data.max_weight > 2:
            raise MissingDataError(f"{self.realform} {self.wdd}: records only localize "
                                   "the involution up to weight 2")
        missing = [c for c in _OPTIONAL_KEYS if getattr(self, c) is None]
        if missing:
            raise MissingDataError(f"{self.realform} record lacks columns {missing}")
        a2 = self.dim_Veven_cap_m
        a1 = (data.dim_v_rho - self.dim_V_cap_h) - a2 - (data.dim_c - self.dim_c_cap_h)
        if a1 < 0:
            raise MissingDataError(
                f"{self.realform} record columns are inconsistent: a_1 = {a1}")
        return self.dim_c_cap_h, {w: v for w, v in ((1, a1), (2, a2)) if v > 0}


@dataclass(frozen=True)
class ConditionReport:
    """Truth values of the three record-level criteria, with notes for
    any condition that could not be evaluated from the stored columns."""

    a: bool
    b: bool
    c: bool
    notes: Tuple[str, ...] = ()

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    @property
    def all_hold(self) -> bool:
        return self.a and self.b and self.c


def _validate(rec: ExceptionalOrbitRecord, where: str) -> None:
    if rec.realform not in EXCEPTIONAL_FORMS:
        raise DatasetSchemaError(f"{where}: unknown real form {rec.realform!r}")
    ambient = rec.ambient
    if len(rec.wdd) != ambient.rank:
        raise DatasetSchemaError(
            f"{where}: wdd length {len(rec.wdd)} != rank {ambient.rank} of {ambient.name}"
        )
    if any(x not in (0, 1, 2) for x in rec.wdd):
        raise DatasetSchemaError(f"{where}: wdd labels must lie in {{0,1,2}}")
    try:
        data = rec.sl2_data()
    except InconsistentGradingError as exc:
        raise DatasetSchemaError(f"{where}: wdd labels no orbit ({exc})") from exc
    for col in _OPTIONAL_KEYS:
        value = getattr(rec, col)
        if value is not None and value < 0:
            raise DatasetSchemaError(f"{where}: {col} is negative")
    if rec.dim_c_cap_h is not None and rec.dim_c_cap_h > data.dim_c:
        raise DatasetSchemaError(
            f"{where}: dim_c_cap_h = {rec.dim_c_cap_h} exceeds dim c = {data.dim_c}"
        )
    if rec.dim_Veven_cap_m is not None and rec.dim_Veven_cap_m > rec.dim_v_even:
        raise DatasetSchemaError(
            f"{where}: dim_Veven_cap_m = {rec.dim_Veven_cap_m} exceeds "
            f"dim V_even = {rec.dim_v_even}"
        )
    if rec.dim_V_cap_h is not None and rec.dim_V_cap_h > data.dim_v_rho:
        raise DatasetSchemaError(
            f"{where}: dim_V_cap_h = {rec.dim_V_cap_h} exceeds dim V = {data.dim_v_rho}"
        )
    compact_dim = _compact_part_dim(rec.centralizer_type)
    if (rec.dim_c_cap_h is not None and compact_dim is not None
            and compact_dim != rec.dim_c_cap_h):
        raise DatasetSchemaError(
            f"{where}: centralizer {rec.centralizer_type} has compact part of "
            f"dim {compact_dim}, but dim_c_cap_h = {rec.dim_c_cap_h}"
        )


def _record_from_json(obj: Dict, where: str) -> ExceptionalOrbitRecord:
    if not isinstance(obj, dict):
        raise DatasetSchemaError(f"{where}: record must be a JSON object")
    unknown = set(obj) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise DatasetSchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in obj]
    if missing:
        raise DatasetSchemaError(f"{where}: missing fields {missing}")
    wdd = obj["wdd"]
    # type() is int, not isinstance: JSON true and false load as bool, an int
    if not isinstance(wdd, list) or not all(type(x) is int for x in wdd):
        raise DatasetSchemaError(f"{where}: wdd must be a list of integers")
    for key in _OPTIONAL_KEYS:
        if key in obj and type(obj[key]) is not int:
            raise DatasetSchemaError(f"{where}: {key} must be an integer")
    for key in ("realform", "centralizer", "source_row"):
        if not isinstance(obj[key], str):
            raise DatasetSchemaError(f"{where}: {key} must be a string")
    rec = ExceptionalOrbitRecord(
        realform=obj["realform"],
        wdd=tuple(wdd),
        dim_V_cap_h=obj.get("dim_V_cap_h"),
        dim_c_cap_h=obj.get("dim_c_cap_h"),
        dim_Veven_cap_m=obj.get("dim_Veven_cap_m"),
        centralizer_type=parse_centralizer(obj["centralizer"]),
        source_row=obj["source_row"],
    )
    _validate(rec, where)
    return rec


def load_records(path: Optional[Union[str, os.PathLike]] = None) -> List[ExceptionalOrbitRecord]:
    """Read and validate the record file.

    Resolution order: explicit path argument, then the MAGICAL_DATASET
    environment variable, then the file shipped with the package; a file
    that cannot be read, the shipped one included, is MissingDataError.  A
    real form has at most one record per diagram.  The file is read on
    every call, and parsed again only when its source or text is new.
    """
    if path is None:
        path = os.environ.get(DATASET_ENV)
    try:
        if path is None:
            text = resources.files(_DATA_PACKAGE).joinpath(_DATA_FILE).read_text()
            source = "shipped dataset"
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            source = str(path)
    except OSError as exc:
        raise MissingDataError(
            f"cannot read dataset {_DATA_FILE if path is None else path}: {exc}") from exc
    return list(_parse_records(source, text))


@lru_cache(maxsize=8)
def _parse_records(source: str, text: str) -> Tuple[ExceptionalOrbitRecord, ...]:
    """The validated records of one text; source names it in errors."""
    records: List[ExceptionalOrbitRecord] = []
    first_line: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{source}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetSchemaError(f"{where}: invalid JSON ({exc})") from exc
        rec = _record_from_json(obj, where)
        first = first_line.setdefault((rec.realform, rec.wdd), lineno)
        if first != lineno:
            raise DatasetSchemaError(f"{where}: second {rec.realform} record for wdd "
                                     f"{list(rec.wdd)}, first on line {first}")
        records.append(rec)
    return tuple(records)


def find_record(realform: str, wdd: Tuple[int, ...]) -> Optional[ExceptionalOrbitRecord]:
    """Shipped (or overridden) record for the real form and diagram labels."""
    for rec in load_records():
        if rec.realform == realform and rec.wdd == tuple(wdd):
            return rec
    return None


def evaluate_conditions(rec: ExceptionalOrbitRecord) -> ConditionReport:
    """The three tests an exceptional candidate must pass.

    (a) the stored dim(c cap h) equals dim c of the diagram and the
        centralizer is compact;
    (b) the stored dim(V_even cap m) equals the full dim V_even;
    (c) the stored column difference equals the real form's signature
        dim m - dim h.
    """
    data = rec.sl2_data()
    notes: List[str] = []

    if rec.dim_c_cap_h is None:
        a = False
        notes.append("condition (a): insufficient data (dim_c_cap_h absent)")
    else:
        a = rec.dim_c_cap_h == data.dim_c and rec.centralizer_type.is_compact

    if rec.dim_Veven_cap_m is None:
        b = False
        notes.append("condition (b): insufficient data (dim_Veven_cap_m absent)")
    else:
        b = rec.dim_Veven_cap_m == rec.dim_v_even

    if rec.dim_Veven_cap_m is None or rec.dim_c_cap_h is None:
        c = False
        notes.append("condition (c): insufficient data")
    else:
        c = rec.dim_Veven_cap_m - rec.dim_c_cap_h == describe(rec.realform).s

    return ConditionReport(a=a, b=b, c=c, notes=tuple(notes))
