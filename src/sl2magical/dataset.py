"""Curated exceptional-orbit records.

Weighted Dynkin diagrams pin down exceptional nilpotent orbits, but the
real-form data of an orbit (its centralizer's real form, and how the
Cartan involution splits the centralizer and the highest-weight spaces)
comes from the published tables of Djokovic.  This module ships the rows
the classification consults as one-record-per-line JSON and re-derives
every complex quantity (the multiplicities n_j, dim c, dim V_even) from
the diagram at load time; only genuinely real data is trusted from the
file, and none that an identity fixes.  Each factor of a centralizer
string has a fixed (dim h, dim m), and the sums must be (dim_c_cap_h,
dim c - dim_c_cap_h).  A row up to weight 2 with dim_V_cap_h gives its
split per weight, as a classical datum does, none of it negative.  A
record's verdict is the one criterion of the magical module, on the
diagram's dims and the centralizer's compactness, dim m = 0.
"""

from __future__ import annotations

import json
import os
import re
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .errors import DatasetSchemaError, DomainError, MissingDataError
from .families import FACTOR_DIMS
from .magical import MagicalStatus, orbit_witness
from .realforms import EXCEPTIONAL_FORMS, CentralizerRealForm, describe
from .rootsystems import LieType, WeightedDynkinDiagram, ad_grading, build_root_system
from .sl2data import Sl2Data, module_multiplicities

#: Environment variable naming an alternative dataset file.
DATASET_ENV = "MAGICAL_DATASET"

_DATA_FILE = "data/exceptional_orbits.jsonl"

_REQUIRED_KEYS = ("realform", "wdd", "dim_c_cap_h", "centralizer", "source_row")

_FACTOR_RE = re.compile(r"^(so|su|sp|u)\((\d+)(?:,(\d+))?\)$")

def _factor_dims(token: str) -> Tuple[int, int]:
    """(dim h, dim m) of one factor: R, or so, su, sp or u of n or of a,b,
    of size n or a + b at least 1, from FACTOR_DIMS: n is (n, 0), and
    su(a,b) is u(a,b) less its (1, 0) trace line (su(0) would count -1)."""
    if token == "R":
        return 0, 1
    m = _FACTOR_RE.match(token)
    if not m:
        raise DatasetSchemaError(f"unrecognized centralizer factor {token!r}")
    kind, a, b = m.group(1), int(m.group(2)), int(m.group(3) or 0)
    if a + b < 1:
        raise DatasetSchemaError(f"centralizer factor {token!r} has size 0")
    dim_h, dim_m = FACTOR_DIMS["u" if kind == "su" else kind](a, b)
    return dim_h - (kind == "su"), dim_m


def parse_centralizer(text: str) -> CentralizerRealForm:
    tokens = tuple(t.strip() for t in text.split("+"))
    if not all(tokens):
        raise DatasetSchemaError(f"malformed centralizer string {text!r}")
    dims = [_factor_dims(t) for t in tokens]
    return CentralizerRealForm(tokens, sum(h for h, _ in dims), sum(m for _, m in dims))


@lru_cache(maxsize=None)
def _sl2_data_of(ambient: LieType, labels: Tuple[int, ...]) -> Sl2Data:
    wdd = WeightedDynkinDiagram(lie_type=ambient, labels=labels)
    return module_multiplicities(ad_grading(build_root_system(ambient), wdd))


class ExceptionalOrbitRecord(NamedTuple):
    realform: str
    wdd: Tuple[int, ...]
    dim_V_cap_h: Optional[int]
    dim_c_cap_h: int
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

    @property
    def dim_Veven_cap_m(self) -> int:
        """dim(V_even cap m), derived, never stored.

        Down the weight string of each sl2 summand of a normal triple, h
        and m alternate, so dim m - dim h = sum over even j of
        (dim V_j cap m - dim V_j cap h), with V_0 = c.  Solved for V_even:
        (s - dim c + 2 dim(c cap h) + dim V_even) / 2.  The numerator is
        even: s = dim g - 2 dim h and dim g_0 = dim c + dim V_even are both
        congruent to the rank mod 2 (g_0 holds the Cartan and root pairs).
        """
        s = describe(self.realform).s
        return (s - self.sl2_data().dim_c + 2 * self.dim_c_cap_h + self.dim_v_even) // 2

    def splits(self) -> Tuple[Tuple[int, Tuple[int, int]], ...]:
        """(w, (dim V_w cap h, dim V_w cap m)) by weight, zero rows dropped,
        as oracle_sigma_split gives a classical datum's: V_0 = c from
        dim_c_cap_h, V_2 from the derived dim(V_even cap m), V_1 the rest of
        dim_V_cap_h.  The columns localize the involution only up to weight
        2, and no entry may be negative."""
        data = self.sl2_data()
        if data.max_weight > 2:
            raise MissingDataError(f"{self.realform} {self.wdd}: records only localize "
                                   "the involution up to weight 2")
        if self.dim_V_cap_h is None:
            raise MissingDataError(f"{self.realform} record lacks columns ['dim_V_cap_h']")
        c_h, v2_m = self.dim_c_cap_h, self.dim_Veven_cap_m
        v2_h = data.n_at(2) - v2_m
        v1_h = self.dim_V_cap_h - c_h - v2_h
        rows = ((0, (c_h, data.dim_c - c_h)), (1, (v1_h, data.n_at(1) - v1_h)), (2, (v2_h, v2_m)))
        splits = tuple(row for row in rows if row[1] != (0, 0))
        if any(h < 0 or m < 0 for _, (h, m) in splits):
            raise MissingDataError(f"{self.realform} record columns give a negative split {splits}")
        return splits


def _validate(rec: ExceptionalOrbitRecord, where: str) -> None:
    if rec.realform not in EXCEPTIONAL_FORMS:
        raise DatasetSchemaError(f"{where}: unknown real form {rec.realform!r}")
    try:  # the diagram checks its length and labels, the grading that it labels an orbit
        data = rec.sl2_data()
    except DomainError as exc:
        raise DatasetSchemaError(f"{where}: wdd labels no orbit ({exc})") from exc
    try:  # a row that gives dim(V cap h) gives its split, up to weight 2 and none negative
        if rec.dim_V_cap_h is not None:
            rec.splits()
    except MissingDataError as exc:
        raise DatasetSchemaError(f"{where}: {exc}") from None
    veven_m = rec.dim_Veven_cap_m
    if not 0 <= veven_m <= rec.dim_v_even:
        raise DatasetSchemaError(
            f"{where}: dim_c_cap_h = {rec.dim_c_cap_h} gives dim(V_even cap m) = "
            f"{veven_m}, outside 0..dim V_even = {rec.dim_v_even}")
    cz, dim_c, c_h = rec.centralizer_type, data.dim_c, rec.dim_c_cap_h
    if cz.dim_h + cz.dim_m != dim_c or c_h != cz.dim_h:
        raise DatasetSchemaError(
            f"{where}: centralizer {cz}: (dim h, dim m) = ({cz.dim_h}, {cz.dim_m}), "
            f"not ({c_h}, {dim_c - c_h}) = (dim_c_cap_h, dim c - dim_c_cap_h)")


def _record_from_json(obj: Dict, where: str) -> ExceptionalOrbitRecord:
    if not isinstance(obj, dict):
        raise DatasetSchemaError(f"{where}: record must be a JSON object")
    unknown = set(obj) - {*_REQUIRED_KEYS, "dim_V_cap_h"}
    if unknown:
        raise DatasetSchemaError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in obj]
    if missing:
        raise DatasetSchemaError(f"{where}: missing fields {missing}")
    wdd = obj["wdd"]
    # type() is int, not isinstance: JSON true and false load as bool, an int
    if not isinstance(wdd, list) or not all(type(x) is int for x in wdd):
        raise DatasetSchemaError(f"{where}: wdd must be a list of integers")
    for key in ("dim_V_cap_h", "dim_c_cap_h"):
        if key in obj and type(obj[key]) is not int:
            raise DatasetSchemaError(f"{where}: {key} must be an integer")
    for key in ("realform", "centralizer", "source_row"):
        if not isinstance(obj[key], str):
            raise DatasetSchemaError(f"{where}: {key} must be a string")
    try:
        centralizer = parse_centralizer(obj["centralizer"])
    except DatasetSchemaError as exc:
        raise DatasetSchemaError(f"{where}: {exc}") from None
    rec = ExceptionalOrbitRecord(
        realform=obj["realform"],
        wdd=tuple(wdd),
        dim_V_cap_h=obj.get("dim_V_cap_h"),
        dim_c_cap_h=obj["dim_c_cap_h"],
        centralizer_type=centralizer,
        source_row=obj["source_row"],
    )
    _validate(rec, where)
    return rec


def load_records(path: Optional[Union[str, os.PathLike]] = None) -> List[ExceptionalOrbitRecord]:
    """Read and validate the record file.

    Resolution order: explicit path argument, then the MAGICAL_DATASET
    environment variable, then the file shipped in the package directory,
    each opened by its path; a file that cannot be read or is not UTF-8,
    the shipped one included, is MissingDataError.  A real form has at
    most one record per diagram.  The file is read on every call, and
    parsed again only when its source or text is new.
    """
    if path is None:
        path = os.environ.get(DATASET_ENV)
    try:
        with open(os.path.join(os.path.dirname(__file__), _DATA_FILE) if path is None else path,
                  "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MissingDataError(
            f"cannot read dataset {_DATA_FILE if path is None else path}: {exc}") from exc
    return list(_parse_records("shipped dataset" if path is None else str(path), text))


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
    """Shipped (or overridden) record for the real form and diagram labels,
    once the labels are checked to grade g as an orbit does."""
    try:
        _sl2_data_of(describe(realform).ambient, tuple(wdd))
    except DomainError as exc:
        raise DomainError(f"{realform}: wdd {list(wdd)} labels no orbit ({exc})") from None
    for rec in load_records():
        if rec.realform == realform and rec.wdd == tuple(wdd):
            return rec
    return None


def evaluate_conditions(rec: ExceptionalOrbitRecord) -> MagicalStatus:
    """The record's status: the one criterion, on the diagram's (dim c,
    dim g_0, dim V_rho) and the compactness of the centralizer string."""
    cz = rec.centralizer_type
    return MagicalStatus(orbit_witness(describe(rec.realform), rec.sl2_data().dims,
                                       cz.is_compact), cz)
