"""The contract of the package's 19 record types: each is an immutable
value compared and hashed by its fields, and each type with checks refuses
a bad value however it is built."""

import copy
import pickle

import pytest

from sl2magical.crosscheck import CheckResult
from sl2magical.dataset import ExceptionalOrbitRecord, find_record
from sl2magical.errors import DomainError, InconsistentGradingError, RankDomainError
from sl2magical.families import FAMILIES, FamilySpec
from sl2magical.magical import ClassifiedOrbit, MagicalStatus, Witness, classify_realform
from sl2magical.matrixmodel import MatrixSl2Triple, triple_on
from sl2magical.matrixoracle import SigmaSplitReport, oracle_sigma_split
from sl2magical.moduli import SlodowyReport, rigidity_report
from sl2magical.orbits import OrbitLabel, Partition, SignedPartitionData
from sl2magical.realforms import (
    CentralizerRealForm,
    RealFormDescriptor,
    centralizer_realform,
    describe,
)
from sl2magical.rootsystems import (
    GradingDims,
    LieFamily,
    LieType,
    RootSystem,
    WeightedDynkinDiagram,
    ad_grading,
    build_root_system,
)
from sl2magical.sl2data import Sl2Data, module_multiplicities

E6_ROW = (1, 0, 0, 0, 0, 1)


def _signed():
    return SignedPartitionData("su", (2, 3), Partition.of(2, 2, 1), ((2, (2, 0)), (1, (0, 1))))


def _wdd():
    return WeightedDynkinDiagram(LieType.of("E6"), E6_ROW)


def _grading():
    return ad_grading(build_root_system(LieType.of("E6")), _wdd())


#: Each record type: one example, and its constructor's arguments in order.
EXAMPLES = {
    CheckResult: (lambda: CheckResult("parity-lemma", True, 12),
                  ("name", "passed", "cases", "detail")),
    ExceptionalOrbitRecord: (lambda: find_record("E6^-14", E6_ROW),
                             ("realform", "wdd", "dim_V_cap_h", "dim_c_cap_h",
                              "centralizer_type", "source_row")),
    FamilySpec: (lambda: FAMILIES["su"],
                 ("tag", "template", "letters", "algebra", "quaternionic", "ss_rank",
                  "hermitian", "root_mults", "subtube")),
    Witness: (lambda: Witness(-1, -1, True, False),
              ("m_minus_h", "g0_minus_2c", "centralizer_compact", "even_triple")),
    MagicalStatus: (lambda: classify_realform("su", (2, 3))[0].status,
                    ("witness", "centralizer")),
    ClassifiedOrbit: (lambda: classify_realform("su", (2, 3))[0],
                      ("family", "params", "label", "status", "data_count")),
    MatrixSl2Triple: (lambda: triple_on("sp", Partition.of(2, 2, 1, 1)),
                      ("algebra", "partition", "strings", "pairing", "pairing_sign",
                       "e", "h", "f")),
    SigmaSplitReport: (lambda: oracle_sigma_split(_signed()),
                       ("family", "params", "splits", "dim_h", "dim_m")),
    SlodowyReport: (lambda: rigidity_report(2, _signed()),
                    ("genus", "slodowy_param_dim", "expected_dim", "gap", "milnor_wood", "a",
                     "dim_c_cap_h")),
    Partition: (lambda: Partition.of(2, 2, 1), ("parts",)),
    OrbitLabel: (lambda: OrbitLabel(Partition.of(4, 4), "II"), ("partition", "tag")),
    SignedPartitionData: (_signed, ("family", "params", "partition", "signs")),
    RealFormDescriptor: (lambda: describe("E6^-14"),
                         ("family", "params", "name", "ambient", "dim_h", "hermitian",
                          "tube_type", "ss_rank", "maximal_subtube")),
    CentralizerRealForm: (lambda: centralizer_realform(_signed()),
                          ("factors", "dim_h", "dim_m", "wrapped")),
    LieType: (lambda: LieType.of("D5"), ("family", "rank")),
    RootSystem: (lambda: build_root_system(LieType.of("G2")),
                 ("lie_type", "cartan", "positive_roots", "packed")),
    WeightedDynkinDiagram: (_wdd, ("lie_type", "labels")),
    GradingDims: (_grading, ("lie_type", "dims")),
    Sl2Data: (lambda: module_multiplicities(_grading()), ("n", "dim_g")),
}

#: Attributes derived when a record is made, read-only like its fields.
DERIVED = {Partition: ("n",), FamilySpec: ("size_factor", "signed_parities", "trace")}

#: Types with a field that holds a dict: equal records, but no hash.
UNHASHABLE = {MatrixSl2Triple}

#: Types whose fields hold lambdas, which pickle cannot name.
UNPICKLABLE = {FamilySpec, MatrixSl2Triple}

TYPES = list(EXAMPLES)


def _arguments(record):
    return {name: getattr(record, name) for name in EXAMPLES[type(record)][1]}


def _rebuilt(record, **changes):
    """A new record of the same type, through its constructor by keyword."""
    return type(record)(**{**_arguments(record), **changes})


def test_nineteen_types():
    assert len(TYPES) == 19
    for cls in TYPES:
        assert type(EXAMPLES[cls][0]()) is cls


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    record = EXAMPLES[cls][0]()
    for name in EXAMPLES[cls][1] + DERIVED.get(cls, ()):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equal_constructions_are_equal_and_hash_alike(cls):
    record = EXAMPLES[cls][0]()
    again = _rebuilt(record)
    assert again is not record and again == record and not again != record
    positional = cls(*_arguments(record).values())
    assert positional == record
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(again) == hash(record) == hash(positional)
    assert copy.copy(record) == record
    if cls not in UNPICKLABLE:
        assert pickle.loads(pickle.dumps(record)) == record


def test_a_changed_field_changes_equality():
    assert Witness(-1, -1, True, False) != Witness(-1, -1, False, False)
    assert LieType.of("D5") != LieType.of("B5")
    signed = _signed()
    other = _rebuilt(signed, signs=((2, (1, 1)), (1, (0, 1))))
    assert other != signed and str(other) == "[2^2,1]{2:(1,1),1:(0,1)}"


def test_partition_compares_on_its_sorted_parts():
    a, b = Partition.of(1, 2), Partition.of(2, 1)
    assert a == b and hash(a) == hash(b)
    assert a.parts == b.parts == (2, 1) and a.n == 3
    assert Partition.parse("1,2") == Partition((2, 1)) == Partition(parts=[1, 2])


def test_pinned_reprs():
    assert repr(Partition.of(1, 2, 2)) == "Partition(parts=(2, 2, 1))"
    assert repr(LieType.of("A3")) == "LieType(family=<LieFamily.A: 'A'>, rank=3)"
    assert repr(OrbitLabel(Partition.of(2), "I")) == (
        "OrbitLabel(partition=Partition(parts=(2,)), tag='I')")
    assert repr(_signed()) == (
        "SignedPartitionData(family='su', params=(2, 3), partition=Partition(parts=(2, 2, 1)), "
        "signs=((2, (2, 0)), (1, (0, 1))))")
    assert repr(Witness(3, 3, True, True)) == (
        "Witness(m_minus_h=3, g0_minus_2c=3, centralizer_compact=True, even_triple=True)")


def _refused(error, match, build, record, **changes):
    """Each way to build a record with the changed fields raises error:
    the constructor by keyword, and _replace where the type has it."""
    with pytest.raises(error, match=match):
        build()
    with pytest.raises(error, match=match):
        _rebuilt(record, **changes)
    if hasattr(record, "_replace"):
        with pytest.raises(error, match=match):
            record._replace(**changes)


def test_partition_refuses_bad_parts():
    record = Partition.of(2, 1)
    _refused(DomainError, "empty partition", lambda: Partition(()), record, parts=())
    _refused(DomainError, "must be positive", lambda: Partition.of(2, 0), record, parts=(2, -1))
    with pytest.raises(DomainError, match="empty partition"):
        Partition.of()
    with pytest.raises(DomainError, match="nonpositive part"):
        Partition.parse("2,0")


def test_lie_type_refuses_bad_ranks():
    record = LieType.of("D5")
    _refused(RankDomainError, "D-type needs rank >= 3", lambda: LieType(LieFamily.D, 2),
             record, rank=2)
    _refused(RankDomainError, "exceeds the classical rank cap", lambda: LieType.of("D13"),
             record, rank=13)
    _refused(RankDomainError, "E6 has rank 6", lambda: LieType(LieFamily.E6, 7),
             record, family=LieFamily.E6)
    with pytest.raises(RankDomainError, match="A-type needs rank >= 1, got 0"):
        LieType.of("A0")
    with pytest.raises(RankDomainError, match="exceeds the classical rank cap"):
        LieType.classical("gl", 14)
    with pytest.raises(RankDomainError, match="A5 has rank 5, got 4"):
        LieType.of("A5", 4)


def test_signed_data_refuses_what_is_no_orbit():
    """The README's refused datum, and a sign table that skips a part."""
    record = SignedPartitionData("so", (2, 3), Partition.of(3, 1, 1), ((3, (0, 1)), (1, (1, 1))))
    bad = ((3, (0, 1)), (1, (2, 0)))
    _refused(DomainError, "has 3 plus boxes, not p = 2",
             lambda: SignedPartitionData("so", (2, 3), Partition.of(3, 1, 1), bad),
             record, signs=bad)
    _refused(DomainError, r"list the parts \[3\]",
             lambda: SignedPartitionData("so", (2, 3), Partition.of(3, 1, 1), ((3, (0, 1)),)),
             record, signs=((3, (0, 1)),))
    _refused(DomainError, "needs a partition of 5",
             lambda: SignedPartitionData("so", (2, 3), Partition.of(3, 1)),
             record, partition=Partition.of(3, 1))


def test_orbit_label_refuses_a_third_tag():
    record = OrbitLabel(Partition.of(4, 4), "I")
    _refused(DomainError, "orbit tag must be", lambda: OrbitLabel(Partition.of(4, 4), "III"),
             record, tag="III")


def test_sl2_data_refuses_a_wrong_dimension():
    record = Sl2Data(((0, 1), (2, 1)), 4)
    _refused(InconsistentGradingError, "!= dim g = 5", lambda: Sl2Data(((0, 1), (2, 1)), 5),
             record, dim_g=5)
    _refused(InconsistentGradingError, "negative weight or multiplicity",
             lambda: Sl2Data(((0, -1), (2, 1)), 2), record, n=((0, -1), (2, 1)), dim_g=2)


def test_wdd_refuses_bad_labels():
    record = _wdd()
    _refused(DomainError, "E6 needs 6 labels, got 5",
             lambda: WeightedDynkinDiagram(LieType.of("E6"), (1, 0, 0, 0, 0)),
             record, labels=(1, 0, 0, 0, 0))
    _refused(DomainError, r"must lie in \{0,1,2\}, got \[3\]",
             lambda: WeightedDynkinDiagram(LieType.of("E6"), (3, 0, 0, 0, 0, 1)),
             record, labels=(3, 0, 0, 0, 0, 1))


def test_matrix_triple_refuses_a_broken_triple():
    record = triple_on("sp", Partition.of(2, 2, 1, 1))
    flipped = (-record.pairing_sign[0],) + record.pairing_sign[1:]
    _refused(AssertionError, "triple leaves the bilinear form",
             lambda: _rebuilt(record, pairing_sign=flipped), record, pairing_sign=flipped)
    doubled = {key: 2 * v for key, v in record.e.items()}
    _refused(AssertionError, "bracket relations failed",
             lambda: _rebuilt(record, e=doubled), record, e=doubled)
