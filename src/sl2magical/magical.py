"""Extended-magical verdicts and the classification scan.

A real nilpotent orbit, given as a signed partition datum, carries an
extended magical triple exactly when the reductive centralizer of the
triple is compact and

    dim m - dim h  =  dim g_0 - 2 dim c,

with the left side read off the Cartan decomposition of the real form and
the right side off the complex sl2-module data of the orbit.  The verdict
is even or odd according to whether every ad_h weight of the adjoint
module is even.

Witness.verdict is the one place this criterion is written, and
orbit_witness the one place a witness is built, for the classical
partitions and the curated exceptional records alike; every verdict the
package reports is read from a witness.

The scan in classify_family walks, within a size bound, only the
partitions of a family's forms that carry a compact sign datum on which
the equality holds, and reads each verdict from a witness there.

Real forms that admit an even magical triple fall into four families:
split forms, Hermitian tube-type forms whose complexification is
A_{2n-1}, B_n, C_n, D_n or E7, the forms so(p,q) with p,q >= 3, and four
exceptional forms.  admits_even_magical encodes that membership test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, List, Tuple

from .errors import DomainError
from .families import FAMILIES
from .orbits import (
    OrbitLabel,
    Partition,
    SignedPartitionData,
    magical_candidates,
    one_sign_data,
    orbit_labels,
)
from .realforms import (
    CentralizerRealForm,
    RealFormDescriptor,
    centralizer_realform,
    describe,
)
from .sl2data import closed_dims

Params = Tuple[int, ...]


class Verdict(Enum):
    NOT_EXTENDED_MAGICAL = "NotExtendedMagical"
    EVEN_MAGICAL = "EvenMagical"
    ODD_MAGICAL = "OddMagical"

    def __str__(self) -> str:
        return self.value

    @property
    def is_magical(self) -> bool:
        return self is not Verdict.NOT_EXTENDED_MAGICAL


@dataclass(frozen=True)
class Witness:
    """The two integers and two flags the criterion compares."""

    m_minus_h: int
    g0_minus_2c: int
    centralizer_compact: bool
    even_triple: bool

    @property
    def verdict(self) -> Verdict:
        """Extended magical exactly when the centralizer is compact and
        dim m - dim h = dim g_0 - 2 dim c; even or odd by the parity of
        the ad_h weights."""
        if not self.centralizer_compact or self.m_minus_h != self.g0_minus_2c:
            return Verdict.NOT_EXTENDED_MAGICAL
        return Verdict.EVEN_MAGICAL if self.even_triple else Verdict.ODD_MAGICAL


@dataclass(frozen=True)
class MagicalStatus:
    witness: Witness
    centralizer: CentralizerRealForm

    @property
    def verdict(self) -> Verdict:
        return self.witness.verdict


def involution_sign(j: int, k: int) -> int:
    """Sign of the magical involution on the k-fold lowering of a
    highest-weight vector of ad_h weight j: +1 on the trivial summands,
    (-1)^(k+1) elsewhere."""
    if not 0 <= k <= j:
        raise DomainError(f"lowering depth k={k} outside 0..{j}")
    if j == 0:
        return 1
    return 1 if (k + 1) % 2 == 0 else -1


def extended_magical_status(signed: SignedPartitionData) -> MagicalStatus:
    """Evaluate the criterion on one real orbit of a classical form."""
    form = describe(signed.family, signed.params)
    return next(magical_statuses(partition_witness(form, signed.partition), [signed]))


def orbit_witness(form: RealFormDescriptor, dims: Tuple[int, int, int],
                  compact: bool) -> Witness:
    """The witness of one real orbit of the form, from its (dim c, dim g_0,
    dim V_rho) and whether its centralizer is compact; every Witness is
    built here.  dim V_rho sums every n_j and dim g_0 the even ones, so
    every weight is even exactly when the two agree."""
    dim_c, dim_g0, dim_v_rho = dims
    return Witness(m_minus_h=form.s, g0_minus_2c=dim_g0 - 2 * dim_c,
                   centralizer_compact=compact, even_triple=dim_g0 == dim_v_rho)


def partition_witness(form: RealFormDescriptor, p: Partition) -> Witness:
    """p's half of the witness, at its best case: a compact centralizer.  A
    sign datum enters the witness only through that flag, so when this
    verdict is not magical, no datum of p is magical.  The closed dims give
    the rest."""
    return orbit_witness(form, closed_dims(form.ambient, p), True)


def magical_statuses(best: Witness,
                     signed_data: Iterable[SignedPartitionData]) -> Iterator[MagicalStatus]:
    """The criterion on each signed datum of one partition, lazily, from
    the partition's half of the witness and the datum's centralizer."""
    for signed in signed_data:
        cz = centralizer_realform(signed)
        yield MagicalStatus(replace(best, centralizer_compact=cz.is_compact), cz)


@dataclass(frozen=True)
class ClassifiedOrbit:
    """One magical row of a classification scan."""

    family: str
    params: Params
    label: OrbitLabel
    status: MagicalStatus
    data_count: int  # how many sign assignments reach the verdict

    def __str__(self) -> str:
        name = describe(self.family, self.params).name
        return f"{name} {self.label}: {self.status.verdict}"


def classify_realform(family: str, params: Params) -> Tuple[ClassifiedOrbit, ...]:
    """All magical orbits of one real form, sorted by orbit label (the
    walk's descending partition order).

    The scan walks only the partitions with a compact sign datum of gap
    g_0 - 2c - s = 0 (orbits.magical_candidates): it cuts a branch once
    its rows so far have a positive gap, since by the even-weight identity
    the gap of a compact datum is twice the h-part of ker ad_e in the even
    weights >= 2, which rows only add to, and it reads compactness off the
    centralizer factor table (Collingwood-McGovern, 9.3).  Each leaf's
    half of the witness (partition_witness) and each one-sign datum's
    centralizer still decide: every verdict is read from a witness.
    Very even D partitions contribute both tagged labels; the verdict is a
    function of the partition and signs alone, so the pair agrees.  The
    sign data of one partition share its parity and dimension count, so
    their magical verdicts agree too.
    """
    form = describe(family, tuple(params))
    rows: List[ClassifiedOrbit] = []
    for p in magical_candidates(family, tuple(params)):
        data = one_sign_data(family, tuple(params), p)
        magical = [status for status in magical_statuses(partition_witness(form, p), data)
                   if status.verdict.is_magical]
        if magical:
            rows.extend(ClassifiedOrbit(family, tuple(params), label, magical[0], len(magical))
                        for label in orbit_labels(form.ambient, p))
    return tuple(rows)


def family_parameter_space(family: str, size_bound: int) -> List[Params]:
    """Parameter tuples of a classical family up to the size bound.

    Sizes count sum(params): p+q for su, so and sp(2p,2q), n for sl(n,R)
    and sp(2n,R), and m for su*(2m) and so*(2m).  Pairs are canonicalized
    to p <= q.  Only the forms that realforms.describe accepts are kept:
    none whose complexification lies outside the rank window of LieType
    (so(2,2) of rank 2, sp(2,R) of rank 1, anything above
    CLASSICAL_RANK_CAP), and not the compact su*(2).
    """
    if family not in FAMILIES:
        raise DomainError(f"no parameter space for family {family!r}")
    spec = FAMILIES[family]
    if spec.arity == 1:
        candidates = [(n,) for n in range(1, size_bound + 1)]
    else:
        candidates = [(p, q) for q in range(1, size_bound) for p in range(1, q + 1)
                      if p + q <= size_bound]
    return [params for params in candidates if _describable(family, params)]


def _describable(family: str, params: Params) -> bool:
    try:
        describe(family, params)
    except DomainError:
        return False
    return True


def classify_family(family: str, size_bound: int) -> Tuple[ClassifiedOrbit, ...]:
    """Scan of a classical family: every parameter tuple up to the bound,
    each orbit and sign assignment whose centralizer can be compact."""
    if family not in FAMILIES:
        raise DomainError(f"family scans cover classical families, got {family!r}")
    rows: List[ClassifiedOrbit] = []
    for params in sorted(family_parameter_space(family, size_bound),
                         key=lambda t: (sum(t), t)):
        rows.extend(classify_realform(family, params))
    return tuple(rows)


def admits_even_magical(family: str, params: Params = ()) -> bool:
    """Whether the real form carries an even magical triple at all.

    The four qualifying families: split real forms; Hermitian forms of
    tube type whose complexification is A_{2n-1}, B_n, C_n, D_n or E7;
    so(p,q) with p, q >= 3; and E6^2, E7^-5, E8^-24, F4^4.
    """
    form = describe(family, tuple(params))
    ambient = form.ambient
    if form.ss_rank == ambient.rank:  # split forms have full restricted rank
        return True
    if form.hermitian and form.tube_type:
        letter = ambient.family.value
        if letter in ("B", "C", "D") or ambient.name == "E7":
            return True
        if letter == "A" and ambient.rank % 2 == 1:
            return True
    if family == "so" and min(params) >= 3:
        return True
    return family in ("E6^2", "E7^-5", "E8^-24", "F4^4")
