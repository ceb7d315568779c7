"""Catalog of noncompact real forms and their centralizer arithmetic.

Descriptors carry the Cartan-decomposition dimensions (dim h, dim m, and
their difference s), Hermitian/tube flags, the symmetric-space rank, and
the maximal tube-type subform for the Hermitian nontube families.  The
stored ranks are validated by a restricted-root checksum: the rank plus
the total multiplicity of the positive restricted roots must equal dim m.

Centralizers of triples are assembled factor-by-factor from signed
partition data.  Each factor name of families.FamilySpec comes with its
(dim h, dim m), so a centralizer carries the two sums, net of the trace
line of s(...), and it is compact exactly when its dim m is 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, RankDomainError
from .families import FAMILIES, family_spec
from .orbits import SignedPartitionData
from .records import Frozen
from .rootsystems import LieType

Params = Tuple[int, ...]

EXCEPTIONAL_FORMS: Dict[str, Dict] = {
    # token X^s: complex type X and s = dim m - dim h (Cartan's notation);
    #        symmetric-space rank, restricted positive roots as
    #        (count, multiplicity) classes, hermitian, tube, maximal subtube
    "E6^6":   {"rank": 6, "roots": ((36, 1),)},
    "E6^2":   {"rank": 4, "roots": ((12, 1), (12, 2))},
    "E6^-14": {"rank": 2, "roots": ((2, 6), (2, 8), (2, 1)),
               "hermitian": True, "tube": False, "subtube": "so(2,8)"},
    "E6^-26": {"rank": 2, "roots": ((3, 8),)},
    "E7^7":   {"rank": 7, "roots": ((63, 1),)},
    "E7^-5":  {"rank": 4, "roots": ((12, 1), (12, 4))},
    "E7^-25": {"rank": 3, "roots": ((6, 8), (3, 1)), "hermitian": True, "tube": True},
    "E8^8":   {"rank": 8, "roots": ((120, 1),)},
    "E8^-24": {"rank": 4, "roots": ((12, 1), (12, 8))},
    "F4^4":   {"rank": 4, "roots": ((24, 1),)},
    "F4^-20": {"rank": 1, "roots": ((1, 8), (1, 7))},
    "G2^2":   {"rank": 2, "roots": ((6, 1),)},
}


class RealFormDescriptor(Frozen):
    __slots__ = _fields = ("family", "params", "name", "ambient", "dim_h", "hermitian",
                           "tube_type", "ss_rank", "maximal_subtube")
    family: str
    params: Params
    name: str
    ambient: LieType  # the complexification
    dim_h: int
    hermitian: bool
    tube_type: Optional[bool]  # None when not Hermitian
    ss_rank: int
    maximal_subtube: Optional[str]

    def __init__(self, family: str, params: Params, name: str, ambient: LieType, dim_h: int,
                 hermitian: bool, tube_type: Optional[bool], ss_rank: int,
                 maximal_subtube: Optional[str]) -> None:
        for field, value in zip(self._fields, (family, params, name, ambient, dim_h, hermitian,
                                               tube_type, ss_rank, maximal_subtube)):
            object.__setattr__(self, field, value)

    @property
    def dim_g_real(self) -> int:
        return self.ambient.dim

    @property
    def dim_m(self) -> int:
        return self.dim_g_real - self.dim_h

    @property
    def s(self) -> int:
        return self.dim_m - self.dim_h

    @property
    def is_exceptional(self) -> bool:
        return self.family in EXCEPTIONAL_FORMS


def describe(family: str, params: Sequence[int] = ()) -> RealFormDescriptor:
    """Descriptor for a noncompact real form; family is a classical tag
    (a key of families.FAMILIES) or an exceptional token like 'E6^-14',
    which takes no parameters.  A classical form whose complexification
    lies outside LieType's rank window is refused, and so is a compact one
    (dim m = 0), su*(2) the one inside it.  One descriptor per
    form and process, so its ambient is found once; params may be any
    sequence."""
    return _descriptor(family, tuple(params))


@lru_cache(maxsize=None)
def _descriptor(family: str, params: Params) -> RealFormDescriptor:
    if family in EXCEPTIONAL_FORMS:
        if params:
            raise DomainError(f"{family} takes no parameters")
        info = EXCEPTIONAL_FORMS[family]
        type_name, _, s = family.partition("^")
        ambient = LieType.of(type_name)
        return RealFormDescriptor(
            family=family, params=(), name=family, ambient=ambient,
            dim_h=(ambient.dim - int(s)) // 2,  # s = dim g - 2 dim h
            hermitian=info.get("hermitian", False),
            tube_type=info.get("tube") if info.get("hermitian") else None,
            ss_rank=info["rank"],
            maximal_subtube=info.get("subtube"),
        )
    spec = family_spec(family, params)
    if min(params) < 1:
        raise DomainError(f"{spec.symbol} needs positive parameters")
    name = spec.name(params)
    try:
        ambient = spec.complexification(params)
    except RankDomainError as exc:
        raise RankDomainError(f"{name}: {exc}") from None
    dim_h, dim_m = spec.cartan(params)
    if dim_m == 0:
        raise DomainError(f"{name} is compact: dim m = 0")
    hermitian = spec.hermitian(*params)
    subtube = spec.subtube(*params) if hermitian and spec.subtube else None
    return RealFormDescriptor(
        family, params, name, ambient, dim_h,
        hermitian=hermitian, tube_type=(subtube is None) if hermitian else None,
        ss_rank=spec.ss_rank(*params),
        maximal_subtube=spec.name(subtube) if subtube else None,
    )


def restricted_root_data(d: RealFormDescriptor) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """(rank, ((positive-root count, multiplicity), ...)) of the restricted
    root system; rank + sum(count * mult) must equal dim m."""
    if d.is_exceptional:
        info = EXCEPTIONAL_FORMS[d.family]
        return info["rank"], tuple(info["roots"])
    rank = d.ss_rank
    mults = FAMILIES[d.family].root_mults(*d.params)
    counts = (rank * (rank + 1) // 2,) if len(mults) == 1 else (rank * (rank - 1), rank, rank)
    return rank, tuple((c, m) for c, m in zip(counts, mults) if m)


def restricted_root_checksum(d: RealFormDescriptor) -> bool:
    rank, roots = restricted_root_data(d)
    return rank == d.ss_rank and rank + sum(c * m for c, m in roots) == d.dim_m


def milnor_wood(d: RealFormDescriptor, genus: int) -> int:
    if not d.hermitian:
        raise DomainError(f"{d.name} is not Hermitian; no Milnor-Wood bound")
    if genus < 2:
        raise DomainError("Milnor-Wood arithmetic needs genus >= 2")
    return d.ss_rank * (2 * genus - 2)


class CentralizerRealForm(NamedTuple):
    """Reductive centralizer of a triple inside the real form, with the
    dims of its intersections with h and m."""

    factors: Tuple[str, ...]
    dim_h: int
    dim_m: int
    wrapped: bool = False  # True when the factors sit inside an s(...) trace condition

    @property
    def is_compact(self) -> bool:
        return self.dim_m == 0

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        body = "+".join(self.factors)
        return f"s({body})" if self.wrapped else body


def centralizer_realform(signed: SignedPartitionData) -> CentralizerRealForm:
    """Factor list and dims, with the factors FamilySpec derives from (gl,
    quaternionic), read off the datum's complex rows: a signed part's
    (p_i, q_i) are its rows by leading sign, halved in a quaternionic form,
    and an unsigned part's r_i is spec.rows of its row total.  su: s(sum
    u(p_i,q_i)); sl: s(sum gl(r_i,R)); su*: s(sum u*(2 r_i)); so: sp(r_i,R)
    on even parts + so(p_i,q_i) on odd; sp(2n,R) the mirror; so*:
    sp(2p_i,2q_i) on even + so*(2 r_i) on odd; sp(2p,2q) the mirror.
    """
    spec = FAMILIES[signed.family]
    rows, double = signed.rows, 1 + spec.quaternionic
    factors, dim_h, dim_m = [], 0, 0
    for i in dict.fromkeys(i for i, _ in rows):  # the parts, descending
        a, b = rows.get((i, 1), 0), rows.get((i, -1), 0)
        if i % 2 in spec.signed_parities:
            args, (name, dims) = (a // double, b // double), spec.signed_factor
        else:
            args, (name, dims) = (spec.rows(a + b),), spec.unsigned_factor
        factors.append(name(*args))
        h, m = dims(*args)
        dim_h, dim_m = dim_h + h, dim_m + m
    line_h, line_m = spec.trace  # the line s(...) removes, if it wraps the factors
    return CentralizerRealForm(tuple(factors), dim_h - line_h, dim_m - line_m, any(spec.trace))
