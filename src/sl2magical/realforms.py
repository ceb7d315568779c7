"""Catalog of noncompact real forms and their centralizer arithmetic.

Descriptors carry the Cartan-decomposition dimensions (dim h, dim m, and
their difference s), Hermitian/tube flags, the symmetric-space rank, and
the maximal tube-type subform for the Hermitian nontube families.  The
stored ranks are validated by a restricted-root checksum: the rank plus
the total multiplicity of the positive restricted roots must equal dim m.

Centralizers of triples are assembled factor-by-factor from signed
partition data, with compactness decided by the closed per-family
conditions (definite unitary/orthogonal/quaternionic factors are compact,
split and star factors of positive rank are not).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Optional, Sequence, Tuple

from .errors import DomainError, RankDomainError
from .families import FAMILIES, family_spec
from .orbits import SignedPartitionData
from .rootsystems import LieType

Params = Tuple[int, ...]

EXCEPTIONAL_FORMS: Dict[str, Dict] = {
    # token: ambient complex type, dim h, symmetric-space rank,
    #        restricted positive roots as (count, multiplicity) classes,
    #        hermitian, tube, maximal subtube
    "E6^6":   {"ambient": "E6", "dim_h": 36, "rank": 6, "roots": ((36, 1),)},
    "E6^2":   {"ambient": "E6", "dim_h": 38, "rank": 4, "roots": ((12, 1), (12, 2))},
    "E6^-14": {"ambient": "E6", "dim_h": 46, "rank": 2, "roots": ((2, 6), (2, 8), (2, 1)),
               "hermitian": True, "tube": False, "subtube": "so(2,8)"},
    "E6^-26": {"ambient": "E6", "dim_h": 52, "rank": 2, "roots": ((3, 8),)},
    "E7^7":   {"ambient": "E7", "dim_h": 63, "rank": 7, "roots": ((63, 1),)},
    "E7^-5":  {"ambient": "E7", "dim_h": 69, "rank": 4, "roots": ((12, 1), (12, 4))},
    "E7^-25": {"ambient": "E7", "dim_h": 79, "rank": 3, "roots": ((6, 8), (3, 1)),
               "hermitian": True, "tube": True},
    "E8^8":   {"ambient": "E8", "dim_h": 120, "rank": 8, "roots": ((120, 1),)},
    "E8^-24": {"ambient": "E8", "dim_h": 136, "rank": 4, "roots": ((12, 1), (12, 8))},
    "F4^4":   {"ambient": "F4", "dim_h": 24, "rank": 4, "roots": ((24, 1),)},
    "F4^-20": {"ambient": "F4", "dim_h": 36, "rank": 1, "roots": ((1, 8), (1, 7))},
    "G2^2":   {"ambient": "G2", "dim_h": 6, "rank": 2, "roots": ((6, 1),)},
}


@dataclass(frozen=True)
class RealFormDescriptor:
    family: str
    params: Params
    name: str
    dim_g_real: int
    dim_h: int
    hermitian: bool
    tube_type: Optional[bool]  # None when not Hermitian
    ss_rank: int
    maximal_subtube: Optional[str]

    @property
    def dim_m(self) -> int:
        return self.dim_g_real - self.dim_h

    @property
    def s(self) -> int:
        return self.dim_m - self.dim_h

    @property
    def is_exceptional(self) -> bool:
        return self.family in EXCEPTIONAL_FORMS

    @cached_property
    def ambient(self) -> LieType:
        """The complexification, found once per descriptor."""
        if self.is_exceptional:
            return LieType.of(EXCEPTIONAL_FORMS[self.family]["ambient"])
        try:
            return FAMILIES[self.family].complexification(self.params)
        except RankDomainError as exc:
            raise RankDomainError(f"{self.name}: {exc}") from None


def describe(family: str, params: Sequence[int] = ()) -> RealFormDescriptor:
    """Descriptor for a noncompact real form; family is a classical tag
    (a key of families.FAMILIES) or an exceptional token like 'E6^-14',
    which takes no parameters.  One descriptor per form and process, so
    its ambient is found once; params may be any sequence."""
    return _descriptor(family, tuple(params))


@lru_cache(maxsize=None)
def _descriptor(family: str, params: Params) -> RealFormDescriptor:
    if family in EXCEPTIONAL_FORMS:
        if params:
            raise DomainError(f"{family} takes no parameters")
        info = EXCEPTIONAL_FORMS[family]
        ambient = LieType.of(info["ambient"])
        return RealFormDescriptor(
            family=family, params=(), name=family,
            dim_g_real=ambient.dim, dim_h=info["dim_h"],
            hermitian=info.get("hermitian", False),
            tube_type=info.get("tube") if info.get("hermitian") else None,
            ss_rank=info["rank"],
            maximal_subtube=info.get("subtube"),
        )
    spec = family_spec(family, params)
    if min(params) < 1 or sum(params) < spec.min_size:
        raise DomainError(f"{spec.symbol} needs positive parameters with "
                          f"{'+'.join(spec.letters)} >= {spec.min_size}")
    hermitian = spec.hermitian(*params)
    subtube = spec.subtube(*params) if hermitian and spec.subtube else None
    return RealFormDescriptor(
        family, params, spec.name(params), spec.dim_g(params), spec.dim_h(*params),
        hermitian=hermitian, tube_type=(subtube is None) if hermitian else None,
        ss_rank=spec.ss_rank(*params),
        maximal_subtube=spec.name(subtube) if subtube else None,
    )


_TOKEN_RE = re.compile(r"^([A-G][0-9])\^(-?[0-9]+)$")


def exceptional_s_value(token: str) -> int:
    match = _TOKEN_RE.match(token)
    if not match or token not in EXCEPTIONAL_FORMS:
        raise DomainError(f"unknown exceptional real form {token!r}")
    return int(match.group(2))


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


@dataclass(frozen=True)
class CentralizerRealForm:
    """Reductive centralizer of a triple inside the real form."""

    factors: Tuple[str, ...]
    is_compact: bool
    wrapped: bool = False  # True when the factors sit inside an s(...) trace condition

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        body = "+".join(self.factors)
        return f"s({body})" if self.wrapped else body


def centralizer_realform(signed: SignedPartitionData) -> CentralizerRealForm:
    """Factor list and compactness per the signed-data conventions.

    su: s(sum u(p_i,q_i)); sl: s(sum gl(r_i,R)); su*: s(sum u*(2 r_i));
    so: sp(r_i,R) on even parts + so(p_i,q_i) on odd; sp(2n,R) the mirror;
    so*: sp(2p_i,2q_i) on even + so*(2 r_i) on odd; sp(2p,2q) the mirror.
    """
    spec = FAMILIES[signed.family]
    factors = []
    compact = True
    unsigned = 0
    for i in sorted(signed.partition.multiplicities(), reverse=True):
        if i % 2 in spec.signed_parities:
            a, b = signed.sign_split(i)
            factors.append(spec.signed_factor(a, b))
            compact = compact and (a == 0 or b == 0)
        else:
            r = signed.row_count(i)
            factors.append(spec.unsigned_factor(r))
            compact = compact and r <= spec.compact_rows
            unsigned += 1
    compact = compact and spec.compact_unsigned(unsigned)
    return CentralizerRealForm(tuple(factors), compact, wrapped=spec.wrapped)
