"""One table of facts per classical real-form family.

Each noncompact classical family is one FamilySpec: how its parameters
name the form and size the defining representation, the complex algebra
it is a real form of, how signed Young diagrams label its real nilpotent
orbits, the factors of a triple's centralizer, and the closed formulas
of its Cartan decomposition.  The signed-data enumerator, descriptors
and centralizers read these facts instead of branching on the tag.

Rows of length i count r_i: the Jordan multiplicity, halved for the
quaternionic families.  Parts of a signed parity split their rows by
leading sign into (a, b); parts of the other parity take the balanced
split (r_i/2, r_i/2) when it is forced, and carry no sign otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .errors import DomainError
from .rootsystems import LieType

Params = Tuple[int, ...]


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    template: str  # form name, one {} per parameter scaled by size_factor
    letters: str  # one letter per parameter
    size_factor: int  # defining size = size_factor * sum(params)
    algebra: str  # complex defining algebra: "gl", "so" or "sp"
    quaternionic: bool
    signed_parities: Tuple[int, ...]  # parities i % 2 of the parts with a sign split
    forced_split: bool
    signature_rule: bool  # the plus boxes add up to the first parameter
    signed_factor: Optional[Callable[[int, int], str]]  # compact iff a or b is 0
    unsigned_factor: Optional[Callable[[int], str]]
    compact_rows: int  # an unsigned factor is compact while r_i is at most this
    dim_h: Callable[..., int]
    ss_rank: Callable[..., int]
    hermitian: Callable[..., bool]
    # Restricted-root multiplicities: one for type A_r (r(r+1)/2 positive
    # roots), three for type BC_r (r(r-1), r and r roots e_i +- e_j, e_i,
    # 2e_i); a zero multiplicity means the class is absent.
    root_mults: Callable[..., Tuple[int, ...]]
    subtube: Optional[Callable[..., Optional[Params]]]  # None: always tube type

    @property
    def arity(self) -> int:
        return len(self.letters)

    @property
    def wrapped(self) -> bool:
        """Whether a triple's centralizer sits in s(...): the gl-type families."""
        return self.algebra == "gl"

    def compact_unsigned(self, count: int) -> bool:
        """Whether a centralizer with count sign-free factors can be compact.
        Inside s(...) each sign-free factor carries a real line, and the
        trace condition removes only one of them."""
        return count <= 1 or not self.wrapped

    @property
    def symbol(self) -> str:
        """Generic name, e.g. sp(2p,2q)."""
        scale = str(self.size_factor) if self.size_factor > 1 else ""
        return self.template.format(*(scale + x for x in self.letters))

    def name(self, params: Params) -> str:
        return self.template.format(*[self.size_factor * x for x in params])

    def size(self, params: Params) -> int:
        return self.size_factor * sum(params)

    def complexification(self, params: Params) -> LieType:
        return LieType.classical(self.algebra, self.size(params))

    def rows(self, multiplicity: int) -> int:
        """r_i of a part of this multiplicity: halved in the quaternionic
        families."""
        return multiplicity // 2 if self.quaternionic else multiplicity


_SPECS = (
    FamilySpec(
        tag="su", template="su({},{})", letters="pq", size_factor=1, algebra="gl",
        quaternionic=False, signed_parities=(0, 1), forced_split=False, signature_rule=True,
        signed_factor=lambda a, b: f"u({a},{b})", unsigned_factor=None, compact_rows=0,
        dim_h=lambda p, q: p * p + q * q - 1, ss_rank=min,
        hermitian=lambda p, q: True, root_mults=lambda p, q: (2, 2 * abs(q - p), 1),
        subtube=lambda p, q: None if p == q else (min(p, q),) * 2,
    ),
    FamilySpec(
        tag="sl", template="sl({},R)", letters="n", size_factor=1, algebra="gl",
        quaternionic=False, signed_parities=(), forced_split=False, signature_rule=False,
        signed_factor=None, unsigned_factor=lambda r: f"gl({r},R)", compact_rows=1,
        dim_h=lambda n: n * (n - 1) // 2, ss_rank=lambda n: n - 1,
        hermitian=lambda n: n == 2, root_mults=lambda n: (1,), subtube=None,
    ),
    FamilySpec(
        tag="sustar", template="su*({})", letters="m", size_factor=2, algebra="gl",
        quaternionic=True, signed_parities=(), forced_split=False, signature_rule=False,
        signed_factor=None, unsigned_factor=lambda r: f"u*({2 * r})", compact_rows=1,
        dim_h=lambda m: m * (2 * m + 1), ss_rank=lambda m: m - 1,
        hermitian=lambda m: False, root_mults=lambda m: (4,), subtube=None,
    ),
    FamilySpec(
        tag="so", template="so({},{})", letters="pq", size_factor=1, algebra="so",
        quaternionic=False, signed_parities=(1,), forced_split=True, signature_rule=True,
        signed_factor=lambda a, b: f"so({a},{b})", unsigned_factor=lambda r: f"sp({r},R)",
        compact_rows=0, dim_h=lambda p, q: p * (p - 1) // 2 + q * (q - 1) // 2,
        ss_rank=min, hermitian=lambda p, q: 2 in (p, q),
        root_mults=lambda p, q: (1, abs(q - p), 0), subtube=None,
    ),
    FamilySpec(
        tag="sostar", template="so*({})", letters="m", size_factor=2, algebra="so",
        quaternionic=True, signed_parities=(0,), forced_split=False, signature_rule=False,
        signed_factor=lambda a, b: f"sp({2 * a},{2 * b})",
        unsigned_factor=lambda r: f"so*({2 * r})", compact_rows=1,
        dim_h=lambda m: m * m, ss_rank=lambda m: m // 2,
        hermitian=lambda m: True, root_mults=lambda m: (4, 4 * (m % 2), 1),
        subtube=lambda m: (m - 1,) if m % 2 else None,
    ),
    FamilySpec(
        tag="spr", template="sp({},R)", letters="n", size_factor=2, algebra="sp",
        quaternionic=False, signed_parities=(0,), forced_split=True, signature_rule=False,
        signed_factor=lambda a, b: f"so({a},{b})", unsigned_factor=lambda r: f"sp({r},R)",
        compact_rows=0, dim_h=lambda n: n * n, ss_rank=lambda n: n,
        hermitian=lambda n: True, root_mults=lambda n: (1, 0, 1), subtube=None,
    ),
    FamilySpec(
        tag="sp", template="sp({},{})", letters="pq", size_factor=2, algebra="sp",
        quaternionic=True, signed_parities=(1,), forced_split=False, signature_rule=True,
        signed_factor=lambda a, b: f"sp({2 * a},{2 * b})",
        unsigned_factor=lambda r: f"so*({2 * r})", compact_rows=1,
        dim_h=lambda p, q: p * (2 * p + 1) + q * (2 * q + 1), ss_rank=min, subtube=None,
        hermitian=lambda p, q: False, root_mults=lambda p, q: (4, 4 * abs(q - p), 3),
    ),
)

#: Classical families by tag, in the order of the classification.
FAMILIES: Dict[str, FamilySpec] = {spec.tag: spec for spec in _SPECS}


def family_spec(family: str, params: Params) -> FamilySpec:
    """The spec of a classical tag, checked against the parameter count."""
    spec = FAMILIES.get(family)
    if spec is None:
        raise DomainError(f"unknown real form family {family!r}")
    if len(params) != spec.arity:
        raise DomainError(f"{spec.symbol} takes {spec.arity} parameter"
                          f"{'s' if spec.arity > 1 else ''}, got {len(params)}")
    return spec
