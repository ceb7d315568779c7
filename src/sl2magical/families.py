"""One table of facts per classical real-form family.

Each noncompact classical family is one FamilySpec.  It states its name
template and parameter letters, its complex algebra (gl, so or sp),
whether its form is quaternionic, and the closed formulas of its
restricted roots and Hermitian type.  Its sign rules, size factor, trace
line, Cartan split and centralizer factors, each a name with its (dim h,
dim m), are derived once, when the spec is made, from the algebra's
SELF_PAIRED_PARITY, the quaternionic flag and the arity, by the
signed-Young-diagram and centralizer rules of Collingwood-McGovern, Thms
9.3.3-9.3.5 and ch. 9.  The form's own dim h and dim m are those of the centralizer
of its zero orbit [1^N], one factor less the trace line.  The signed-data
enumerator, descriptors and centralizers read these facts instead of
branching on the tag; a centralizer is compact when its dim m is 0.

Rows of length i count r_i: the Jordan multiplicity, halved for the
quaternionic families.  Parts of a signed parity split their rows by
leading sign into (a, b); parts of the other parity take the balanced
split (r_i/2, r_i/2) when it is forced, and carry no sign otherwise.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .errors import DomainError
from .records import Frozen
from .rootsystems import SELF_PAIRED_PARITY, LieType

Params = Tuple[int, ...]


#: (dim h, dim m) of the two-argument real forms u(a,b), so(a,b) and
#: sp(a,b), sp in quaternionic sizes; b = 0 gives the compact group.
FACTOR_DIMS = {
    "u": lambda a, b: (a * a + b * b, 2 * a * b),
    "so": lambda a, b: (a * (a - 1) // 2 + b * (b - 1) // 2, a * b),
    "sp": lambda a, b: (a * (2 * a + 1) + b * (2 * b + 1), 4 * a * b),
}

#: Centralizer factors, keyed by (algebra is gl, quaternionic): the signed
#: factor of a part split (a, b) and the unsigned factor of a part with r_i
#: rows, each its name and its (dim h, dim m) (Collingwood-McGovern, Thms
#: 9.3.3-9.3.5).  sp(r,R) takes the matrix size r, which is even there.
#: su*(2m) has no signed parts.
_FACTORS = {
    (True, False): ((lambda a, b: f"u({a},{b})", FACTOR_DIMS["u"]),
                    (lambda r: f"gl({r},R)", lambda r: (r * (r - 1) // 2, r * (r + 1) // 2))),
    (True, True): (
        None,
        (lambda r: f"u*({2 * r})", lambda r: (r * (2 * r + 1), r * (2 * r - 1)))),
    (False, False): ((lambda a, b: f"so({a},{b})", FACTOR_DIMS["so"]),
                     (lambda r: f"sp({r},R)", lambda r: (r * r // 4, r * (r + 2) // 4))),
    (False, True): ((lambda a, b: f"sp({2 * a},{2 * b})", FACTOR_DIMS["sp"]),
                    (lambda r: f"so*({2 * r})", lambda r: (r * r, r * (r - 1)))),
}

Factor = Tuple[Callable[..., str], Callable[..., Tuple[int, int]]]  # name, (dim h, dim m)


class FamilySpec(Frozen):
    _fields = ("tag", "template", "letters", "algebra", "quaternionic", "ss_rank", "hermitian",
               "root_mults", "subtube")
    __slots__ = _fields + ("size_factor", "signature_rule", "signed_parities", "forced_split",
                           "trace", "square", "k_agrees", "signed_factor", "unsigned_factor")
    tag: str
    template: str  # form name, one {} per parameter scaled by size_factor
    letters: str  # one letter per parameter
    algebra: str  # complex defining algebra: "gl", "so" or "sp"
    quaternionic: bool
    ss_rank: Callable[..., int]
    hermitian: Callable[..., bool]
    # Restricted-root multiplicities: one for type A_r (r(r+1)/2 positive
    # roots), three for type BC_r (r(r-1), r and r roots e_i +- e_j, e_i,
    # 2e_i); a zero multiplicity means the class is absent.
    root_mults: Callable[..., Tuple[int, ...]]
    subtube: Optional[Callable[..., Optional[Params]]]  # None: always tube type
    # Derived in __init__ from algebra, quaternionic and arity.
    size_factor: int  # defining size = size_factor * sum(params)
    signature_rule: bool  # the plus boxes add up to the first parameter
    signed_parities: Tuple[int, ...]  # parities i % 2 with a sign split
    forced_split: bool  # the other parts split (r_i/2, r_i/2)
    trace: Tuple[int, int]  # the (dim h, dim m) line s(...) removes
    square: str  # of one row: "S2" or "L2" in g (so, sp) or in k (sl, su*); "End" in su
    k_agrees: Optional[bool]  # k holds the box pairs of equal signs; None: no V+-
    signed_factor: Optional[Factor]  # of a split (a, b)
    unsigned_factor: Factor  # of r_i rows

    def __init__(self, tag: str, template: str, letters: str, algebra: str,
                 quaternionic: bool, ss_rank: Callable[..., int],
                 hermitian: Callable[..., bool], root_mults: Callable[..., Tuple[int, ...]],
                 subtube: Optional[Callable[..., Optional[Params]]]) -> None:
        gl, signature = algebra == "gl", len(letters) == 2
        fields = {
            "tag": tag, "template": template, "letters": letters, "algebra": algebra,
            "quaternionic": quaternionic, "ss_rank": ss_rank, "hermitian": hermitian,
            "root_mults": root_mults, "subtube": subtube,
            "size_factor": 2 if quaternionic or algebra == "sp" else 1,
            "signature_rule": signature,
            # gl: both parities under a signature, none otherwise; so and sp:
            # the self-paired parity, the other one in a quaternionic form
            "signed_parities": ((0, 1) if signature else ()) if gl
            else (SELF_PAIRED_PARITY[algebra] ^ quaternionic,),
            "forced_split": not (gl or quaternionic),
            # the centers of u(a,b) are compact, those of gl(r,R) and u*(2r) split
            "trace": ((1, 0) if signature else (0, 1)) if gl else (0, 0),
            # g_C is L2 V in so and S2 V in sp; k_C of sl and su* is so(n) and sp(n)
            "square": "End" if gl and signature else "S2" if algebra == "sp" or (
                gl and quaternionic) else "L2",
            # k_C is End, L2 or S2 of V+ and of V- under a signature, V+ x V- in so*, sp(2n,R)
            "k_agrees": None if gl and not signature else signature,
        }
        fields["signed_factor"], fields["unsigned_factor"] = _FACTORS[gl, quaternionic]
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def arity(self) -> int:
        return len(self.letters)

    @property
    def symbol(self) -> str:
        """Generic name, e.g. sp(2p,2q)."""
        scale = str(self.size_factor) if self.size_factor > 1 else ""
        return self.template.format(*(scale + x for x in self.letters))

    def name(self, params: Params) -> str:
        return self.template.format(*[self.size_factor * x for x in params])

    def size(self, params: Params) -> int:
        return self.size_factor * sum(params)

    def cartan(self, params: Params) -> Tuple[int, int]:
        """(dim h, dim m) of the form, those of the centralizer of its zero
        orbit [1^N]: one factor, at (p, q) or at N's rows, less the trace line."""
        h, m = (self.signed_factor[1](*params) if self.arity == 2
                else self.unsigned_factor[1](self.rows(self.size(params))))
        return h - self.trace[0], m - self.trace[1]

    def s(self, params: Params) -> int:
        """dim m - dim h of the form, at any size: the classify walk reads it
        on the prefix forms its rows reach, which describe may refuse."""
        h, m = self.cartan(params)
        return m - h

    def complexification(self, params: Params) -> LieType:
        return LieType.classical(self.algebra, self.size(params))

    def rows(self, multiplicity: int) -> int:
        """r_i of a part of this multiplicity: halved in the quaternionic
        families."""
        return multiplicity // 2 if self.quaternionic else multiplicity


_SPECS = (
    FamilySpec(tag="su", template="su({},{})", letters="pq", algebra="gl", quaternionic=False,
               hermitian=lambda p, q: True, root_mults=lambda p, q: (2, 2 * abs(q - p), 1),
               ss_rank=min, subtube=lambda p, q: None if p == q else (min(p, q),) * 2),
    FamilySpec(tag="sl", template="sl({},R)", letters="n", algebra="gl", quaternionic=False,
               ss_rank=lambda n: n - 1,
               hermitian=lambda n: n == 2, root_mults=lambda n: (1,), subtube=None),
    FamilySpec(tag="sustar", template="su*({})", letters="m", algebra="gl", quaternionic=True,
               ss_rank=lambda m: m - 1,
               hermitian=lambda m: False, root_mults=lambda m: (4,), subtube=None),
    FamilySpec(tag="so", template="so({},{})", letters="pq", algebra="so", quaternionic=False,
               ss_rank=min, hermitian=lambda p, q: 2 in (p, q),
               root_mults=lambda p, q: (1, abs(q - p), 0), subtube=None),
    FamilySpec(tag="sostar", template="so*({})", letters="m", algebra="so", quaternionic=True,
               ss_rank=lambda m: m // 2,
               hermitian=lambda m: True, root_mults=lambda m: (4, 4 * (m % 2), 1),
               subtube=lambda m: (m - 1,) if m % 2 else None),
    FamilySpec(tag="spr", template="sp({},R)", letters="n", algebra="sp", quaternionic=False,
               ss_rank=lambda n: n,
               hermitian=lambda n: True, root_mults=lambda n: (1, 0, 1), subtube=None),
    FamilySpec(tag="sp", template="sp({},{})", letters="pq", algebra="sp", quaternionic=True,
               ss_rank=min, subtube=None,
               hermitian=lambda p, q: False, root_mults=lambda p, q: (4, 4 * abs(q - p), 3)),
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
