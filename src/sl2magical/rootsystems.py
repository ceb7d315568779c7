"""Root systems of the simple complex Lie algebras, in exact integer arithmetic.

Positive roots are stored as coefficient vectors over the simple roots, so
the ad_h weight of a root against a weighted Dynkin diagram is a plain
integer dot product.  No Euclidean realization is kept here; the orbit
labelling code carries its own Cartan coordinates for the classical types.

Node numbering is Bourbaki's.  For E6/E7/E8 the branch node is node 2,
attached to node 4; the long chain is 1-3-4-5-6(-7)(-8).
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from itertools import compress
from operator import add, gt, mul
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from .errors import DomainError, RankDomainError
from .records import Checked, Frozen

Coeffs = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]

#: Enumeration-heavy classical code paths refuse ranks above this.
CLASSICAL_RANK_CAP = 12

CLASSICAL_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
#: The algebra of each classical family on C^N: gl_N, so_N or sp_N.
CLASSICAL_ALGEBRA = {"A": "gl", "B": "so", "C": "sp", "D": "so"}
#: The parity of the Jordan strings that the form pairs with themselves: the
#: invariant form of a string of length i is symmetric for odd i, alternating
#: for even i (Collingwood-McGovern, ch. 5).  Other strings come in coupled
#: pairs, so their parts have even multiplicity.  gl has no form.
SELF_PAIRED_PARITY = {"gl": None, "so": 1, "sp": 0}

_EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}


class LieFamily(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    G2 = "G2"
    F4 = "F4"
    E6 = "E6"
    E7 = "E7"
    E8 = "E8"

    @property
    def is_classical(self) -> bool:
        return self.value in CLASSICAL_MIN_RANK


class LieType(Frozen):
    """A simple complex Lie algebra: classical family + rank, or exceptional.
    Its __dict__ holds the cached properties."""

    __slots__ = ("family", "rank", "__dict__")
    _fields = ("family", "rank")
    family: LieFamily
    rank: int

    def __init__(self, family: LieFamily, rank: int) -> None:
        if family.is_classical:
            lo = CLASSICAL_MIN_RANK[family.value]
            if rank < lo:
                raise RankDomainError(f"{family.value}-type needs rank >= {lo}, got {rank}")
            if rank > CLASSICAL_RANK_CAP:
                raise RankDomainError(
                    f"{family.value}{rank} exceeds the classical rank cap {CLASSICAL_RANK_CAP}"
                )
        else:
            fixed = _EXCEPTIONAL_RANK[family.value]
            if rank != fixed:
                raise RankDomainError(f"{family.value} has rank {fixed}, got {rank}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def of(cls, name: str, rank: int | None = None) -> "LieType":
        """Build from a name like 'A5', 'E6', or ('D', 5); a rank given
        with a name that fixes one must be that rank."""
        name = name.strip()
        if name in _EXCEPTIONAL_RANK:
            return cls(LieFamily(name), _EXCEPTIONAL_RANK[name] if rank is None else rank)
        if name[:1] in CLASSICAL_MIN_RANK and name[1:].isdigit():
            if rank not in (None, int(name[1:])):
                raise RankDomainError(f"{name} has rank {int(name[1:])}, got {rank}")
            return cls(LieFamily(name[0]), int(name[1:]))
        if name in CLASSICAL_MIN_RANK and rank is not None:
            return cls(LieFamily(name), rank)
        raise DomainError(f"cannot parse Lie type {name!r}")

    @property
    def name(self) -> str:
        if self.family.is_classical:
            return f"{self.family.value}{self.rank}"
        return self.family.value

    @cached_property
    def algebra(self) -> str:
        """The complex algebra of a classical type: "gl", "so" or "sp"."""
        if not self.family.is_classical:
            raise DomainError(f"{self.name} orbits are not labeled by partitions")
        return CLASSICAL_ALGEBRA[self.family.value]

    @cached_property
    def matrix_size(self) -> int:
        """Size of the defining matrix representation (A: sl_{r+1}, B: so_{2r+1}, ...)."""
        if self.algebra == "gl":
            return self.rank + 1
        return 2 * self.rank + 1 if self.family is LieFamily.B else 2 * self.rank

    @classmethod
    def classical(cls, algebra: str, size: int) -> "LieType":
        """The type whose algebra ("gl", "so" or "sp") acts on C^size: the
        inverse of matrix_size, within the same rank window."""
        if algebra == "gl":
            return cls(LieFamily.A, size - 1)
        if algebra == "so":
            return cls(LieFamily.B if size % 2 else LieFamily.D, size // 2)
        return cls(LieFamily.C, size // 2)

    @cached_property
    def dim(self) -> int:
        return 2 * _positive_root_count(self) + self.rank


def _positive_root_count(t: LieType) -> int:
    fam, n = t.family, t.rank
    if fam is LieFamily.A:
        return n * (n + 1) // 2
    if fam in (LieFamily.B, LieFamily.C):
        return n * n
    if fam is LieFamily.D:
        return n * (n - 1)
    return {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}[fam.value]


# Cartan matrix convention: entry [i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j),
# i.e. the value of the coroot alpha_j^vee on alpha_i.  The pairing of a root
# with coefficient vector c against alpha_j^vee is then sum_i c_i * M[i][j].
def cartan_matrix(t: LieType) -> Matrix:
    n = t.rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(nodes: List[int]) -> None:
        for a, b in zip(nodes, nodes[1:]):
            m[a][b] = m[b][a] = -1

    fam = t.family
    if fam in (LieFamily.A, LieFamily.B, LieFamily.C):
        chain(list(range(n)))
        if fam is LieFamily.B:
            # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            m[n - 2][n - 1] = -2
        elif fam is LieFamily.C:
            # alpha_n long
            m[n - 1][n - 2] = -2
    elif fam is LieFamily.D:
        chain(list(range(n - 1)))
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    elif fam is LieFamily.G2:
        m[0][1], m[1][0] = -1, -3
    elif fam is LieFamily.F4:
        chain([0, 1, 2, 3])
        m[1][2], m[2][1] = -2, -1
    else:  # E6/E7/E8: chain 1-3-4-...-n with 2 attached to 4 (0-indexed below)
        chain([0] + list(range(2, n)))
        m[1][3] = m[3][1] = -1
    return tuple(tuple(row) for row in m)


def _positive_roots_by_height(cartan: Matrix) -> FrozenSet[Coeffs]:
    """Close the simple roots upward by height using root-string arithmetic.

    beta + alpha_j is a root iff p > <beta, alpha_j^vee> in the alpha_j
    string through beta, where p counts how far beta - k*alpha_j stays a
    root.  Each root carries both per j: a step up by alpha_j adds Cartan
    row j to the pairings and, the string being unbroken, sets p_j to one
    more than beta's.  A root of height h + 1 is reached from every root
    root - alpha_j, all of height h, so its p is complete before its own
    layer is stepped from.
    """
    rank = len(cartan)
    simple = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    pairings: Dict[Coeffs, Coeffs] = dict(zip(simple, cartan))
    depths: Dict[Coeffs, List[int]] = {beta: [0] * rank for beta in simple}  # p per j
    layer = simple
    while layer:
        nxt = []
        for beta in layer:
            pairing, p = pairings[beta], depths[beta]
            for j in compress(range(rank), map(gt, p, pairing)):
                up = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                if up not in pairings:
                    pairings[up] = tuple(map(add, pairing, cartan[j]))
                    depths[up] = [0] * rank
                    nxt.append(up)
                depths[up][j] = p[j] + 1
        layer = nxt
    return frozenset(pairings)


class RootSystem(NamedTuple):
    """Positive roots of a simple type, as simple-root coefficient vectors,
    and per node its coefficients packed into one integer: byte r holds
    the node's coefficient in positive root r, in root order."""

    lie_type: LieType
    cartan: Matrix
    positive_roots: Tuple[Coeffs, ...]
    packed: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.lie_type.rank


@lru_cache(maxsize=None)
def build_root_system(t: LieType) -> RootSystem:
    cartan = cartan_matrix(t)
    roots = _positive_roots_by_height(cartan)
    expected = _positive_root_count(t)
    if len(roots) != expected:
        raise AssertionError(
            f"{t.name}: enumerated {len(roots)} positive roots, expected {expected}"
        )
    ordered = tuple(sorted(roots, key=lambda r: (sum(r), r)))
    # a weight is at most 2 ht(theta), theta = ordered[-1]: 58 for E8, so
    # each fits its byte and the packed sums of ad_grading never carry
    if 2 * sum(ordered[-1]) > 255:
        raise AssertionError(f"{t.name}: root weights overflow a byte")
    packed = tuple(int.from_bytes(bytes(column), "little") for column in zip(*ordered))
    return RootSystem(lie_type=t, cartan=cartan, positive_roots=ordered, packed=packed)


class _DiagramFields(NamedTuple):
    lie_type: LieType
    labels: Tuple[int, ...]


class WeightedDynkinDiagram(Checked, _DiagramFields):
    """A dominant weighted Dynkin diagram: one label in {0,1,2} per node."""

    __slots__ = ()

    def __new__(cls, lie_type: LieType, labels: Tuple[int, ...]) -> "WeightedDynkinDiagram":
        if len(labels) != lie_type.rank:
            raise DomainError(f"{lie_type.name} needs {lie_type.rank} labels, got {len(labels)}")
        bad = [x for x in labels if x not in (0, 1, 2)]
        if bad:
            raise DomainError(f"weighted Dynkin labels must lie in {{0,1,2}}, got {bad}")
        return super().__new__(cls, lie_type, labels)


class GradingDims(NamedTuple):
    """Dimensions of the ad_h eigenspaces g_j, keyed by integer weight j."""

    lie_type: LieType
    dims: Tuple[Tuple[int, int], ...]  # sorted (weight, dim) pairs

    def as_dict(self) -> Dict[int, int]:
        return dict(self.dims)


def ad_grading(rs: RootSystem, wdd: WeightedDynkinDiagram) -> GradingDims:
    """Eigenspace dimensions of ad_h for the semisimple element h defined by
    alpha_i(h) = label_i.  The weights of the positive roots are the bytes
    of sum_i label_i * packed_i (each below 256, see build_root_system);
    each positive weight w counts once at w and once at -w, and weight 0
    twice plus the rank of the Cartan."""
    if wdd.lie_type != rs.lie_type:
        raise DomainError(f"diagram is for {wdd.lie_type.name}, root system for {rs.lie_type.name}")
    weights = sum(map(mul, wdd.labels, rs.packed)).to_bytes(len(rs.positive_roots), "little")
    above = [(w, weights.count(w)) for w in sorted(set(weights)) if w]
    pairs = [(-w, d) for w, d in reversed(above)] + [(0, rs.rank + 2 * weights.count(0))] + above
    return GradingDims(lie_type=rs.lie_type, dims=tuple(pairs))
