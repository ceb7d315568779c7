"""Root systems of the simple complex Lie algebras, in exact integer arithmetic.

Positive roots are stored as coefficient vectors over the simple roots, so
the ad_h weight of a root against a weighted Dynkin diagram is a plain
integer dot product.  No Euclidean realization is kept here; the orbit
labelling code carries its own Cartan coordinates for the classical types.

Node numbering is Bourbaki's.  For E6/E7/E8 the branch node is node 2,
attached to node 4; the long chain is 1-3-4-5-6(-7)(-8).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from operator import add
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .errors import DomainError, RankDomainError

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


@dataclass(frozen=True)
class LieType:
    """A simple complex Lie algebra: classical family + rank, or exceptional."""

    family: LieFamily
    rank: int

    def __post_init__(self) -> None:
        fam = self.family
        if fam.is_classical:
            lo = CLASSICAL_MIN_RANK[fam.value]
            if self.rank < lo:
                raise RankDomainError(f"{fam.value}-type needs rank >= {lo}, got {self.rank}")
            if self.rank > CLASSICAL_RANK_CAP:
                raise RankDomainError(
                    f"{fam.value}{self.rank} exceeds the classical rank cap {CLASSICAL_RANK_CAP}"
                )
        else:
            fixed = _EXCEPTIONAL_RANK[fam.value]
            if self.rank != fixed:
                raise RankDomainError(f"{fam.value} has rank {fixed}, got {self.rank}")

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

    @property
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
@lru_cache(maxsize=None)
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


def _coroot_pairing(cartan: Matrix, coeffs: Coeffs, j: int) -> int:
    return sum(c * cartan[i][j] for i, c in enumerate(coeffs) if c)


def _positive_roots_by_height(cartan: Matrix) -> FrozenSet[Coeffs]:
    """Close the simple roots upward by height using root-string arithmetic.

    beta + alpha_j is a root iff q > 0 in the string through beta, where
    q = p - <beta, alpha_j^vee> and p counts how far beta - k*alpha_j stays
    a root.  All smaller-height roots are already present, so membership
    lookups are exact.
    """
    rank = len(cartan)
    simple = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for j in range(rank):
                p = 0
                down = list(beta)
                while True:
                    down[j] -= 1
                    if down[j] < 0 or tuple(down) not in roots:
                        break
                    p += 1
                if p - _coroot_pairing(cartan, beta, j) > 0:
                    up = list(beta)
                    up[j] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        layer = nxt
    return frozenset(roots)


@dataclass(frozen=True)
class RootSystem:
    """Positive roots of a simple type, as simple-root coefficient vectors."""

    lie_type: LieType
    cartan: Matrix
    positive_roots: Tuple[Coeffs, ...]

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @cached_property
    def columns(self) -> Tuple[Coeffs, ...]:
        """Per node, its coefficient in each positive root, in root order."""
        return tuple(zip(*self.positive_roots))


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
    return RootSystem(lie_type=t, cartan=cartan, positive_roots=ordered)


@dataclass(frozen=True)
class WeightedDynkinDiagram:
    """A dominant weighted Dynkin diagram: one label in {0,1,2} per node."""

    lie_type: LieType
    labels: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != self.lie_type.rank:
            raise DomainError(
                f"{self.lie_type.name} needs {self.lie_type.rank} labels, got {len(self.labels)}"
            )
        bad = [x for x in self.labels if x not in (0, 1, 2)]
        if bad:
            raise DomainError(f"weighted Dynkin labels must lie in {{0,1,2}}, got {bad}")


@dataclass(frozen=True)
class GradingDims:
    """Dimensions of the ad_h eigenspaces g_j, keyed by integer weight j."""

    lie_type: LieType
    dims: Tuple[Tuple[int, int], ...]  # sorted (weight, dim) pairs

    def as_dict(self) -> Dict[int, int]:
        return dict(self.dims)

    @property
    def total(self) -> int:
        return sum(d for _, d in self.dims)

    @property
    def weights(self) -> List[int]:
        return [w for w, _ in self.dims]


def ad_grading(rs: RootSystem, wdd: WeightedDynkinDiagram) -> GradingDims:
    """Eigenspace dimensions of ad_h for the semisimple element h defined by
    alpha_i(h) = label_i.  The weights of the positive roots are the sum of
    the nodes' coefficient columns, node i's added label_i times (labels
    are 0, 1 or 2); counts run over positive and negative roots, and the
    Cartan contributes rank to weight 0."""
    if wdd.lie_type != rs.lie_type:
        raise DomainError(f"diagram is for {wdd.lie_type.name}, root system for {rs.lie_type.name}")
    weights: Iterable[int] = [0] * len(rs.positive_roots)
    for column, label in zip(rs.columns, wdd.labels):
        for _ in range(label):
            weights = map(add, weights, column)
    positive = Counter(weights)
    dims: Dict[int, int] = {0: rs.rank}
    for w, count in positive.items():
        dims[w] = dims.get(w, 0) + count
        dims[-w] = dims.get(-w, 0) + count
    if dims[0] < rs.rank:
        raise AssertionError("weight-zero space lost the Cartan")
    pairs = tuple(sorted((w, d) for w, d in dims.items() if d))
    return GradingDims(lie_type=rs.lie_type, dims=pairs)

