r"""sl2-module multiplicities n_j and the closed dimension formulas.

Three independent routes to the same numbers meet here.  The grading
pipeline differences dim g_j - dim g_{j+2}.  The tensor route decomposes
the adjoint representation by Clebsch-Gordan (gl = V (x) V, so = /\^2 V,
sp = S^2 V) straight from the partition.  The closed formulas for dim c,
dim V_rho, dim g_0 follow Collingwood-McGovern, Cor. 6.1.4, with the
correction term for dim V_rho linear in the odd multiplicities; one call,
closed_dims, gives all three and validates the orbit once.  Both routes
read the partition's multiplicity table, as the matrix oracle does for
the units it sums its nullity tables over.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .errors import InconsistentGradingError
from .orbits import Partition, check_partition, fold_dims
from .records import Checked
from .rootsystems import GradingDims, LieType


class _Sl2Fields(NamedTuple):
    n: Tuple[Tuple[int, int], ...]  # sorted (weight, multiplicity), zeros dropped
    dim_g: int


class Sl2Data(Checked, _Sl2Fields):
    """Multiplicities n_j of the (j+1)-dimensional summands, plus dim g."""

    __slots__ = ()

    def __new__(cls, n: Tuple[Tuple[int, int], ...], dim_g: int) -> "Sl2Data":
        total, negative = 0, False
        for j, m in n:  # one pass for both checks, the sum's reported first
            total += m * (j + 1)
            negative = negative or m < 0 or j < 0
        if total != dim_g:
            raise InconsistentGradingError(f"sum n_j (j+1) = {total} != dim g = {dim_g}")
        if negative:
            raise InconsistentGradingError(f"negative weight or multiplicity in {n}")
        return super().__new__(cls, n, dim_g)

    def n_at(self, j: int) -> int:
        return dict(self.n).get(j, 0)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.n)

    @property
    def max_weight(self) -> int:
        return max((j for j, _ in self.n), default=0)

    @property
    def dim_c(self) -> int:
        """Centralizer of the triple: the weight-0 multiplicity."""
        return self.n_at(0)

    @property
    def dim_g0(self) -> int:
        return sum(m for j, m in self.n if j % 2 == 0)

    @property
    def dim_v_rho(self) -> int:
        """Total number of irreducible summands (= dim of ker ad_e)."""
        return sum(m for _, m in self.n)

    @property
    def dims(self) -> Tuple[int, int, int]:
        """(dim c, dim g_0, dim V_rho), in the order of closed_dims."""
        return self.dim_c, self.dim_g0, self.dim_v_rho


def module_multiplicities(g: GradingDims) -> Sl2Data:
    """n_j = dim g_j - dim g_{j+2} for every j from 0 to the top weight;
    negative values mean the label vector was not the weighted Dynkin
    diagram of any nilpotent orbit."""
    dims = g.as_dict()
    get = dims.get
    pairs = []
    for j in range(max(dims) + 1):
        m = get(j, 0) - get(j + 2, 0)
        if m < 0:
            raise InconsistentGradingError(f"n_{j} = {get(j, 0)} - {get(j + 2, 0)} < 0")
        if m:
            pairs.append((j, m))
    return Sl2Data(n=tuple(pairs), dim_g=sum(dims.values()))


def multiplicities_formula(t: LieType, p: Partition) -> Dict[int, int]:
    """All n_j by Clebsch-Gordan decomposition of the adjoint module.

    gl_N = V (x) V with V = (+)_k r_k V_k; so_N and sp_N are its
    alternating and symmetric halves.  The sums run over the distinct
    parts k >= l: V_k (x) V_l, whose highest weights are k+l-2, k+l-4,
    ..., k-l, comes r_k r_l times (twice that in gl for k > l), and
    outside gl the r_k copies of V_k give r_k(r_k-1)/2 products
    V_k (x) V_k and r_k alternating or symmetric squares.  gl drops one
    trivial summand for the trace.
    """
    algebra = check_partition(t, p)
    r = list(p.multiplicities().items())  # parts descending
    gl = algebra == "gl"
    # the weights of S^2 V_k (sp) or /\^2 V_k (so): 2k - offset down by 4
    offset = 2 if algebra == "sp" else 4
    n: Dict[int, int] = {}
    for a, (k, rk) in enumerate(r):
        count = rk * rk if gl else rk * (rk - 1) // 2
        if count:
            for j in range(2 * k - 2, -1, -2):
                n[j] = n.get(j, 0) + count
        if not gl:
            for j in range(2 * k - offset, -1, -4):
                n[j] = n.get(j, 0) + rk
        for l, rl in r[a + 1:]:
            count = (2 if gl else 1) * rk * rl
            for j in range(k + l - 2, k - l - 1, -2):
                n[j] = n.get(j, 0) + count
    if gl:
        n[0] -= 1
        if not n[0]:
            del n[0]
    return n


def closed_dims(t: LieType, p: Partition) -> Tuple[int, int, int]:
    """(dim c, dim g_0, dim V_rho) of the orbit by the closed formulas of
    Collingwood-McGovern, Cor. 6.1.4, with the orbit validated once.

    dim c, the reductive centralizer (6.1.3): gl: sum r_i^2 - 1; so/sp: an
    so(r_i) factor on each part of the self-paired parity, sp(r_i) on the
    others.  dim V_rho = dim ker ad_e: gl: sum s_j^2 - 1; sp: (sum s_j^2 +
    sum_{odd} r_i)/2; so: (sum s_j^2 - sum_{odd} r_i)/2, s the dual
    partition.  dim g_0 is dim V_rho less the opposite-parity correction:
    every pair of parts i < j of opposite parity costs 2i (gl) or i (so/sp)
    times r_i r_j.

    All three are read in one descending pass over the multiplicity table,
    with no dual built: sum_j s_j^2 = sum_i (2i - 1) lambda_i for parts
    lambda_1 >= lambda_2 >= ... (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. I, (1.6)), so a part k of multiplicity r below `rows`
    longer rows adds k r (2 rows + r).  The pass is orbits.fold_dims, whose
    fold the classify walk carries from part to part.
    """
    return fold_dims(check_partition(t, p), p)
