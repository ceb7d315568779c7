"""Nilpotent orbit labels: partitions, parity rules, signed refinements.

Complex nilpotent orbits of the classical algebras are labeled by Jordan
type, a partition of the defining representation's dimension, subject to
the parity rule of the algebra: a part whose strings the form of so or sp
does not pair with themselves (rootsystems.SELF_PAIRED_PARITY) occurs
with even multiplicity.  Very even D partitions label two orbits, tagged
I and II.

Real forms refine the label with row signs in the signed-Young-diagram
sense: a row of length i carries a leading sign, and a row starting with
+ contributes ceil(i/2) plus-boxes and floor(i/2) minus-boxes.  (p_i, q_i)
count the rows of length i by leading sign.  The quaternionic forms
(su*, so*, sp(2p,2q)) only meet complex orbits whose multiplicities are
all even; their row counts r_i are half the complex multiplicities.
"""

from __future__ import annotations

from itertools import product
from operator import sub
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple, TypeVar

from .errors import DomainError
from .families import FAMILIES, FamilySpec, family_spec
from .records import Checked, Frozen
from .rootsystems import (
    CLASSICAL_RANK_CAP,
    SELF_PAIRED_PARITY,
    LieFamily,
    LieType,
    WeightedDynkinDiagram,
)

SignTable = Tuple[Tuple[int, Tuple[int, int]], ...]
State = TypeVar("State")
Rule = Callable[[int, int], bool]  # allowed(part, multiplicity)

#: The largest matrix size of any LieType: B12 acts on C^25.
MAX_BOXES = 2 * CLASSICAL_RANK_CAP + 1


class Partition(Frozen):
    """A weakly decreasing tuple of positive integers, compared on its
    parts alone."""

    __slots__ = ("parts", "n", "_counts")
    _fields = ("parts",)
    parts: Tuple[int, ...]
    n: int  # the sum of the parts

    def __init__(self, parts: Tuple[int, ...]) -> None:
        if not parts:
            raise DomainError("empty partition")
        if min(parts) < 1:
            raise DomainError(f"partition parts must be positive, got {parts}")
        ordered = tuple(sorted(parts, reverse=True))
        counts: Dict[int, int] = {}  # part -> multiplicity, parts descending
        for part in ordered:
            counts[part] = counts.get(part, 0) + 1
        object.__setattr__(self, "parts", ordered)
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "n", sum(ordered))

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse '2,2,1', exponent shorthand '2^2,1', or either inside one
        pair of brackets, '[2^2,1]', of at most MAX_BOXES boxes, counted
        before any token is expanded.
        A token is a part, or a part ^ an exponent, in ASCII digits, with
        spaces around it allowed: '2, 2, 1' parses, '2 2 1' does not."""
        body = text.strip()
        if body[:1] == "[" and body[-1:] == "]":
            body = body[1:-1]
        if not body:
            raise DomainError(f"cannot parse partition {text!r}")
        parts: List[int] = []
        boxes = 0
        for token in body.split(","):
            base, caret, exp = token.strip(" ").partition("^")
            try:
                value = parse_digits(base)
                count = parse_digits(exp) if caret else 1
            except ValueError:
                raise DomainError(f"cannot parse partition token {token!r}") from None
            if value < 1 or count < 1:
                raise DomainError(f"nonpositive part or exponent in {token!r}")
            boxes += value * count
            if boxes > MAX_BOXES:
                raise DomainError(f"partition {text!r} has more than {MAX_BOXES} boxes, "
                                  "the largest matrix size of any classical type")
            parts.extend([value] * count)
        return cls(tuple(parts))

    def multiplicity(self, part: int) -> int:
        return self._counts.get(part, 0)

    def multiplicities(self) -> Dict[int, int]:
        return dict(self._counts)

    @property
    def very_even(self) -> bool:
        """All parts even; in type D this partition labels two orbits."""
        return all(p % 2 == 0 for p in self.parts)

    def __str__(self) -> str:
        pieces = (f"{part}^{r}" if r > 1 else f"{part}" for part, r in self._counts.items())
        return "[" + ",".join(pieces) + "]"


def parse_digits(text: str) -> int:
    """int(text) for ASCII digits alone: int() also takes spaces, signs, "_"
    and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a run of ASCII digits: {text!r}")
    return int(text)


def _parity_rule(keep: Optional[int], quaternionic: bool) -> Optional[Rule]:
    """allowed(part, multiplicity) of a parity rule: a part whose strings
    the form does not pair with themselves, those not of the parity keep,
    comes in pairs.  A quaternionic form meets only orbits whose parts all
    come in pairs.  None when every part is allowed: gl, not quaternionic."""
    if quaternionic:
        return lambda part, mult: mult % 2 == 0
    if keep is None:
        return None
    return lambda part, mult: mult % 2 == 0 or part % 2 == keep


#: The parity rule of each (algebra, quaternionic), stated once.
_PARITY_RULES = {(algebra, quaternionic): _parity_rule(keep, quaternionic)
                 for algebra, keep in SELF_PAIRED_PARITY.items() for quaternionic in (False, True)}


def _meets_rule(rule: Optional[Rule], p: Partition) -> bool:
    """Whether every part of p and its multiplicity pass the rule."""
    return rule is None or all(map(rule, p._counts, p._counts.values()))


def _meets_form(spec: FamilySpec, params: Tuple[int, ...], p: Partition) -> bool:
    """Whether the complex orbit p meets the form, by its parity rule; a
    partition of another size is a DomainError."""
    size = spec.size(params)
    if p.n != size:
        raise DomainError(f"{spec.name(params)} needs a partition of {size}, got {p.n}")
    return _meets_rule(_PARITY_RULES[spec.algebra, spec.quaternionic], p)


def _sign_free_plus(spec: FamilySpec, counts: Dict[int, int]) -> int:
    """The plus boxes of the rows that carry no sign, which a sign table
    does not list; under the signature rule they are even, i/2 each."""
    return 0 if spec.forced_split else sum(i // 2 * spec.rows(r) for i, r in counts.items()
                                           if i % 2 not in spec.signed_parities)


def partition_fits_family(algebra: str, p: Partition) -> bool:
    """Whether p meets the parity rule of the algebra: gl, so or sp."""
    return _meets_rule(_PARITY_RULES[algebra, False], p)


def _walk(n: int, step: Callable[[State, int, int], Optional[State]],
          root: State) -> Iterator[Tuple[Tuple[int, ...], State]]:
    """The partitions of n that step lets through, in descending
    lexicographic order, each with the state step carried down to it: one
    distinct part at a time, largest first, each with its multiplicities
    largest first.  step(state, k, m) gives the state after part k is added
    m times, or None to cut the branch; the walk starts from root."""

    def below(prefix: Tuple[int, ...], rest: int, top: int,
              state: State) -> Iterator[Tuple[Tuple[int, ...], State]]:
        for k in range(min(rest, top), 1, -1):
            for m in range(rest // k, 0, -1):
                child = step(state, k, m)
                if child is None:
                    continue
                if rest > k * m:
                    yield from below(prefix + (k,) * m, rest - k * m, k - 1, child)
                else:
                    yield prefix + (k,) * m, child
        # parts of 1 come last, and only all of the rest at once fills n
        child = step(state, 1, rest)
        if child is not None:
            yield prefix + (1,) * rest, child

    return below((), n, n, root)


#: The running sums of closed_dims' descending pass over a multiplicity
#: table: sum_j s_j^2, dim c, the odd rows, the opposite-parity correction
#: and the rows, s the dual partition.
Fold = Tuple[int, int, int, int, int]
EMPTY_FOLD: Fold = (0, 0, 0, 0, 0)


def _dims_fold(algebra: str) -> Tuple[Callable[[Fold, int, int], Fold],
                                       Callable[[Fold], Tuple[int, int, int]]]:
    """(add, dims) of the algebra: add(fold, i, r) adds a part i of
    multiplicity r below the parts folded so far, and dims(fold) gives
    their (dim c, dim g_0, dim V_rho) by sl2data.closed_dims' formulas."""
    keep = SELF_PAIRED_PARITY[algebra]
    weight = 2 if keep is None else 1

    def add(fold: Fold, i: int, r: int) -> Fold:
        sq, dim_c, odd, correction, rows = fold
        parity = i % 2
        return (sq + i * r * (2 * rows + r),
                dim_c + (r * r if keep is None else r * (r - 1 if parity == keep else r + 1) // 2),
                odd + r * parity,
                # the larger rows of the other parity
                correction + weight * i * r * (rows - odd if parity else odd),
                rows + r)

    def dims(fold: Fold) -> Tuple[int, int, int]:
        sq, dim_c, odd, correction, _ = fold
        if keep is None:
            dim_c, dim_v_rho = dim_c - 1, sq - 1
        else:
            dim_v_rho = (sq + odd) // 2 if algebra == "sp" else (sq - odd) // 2
        return dim_c, dim_v_rho - correction, dim_v_rho

    return add, dims


#: The fold of each algebra, made once.
_FOLDS = {algebra: _dims_fold(algebra) for algebra in SELF_PAIRED_PARITY}


def fold_dims(algebra: str, p: Partition) -> Tuple[int, int, int]:
    """(dim c, dim g_0, dim V_rho) of p in the algebra, by the fold."""
    add, dims = _FOLDS[algebra]
    fold = EMPTY_FOLD
    for i, r in p._counts.items():  # parts descending
        fold = add(fold, i, r)
    return dims(fold)


def check_partition(t: LieType, p: Partition) -> str:
    """The algebra of t ("gl", "so" or "sp"), once p is known to label an
    orbit of t: t classical, p a partition of its matrix size meeting the
    parity rule."""
    algebra = t.algebra
    if p.n != t.matrix_size:
        raise DomainError(f"{t.name} needs a partition of {t.matrix_size}, got {p.n}")
    if not partition_fits_family(algebra, p):
        raise DomainError(f"{p} violates the {t.family.value}-type parity rule")
    return algebra


def enumerate_partitions(t: LieType) -> List[Partition]:
    """The orbit partitions of the classical type t, descending: the
    partitions of its matrix size that meet the parity rule of its
    algebra."""
    allowed = _PARITY_RULES[t.algebra, False]
    return [Partition(parts) for parts, _ in _walk(
        t.matrix_size, lambda state, k, m: state if allowed is None or allowed(k, m) else None, ())]


class _OrbitLabelFields(NamedTuple):
    partition: Partition
    tag: str = ""


class OrbitLabel(Checked, _OrbitLabelFields):
    """A complex-orbit label: partition plus I/II tag for very even D pairs."""

    __slots__ = ()

    def __new__(cls, partition: Partition, tag: str = "") -> "OrbitLabel":
        if tag not in ("", "I", "II"):
            raise DomainError(f"orbit tag must be '', 'I' or 'II', got {tag!r}")
        return super().__new__(cls, partition, tag)

    def __str__(self) -> str:
        return f"{self.partition}_{self.tag}" if self.tag else str(self.partition)


def orbit_labels(t: LieType, p: Partition) -> Tuple[OrbitLabel, ...]:
    """The labels of p's orbits: a very even D partition labels two, I and II."""
    if t.family is LieFamily.D and p.very_even:
        return OrbitLabel(p, "I"), OrbitLabel(p, "II")
    return (OrbitLabel(p),)


def weighted_dynkin_from_partition(t: LieType, p: Partition) -> WeightedDynkinDiagram:
    """Weighted Dynkin diagram of the orbit with the given Jordan type.

    Each part i contributes the weight string (i-1, i-3, ..., 1-i); the
    dominant Cartan coordinates are the largest entries of the merged
    multiset, and labels evaluate the classical simple roots on them.
    A very even D partition labels two orbits, I and II, whose diagrams
    differ by a swap of the last two labels.  The class is not an
    argument: both get the class-I diagram, whose last label is larger.
    """
    check_partition(t, p)
    fam = t.family
    weights = sorted([w for part in p.parts for w in range(part - 1, -part, -2)], reverse=True)
    rank = t.rank
    if fam is LieFamily.A:
        labels = list(map(sub, weights, weights[1:]))
    else:
        h = weights[:rank]
        labels = list(map(sub, h, h[1:]))
        if fam is LieFamily.B:
            labels.append(h[-1])
        elif fam is LieFamily.C:
            labels.append(2 * h[-1])
        else:
            labels[-1] = h[-2] - h[-1]
            labels.append(h[-2] + h[-1])
    try:  # the diagram checks its labels: one outside {0,1,2} is a broken invariant here
        return WeightedDynkinDiagram(lie_type=t, labels=tuple(labels))
    except DomainError:
        raise AssertionError(f"{t.name} {p}: labels {labels} leave {{0,1,2}}") from None


def plus_boxes(part: int, p_i: int, q_i: int) -> int:
    """Plus-box count of p_i rows starting + and q_i rows starting -."""
    return (part + 1) // 2 * p_i + part // 2 * q_i


class SignedPartitionData(Frozen):
    """A real nilpotent orbit label: partition plus leading-sign counts.

    signs holds (part, (p_i, q_i)) for exactly the parts whose rows carry
    an independent sign choice in the given family; forced splits (even
    rows of so(p,q), odd rows of sp(2n,R)) are materialized too so that
    downstream centralizer code never rederives them.  Families without
    sign decorations (sl, su*) have empty signs.
    A datum that is no real orbit of its form is a DomainError when made:
    the form's size, parity rule, sign listing, splits (nonnegative, of sum
    r_i, balanced where forced) and, under the signature rule, p plus boxes.
    """

    __slots__ = _fields = ("family", "params", "partition", "signs")
    family: str
    params: Tuple[int, ...]
    partition: Partition
    signs: SignTable

    def __init__(self, family: str, params: Tuple[int, ...], partition: Partition,
                 signs: SignTable = ()) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "signs", signs)
        spec = family_spec(family, params)
        if not _meets_form(spec, params, partition):
            raise DomainError(f"{partition} does not meet {spec.name(params)}")
        counts = partition._counts
        wanted = [part for part in counts
                  if spec.forced_split or part % 2 in spec.signed_parities]
        listed = [part for part, _ in signs]
        if listed != wanted:
            raise DomainError(f"the signs of {self} list the parts {listed}, "
                              f"not each of {wanted} once, descending")
        plus = _sign_free_plus(spec, counts) if spec.signature_rule else 0
        for part, (a, b) in signs:
            r = spec.rows(counts[part])
            signed = part % 2 in spec.signed_parities
            if min(a, b) < 0 or a + b != r or not (signed or a == b):
                raise DomainError(f"part {part}: signs {(a, b)} are not a "
                                  f"{'' if signed else 'balanced '}split of r_i = {r}")
            plus += plus_boxes(part, a, b)
        if spec.signature_rule and plus != params[0]:
            raise DomainError(f"{self} has {plus} plus boxes, not p = {params[0]}")

    def row_count(self, part: int) -> int:
        """r_i: rows of length part, in the family's own counting."""
        return FAMILIES[self.family].rows(self.partition.multiplicity(part))

    def sign_split(self, part: int) -> Optional[Tuple[int, int]]:
        return dict(self.signs).get(part)

    def __str__(self) -> str:
        if not self.signs:
            return str(self.partition)
        sgn = ",".join(f"{part}:({a},{b})" for part, (a, b) in self.signs)
        return f"{self.partition}{{{sgn}}}"


def _signed_data(spec: FamilySpec, family: str, params: Tuple[int, ...], p: Partition,
                 splits: Callable[[int], List[Tuple[int, int]]]) -> Iterator[SignedPartitionData]:
    """The sign data of p whose signed parts take a split from splits(r_i)
    and whose plus boxes meet the signature rule: plus-heavy splits first,
    larger parts varying slowest.  p must meet the form (_meets_form)."""
    choices = [[(i, split) for split in splits(spec.rows(m))] if i % 2 in spec.signed_parities
               else [(i, (spec.rows(m) // 2,) * 2)]  # the forced split
               for i, m in p._counts.items() if spec.forced_split or i % 2 in spec.signed_parities]
    base = _sign_free_plus(spec, p._counts)
    for signs in product(*choices):
        plus = base + sum(plus_boxes(i, a, b) for i, (a, b) in signs)
        if not spec.signature_rule or plus == params[0]:
            yield SignedPartitionData(family, params, p, signs)


def signed_data(family: str, params: Tuple[int, ...],
                p: Partition) -> Iterator[SignedPartitionData]:
    """All leading-sign assignments realizing the orbit inside the form,
    each built when it is read; none when the partition does not meet the
    form's parity rule (_meets_form) or no sign table has p plus boxes.
    Plus-heavy splits first, larger parts varying slowest."""
    spec = family_spec(family, params)
    if not _meets_form(spec, params, p):
        return iter(())
    return _signed_data(spec, family, params, p, lambda r: [(a, r - a) for a in range(r, -1, -1)])


def enumerate_signed_data(family: str, params: Tuple[int, ...],
                          p: Partition) -> List[SignedPartitionData]:
    """signed_data as a list: [] when the partition does not meet the form."""
    return list(signed_data(family, params, p))


def magical_candidates(family: str, params: Tuple[int, ...]) -> Iterator[Partition]:
    """The partitions of the form's extended magical orbits, descending,
    with no sign data built: those with a compact sign datum of gap
    g_0 - 2c - s = 0, s = dim m - dim h.  The walk keeps the parity rule, a
    running dim m of the unsigned factors (FamilySpec's table,
    Collingwood-McGovern, Thms 9.3.3-9.3.5) within the trace line of
    s(...), since a signed factor with one sign, u(r,0), so(r,0) or
    sp(2r,0), lies in h, and the prefix forms that one sign per signed
    part reaches: under the signature rule the (plus, minus) box counts
    within (p, q), else the size.  It cuts a branch once the gap of its
    rows so far, (c, g_0) by closed_dims' fold (fold_dims) and s by
    FamilySpec.s, is positive on every reached form.  On a compact datum
    the even-weight identity makes the gap 2 sum_{even j >= 2} dim(ker
    ad_e cap g_j cap h), which only grows as rows are added, each row and
    row pair spanning a sigma-stable sl2-submodule; a negative or odd gap
    is an AssertionError.  A leaf's one reached form is the form itself,
    so its one-sign data are the form's compact data of gap 0
    (tests/test_orbits.py checks size <= 10).
    """
    spec = family_spec(family, params)
    allowed = _PARITY_RULES[spec.algebra, spec.quaternionic]
    bound = params if spec.signature_rule else None
    # bound once: step runs for each part of each branch the walk tries
    signed, rows_of, unsigned_dims = spec.signed_parities, spec.rows, spec.unsigned_factor[1]
    budget, factor, form_s = spec.trace[1], spec.size_factor, spec.s
    add, dims = _FOLDS[spec.algebra]

    def step(state: Tuple[int, Set[Tuple[int, ...]], Fold], k: int,
             m: int) -> Optional[Tuple[int, Set[Tuple[int, ...]], Fold]]:
        dim_m, reach, fold = state
        if allowed is not None and not allowed(k, m):
            return None
        rows = rows_of(m)
        if k % 2 in signed:
            up, down = (k + 1) // 2 * rows, k // 2 * rows
            moves = ((up, down), (down, up))
        else:
            dim_m += unsigned_dims(rows)[1]
            if dim_m > budget:
                return None
            moves = ((k // 2 * rows,) * 2,)  # even k under the signature rule
        if bound:
            p, q = bound
            reach = {(a + da, b + db) for a, b in reach for da, db in moves
                     if a + da <= p and b + db <= q}
        else:
            reach = {(n + k * m // factor,) for n, in reach}
        fold = add(fold, k, m)
        dim_c, dim_g0, _ = dims(fold)
        kept = set()
        for form in reach:
            gap = dim_g0 - 2 * dim_c - form_s(form)
            if gap < 0 or gap % 2:
                raise AssertionError(f"{spec.name(form)}: g_0 - 2c - s = {gap} after {k}^{m}")
            if not gap:
                kept.add(form)
        return (dim_m, kept, fold) if kept else None

    root = (0, {(0,) * spec.arity}, EMPTY_FOLD)
    return (Partition(parts) for parts, _ in _walk(spec.size(params), step, root))


def one_sign_data(family: str, params: Tuple[int, ...],
                  p: Partition) -> List[SignedPartitionData]:
    """The sign data of a partition that magical_candidates yields in
    which every signed part has one sign, (r,0) before (0,r): its compact
    data, each with the gap 0 the walk read on the partition."""
    spec = family_spec(family, params)
    return list(_signed_data(spec, family, params, p, lambda r: [(r, 0), (0, r)]))
