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

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, TypeVar

from .errors import DomainError
from .families import FAMILIES, FamilySpec, family_spec
from .rootsystems import (
    CLASSICAL_RANK_CAP,
    SELF_PAIRED_PARITY,
    LieFamily,
    LieType,
    WeightedDynkinDiagram,
)

SignTable = Tuple[Tuple[int, Tuple[int, int]], ...]
State = TypeVar("State")

#: The largest matrix size of any LieType: B12 acts on C^25.
MAX_BOXES = 2 * CLASSICAL_RANK_CAP + 1


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise DomainError("empty partition")
        if any(p < 1 for p in self.parts):
            raise DomainError(f"partition parts must be positive, got {self.parts}")
        ordered = tuple(sorted(self.parts, reverse=True))
        if ordered != self.parts:
            object.__setattr__(self, "parts", ordered)
        counts: Dict[int, int] = {}  # part -> multiplicity, parts descending
        for part in ordered:
            counts[part] = counts.get(part, 0) + 1
        object.__setattr__(self, "_counts", counts)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse '2,2,1', exponent shorthand '2^2,1', or bracketed '[2^2,1]',
        of at most MAX_BOXES boxes, counted before any token is expanded.
        A token is a part, or a part ^ an exponent, in ASCII digits, with
        spaces around it allowed: '2, 2, 1' parses, '2 2 1' does not."""
        body = text.strip().strip("[]")
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

    @property
    def n(self) -> int:
        return sum(self.parts)

    def multiplicity(self, part: int) -> int:
        return self._counts.get(part, 0)

    def multiplicities(self) -> Dict[int, int]:
        return dict(self._counts)

    @cached_property
    def _dual(self) -> "Partition":
        return Partition(tuple(sum(1 for p in self.parts if p >= k)
                               for k in range(1, self.parts[0] + 1)))

    def dual(self) -> "Partition":
        return self._dual

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


def _parity_rule(algebra: str) -> Callable[[int, int], bool]:
    """allowed(part, multiplicity) of the algebra's parity rule: a part
    whose strings the form does not pair with themselves comes in pairs."""
    keep = SELF_PAIRED_PARITY[algebra]
    return lambda part, mult: keep is None or part % 2 == keep or mult % 2 == 0


def partition_fits_family(algebra: str, p: Partition) -> bool:
    """Whether p meets the parity rule of the algebra: gl, so or sp."""
    allowed = _parity_rule(algebra)
    return all(map(allowed, p._counts, p._counts.values()))


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
    allowed = _parity_rule(t.algebra)
    return [Partition(parts) for parts, _ in
            _walk(t.matrix_size, lambda state, k, m: state if allowed(k, m) else None, ())]


@dataclass(frozen=True)
class OrbitLabel:
    """A complex-orbit label: partition plus I/II tag for very even D pairs."""

    partition: Partition
    tag: str = ""

    def __post_init__(self) -> None:
        if self.tag not in ("", "I", "II"):
            raise DomainError(f"orbit tag must be '', 'I' or 'II', got {self.tag!r}")

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
    Very even D partitions get the class-I diagram; class II swaps the
    last two labels.
    """
    check_partition(t, p)
    fam = t.family
    weights: List[int] = []
    for part in p.parts:
        weights.extend(range(part - 1, -part, -2))
    weights.sort(reverse=True)
    rank = t.rank
    if fam is LieFamily.A:
        labels = [weights[k] - weights[k + 1] for k in range(rank)]
    else:
        h = weights[:rank]
        labels = [h[k] - h[k + 1] for k in range(rank - 1)]
        if fam is LieFamily.B:
            labels.append(h[-1])
        elif fam is LieFamily.C:
            labels.append(2 * h[-1])
        else:
            labels[-1] = h[-2] - h[-1]
            labels.append(h[-2] + h[-1])
    bad = [x for x in labels if x not in (0, 1, 2)]
    if bad:
        raise AssertionError(f"{t.name} {p}: labels {labels} leave {{0,1,2}}")
    return WeightedDynkinDiagram(lie_type=t, labels=tuple(labels))


def plus_boxes(part: int, p_i: int, q_i: int) -> int:
    """Plus-box count of p_i rows starting + and q_i rows starting -."""
    return (part + 1) // 2 * p_i + part // 2 * q_i


@dataclass(frozen=True)
class SignedPartitionData:
    """A real nilpotent orbit label: partition plus leading-sign counts.

    signs holds (part, (p_i, q_i)) for exactly the parts whose rows carry
    an independent sign choice in the given family; forced splits (even
    rows of so(p,q), odd rows of sp(2n,R)) are materialized too so that
    downstream centralizer code never rederives them.  Families without
    sign decorations (sl, su*) have empty signs.
    """

    family: str
    params: Tuple[int, ...]
    partition: Partition
    signs: SignTable = ()

    def __post_init__(self) -> None:
        spec = FAMILIES.get(self.family)
        if spec is None:
            raise DomainError(f"unknown real-form family {self.family!r}")
        counts = self.partition._counts
        wanted = [part for part in counts
                  if spec.forced_split or part % 2 in spec.signed_parities]
        listed = [part for part, _ in self.signs]
        if listed != wanted:
            raise DomainError(f"the signs of {self} list the parts {listed}, "
                              f"not each of {wanted} once, descending")
        for part, (a, b) in self.signs:
            if a < 0 or b < 0:
                raise DomainError(f"negative sign count on part {part}")
            r = counts[part] // 2 if spec.quaternionic else counts[part]
            if a + b != r:
                raise DomainError(f"part {part}: signs {(a, b)} do not sum to r_i = {r}")

    def row_count(self, part: int) -> int:
        """r_i: rows of length part, in the family's own counting."""
        r = self.partition.multiplicity(part)
        return r // 2 if FAMILIES[self.family].quaternionic else r

    def sign_split(self, part: int) -> Optional[Tuple[int, int]]:
        for entry, pq in self.signs:
            if entry == part:
                return pq
        return None

    def __str__(self) -> str:
        if not self.signs:
            return str(self.partition)
        sgn = ",".join(f"{part}:({a},{b})" for part, (a, b) in self.signs)
        return f"{self.partition}{{{sgn}}}"


def _split_range(total: int) -> List[Tuple[int, int]]:
    return [(a, total - a) for a in range(total, -1, -1)]


def _one_sign(total: int) -> List[Tuple[int, int]]:
    return [(total, 0), (0, total)]


def _signed_data(spec: FamilySpec, family: str, params: Tuple[int, ...], p: Partition,
                 splits: Callable[[int], List[Tuple[int, int]]]) -> Iterator[SignedPartitionData]:
    """The sign data of p whose signed parts take a split from splits(r_i)
    and whose plus boxes meet the signature rule: plus-heavy splits first,
    larger parts varying slowest.  p must meet the form's parity rules."""
    mult = p.multiplicities()
    rows = {i: r // 2 if spec.quaternionic else r for i, r in mult.items()}
    parts = sorted(mult, reverse=True)
    signed = [i for i in parts if i % 2 in spec.signed_parities]
    unsigned = [i for i in parts if i % 2 not in spec.signed_parities]
    if spec.forced_split:
        forced = tuple((i, (rows[i] // 2, rows[i] // 2)) for i in unsigned)
        base = 0
    else:
        # where the signature counts, sign-free rows are even: i/2 plus boxes each
        forced, base = (), sum(i // 2 * rows[i] for i in unsigned)
    for choice in product(*[[(i, split) for split in splits(rows[i])] for i in signed]):
        signs = tuple(sorted(forced + choice, reverse=True)) if forced else choice
        plus = base + sum(plus_boxes(i, a, b) for i, (a, b) in signs)
        if not spec.signature_rule or plus == params[0]:
            yield SignedPartitionData(family, params, p, signs)


def signed_data(family: str, params: Tuple[int, ...],
                p: Partition) -> Iterator[SignedPartitionData]:
    """All leading-sign assignments realizing the orbit inside the form,
    each built when it is read; none when the partition does not meet the
    form (wrong signature, or odd multiplicities for a quaternionic
    family).  Plus-heavy splits first, larger parts varying slowest."""
    spec = family_spec(family, params)
    size = spec.size(params)
    if p.n != size:
        raise DomainError(f"{spec.name(params)} needs a partition of {size}, got {p.n}")
    if spec.quaternionic and any(r % 2 for r in p.multiplicities().values()):
        return iter(())
    if not partition_fits_family(spec.algebra, p):
        return iter(())
    return _signed_data(spec, family, params, p, _split_range)


def enumerate_signed_data(family: str, params: Tuple[int, ...],
                          p: Partition) -> List[SignedPartitionData]:
    """signed_data as a list: [] when the partition does not meet the form."""
    return list(signed_data(family, params, p))


def compact_candidates(family: str, params: Tuple[int, ...]) -> Iterator[Partition]:
    """The partitions of the form whose centralizer can be compact,
    descending, with no sign data built.  The walk cuts every branch that
    one_sign_data would leave without a datum.  It keeps the parity rule,
    even multiplicities in the quaternionic families, at most compact_rows
    rows on each unsigned part, as many unsigned parts as
    FamilySpec.compact_unsigned allows, and, under the signature rule, the
    (plus, minus) box counts that one sign per signed part reaches within
    (p, q); a leaf holds p + q boxes, so the one count left there is
    (p, q).  This is a necessary condition only;
    realforms.centralizer_realform decides compactness.
    """
    spec = family_spec(family, params)
    parity = _parity_rule(spec.algebra)
    bound = params if spec.signature_rule else None

    def step(state: Tuple[int, Set[Tuple[int, int]]], k: int,
             m: int) -> Optional[Tuple[int, Set[Tuple[int, int]]]]:
        unsigned, reach = state
        if not parity(k, m) or (spec.quaternionic and m % 2):
            return None
        rows = m // 2 if spec.quaternionic else m
        if k % 2 in spec.signed_parities:
            up, down = (k + 1) // 2 * rows, k // 2 * rows
            moves = ((up, down), (down, up))
        elif rows <= spec.compact_rows and spec.compact_unsigned(unsigned + 1):
            unsigned += 1
            moves = ((k // 2 * rows,) * 2,)  # even k under the signature rule
        else:
            return None
        if bound:
            p, q = bound
            reach = {(a + da, b + db) for a, b in reach for da, db in moves
                     if a + da <= p and b + db <= q}
            if not reach:
                return None
        return unsigned, reach

    return (Partition(parts) for parts, _ in _walk(spec.size(params), step, (0, {(0, 0)})))


def one_sign_data(family: str, params: Tuple[int, ...],
                  p: Partition) -> List[SignedPartitionData]:
    """The sign data of a partition that compact_candidates yields in
    which every signed part has one sign, (r,0) before (0,r)."""
    return list(_signed_data(family_spec(family, params), family, params, p, _one_sign))
