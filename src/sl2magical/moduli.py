"""Slodowy parameter counts and expected dimensions.

The parameter space attached to a triple over a genus-g surface collects
the deformations of a bundle for the compact part of the centralizer and
one section space per highest-weight line that the Cartan involution
places in m.  A line of ad_h weight w twists by K^{w/2+1}, whose real
section count is 2(g-1)(w+1); the bundle part contributes 2(g-1) per
dimension of c cap h.  The expected dimension of a component is
2(g-1) dim g^R, and the shortfall (the rigidity gap) vanishes exactly
for even magical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from .errors import DomainError, MissingDataError
from .matrixoracle import oracle_sigma_split
from .orbits import Partition, SignedPartitionData, check_partition
from .realforms import RealFormDescriptor
from .realforms import describe, milnor_wood as milnor_wood_bound

Params = Tuple[int, ...]


@dataclass(frozen=True)
class SlodowyReport:
    genus: int
    slodowy_param_dim: int
    expected_dim: int
    gap: int
    milnor_wood: Optional[int]  # only for Hermitian forms
    a: Tuple[Tuple[int, int], ...]  # (weight, dim A_w), zero rows dropped
    dim_c_cap_h: int


def slodowy_parameter_dim(genus: int, dim_c_cap_h: int, a: Mapping[int, int]) -> int:
    """Real parameter count 2(g-1)[dim(c cap h) + sum_w a_w (w+1)]."""
    if genus < 2:
        raise DomainError(f"parameter counts need genus >= 2, got {genus}")
    if dim_c_cap_h < 0 or any(v < 0 for v in a.values()):
        raise DomainError("negative dimension in parameter count")
    if any(w < 1 for w in a):
        raise DomainError("multiplicity table a is indexed by positive weights")
    return 2 * (genus - 1) * (dim_c_cap_h + sum(v * (w + 1) for w, v in a.items()))


def expected_dim(genus: int, d: RealFormDescriptor) -> int:
    """Dimension 2(g-1) dim g^R that a full component would have."""
    if genus < 2:
        raise DomainError(f"expected dimensions need genus >= 2, got {genus}")
    return 2 * (genus - 1) * d.dim_g_real


def _classical_split(form: RealFormDescriptor, p: Partition,
                     signed: SignedPartitionData) -> Tuple[int, Dict[int, int]]:
    check_partition(form.complexification(), p)  # the rank cap, then the orbit
    report = oracle_sigma_split(signed)
    a = {w: m for w, m in report.m_parts().items() if w > 0 and m > 0}
    return report.split_at(0)[0], a


def _exceptional_split(form: RealFormDescriptor, orbit) -> Tuple[int, Dict[int, int]]:
    # deferred import: the dataset module is optional for classical work
    from .dataset import find_record

    record = find_record(form.family, orbit)
    if record is None:
        raise MissingDataError(f"no curated record for {form.family} orbit {orbit}")
    data = record.sl2_data()
    if data.max_weight > 2:
        raise MissingDataError(
            f"{form.family} {record.wdd}: records only localize the involution "
            "up to weight 2"
        )
    missing = [c for c in ("dim_V_cap_h", "dim_c_cap_h", "dim_Veven_cap_m")
               if getattr(record, c) is None]
    if missing:
        raise MissingDataError(f"{form.family} record lacks columns {missing}")
    a2 = record.dim_Veven_cap_m
    a1 = (data.dim_v_rho - record.dim_V_cap_h) - a2 - (data.dim_c - record.dim_c_cap_h)
    if a1 < 0:
        raise MissingDataError(f"{form.family} record columns are inconsistent: a_1 = {a1}")
    a = {w: v for w, v in ((1, a1), (2, a2)) if v > 0}
    return record.dim_c_cap_h, a


def rigidity_report(genus: int, family: str, params: Params,
                    orbit: Union[Partition, Tuple[int, ...]],
                    signed: Optional[SignedPartitionData] = None) -> SlodowyReport:
    """Parameter count vs. expected dimension for one real orbit, a
    partition of a classical form or the diagram labels of an exceptional one.

    Classical families split every highest-weight space through the
    matrix-model involution; exceptional forms read the split off the
    curated record for the orbit's weighted diagram.  The gap is zero
    exactly on even magical data.
    """
    form = describe(family, tuple(params))
    if form.is_exceptional:
        dim_c_cap_h, a = _exceptional_split(form, orbit)
    else:
        if signed is None:
            raise DomainError("classical rigidity reports need a signed datum")
        if signed.family != family or tuple(signed.params) != tuple(params):
            raise DomainError(f"signed datum {signed} does not belong to {family}{params}")
        if signed.partition != orbit:
            raise DomainError(f"signed datum {signed} does not refine {orbit}")
        dim_c_cap_h, a = _classical_split(form, orbit, signed)

    param = slodowy_parameter_dim(genus, dim_c_cap_h, a)
    expect = expected_dim(genus, form)
    mw = milnor_wood_bound(form, genus) if form.hermitian else None
    return SlodowyReport(
        genus=genus, slodowy_param_dim=param, expected_dim=expect,
        gap=expect - param, milnor_wood=mw,
        a=tuple(sorted(a.items())), dim_c_cap_h=dim_c_cap_h,
    )

