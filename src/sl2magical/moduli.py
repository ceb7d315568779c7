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

from typing import Mapping, NamedTuple, Optional, Tuple, Union

from .dataset import ExceptionalOrbitRecord
from .errors import DomainError
from .matrixoracle import oracle_sigma_split
from .orbits import SignedPartitionData
from .realforms import RealFormDescriptor
from .realforms import describe, milnor_wood as milnor_wood_bound


class SlodowyReport(NamedTuple):
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


def rigidity_report(genus: int,
                    orbit: Union[SignedPartitionData, ExceptionalOrbitRecord]) -> SlodowyReport:
    """Parameter count vs. expected dimension for one real orbit: the
    signed datum of a classical form or the curated record of an
    exceptional one.

    A classical datum, of any of the seven families, splits every
    highest-weight space by the split tables of its complex rows
    (matrixoracle.oracle_sigma_split), with no matrix built; an
    exceptional record reads its split off its columns.  The gap is zero
    exactly on even magical data (tests/test_moduli.py checks size <= 12).
    """
    if isinstance(orbit, SignedPartitionData):
        form = describe(orbit.family, orbit.params)  # the rank cap; the datum is an orbit
        splits = oracle_sigma_split(orbit).splits  # by weight: c = V_0 first, if nonzero
        dim_c_cap_h = splits[0][1][0] if splits and splits[0][0] == 0 else 0
        a = {w: m for w, (_, m) in splits if w > 0 and m > 0}
    else:
        form = describe(orbit.realform)
        dim_c_cap_h, a = orbit.slodowy_split()

    param = slodowy_parameter_dim(genus, dim_c_cap_h, a)
    expect = expected_dim(genus, form)
    mw = milnor_wood_bound(form, genus) if form.hermitian else None
    return SlodowyReport(
        genus=genus, slodowy_param_dim=param, expected_dim=expect,
        gap=expect - param, milnor_wood=mw,
        a=tuple(sorted(a.items())), dim_c_cap_h=dim_c_cap_h,
    )
