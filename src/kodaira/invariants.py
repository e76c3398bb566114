"""Derived-equivalence invariants of a Kodaira curve.

`invariant_profile` bundles them for a configuration: the Euler
characteristic and arithmetic genus, the free rank of the Grothendieck
group of coherent sheaves, the negative K-groups, the group-scheme shape
of the Picard scheme, the isolated-singularity data and the
idempotent-completeness status of the singularity category, all in exact
integer arithmetic, with the recognized catalog type beside them. The
partner checks read that record; the CLI's `show` and `compare` take it
from `_type_profile` of the parsed type, with no configuration recognized.

The fiber test M * m = 0 is the only product with the intersection matrix
that a profile makes. Past it, every invariant is read off the recognized
type: a configuration that the recognizer names is isomorphic to the
standard configuration of that type (Kodaira's list, which a test checks
exhaustively up to a stated size), so each invariant is a function of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .catalog import _FAMILIES, KodairaType, Subclass, _recognize
from .curves import CurveConfiguration, _adjunction_failure


@dataclass(frozen=True)
class PicardDescriptor:
    """Group-scheme shape of the Picard scheme.

    The identity component is a successive extension of `unipotent_dim`
    additive groups, a torus of rank `torus_rank` and `elliptic_rank`
    elliptic curves; the component group is free of rank `discrete_rank`.
    For a fiber the three identity ranks sum to 1, so the identity
    component is exactly one of G_a, G_m or an elliptic curve.
    """

    unipotent_dim: int
    torus_rank: int
    elliptic_rank: int
    discrete_rank: int

    def identity_component_label(self) -> str:
        return "G_m" if self.torus_rank else "elliptic" if self.elliptic_rank else "G_a"

    def describe(self) -> str:
        return f"extension of Z^{self.discrete_rank} by {self.identity_component_label()}"


class DsgStatus(str, Enum):
    TRIVIAL = "trivial_singularity_category"
    IDEMPOTENT_COMPLETE = "idempotent_complete"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class InvariantProfile:
    """The full tuple of invariants preserved by a derived equivalence,
    with the recognized catalog type beside them."""

    # 1 - chi(O_X), and chi = -(D^2 + K.D)/2 = 0 on every fiber D (Riemann-Roch)
    arithmetic_genus = 1
    n_components: int
    g0_rank: int
    k_minus_one_rank: int
    picard: PicardDescriptor
    singular_point_count: int | None  # None when non-reduced: singular everywhere
    # uncompared: the type is not a derived invariant, and IStar(4) and IIStar share a profile
    kind: KodairaType = field(compare=False)

    @property
    def reduced(self) -> bool:
        return self.singular_point_count is not None

    @property
    def smooth(self) -> bool:
        return self.singular_point_count == 0

    @property
    def dsg_status(self) -> DsgStatus:
        """Status of the singularity category D_sg = D^b/Perf.

        Smooth curves have a trivial singularity category; vanishing of
        K^-1 forces the Verdier quotient to be idempotent complete;
        otherwise the question stays open.
        """
        if self.smooth:
            return DsgStatus.TRIVIAL
        if self.k_minus_one_rank == 0:
            return DsgStatus.IDEMPOTENT_COMPLETE
        return DsgStatus.UNKNOWN


def invariant_profile(config: CurveConfiguration) -> InvariantProfile:
    """Bundle every invariant of a Kodaira curve, and its type.

    `catalog._recognize` reads the type once, kept as `kind`, so no reader
    classifies again, and the invariants are read off it. Only Kodaira
    curves have a profile: ValueError names the failed fiber test or
    adjunction (C^2 = 2 p_a(C) - 2 on every component), and past both says
    "not a Kodaira curve: no catalog match" for a curve such as IVStar
    doubled, whose h^0(O_{2A}), and so Pic, is not determined.
    """
    kind, obstruction = _recognize(config)
    if kind is None:
        obstruction = obstruction or _adjunction_failure(config)
        if obstruction is not None:
            raise ValueError(f"not fiber-like: {obstruction}")
        raise ValueError("not a Kodaira curve: no catalog match")
    return _type_profile(kind)


def _type_profile(kind: KodairaType) -> InvariantProfile:
    """The profile of every configuration of a catalog type, in closed forms
    read off the type's row in the catalog's table of families, never off its
    shape. On a fiber of N components:

    - The G_0 rank is N + 1, whatever the multiplicities (devissage): with
      rational components G_0 modulo Pic^0 is free on the N components and
      a point, and a genus-one component E has G_0(E) = Z^2 + Pic^0(E).
    - Pic(X): the elliptic rank is the total geometric genus. The torus
      rank, also the rank of K^-1 (K^i = 0 for i <= -2), is the cycle rank
      of Roberts' graph (a vertex per singular point and per normalized
      component, an edge per branch through a point): 1 on the node of
      I(1) and mI(m,1) and on the cycle of A~N, else 0. The unipotent
      dimension is what is left of h^1(O_X) = 1. The component group is
      free of rank N.
    - A reduced curve counts its points and intrinsic singularities.
    """
    row, n = _FAMILIES[kind.family], kind.n
    components = row.components(n)
    torus = int(row.cycle and n >= 1)
    elliptic = int(row.cycle and n == 0)
    count = None if row.subclass is not Subclass.L1 else 1 if n is None else n
    return InvariantProfile(
        n_components=components,
        g0_rank=components + 1,
        k_minus_one_rank=torus,
        picard=PicardDescriptor(1 - torus - elliptic, torus, elliptic, components),
        singular_point_count=count,
        kind=kind,
    )
