"""Derived-equivalence invariants of a curve configuration.

Everything a derived equivalence preserves for these curves is computed
here: the Euler characteristic and arithmetic genus, the free rank of the
Grothendieck group of coherent sheaves, the negative K-groups, the
group-scheme shape of the Picard scheme, the isolated-singularity data and
the idempotent-completeness status of the singularity category. All of it
is exact integer arithmetic on the configuration.

`invariant_profile` bundles these into one record, which also carries the
recognized catalog type; the CLI and the partner checks read that record.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

from .catalog import KodairaType, Subclass, classify, subclass_of
from .curves import CurveConfiguration, divisor_square, fiber_obstruction


@dataclass(frozen=True)
class FreeAbelianGroup:
    """A finitely generated free abelian group, recorded by its rank."""

    rank: int

    def __str__(self) -> str:
        if self.rank == 0:
            return "0"
        if self.rank == 1:
            return "Z"
        return f"Z^{self.rank}"


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
        parts = []
        if self.unipotent_dim:
            parts.append("G_a" if self.unipotent_dim == 1 else f"G_a^{self.unipotent_dim}")
        if self.torus_rank:
            parts.append("G_m" if self.torus_rank == 1 else f"G_m^{self.torus_rank}")
        if self.elliptic_rank:
            parts.append(
                "elliptic" if self.elliptic_rank == 1 else f"elliptic^{self.elliptic_rank}"
            )
        return " x ".join(parts) if parts else "trivial"

    def describe(self) -> str:
        return f"extension of Z^{self.discrete_rank} by {self.identity_component_label()}"


class DsgStatus(str, Enum):
    TRIVIAL = "trivial_singularity_category"
    IDEMPOTENT_COMPLETE = "idempotent_complete"
    UNKNOWN = "unknown"

    @classmethod
    def of(cls, smooth: bool, k_minus_one_rank: int) -> DsgStatus:
        """Smooth curves have a trivial singularity category; vanishing of
        K^-1 forces the Verdier quotient to be idempotent complete; otherwise
        the question stays open."""
        if smooth:
            return cls.TRIVIAL
        return cls.IDEMPOTENT_COMPLETE if k_minus_one_rank == 0 else cls.UNKNOWN


@dataclass(frozen=True)
class InvariantProfile:
    """The full tuple of invariants preserved by a derived equivalence,
    with the recognized catalog type beside them."""

    n_components: int
    arithmetic_genus: int
    g0_rank: int
    k_minus_one_rank: int
    picard: PicardDescriptor
    reduced: bool
    smooth: bool
    singular_point_count: int | None  # present exactly when reduced
    subclass: Subclass | None  # present exactly when the curve classifies
    # uncompared: the type is not a derived invariant, and IStar(4) and IIStar share a profile
    kind: KodairaType | None = field(compare=False)

    @property
    def dsg_status(self) -> DsgStatus:
        """Status of the singularity category D_sg = D^b/Perf; see `DsgStatus.of`."""
        return DsgStatus.of(self.smooth, self.k_minus_one_rank)


def euler_characteristic(config: CurveConfiguration) -> int:
    """chi(O_X), exactly.

    With the canonical class pairing to zero against every component,
    Riemann-Roch gives chi = -D^2/2 whenever all components are smooth as
    abstract curves. An irreducible component with intrinsic singularities
    uses the delta-invariant formula chi = 1 - (g + sum of deltas) instead;
    both routes agree on every fiber. Intrinsic singularities on a
    reducible configuration are outside the supported catalog shapes.
    """
    has_intrinsic = any(c.intrinsic for c in config.components)
    if has_intrinsic and config.n_components >= 2:
        raise ValueError(
            "intrinsic singularities on a reducible configuration are not supported"
        )
    if has_intrinsic:
        c = config.components[0]
        return 1 - (c.geometric_genus + sum(s.delta for s in c.intrinsic))
    square = divisor_square(config, config.multiplicities())
    if square % 2:
        raise ValueError(
            "odd divisor square; the configuration violates the canonical-class convention"
        )
    return -(square // 2)


def arithmetic_genus(config: CurveConfiguration) -> int:
    """g_a = 1 - chi(O_X); equals 1 for every fiber."""
    return 1 - euler_characteristic(config)


def grothendieck_group(config: CurveConfiguration) -> FreeAbelianGroup:
    """G_0 of coherent sheaves: free of rank N+1 (rank 2 when irreducible).

    Needs every component rational, or an irreducible curve of genus <= 1;
    the rank is insensitive to multiplicities (devissage).
    """
    if all(c.geometric_genus == 0 for c in config.components):
        return FreeAbelianGroup(config.n_components + 1)
    if config.n_components == 1:
        return FreeAbelianGroup(2)
    raise ValueError(
        "unsupported genus combination: genus-one component in a reducible configuration"
    )


def loop_rank(config: CurveConfiguration) -> int:
    """Cycle rank of the branch-incidence graph of the reduced curve.

    The branch-incidence graph (Roberts' bipartite graph) has a vertex for
    every singular point and for every normalized component, with one edge
    per branch through the point; its cycle rank is the free rank of the
    first negative K-group. The graph is connected because the
    configuration is, so its cycle rank is E - V + 1; a point of arity k
    adds k edges and one vertex, an intrinsic singularity with b branches
    adds b edges and one vertex. Multiplicities play no part, so
    non-reduced input needs no reduction.
    """
    return (
        1
        - config.n_components
        + sum(p.local_type.arity - 1 for p in config.points)
        + sum(s.branches - 1 for c in config.components for s in c.intrinsic)
    )


def negative_k(config: CurveConfiguration, i: int) -> FreeAbelianGroup:
    """K^i for i <= -1: free of rank loop_rank at i = -1, zero below."""
    if i >= 0:
        raise ValueError(
            "negative_k handles i <= -1 only; K^0 is Z + Pic, see picard_descriptor"
        )
    if i == -1:
        return FreeAbelianGroup(loop_rank(config))
    return FreeAbelianGroup(0)


def _picard(config: CurveConfiguration, chi: int) -> PicardDescriptor:
    elliptic = sum(c.geometric_genus for c in config.components)
    torus = loop_rank(config)
    unipotent = 1 - chi - torus - elliptic
    if unipotent < 0:
        raise ValueError(
            "negative unipotent dimension; the configuration is not fiber-like"
        )
    return PicardDescriptor(unipotent, torus, elliptic, config.n_components)


def picard_descriptor(config: CurveConfiguration) -> PicardDescriptor:
    """Shape of Pic(X) from the configuration.

    The elliptic rank is the total geometric genus, the torus rank is the
    loop rank of the reduction, and the unipotent dimension is whatever is
    left of h^1(O_X) = 1 - chi (a connected fiber has h^0 = 1). The
    component group is free of rank N.
    """
    return _picard(config, euler_characteristic(config))


def _singular_point_count(config: CurveConfiguration) -> int | None:
    """Meeting points plus intrinsic singularities of a reduced curve; 0 when smooth.

    A non-reduced curve is singular along the whole curve, so it has no
    isolated singular points to count: None.
    """
    if not config.is_reduced():
        return None
    return len(config.points) + sum(len(c.intrinsic) for c in config.components)


def dsg_status(config: CurveConfiguration) -> DsgStatus:
    """Status of the singularity category D_sg = D^b/Perf; see `DsgStatus.of`.

    Defined on any configuration, fiber or not, and kept off the profile
    cache so that the configuration is not kept alive.
    """
    return DsgStatus.of(_singular_point_count(config) == 0, loop_rank(config))


@functools.cache
def invariant_profile(config: CurveConfiguration) -> InvariantProfile:
    """Bundle every invariant of a fiber-like configuration, and its type.

    `classify` runs the fiber test, so its obstruction is asked for only
    when no type is recognized; chi and the loop rank are computed once.
    The recognized type is kept as `kind`, so no reader classifies again.
    """
    kind = classify(config)
    if kind is None:
        obstruction = fiber_obstruction(config)
        if obstruction is not None:
            raise ValueError(f"not fiber-like: {obstruction}")
    chi = euler_characteristic(config)
    g0_rank = grothendieck_group(config).rank
    picard = _picard(config, chi)
    count = _singular_point_count(config)
    return InvariantProfile(
        n_components=config.n_components,
        arithmetic_genus=1 - chi,
        g0_rank=g0_rank,
        k_minus_one_rank=picard.torus_rank,
        picard=picard,
        reduced=count is not None,
        smooth=count == 0,
        singular_point_count=count,
        subclass=subclass_of(kind) if kind is not None else None,
        kind=kind,
    )
