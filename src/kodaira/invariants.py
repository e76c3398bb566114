"""Derived-equivalence invariants of a fiber-like curve configuration.

`invariant_profile` is the one route to them: the Euler characteristic and
arithmetic genus, the free rank of the Grothendieck group of coherent
sheaves, the negative K-groups, the group-scheme shape of the Picard
scheme, the isolated-singularity data and the idempotent-completeness
status of the singularity category, all in exact integer arithmetic, with
the recognized catalog type beside them. The CLI and the partner checks
read that record.

The fiber test M * m = 0 is the only product with the intersection matrix
that a profile makes: every invariant past it is read off the component
and point records, because the test itself settles the divisor square.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .catalog import KodairaType, Subclass, _fiber_type, subclass_of
from .curves import CurveConfiguration, _adjunction_failure, fiber_obstruction


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


def invariant_profile(config: CurveConfiguration) -> InvariantProfile:
    """Bundle every invariant of a fiber-like configuration, and its type.

    The fiber test runs once, and the recognizer past it reads the type,
    which is kept as `kind`, so no reader classifies again. A configuration
    that fails the test, or adjunction (C^2 = 2 p_a(C) - 2 on every
    component, see `catalog._fiber_type`), raises ValueError naming the
    failure. Past both, with D = sum m_i C_i:

    - chi(O_X) = -D^2/2 = 0 by Riemann-Roch, since K.D = 0 and
      D^2 = m * (M * m) = 0; so g_a = 1 - chi = 1.
    - The G_0 rank is N + 1, whatever the multiplicities (devissage). It
      counts the free part of G_0 of coherent sheaves modulo Pic^0: with
      rational components G_0 is free on the N components and a point,
      and a genus-one component E has G_0(E) = Z^2 + Pic^0(E).
    - Pic(X): the elliptic rank is the total geometric genus, the torus
      rank is the loop rank, which is also the rank of K^-1 (K^i = 0 for
      i <= -2), and the unipotent dimension is what is left of
      h^1(O_X) = 1. It is never negative: the loop rank is at most 1 (one
      node, or the cycle of A~N). The component group is free of rank N.
    """
    obstruction = fiber_obstruction(config)
    kind = _fiber_type(config) if obstruction is None else None
    if kind is None:
        obstruction = obstruction or _adjunction_failure(config)
        if obstruction is not None:
            raise ValueError(f"not fiber-like: {obstruction}")
    n = config.n_components
    elliptic = sum(c.geometric_genus for c in config.components)
    torus = loop_rank(config)
    # a non-reduced curve is singular along the whole curve: no isolated points to count
    singular = len(config.points) + sum(len(c.intrinsic) for c in config.components)
    count = singular if config.is_reduced() else None
    return InvariantProfile(
        n_components=n,
        arithmetic_genus=1,
        g0_rank=n + 1,
        k_minus_one_rank=torus,
        picard=PicardDescriptor(1 - torus - elliptic, torus, elliptic, n),
        reduced=count is not None,
        smooth=count == 0,
        singular_point_count=count,
        subclass=subclass_of(kind) if kind is not None else None,
        kind=kind,
    )
