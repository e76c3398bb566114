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

import functools
from dataclasses import dataclass, field
from enum import Enum

from .catalog import KodairaType, Subclass, classify, subclass_of
from .curves import CurveConfiguration, fiber_obstruction


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


@functools.cache
def invariant_profile(config: CurveConfiguration) -> InvariantProfile:
    """Bundle every invariant of a fiber-like configuration, and its type.

    `classify` runs the fiber test, so its obstruction is asked for only
    when no type is recognized; the recognized type is kept as `kind`, so
    no reader classifies again. Past the test, M * m = 0, so the fiber
    D = sum m_i C_i has D^2 = m * (M * m) = 0.

    - chi(O_X): the surface is a relatively minimal elliptic fibration, so
      the canonical class pairs to zero with every component and
      Riemann-Roch gives chi = -D^2/2 = 0 when every component is smooth.
      An irreducible curve with intrinsic singularities has
      chi = 1 - (g + sum of deltas) instead; g_a = 1 - chi.
    - G_0 of coherent sheaves is free of rank N + 1, whatever the
      multiplicities (devissage), when every component is rational or
      the curve is irreducible of genus <= 1.
    - Pic(X): the elliptic rank is the total geometric genus, the torus
      rank is the loop rank, which is also the rank of K^-1 (K^i = 0 for
      i <= -2), and the unipotent dimension is what is left of
      h^1(O_X) = 1 - chi (a connected fiber has h^0 = 1). The component
      group is free of rank N.

    Intrinsic singularities on a reducible configuration, a genus-one
    component in a reducible configuration and a negative unipotent
    dimension are outside the supported shapes and raise ValueError, in
    that order.
    """
    kind = classify(config)
    if kind is None:
        obstruction = fiber_obstruction(config)
        if obstruction is not None:
            raise ValueError(f"not fiber-like: {obstruction}")
    n = config.n_components
    intrinsic = [s for c in config.components for s in c.intrinsic]
    if intrinsic and n >= 2:
        raise ValueError(
            "intrinsic singularities on a reducible configuration are not supported"
        )
    elliptic = sum(c.geometric_genus for c in config.components)
    if elliptic and n >= 2:
        raise ValueError(
            "unsupported genus combination: genus-one component in a reducible configuration"
        )
    chi = (1 - elliptic - sum(s.delta for s in intrinsic)) if intrinsic else 0
    torus = loop_rank(config)
    unipotent = 1 - chi - torus - elliptic
    if unipotent < 0:
        raise ValueError(
            "negative unipotent dimension; the configuration is not fiber-like"
        )
    # a non-reduced curve is singular along the whole curve: no isolated points to count
    count = len(config.points) + len(intrinsic) if config.is_reduced() else None
    return InvariantProfile(
        n_components=n,
        arithmetic_genus=1 - chi,
        g0_rank=n + 1,
        k_minus_one_rank=torus,
        picard=PicardDescriptor(unipotent, torus, elliptic, n),
        reduced=count is not None,
        smooth=count == 0,
        singular_point_count=count,
        subclass=subclass_of(kind) if kind is not None else None,
        kind=kind,
    )
