"""Combinatorial model of curves lying on a smooth surface.

A configuration records the irreducible components of a (possibly
reducible or non-reduced) connected projective curve: each component
carries a multiplicity, a geometric genus, a self-intersection number and
any singularities intrinsic to it (a node or a cusp on a single branch of
the curve), while separate point records describe how distinct components
meet (transversally, at a tacnode, or at an ordinary triple point).

The intersection matrix and the numerical fiber test are derived from the
component and point records in exact integer arithmetic. The fiber test is
the single product M * m with the multiplicity vector: by Zariski's lemma
(Barth-Hulek-Peters-Van de Ven, Compact Complex Surfaces, Lemma III.8.2),
a connected configuration with multiplicities >= 1, non-negative pairings
between distinct components and M * m = 0 has a negative semidefinite
intersection matrix with radical Q * m, so neither needs checking by
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, Sequence


class ConfigurationError(ValueError):
    """Raised when curve data violates a structural invariant."""


def _class_count(size: int, links: Iterable[tuple[int, int]]) -> int:
    """Classes of range(size) joined by the links: path-halving union-find."""
    parent = list(range(size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in links:
        parent[find(a)] = find(b)
    return len({find(i) for i in range(size)})


class LocalType(str, Enum):
    """How two or three distinct components meet at one point."""

    TRANSVERSE = "transverse"
    TACNODE = "tacnode"
    ORDINARY_TRIPLE = "ordinary_triple"

    @property
    def arity(self) -> int:
        return 3 if self is LocalType.ORDINARY_TRIPLE else 2

    def pair_contribution(self) -> int:
        """Local intersection number contributed to each incident pair."""
        return 2 if self is LocalType.TACNODE else 1


class IntrinsicType(str, Enum):
    """Singularity on a single component (unibranch cusp or two-branch node)."""

    NODE = "node"
    CUSP = "cusp"

    @property
    def branches(self) -> int:
        return 2 if self is IntrinsicType.NODE else 1


@dataclass(frozen=True)
class Component:
    """One irreducible component, counted with multiplicity."""

    name: str
    multiplicity: int = 1
    geometric_genus: int = 0
    self_intersection: int = -2
    intrinsic: tuple[IntrinsicType, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intrinsic", tuple(self.intrinsic))
        if self.multiplicity < 1:
            raise ConfigurationError(
                f"component {self.name!r}: multiplicity must be >= 1, got {self.multiplicity}"
            )
        if self.geometric_genus not in (0, 1):
            raise ConfigurationError(
                f"component {self.name!r}: geometric genus must be 0 or 1, got {self.geometric_genus}"
            )
        if self.geometric_genus == 1 and self.intrinsic:
            raise ConfigurationError(
                f"component {self.name!r}: a genus-one component cannot carry intrinsic singularities"
            )


@dataclass(frozen=True)
class SingularPoint:
    """A point where two or three distinct components meet."""

    name: str
    local_type: LocalType
    incident: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "incident", tuple(self.incident))
        if len(self.incident) != self.local_type.arity:
            raise ConfigurationError(
                f"point {self.name!r}: {self.local_type.value} needs "
                f"{self.local_type.arity} incident components, got {len(self.incident)}"
            )
        if len(set(self.incident)) != len(self.incident):
            raise ConfigurationError(
                f"point {self.name!r}: incident components must be pairwise distinct"
            )


@dataclass(frozen=True)
class CurveConfiguration:
    """A connected configuration of components and their meeting points."""

    components: tuple[Component, ...]
    points: tuple[SingularPoint, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "points", tuple(self.points))
        if not self.components:
            raise ConfigurationError("configuration needs at least one component")
        index = {c.name: i for i, c in enumerate(self.components)}
        if len(index) != len(self.components):
            raise ConfigurationError("component names must be unique")
        if len({p.name for p in self.points}) != len(self.points):
            raise ConfigurationError("point names must be unique")
        for p in self.points:
            for ref in p.incident:
                if ref not in index:
                    raise ConfigurationError(
                        f"point {p.name!r} references unknown component {ref!r}"
                    )
        links = ((index[p.incident[0]], index[ref]) for p in self.points for ref in p.incident[1:])
        if _class_count(len(index), links) != 1:
            raise ConfigurationError("configuration is not connected")

    @classmethod
    def _trusted(
        cls, components: tuple[Component, ...], points: tuple[SingularPoint, ...] = ()
    ) -> CurveConfiguration:
        """A configuration of records that are valid by construction: no
        check runs. Only builders whose output a test re-validates use it."""
        config = object.__new__(cls)
        object.__setattr__(config, "components", components)
        object.__setattr__(config, "points", points)
        return config

    @property
    def n_components(self) -> int:
        return len(self.components)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.components)

    def is_reduced(self) -> bool:
        return all(c.multiplicity == 1 for c in self.components)


def _pairings(config: CurveConfiguration) -> Iterator[tuple[int, int, int]]:
    """(i, j, k): a point adds k to the pairing of distinct components i, j.

    Each point adds its local contribution to every unordered pair of its
    incident components (1 for a transverse crossing, 2 for a tacnode, 1
    per pair at a triple point). Intrinsic singularities live on a single
    component and contribute nothing.
    """
    index = {c.name: i for i, c in enumerate(config.components)}
    for p in config.points:
        contribution = p.local_type.pair_contribution()
        for a, b in combinations(p.incident, 2):
            yield index[a], index[b], contribution


def _product(config: CurveConfiguration, vector: Sequence[int]) -> list[int]:
    """M * vector for the intersection matrix M, without forming M."""
    product = [c.self_intersection * v for c, v in zip(config.components, vector)]
    for i, j, k in _pairings(config):
        product[i] += k * vector[j]
        product[j] += k * vector[i]
    return product


def _sparse_rows(config: CurveConfiguration) -> list[dict[int, int]]:
    """Row i of the intersection matrix as {column: entry}; other entries are 0.

    All rows together hold O(components + points) entries.
    """
    rows = [{i: c.self_intersection} for i, c in enumerate(config.components)]
    for i, j, k in _pairings(config):
        rows[i][j] = rows[i].get(j, 0) + k
        rows[j][i] = rows[j].get(i, 0) + k
    return rows


def fiber_obstruction(config: CurveConfiguration) -> str | None:
    """Why the configuration fails the numerical fiber test, or None.

    A fiber of an elliptic fibration is connected and pairs to zero with
    each component: M * m = 0 for the multiplicity vector m. That product
    is the whole test. By Zariski's lemma (Barth-Hulek-Peters-Van de Ven,
    Compact Complex Surfaces, Lemma III.8.2), a configuration with
    connected support, multiplicities >= 1 and non-negative pairings
    between distinct components, all enforced at construction, and with
    M * m = 0 has a negative semidefinite intersection matrix whose
    radical is the line Q * m. It runs in O(components + points).
    """
    if any(_product(config, config.multiplicities())):
        return "M*m != 0"
    return None


def _adjunction_failure(config: CurveConfiguration) -> str | None:
    """The first component whose square no fiber component can have, or None.

    On a relatively minimal elliptic surface the canonical class pairs to
    zero with every fiber component, so adjunction gives C^2 = 2 p_a(C) - 2.
    """
    for c in config.components:
        # a node and a cusp each drop the geometric genus below p_a by one
        needed = 2 * (c.geometric_genus + len(c.intrinsic)) - 2
        if c.self_intersection != needed:
            square = c.self_intersection
            return f"component {c.name!r} has self-intersection {square}, adjunction needs {needed}"
    return None
