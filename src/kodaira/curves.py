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

from dataclasses import dataclass, fields
from enum import Enum
from itertools import combinations
from typing import Any, Callable, Iterable, Iterator, Sequence


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
    """How two or three distinct components meet at one point.

    `arity` counts the incident components; `pair_contribution` is the
    local intersection number that the point adds to each incident pair.
    """

    TRANSVERSE = "transverse"
    TACNODE = "tacnode"
    ORDINARY_TRIPLE = "ordinary_triple"

    arity: int
    pair_contribution: int

    def __init__(self, value: str) -> None:
        self.arity = 3 if value == "ordinary_triple" else 2
        self.pair_contribution = 2 if value == "tacnode" else 1


class IntrinsicType(str, Enum):
    """Singularity on a single component (unibranch cusp or two-branch node)."""

    NODE = "node"
    CUSP = "cusp"

    branches: int

    def __init__(self, value: str) -> None:
        self.branches = 2 if value == "node" else 1


def _slot_setters(cls: type) -> tuple[Callable[[Any, Any], None], ...]:
    """The setter of each field's slot, in field order. It writes the slot
    directly, past the frozen class's __setattr__, and skips the attribute
    lookup that object.__setattr__ makes by name."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Component:
    """One irreducible component, counted with multiplicity."""

    name: str
    multiplicity: int = 1
    geometric_genus: int = 0
    self_intersection: int = -2
    intrinsic: tuple[IntrinsicType, ...] = ()

    def __init__(
        self,
        name: str,
        multiplicity: int = 1,
        geometric_genus: int = 0,
        self_intersection: int = -2,
        intrinsic: Iterable[IntrinsicType] = (),
    ) -> None:
        intrinsic = tuple(intrinsic)
        if multiplicity < 1:
            raise ConfigurationError(
                f"component {name!r}: multiplicity must be >= 1, got {multiplicity}"
            )
        if geometric_genus not in (0, 1):
            raise ConfigurationError(
                f"component {name!r}: geometric genus must be 0 or 1, got {geometric_genus}"
            )
        if geometric_genus == 1 and intrinsic:
            raise ConfigurationError(
                f"component {name!r}: a genus-one component cannot carry intrinsic singularities"
            )
        set_name, set_multiplicity, set_genus, set_square, set_intrinsic = _COMPONENT_SLOTS
        set_name(self, name)
        set_multiplicity(self, multiplicity)
        set_genus(self, geometric_genus)
        set_square(self, self_intersection)
        set_intrinsic(self, intrinsic)


_COMPONENT_SLOTS = _slot_setters(Component)


@dataclass(frozen=True, slots=True, init=False)
class SingularPoint:
    """A point where two or three distinct components meet."""

    name: str
    local_type: LocalType
    incident: tuple[str, ...]

    def __init__(self, name: str, local_type: LocalType, incident: Iterable[str]) -> None:
        incident = tuple(incident)
        arity = local_type.arity
        if len(incident) != arity:
            raise ConfigurationError(
                f"point {name!r}: {local_type.value} needs "
                f"{arity} incident components, got {len(incident)}"
            )
        if incident[0] == incident[1] or (arity == 3 and incident[2] in incident[:2]):
            raise ConfigurationError(
                f"point {name!r}: incident components must be pairwise distinct"
            )
        set_name, set_local_type, set_incident = _POINT_SLOTS
        set_name(self, name)
        set_local_type(self, local_type)
        set_incident(self, incident)


_POINT_SLOTS = _slot_setters(SingularPoint)


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
        check runs. Only builders whose output a test re-validates use it.
        Its records are checked when made, but checking the names,
        references and connectivity of every configuration that `build`
        returns made an in-process pass of the matrix-grid benchmark
        25-35% slower (0.15 s against 0.19 s)."""
        config = object.__new__(cls)
        object.__setattr__(config, "components", components)
        object.__setattr__(config, "points", points)
        return config

    @property
    def n_components(self) -> int:
        return len(self.components)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.components)


def _pairings(config: CurveConfiguration) -> Iterator[tuple[int, int, int]]:
    """(i, j, k): a point adds k to the pairing of distinct components i, j.

    Each point adds its local contribution to every unordered pair of its
    incident components (1 for a transverse crossing, 2 for a tacnode, 1
    per pair at a triple point). Intrinsic singularities live on a single
    component and contribute nothing.
    """
    index = {c.name: i for i, c in enumerate(config.components)}
    for p in config.points:
        contribution = p.local_type.pair_contribution
        if len(p.incident) == 2:  # the one pair, without an iterator of pairs
            a, b = p.incident
            yield index[a], index[b], contribution
        else:
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
