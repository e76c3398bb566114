"""The catalog of Kodaira curves: builders, recognizer, subclasses.

Every possible fiber of a smooth elliptic surface is covered: the cycles
I(N) and their multiples mI(m,N), the cuspidal/tacnodal/triple-point types
II, III, IV, and the star-shaped non-reduced types IStar(N), IIStar,
IIIStar, IVStar whose dual graphs are the affine diagrams D~(N+4), E~8,
E~7, E~6. Builders produce explicit configurations; `classify` maps an
arbitrary configuration back to its type, independently of component order
and of all labels.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum

from .curves import (
    Component,
    CurveConfiguration,
    IntrinsicType,
    LocalType,
    SingularPoint,
    gcd_multiplicity,
    is_fiber_like,
)


class TypeSpecError(ValueError):
    """A type spec string that does not parse."""


class Subclass(str, Enum):
    L1 = "L1"  # reduced fibers
    L2 = "L2"  # non-reduced, non-multiple fibers
    L3 = "L3"  # multiple fibers


_FAMILIES = ("I", "II", "III", "IV", "IStar", "IIStar", "IIIStar", "IVStar", "mI")
_PARAMETERLESS = ("II", "III", "IV", "IIStar", "IIIStar", "IVStar")


@dataclass(frozen=True)
class KodairaType:
    """A fiber type, e.g. I(4), II, IStar(0) or mI(2,3)."""

    family: str
    n: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown type family {self.family!r}")
        if self.family in _PARAMETERLESS:
            if self.n is not None or self.m is not None:
                raise ValueError(f"type {self.family} takes no parameters")
        elif self.family in ("I", "IStar"):
            if self.n is None or self.n < 0 or self.m is not None:
                raise ValueError(f"type {self.family} needs a single parameter N >= 0")
        else:  # mI
            if self.m is None or self.m < 2:
                raise ValueError("type mI needs a multiplicity m >= 2")
            if self.n is None or self.n < 0:
                raise ValueError("type mI needs a parameter N >= 0")

    def __str__(self) -> str:
        if self.family in _PARAMETERLESS:
            return self.family
        if self.family == "mI":
            return f"mI({self.m},{self.n})"
        return f"{self.family}({self.n})"


_SUBSCRIPT_DIGITS = str.maketrans("₀₁₂₃₄₅₆₇₈₉", "0123456789")

_SPEC_PATTERNS: tuple[tuple[re.Pattern[str], str], ...] = (
    (re.compile(r"^I\((\d+)\)$"), "I"),
    (re.compile(r"^IStar\((\d+)\)$"), "IStar"),
    (re.compile(r"^mI\((\d+),(\d+)\)$"), "mI"),
    (re.compile(r"^I(\d+)\*$"), "IStar"),
    (re.compile(r"^I(\d+)$"), "I"),
    (re.compile(r"^(\d+)I(\d+)$"), "mI"),
)


def parse_type(spec: str) -> KodairaType:
    """Parse a type spec such as "IStar(3)", "mI(2,4)", "I0*" or "II*".

    Unicode subscripts and the trailing star are accepted as input aliases;
    the canonical rendering (via str) is always ASCII.
    """
    text = spec.strip().translate(_SUBSCRIPT_DIGITS)
    if text in _PARAMETERLESS:
        return KodairaType(text)
    if text in ("II*", "III*", "IV*"):
        return KodairaType(text[:-1] + "Star")
    for pattern, family in _SPEC_PATTERNS:
        match = pattern.match(text)
        if match is None:
            continue
        # well-formed but out-of-range parameters raise plain ValueError
        if family == "mI":
            return KodairaType("mI", n=int(match.group(2)), m=int(match.group(1)))
        return KodairaType(family, n=int(match.group(1)))
    raise TypeSpecError(f"cannot parse type spec {spec!r}")


def subclass_of(kind: KodairaType) -> Subclass:
    if kind.family in ("I", "II", "III", "IV"):
        return Subclass.L1
    if kind.family == "mI":
        return Subclass.L3
    return Subclass.L2


def catalog_types(max_n: int, max_m: int) -> list[KodairaType]:
    """All types with cycle/star parameter <= max_n and multiplicity <= max_m."""
    types = [KodairaType("I", n) for n in range(max_n + 1)]
    types += [KodairaType("II"), KodairaType("III"), KodairaType("IV")]
    types += [KodairaType("IStar", n) for n in range(max_n + 1)]
    types += [KodairaType("IIStar"), KodairaType("IIIStar"), KodairaType("IVStar")]
    types += [
        KodairaType("mI", n, m) for m in range(2, max_m + 1) for n in range(max_n + 1)
    ]
    return types


# Star-shaped types: multiplicity of each component and the incidences of
# the N+5 resp. 9/8/7 components, indexed from 1.
_STAR_DATA: dict[str, tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = {
    "IIStar": (
        (1, 2, 3, 4, 5, 6, 4, 3, 2),
        ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 8), (6, 7), (7, 9)),
    ),
    "IIIStar": (
        (1, 2, 3, 4, 3, 2, 2, 1),
        ((1, 2), (2, 3), (3, 4), (4, 6), (4, 5), (5, 7), (7, 8)),
    ),
    "IVStar": (
        (1, 2, 3, 2, 2, 1, 1),
        ((1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 7)),
    ),
}

# Arms of multiplicities read outward from the trivalent component.
_STAR_ARMS: dict[str, tuple[tuple[int, ...], ...]] = {
    "IIStar": ((5, 4, 3, 2, 1), (4, 2), (3,)),
    "IIIStar": ((3, 2, 1), (3, 2, 1), (2,)),
    "IVStar": ((2, 1), (2, 1), (2, 1)),
}

_STAR_CENTER_MULT = {"IIStar": 6, "IIIStar": 4, "IVStar": 3}


def _cycle(n: int, multiplicity: int) -> CurveConfiguration:
    components = tuple(
        Component(f"c{i + 1}", multiplicity, 0, -2) for i in range(n)
    )
    if n == 2:
        points = (
            SingularPoint("p1", LocalType.TRANSVERSE, ("c1", "c2")),
            SingularPoint("p2", LocalType.TRANSVERSE, ("c1", "c2")),
        )
    else:
        points = tuple(
            SingularPoint(
                f"p{i + 1}", LocalType.TRANSVERSE, (f"c{i + 1}", f"c{(i + 1) % n + 1}")
            )
            for i in range(n)
        )
    return CurveConfiguration(components, points)


def _irreducible(multiplicity: int, genus: int, intrinsic: tuple[IntrinsicType, ...]) -> CurveConfiguration:
    return CurveConfiguration(
        (Component("c1", multiplicity, genus, 0, intrinsic),)
    )


def _from_incidences(
    mults: tuple[int, ...], incidences: tuple[tuple[int, int], ...]
) -> CurveConfiguration:
    components = tuple(Component(f"c{i + 1}", m, 0, -2) for i, m in enumerate(mults))
    points = tuple(
        SingularPoint(f"p{k + 1}", LocalType.TRANSVERSE, (f"c{a}", f"c{b}"))
        for k, (a, b) in enumerate(incidences)
    )
    return CurveConfiguration(components, points)


@functools.cache
def build(kind: KodairaType) -> CurveConfiguration:
    """The standard configuration of a catalog type."""
    family, n, m = kind.family, kind.n, kind.m
    if family in ("I", "mI"):
        mult = 1 if family == "I" else m
        assert mult is not None and n is not None
        if n == 0:
            return _irreducible(mult, 1, ())
        if n == 1:
            return _irreducible(mult, 0, (IntrinsicType.NODE,))
        return _cycle(n, mult)
    if family == "II":
        return _irreducible(1, 0, (IntrinsicType.CUSP,))
    if family == "III":
        return CurveConfiguration(
            (Component("c1"), Component("c2")),
            (SingularPoint("p1", LocalType.TACNODE, ("c1", "c2")),),
        )
    if family == "IV":
        return CurveConfiguration(
            (Component("c1"), Component("c2"), Component("c3")),
            (SingularPoint("p1", LocalType.ORDINARY_TRIPLE, ("c1", "c2", "c3")),),
        )
    if family == "IStar":
        assert n is not None
        mults = (1, 1, 1, 1) + (2,) * (n + 1)
        far = n + 5
        incidences = [(1, 5), (2, 5), (3, far), (4, far)]
        incidences += [(j, j + 1) for j in range(5, far)]
        return _from_incidences(mults, tuple(incidences))
    return _from_incidences(*_STAR_DATA[family])


def _adjacency(config: CurveConfiguration) -> dict[str, list[str]]:
    """Dual-graph neighbours of each component, one entry per point.

    The recognizer calls this only once every point is a transverse pair
    and no component carries an intrinsic singularity, so the points are
    exactly the edges of the dual graph.
    """
    adjacency: dict[str, list[str]] = {c.name: [] for c in config.components}
    for p in config.points:
        a, b = p.incident
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


def _classify_irreducible(config: CurveConfiguration) -> KodairaType | None:
    c = config.components[0]
    mult = c.multiplicity
    if c.geometric_genus == 1:
        return KodairaType("I", 0) if mult == 1 else KodairaType("mI", 0, mult)
    if c.intrinsic == (IntrinsicType.NODE,):
        return KodairaType("I", 1) if mult == 1 else KodairaType("mI", 1, mult)
    if c.intrinsic == (IntrinsicType.CUSP,) and mult == 1:
        return KodairaType("II")
    return None


def _is_single_cycle(config: CurveConfiguration) -> bool:
    if len(config.points) != config.n_components:
        return False
    return all(len(neighbors) == 2 for neighbors in _adjacency(config).values())


def _classify_dstar(config: CurveConfiguration) -> KodairaType | None:
    mults = {c.name: c.multiplicity for c in config.components}
    ones = [name for name, m in mults.items() if m == 1]
    twos = [name for name, m in mults.items() if m == 2]
    if len(ones) != 4 or not twos or len(ones) + len(twos) != config.n_components:
        return None
    if len(config.points) != config.n_components - 1:
        return None  # not a tree
    adjacency = _adjacency(config)
    for leaf in ones:
        neighbors = adjacency[leaf]
        if len(neighbors) != 1 or mults[neighbors[0]] != 2:
            return None
    if len(twos) == 1:
        hub = twos[0]
        if sorted(adjacency[hub]) != sorted(ones):
            return None
        return KodairaType("IStar", 0)
    ends = 0
    for name in twos:
        inner = [v for v in adjacency[name] if mults[v] == 2]
        leaves = [v for v in adjacency[name] if mults[v] == 1]
        if len(inner) == 1 and len(leaves) == 2:
            ends += 1
        elif len(inner) == 2 and not leaves:
            pass
        else:
            return None
    if ends != 2:
        return None
    return KodairaType("IStar", len(twos) - 1)


def _classify_estar(config: CurveConfiguration) -> KodairaType | None:
    marks = sorted(config.multiplicities())
    candidate = next(
        (
            family
            for family, (m, _) in _STAR_DATA.items()
            if sorted(m) == marks
        ),
        None,
    )
    if candidate is None:
        return None
    if len(config.points) != config.n_components - 1:
        return None  # not a tree
    adjacency = _adjacency(config)
    mults = {c.name: c.multiplicity for c in config.components}
    centers = [v for v, neighbors in adjacency.items() if len(neighbors) == 3]
    if len(centers) != 1 or mults[centers[0]] != _STAR_CENTER_MULT[candidate]:
        return None
    center = centers[0]
    arms: list[tuple[int, ...]] = []
    for start in adjacency[center]:
        arm = [mults[start]]
        previous, current = center, start
        while True:
            nexts = [v for v in adjacency[current] if v != previous]
            if not nexts:
                break
            if len(nexts) > 1:
                return None  # a second branch vertex
            previous, current = current, nexts[0]
            arm.append(mults[current])
        arms.append(tuple(arm))
    if sorted(arms) != sorted(_STAR_ARMS[candidate]):
        return None
    return KodairaType(candidate)


def classify(config: CurveConfiguration) -> KodairaType | None:
    """Recognize a configuration as a catalog type, or return None.

    The result is independent of component order and of all names: only the
    isomorphism class of the decorated configuration matters.
    """
    if not is_fiber_like(config):
        return None
    if config.n_components == 1:
        return _classify_irreducible(config)

    components = config.components
    if any(c.geometric_genus != 0 or c.intrinsic for c in components):
        return None
    if any(c.self_intersection != -2 for c in components):
        return None
    point_types = {p.local_type for p in config.points}

    if point_types == {LocalType.TACNODE}:
        if (
            config.n_components == 2
            and len(config.points) == 1
            and config.multiplicities() == (1, 1)
        ):
            return KodairaType("III")
        return None
    if point_types == {LocalType.ORDINARY_TRIPLE}:
        if (
            config.n_components == 3
            and len(config.points) == 1
            and config.multiplicities() == (1, 1, 1)
        ):
            return KodairaType("IV")
        return None
    if point_types != {LocalType.TRANSVERSE}:
        return None

    mults = set(config.multiplicities())
    if len(mults) == 1:
        mult = mults.pop()
        if not _is_single_cycle(config):
            return None
        if mult == 1:
            return KodairaType("I", config.n_components)
        return KodairaType("mI", config.n_components, mult)
    if gcd_multiplicity(config) != 1:
        return None
    if mults == {1, 2}:
        return _classify_dstar(config)
    return _classify_estar(config)
