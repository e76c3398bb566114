"""The catalog of Kodaira curves: builders, recognizer, subclasses.

Every possible fiber of a smooth elliptic surface is covered: the cycles
I(N) and their multiples mI(m,N), the cuspidal/tacnodal/triple-point types
II, III, IV, and the star-shaped non-reduced types IStar(N), IIStar,
IIIStar, IVStar whose dual graphs are the affine diagrams D~(N+4), E~8,
E~7, E~6. Builders produce explicit configurations; `classify` maps an
arbitrary configuration back to its type by reading its sorted
multiplicities, which for a fiber of (-2)-curves are a multiple of the
null root of its affine diagram; no component order or label counts.
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
    fiber_obstruction,
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
    (re.compile(r"^I\(([0-9]+)\)$"), "I"),
    (re.compile(r"^IStar\(([0-9]+)\)$"), "IStar"),
    (re.compile(r"^mI\(([0-9]+),([0-9]+)\)$"), "mI"),
    (re.compile(r"^I([0-9]+)\*$"), "IStar"),
    (re.compile(r"^I([0-9]+)$"), "I"),
    (re.compile(r"^([0-9]+)I([0-9]+)$"), "mI"),
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


def classify(config: CurveConfiguration) -> KodairaType | None:
    """Recognize a configuration as a catalog type, or return None.

    Only the isomorphism class of the decorated configuration matters. Past
    the fiber test and the one-component case, the type is read off the
    sorted multiplicities and the local type of any one point. For smooth
    rational (-2)-curves with M * m = 0, Zariski's lemma (Barth-Hulek-Peters-
    Van de Ven, Compact Complex Surfaces, Lemma III.8.2) and Kac
    (Infinite-Dimensional Lie Algebras, Theorem 4.3 and Table Aff 1) make -M
    a symmetric affine Cartan matrix and m a multiple k * delta of its null
    root. The sorted null roots are pairwise distinct:

        A~N       1, ..., 1             I(N), mI(k,N); III, IV if k = 1
        D~(N+4)   1, 1, 1, 1, 2, ...    IStar(N), with N + 1 twos
        E~6,7,8   sorted _STAR_DATA     IVStar, IIIStar, IIStar

    A tacnode (an off-diagonal 2) or triple point (a triangle) exists only
    in A~1 resp. A~2, as its only point. No row is a star scaled by k >= 2.
    """
    if fiber_obstruction(config) is not None:
        return None
    if config.n_components == 1:
        return _classify_irreducible(config)
    if any(c.geometric_genus != 0 or c.intrinsic for c in config.components):
        return None
    if any(c.self_intersection != -2 for c in config.components):
        return None
    mults = sorted(config.multiplicities())
    n, mult = len(mults), mults[0]
    if mult == mults[-1]:
        local = config.points[0].local_type
        if local is LocalType.TRANSVERSE:
            return KodairaType("I", n) if mult == 1 else KodairaType("mI", n, mult)
        if mult == 1:
            return KodairaType("III" if local is LocalType.TACNODE else "IV")
        return None
    if mults[:5] == [1, 1, 1, 1, 2] and mults[-1] == 2:
        return KodairaType("IStar", n - 5)
    for family, (star, _) in _STAR_DATA.items():
        if sorted(star) == mults:
            return KodairaType(family)
    return None
