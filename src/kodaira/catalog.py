"""The catalog of Kodaira curves: builders, recognizer, subclasses.

Every possible fiber of a smooth elliptic surface is covered: the cycles
I(N) and their multiples mI(m,N), the cuspidal/tacnodal/triple-point types
II, III, IV, and the star-shaped non-reduced types IStar(N), IIStar,
IIIStar, IVStar whose dual graphs are the affine diagrams D~(N+4), E~8,
E~7, E~6. `build` makes explicit configurations through the checked
constructors, records and configuration alike, all fresh on every call,
from `_shape`'s table of multiplicities and point incidences. `_shape_rows`
reads the multiplicities and the sparse intersection matrix off the same
table without a record; `show` prints those, so no command builds. `_recognize`
runs the fiber gates for every caller: the fiber test, then `_fiber_type`,
which reads the type off the sorted multiplicities, for a fiber of
(-2)-curves a multiple of the null root of its affine diagram; no
component order or label counts. A configuration that it names is
isomorphic to `build` of the type, so a profile is read off the type
alone.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .curves import (
    Component,
    CurveConfiguration,
    IntrinsicType,
    LocalType,
    SingularPoint,
    _adjunction_failure,
    fiber_obstruction,
)
from .document import DocumentError, _parse_int


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
        try:  # the regex leaves only the digit limit for `_parse_int` to enforce
            numbers = [_parse_int(group, "a type spec parameter", None) for group in match.groups()]
        except DocumentError as exc:
            raise TypeSpecError(str(exc)) from None
        # well-formed but out-of-range parameters raise plain ValueError
        return KodairaType(family, n=numbers[-1], m=numbers[0] if family == "mI" else None)
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

_E_STAR_BY_ROOT = {tuple(sorted(star)): family for family, (star, _) in _STAR_DATA.items()}


def _one_curve(kind: KodairaType) -> bool:
    """Whether the type is one curve: II, I(0), I(1), mI(m,0) or mI(m,1)."""
    return kind.family == "II" or kind.family in ("I", "mI") and (kind.n or 0) < 2


@functools.lru_cache(maxsize=16)
def _shape(kind: KodairaType) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], LocalType]:
    """The multiplicities of the (-2)-curves c1, c2, ... of a type with two
    or more curves, the incidences of its points, which list component
    numbers from 1, and the points' local type.

    The catalog's one cache: a pure function of a frozen type whose tuples
    no caller can change, bounded to the types read last."""
    family, n = kind.family, kind.n
    if family == "III":
        return (1, 1), ((1, 2),), LocalType.TACNODE
    if family == "IV":
        return (1, 1, 1), ((1, 2, 3),), LocalType.ORDINARY_TRIPLE
    if family in _STAR_DATA:
        return (*_STAR_DATA[family], LocalType.TRANSVERSE)
    assert n is not None
    if family == "IStar":
        far = n + 5
        incidences = ((1, 5), (2, 5), (3, far), (4, far), *zip(range(5, far), range(6, far + 1)))
        return (1,) * 4 + (2,) * (n + 1), incidences, LocalType.TRANSVERSE
    cycle = ((1, 2), (1, 2)) if n == 2 else (*zip(range(1, n), range(2, n + 1)), (n, 1))
    return (kind.m or 1,) * n, cycle, LocalType.TRANSVERSE


def _shape_rows(kind: KodairaType) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """The multiplicities and the intersection matrix of `build(kind)`, row i
    as {column: entry} with the other entries 0, read off `_shape` without
    making a record.

    One curve has C^2 = 0, since M * m = 0. Otherwise each curve is a
    (-2)-curve, and each point adds its local contribution to every pair of
    its incident curves: the two points of I(2), III's tacnode and IV's
    triple point included.
    """
    if _one_curve(kind):
        return (kind.m or 1,), [{0: 0}]
    mults, incidences, local = _shape(kind)
    rows = [{i: -2} for i in range(len(mults))]
    k = local.pair_contribution
    # a point on two curves is their pair; IV's triple point pairs each two of its curves
    pairs = incidences if local.arity == 2 else [p for i in incidences for p in combinations(i, 2)]
    for a, b in pairs:
        a, b = a - 1, b - 1
        row = rows[a]
        row[b] = row.get(b, 0) + k
        row = rows[b]
        row[a] = row.get(a, 0) + k
    return mults, rows


def build(kind: KodairaType) -> CurveConfiguration:
    """The standard configuration of a catalog type, made fresh on every call,
    records included, and checked like any other.

    A type of two or more curves has curve ci of multiplicity m, a smooth
    rational (-2)-curve, and the points of `_shape`.
    """
    if _one_curve(kind):
        n = kind.n
        # rational with a cusp (II), smooth elliptic (N = 0) or rational with a node
        intrinsic = (IntrinsicType.CUSP,) if n is None else (IntrinsicType.NODE,) * n
        return CurveConfiguration((Component("c1", kind.m or 1, int(n == 0), 0, intrinsic),))
    mults, incidences, local = _shape(kind)
    components = [Component(f"c{i}", m, 0, -2, ()) for i, m in enumerate(mults, 1)]
    # component numbers count from 1; the points share the components' name strings
    names = ["", *[c.name for c in components]]
    points = [
        SingularPoint(f"p{k}", local, [names[i] for i in incidence])
        for k, incidence in enumerate(incidences, 1)
    ]
    return CurveConfiguration(components, points)


def classify(config: CurveConfiguration) -> KodairaType | None:
    """Recognize a configuration as a catalog type, or return None.

    Only the isomorphism class of the decorated configuration matters.
    """
    return _recognize(config)[0]


def _recognize(config: CurveConfiguration) -> tuple[KodairaType | None, str | None]:
    """The catalog type or None, and the fiber test's obstruction: one M * m
    product, and `_fiber_type` only past it."""
    obstruction = fiber_obstruction(config)
    return (_fiber_type(config) if obstruction is None else None), obstruction


def _fiber_type(config: CurveConfiguration) -> KodairaType | None:
    """The catalog type of a configuration that passes the fiber test, or
    None; only `_recognize` calls it.

    Every fiber component satisfies adjunction, C^2 = 2 p_a(C) - 2. With one
    component, M * m = 0 makes C^2 = 0, so p_a = 1: the curve is smooth of
    genus one, or rational with a node or a cusp. With more, connectedness and
    M * m = 0 make each m_i C_i^2 = -sum_(j != i) m_j C_i.C_j negative, so
    adjunction leaves only smooth rational (-2)-curves, and the type is read
    off the sorted multiplicities and the local type of any one point.
    Zariski's lemma (Barth-Hulek-Peters-Van de Ven, Compact Complex
    Surfaces, Lemma III.8.2) and Kac (Infinite-Dimensional Lie Algebras,
    Theorem 4.3 and Table Aff 1) make -M a symmetric affine Cartan matrix
    and m a multiple k * delta of its null root. The sorted null roots are
    pairwise distinct:

        A~N       1, ..., 1             I(N), mI(k,N); III, IV if k = 1
        D~(N+4)   1, 1, 1, 1, 2, ...    IStar(N), with N + 1 twos
        E~6,7,8   sorted _STAR_DATA     IVStar, IIIStar, IIStar

    A tacnode (an off-diagonal 2) or triple point (a triangle) exists only
    in A~1 resp. A~2, as its only point. No row is a star scaled by k >= 2:
    only D~'s null root has four 1s, so a sorted m that starts 1, 1, 1, 1, 2
    is that root.
    """
    if _adjunction_failure(config) is not None:
        return None
    if config.n_components == 1:
        c = config.components[0]
        if c.intrinsic == (IntrinsicType.CUSP,):
            return KodairaType("II") if c.multiplicity == 1 else None
        n = 1 - c.geometric_genus
        return KodairaType("I", n) if c.multiplicity == 1 else KodairaType("mI", n, c.multiplicity)
    mults = sorted(config.multiplicities())
    n, mult = len(mults), mults[0]
    if mult == mults[-1]:
        local = config.points[0].local_type
        if local is LocalType.TRANSVERSE:
            return KodairaType("I", n) if mult == 1 else KodairaType("mI", n, mult)
        if mult == 1:
            return KodairaType("III" if local is LocalType.TACNODE else "IV")
        return None
    if mults[:5] == [1, 1, 1, 1, 2]:
        return KodairaType("IStar", n - 5)
    family = _E_STAR_BY_ROOT.get(tuple(mults))
    return None if family is None else KodairaType(family)
