"""The catalog of Kodaira curves: builders, recognizer, subclasses.

Every possible fiber of a smooth elliptic surface is covered: the cycles I(N)
and their multiples mI(m,N), the cuspidal/tacnodal/triple-point types II, III,
IV, and the star-shaped non-reduced types IStar(N), IIStar, IIIStar, IVStar
whose dual graphs are the affine diagrams D~(N+4), E~8, E~7, E~6. `_FAMILIES`
is that list, one row per family, and the one place that describes a family:
its subclass, parameters, component count, cycle flag and `list` entries.
`build` makes explicit configurations through the checked constructors,
records and configuration alike, all fresh on every call, from `_shape`'s
table of multiplicities and point incidences. `_shape_rows` reads the
multiplicities and the sparse intersection matrix off the same table without a
record; `show` prints those, so no command builds. `_recognize` runs the fiber
gates for every caller: the fiber test, then `_fiber_type`, which reads the
type off the sorted multiplicities, for a fiber of (-2)-curves a multiple of
the null root of its affine diagram; no component order or label counts. A
configuration that it names is isomorphic to `build` of the type, so a profile
is read off the type alone.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable, NamedTuple

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
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"


_SUBCLASS_TITLES = dict(  # as `kodaira list` prints them
    zip(Subclass, ("reduced fibers", "non-reduced, non-multiple fibers", "multiple fibers"))
)

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


class _Row(NamedTuple):
    """A row of Kodaira's list (Barth-Hulek-Peters-Van de Ven, Compact Complex Surfaces, V.7)."""

    subclass: Subclass
    params: int  # 0, 1 (N) or 2 (m and N)
    components: Callable[[int | None], int]  # the component count, a closed form in N
    listing: tuple[tuple[str, str], ...]  # the (name, description) entries of `kodaira list`
    cycle: bool = False  # a cycle A~N of transverse points: I(N) or mI(m,N)


_FAMILIES: dict[str, _Row] = {  # one row per family, in `catalog_types` order
    "I": _Row(Subclass.L1, 1, lambda n: max(n, 1), (
        ("I(0)", "smooth elliptic curve"),
        ("I(1)", "rational curve with one node"),
        ("I(N)", "cycle of N rational curves, N >= 2; N components, multiplicities (1,...,1)"),
    ), cycle=True),
    "II": _Row(Subclass.L1, 0, lambda n: 1, (("II", "rational curve with one cusp"),)),
    "III": _Row(Subclass.L1, 0, lambda n: 2, (("III", "two rational curves meeting at a tacnode"),)),
    "IV": _Row(Subclass.L1, 0, lambda n: 3, (("IV", "three concurrent rational curves"),)),
    "IStar": _Row(Subclass.L2, 1, lambda n: n + 5, (
        ("IStar(N)", "N+5 components, multiplicities (1,1,1,1,2,...,2), N >= 0"),
    )),
    **{
        family: _Row(Subclass.L2, 0, lambda n, k=len(star): k, (
            (family, f"{len(star)} components, multiplicities ({','.join(map(str, star))})"),
        ))
        for family, (star, _) in _STAR_DATA.items()
    },
    "mI": _Row(Subclass.L3, 2, lambda n: max(n, 1), (
        ("mI(m,0)", "multiple smooth elliptic curve, m >= 2"),
        ("mI(m,1)", "multiple rational curve with one node, m >= 2"),
        ("mI(m,N)", "cycle of N rational curves with multiplicity m, m >= 2, N >= 2"),
    ), cycle=True),
}


@dataclass(frozen=True)
class KodairaType:
    """A fiber type, e.g. I(4), II, IStar(0) or mI(2,3). Its parameters are
    ints: N for I, IStar and mI, and the multiplicity m for mI."""

    family: str
    n: int | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        row = _FAMILIES.get(self.family)
        if row is None:
            raise ValueError(f"unknown type family {self.family!r}")
        for name, value in (("N", self.n), ("m", self.m)):
            if value is not None and type(value) is not int:  # a bool is no parameter either
                raise ValueError(f"type {self.family} parameter {name} must be an int: {value!r}")
        if row.params == 0 and (self.n is not None or self.m is not None):
            raise ValueError(f"type {self.family} takes no parameters")
        if row.params == 1 and (self.n is None or self.n < 0 or self.m is not None):
            raise ValueError(f"type {self.family} needs a single parameter N >= 0")
        if row.params == 2 and (self.m is None or self.m < 2):
            raise ValueError(f"type {self.family} needs a multiplicity m >= 2")
        if row.params == 2 and (self.n is None or self.n < 0):
            raise ValueError(f"type {self.family} needs a parameter N >= 0")

    def __str__(self) -> str:
        params = (self.m, self.n)[2 - _FAMILIES[self.family].params :]  # (m, N), (N,) or ()
        return f"{self.family}({','.join(map(str, params))})" if params else self.family


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
    name = text.replace("*", "Star")  # II* is IIStar, and I0* matches a pattern below
    if name in _FAMILIES and _FAMILIES[name].params == 0:
        return KodairaType(name)
    for pattern, family in _SPEC_PATTERNS:
        match = pattern.match(text)
        if match is None:
            continue
        try:  # the regex leaves only the digit limit for `_parse_int` to enforce
            numbers = [_parse_int(group, "a type spec parameter", None) for group in match.groups()]
        except DocumentError as exc:
            raise TypeSpecError(str(exc)) from None
        # well-formed but out-of-range parameters raise plain ValueError
        return KodairaType(family, n=numbers[-1], m=numbers[0] if len(numbers) == 2 else None)
    raise TypeSpecError(f"cannot parse type spec {spec!r}")


def subclass_of(kind: KodairaType) -> Subclass:
    return _FAMILIES[kind.family].subclass


def catalog_types(max_n: int, max_m: int) -> list[KodairaType]:
    """All types with cycle/star parameter <= max_n and multiplicity <= max_m."""
    return [
        KodairaType(family, n, m)
        for family, row in _FAMILIES.items()
        for m in (range(2, max_m + 1) if row.params == 2 else [None])
        for n in (range(max_n + 1) if row.params else [None])
    ]


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
    if _FAMILIES[kind.family].components(kind.n) == 1:
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
    if _FAMILIES[kind.family].components(kind.n) == 1:
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
