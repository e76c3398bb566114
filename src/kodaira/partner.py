"""Decision procedure for Fourier-Mukai partnership of two fibers.

A derived equivalence forces the two curves to share every invariant in
the profile; any mismatch therefore certifies that the curves are not
partners, with the differing invariant as witness. When every computed
invariant agrees and both curves are reduced catalog members, the types
coincide and the curves are isomorphic (a reduced fiber has no partner
but itself). For non-reduced or multiple fibers no converse is known, so
agreement only yields "possibly equivalent".

`compare` and `partner_matrix` share one ordered table of checks and one
witness builder. The matrix computes one profile per type and numbers its
distinct rows of check values, the classes of `_classes`. Each check fills
one table over pairs of its own distinct values, so a witness is built once
per check and pair of values, and the cell of two distinct rows joins their
entries in check order. The verdict kinds alone follow from the classes, so
the CLI's `matrix` reads them there and builds no witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .catalog import KodairaType, Subclass, build
from .curves import CurveConfiguration
from .invariants import InvariantProfile, invariant_profile


class VerdictKind(str, Enum):
    NOT_EQUIVALENT = "NotEquivalent"
    ISOMORPHIC = "Isomorphic"
    POSSIBLY_EQUIVALENT = "PossiblyEquivalent"


@dataclass(frozen=True)
class Witness:
    """One invariant whose two computed values differ."""

    invariant: str
    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.left} vs {self.right}"


@dataclass(frozen=True)
class PartnerVerdict:
    kind: VerdictKind
    witnesses: tuple[Witness, ...] = ()
    note: str | None = None


_SMOOTH_ELLIPTIC_NOTE = (
    "isomorphism holds at the catalog level; smooth elliptic curves are "
    "identified through their Jacobians and no j-invariant is modelled"
)
_NO_CONVERSE_NOTE = "all computed necessary conditions agree; no converse is known"


# The checks in witness order. A check whose getter returns None on either
# side is skipped: the singular point count exists only for reduced curves.
# The profile's recognized type is no check, since it is not an invariant:
# `_agreeing` reads it only once every row here agrees.
_CHECKS: tuple[tuple[str, Callable[[InvariantProfile], object]], ...] = (
    ("arithmetic genus", lambda p: p.arithmetic_genus),
    ("G0 rank", lambda p: p.g0_rank),
    ("K^-1 rank", lambda p: p.k_minus_one_rank),
    ("Picard identity component", lambda p: p.picard.identity_component_label()),
    ("Picard discrete rank", lambda p: p.picard.discrete_rank),
    ("isolated singularities", lambda p: "yes" if p.reduced else "no"),
    ("singular point count", lambda p: p.singular_point_count),
    ("subclass", lambda p: p.subclass.value if p.subclass else "unclassified"),
)


def _row(profile: InvariantProfile) -> tuple:
    return tuple(get(profile) for _, get in _CHECKS)


def _not_equivalent(rows: Sequence[tuple]) -> list[list[PartnerVerdict]]:
    """NotEquivalent for every ordered pair of rows, with every witness the pair gives.

    Each check numbers its distinct values and fills one table over pairs of
    values: a cell is empty when the two values agree or either is None, and
    otherwise holds the one witness. The verdict for two rows joins their
    cells in check order, so equal rows give no witness.
    """
    by_check = []
    for (name, _), values in zip(_CHECKS, zip(*rows)):
        numbers = {v: i for i, v in enumerate(dict.fromkeys(values))}
        table = [
            [
                () if a == b or a is None or b is None else (Witness(name, str(a), str(b)),)
                for b in numbers
            ]
            for a in numbers
        ]
        index = [numbers[v] for v in values]
        # per value, its cells against every row in row order
        against_rows = [[cells[j] for j in index] for cells in table]
        by_check.append([against_rows[i] for i in index])
    return [
        [PartnerVerdict(VerdictKind.NOT_EQUIVALENT, sum(cells, ())) for cells in zip(*row)]
        for row in zip(*by_check)
    ]


def _agreeing(px: InvariantProfile, py: InvariantProfile, identical: bool) -> PartnerVerdict:
    """Verdict for two fibers on which every check agrees, subclass included."""
    if px.subclass is Subclass.L1:
        # matching profiles separate the reduced types, so the types agree
        assert px.kind == py.kind, (px.kind, py.kind)
        note = _SMOOTH_ELLIPTIC_NOTE if px.kind == KodairaType("I", 0) else None
        return PartnerVerdict(VerdictKind.ISOMORPHIC, note=note)
    note = "the two configurations are identical" if identical else _NO_CONVERSE_NOTE
    return PartnerVerdict(VerdictKind.POSSIBLY_EQUIVALENT, note=note)


def compare(x: CurveConfiguration, y: CurveConfiguration) -> PartnerVerdict:
    """Compare every invariant, in a fixed order, and issue a verdict."""
    px, py = invariant_profile(x), invariant_profile(y)
    verdict = _not_equivalent([_row(px), _row(py)])[0][1]
    return verdict if verdict.witnesses else _agreeing(px, py, x == y)


def _classes(
    types: Sequence[KodairaType],
) -> tuple[list[CurveConfiguration], list[InvariantProfile], list[tuple], list[int]]:
    """Each type's configuration and profile, the distinct rows of check
    values in order of first appearance, and each type's class: the number
    of its row.

    Types of two different classes differ in a check both sides define (no
    singular point count means differing "isolated singularities"), so
    their verdict is NotEquivalent. Types of one class agree on every
    check, the subclass included, so `_agreeing` gives them one kind.
    """
    configs = [build(t) for t in types]
    profiles = [invariant_profile(c) for c in configs]
    numbers: dict[tuple, int] = {}
    classes = [numbers.setdefault(_row(p), len(numbers)) for p in profiles]
    return configs, profiles, list(numbers), classes


def partner_matrix(types: Sequence[KodairaType]) -> list[list[PartnerVerdict]]:
    """Verdict for every ordered pair of catalog types.

    A cell across two classes is read from `differing` by the two class
    numbers; a cell inside a class is `_agreeing`'s verdict.
    """
    configs, profiles, rows, classes = _classes(types)
    differing = _not_equivalent(rows)
    return [
        [
            _agreeing(px, py, x == y) if cx == cy else differing[cx][cy]
            for y, py, cy in zip(configs, profiles, classes)
        ]
        for x, px, cx in zip(configs, profiles, classes)
    ]
