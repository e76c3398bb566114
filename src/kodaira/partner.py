"""Decision procedure for Fourier-Mukai partnership of two fibers.

A derived equivalence forces the two curves to share every invariant in
the profile; any mismatch therefore certifies that the curves are not
partners, with the differing invariant as witness. When every computed
invariant agrees and both curves are reduced catalog members, the types
coincide and the curves are isomorphic (a reduced fiber has no partner
but itself). For non-reduced or multiple fibers no converse is known, so
agreement only yields "possibly equivalent".

`_verdict` reads one ordered table of checks off two profiles: `compare`
profiles two configurations, and the CLI's `compare` reads the profiles
off the two types. For `matrix`, `_verdict_rows` groups types into classes
by their row of check values: two types of different classes are
NotEquivalent, so the verdict kinds follow from the classes without
building a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .catalog import KodairaType
from .curves import CurveConfiguration
from .invariants import InvariantProfile, _type_profile, invariant_profile


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
# `_agreeing` reads it only once every row here agrees. Nor is the subclass:
# L1 is "reduced", and L2 and L3 differ in K^-1 rank or Picard identity.
_CHECKS: tuple[tuple[str, Callable[[InvariantProfile], object]], ...] = (
    ("G0 rank", lambda p: p.g0_rank),
    ("K^-1 rank", lambda p: p.k_minus_one_rank),
    ("Picard identity component", lambda p: p.picard.identity_component_label()),
    ("Picard discrete rank", lambda p: p.picard.discrete_rank),
    ("isolated singularities", lambda p: "yes" if p.reduced else "no"),
    ("singular point count", lambda p: p.singular_point_count),
)


def _row(profile: InvariantProfile) -> tuple:
    return tuple(get(profile) for _, get in _CHECKS)


def _agreeing(px: InvariantProfile, py: InvariantProfile, identical: bool) -> PartnerVerdict:
    """Verdict for two fibers on which every check agrees."""
    if px.reduced:
        # subclass L1: matching profiles separate the reduced types, so the types agree
        assert px.kind == py.kind, (px.kind, py.kind)
        note = _SMOOTH_ELLIPTIC_NOTE if px.smooth else None  # I(0) alone is smooth
        return PartnerVerdict(VerdictKind.ISOMORPHIC, note=note)
    note = "the two configurations are identical" if identical else _NO_CONVERSE_NOTE
    return PartnerVerdict(VerdictKind.POSSIBLY_EQUIVALENT, note=note)


def compare(x: CurveConfiguration, y: CurveConfiguration) -> PartnerVerdict:
    """Compare every invariant, in a fixed order, and issue a verdict."""
    return _verdict(invariant_profile(x), invariant_profile(y), x == y)


def _verdict(px: InvariantProfile, py: InvariantProfile, identical: bool) -> PartnerVerdict:
    """The verdict on two profiles; `identical` says the two curves are one."""
    witnesses = tuple(
        Witness(name, str(a), str(b))
        for (name, _), a, b in zip(_CHECKS, _row(px), _row(py))
        if a != b and a is not None and b is not None
    )
    if witnesses:
        return PartnerVerdict(VerdictKind.NOT_EQUIVALENT, witnesses)
    return _agreeing(px, py, identical)


def _verdict_rows(types: Sequence[KodairaType]) -> list[dict[int, VerdictKind]]:
    """Row i of the verdict kinds of types[i] against each type, as
    {column: kind}; the cells left out are NotEquivalent.

    A class is the types of one row of check values, read off each type's
    profile with no configuration built. Types of two classes differ in a
    check both sides define (no singular point count means differing
    "isolated singularities"), so their verdict is NotEquivalent.
    Types of one class agree on every check. Each meets `_agreeing` once,
    against the class's first profile, the only one kept, so the check that
    agreeing reduced types are one type runs for every type. The rows of
    one class are one shared dict.
    """
    classes: dict[tuple, tuple[InvariantProfile, dict[int, VerdictKind]]] = {}
    rows = []
    for j, t in enumerate(types):
        profile = _type_profile(t)
        first, row = classes.setdefault(_row(profile), (profile, {}))
        # the note tells identical configurations apart; the table prints no note
        row[j] = _agreeing(first, profile, False).kind
        rows.append(row)
    return rows
