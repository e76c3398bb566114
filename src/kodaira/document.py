"""Plain-text format for curve configurations.

Hand-written documents with two sections::

    # comments run to end of line
    [components]
    # name  multiplicity  genus  self_intersection  [intrinsic=node,cusp,...]
    c1 1 0 -2
    c2 1 0 0 intrinsic=node
    [points]
    # name  local_type  incident components
    p1 transverse c1 c2

Local types are transverse, tacnode (two components each) and
ordinary_triple (three components). A line ends at a line feed, a
carriage return or the two together, and nowhere else. Parse errors carry
the line number.
"""

from __future__ import annotations

import re

from .curves import (
    Component,
    ConfigurationError,
    CurveConfiguration,
    IntrinsicType,
    LocalType,
    SingularPoint,
)


class DocumentError(ValueError):
    """A malformed configuration document; knows the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


_INTEGER = re.compile(r"-?[0-9]+")


def _parse_int(token: str, what: str, line: int) -> int:
    # int() would also take "+1", "0_0" and non-ASCII digits
    if not _INTEGER.fullmatch(token):
        raise DocumentError(f"{what} must be an integer, got {token!r}", line)
    return int(token)


def _parse_component(tokens: list[str], line: int) -> Component:
    if len(tokens) < 4:
        raise DocumentError(
            "component record needs: name multiplicity genus self_intersection", line
        )
    name = tokens[0]
    multiplicity = _parse_int(tokens[1], "multiplicity", line)
    genus = _parse_int(tokens[2], "genus", line)
    self_intersection = _parse_int(tokens[3], "self_intersection", line)
    intrinsic: list[IntrinsicType] = []
    for extra in tokens[4:]:
        if not extra.startswith("intrinsic="):
            raise DocumentError(f"unexpected token {extra!r} in component record", line)
        for item in extra[len("intrinsic=") :].split(","):
            try:
                intrinsic.append(IntrinsicType(item))
            except ValueError:
                raise DocumentError(f"unknown intrinsic singularity {item!r}", line) from None
    try:
        return Component(name, multiplicity, genus, self_intersection, tuple(intrinsic))
    except ConfigurationError as exc:
        raise DocumentError(str(exc), line) from None


def _parse_point(tokens: list[str], known: dict[str, int], line: int) -> SingularPoint:
    if len(tokens) < 2:
        raise DocumentError("point record needs: name local_type components...", line)
    name = tokens[0]
    try:
        local_type = LocalType(tokens[1])
    except ValueError:
        raise DocumentError(f"unknown local type {tokens[1]!r}", line) from None
    incident = tuple(tokens[2:])
    for ref in incident:
        if ref not in known:
            raise DocumentError(f"point {name!r} references unknown component {ref!r}", line)
    try:
        return SingularPoint(name, local_type, incident)
    except ConfigurationError as exc:
        raise DocumentError(str(exc), line) from None


def parse_document(text: str) -> CurveConfiguration:
    """Parse a configuration document.

    Raises DocumentError (with line numbers) for syntax problems, unknown
    references and per-record invariant violations; whole-configuration
    problems such as disconnectedness surface as ConfigurationError.
    """
    components: list[Component] = []
    points: list[SingularPoint] = []
    seen: dict[str, int] = {}
    section: str | None = None
    # only \n, \r\n and \r end a line: `str.splitlines` would also split at
    # \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029, and miscount the lines
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[components]":
                section = "components"
            elif line == "[points]":
                section = "points"
            else:
                raise DocumentError(f"unknown section {line!r}", lineno)
            continue
        tokens = line.split()
        if section == "components":
            component = _parse_component(tokens, lineno)
            if component.name in seen:
                raise DocumentError(
                    f"duplicate component name {component.name!r} "
                    f"(first defined on line {seen[component.name]})",
                    lineno,
                )
            seen[component.name] = lineno
            components.append(component)
        elif section == "points":
            points.append(_parse_point(tokens, seen, lineno))
        else:
            raise DocumentError("content before any [components]/[points] section", lineno)
    if not components:
        raise DocumentError("document defines no components")
    return CurveConfiguration(tuple(components), tuple(points))


def serialize_document(config: CurveConfiguration) -> str:
    """Stable textual form of a configuration; parse_document inverts it."""
    lines = ["[components]"]
    for c in config.components:
        record = f"{c.name} {c.multiplicity} {c.geometric_genus} {c.self_intersection}"
        if c.intrinsic:
            record += " intrinsic=" + ",".join(s.value for s in c.intrinsic)
        lines.append(record)
    if config.points:
        lines.append("[points]")
        for p in config.points:
            lines.append(f"{p.name} {p.local_type.value} " + " ".join(p.incident))
    return "\n".join(lines) + "\n"
