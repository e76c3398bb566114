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


def _parse_int(token: str, what: str, line: int | None) -> int:
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


def _parse_point(tokens: list[str], line: int) -> SingularPoint:
    if len(tokens) < 2:
        raise DocumentError("point record needs: name local_type components...", line)
    name = tokens[0]
    try:
        local_type = LocalType(tokens[1])
    except ValueError:
        raise DocumentError(f"unknown local type {tokens[1]!r}", line) from None
    try:
        return SingularPoint(name, local_type, tuple(tokens[2:]))
    except ConfigurationError as exc:
        raise DocumentError(str(exc), line) from None


_SECTIONS = {"[components]": "component", "[points]": "point"}


def parse_document(text: str) -> CurveConfiguration:
    """Parse a configuration document.

    Syntax problems, unknown references, duplicate names and per-record
    invariant violations raise DocumentError with the line number;
    whole-configuration ones, such as disconnectedness, ConfigurationError.
    """
    records: dict[str, list] = {"component": [], "point": []}
    # per section, each name and the line that defines it
    names: dict[str, dict[str, int]] = {"component": {}, "point": {}}
    section: str | None = None
    # only \n, \r\n and \r end a line: `str.splitlines` would also split at
    # \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029, and miscount the lines
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in _SECTIONS:
                raise DocumentError(f"unknown section {line!r}", lineno)
            section = _SECTIONS[line]
            continue
        if section is None:
            raise DocumentError("content before any [components]/[points] section", lineno)
        tokens = line.split()
        if section == "component":
            record = _parse_component(tokens, lineno)
        else:
            record = _parse_point(tokens, lineno)
        first = names[section].setdefault(record.name, lineno)
        if first != lineno:
            raise DocumentError(
                f"duplicate {section} name {record.name!r} (first defined on line {first})",
                lineno,
            )
        records[section].append(record)
    if not records["component"]:
        raise DocumentError("document defines no components")
    # a point may name a component defined anywhere in the document
    for p in records["point"]:
        for ref in p.incident:
            if ref not in names["component"]:
                raise DocumentError(
                    f"point {p.name!r} references unknown component {ref!r}", names["point"][p.name]
                )
    return CurveConfiguration(tuple(records["component"]), tuple(records["point"]))


def _check_name(what: str, name: str) -> None:
    # the parser reads a name as one whitespace-free token, cuts a line at
    # "#" and takes a line that starts with "[" for a section header
    if name.split() != [name] or "#" in name or name.startswith("["):
        raise ValueError(
            f"{what} {name!r}: a document name is one token without '#' that does not start with '['"
        )


def serialize_document(config: CurveConfiguration) -> str:
    """Stable textual form of a configuration; parse_document inverts it.

    A component or point name that the parser would read otherwise raises
    ValueError naming the record.
    """
    lines = ["[components]"]
    for c in config.components:
        _check_name("component", c.name)
        record = f"{c.name} {c.multiplicity} {c.geometric_genus} {c.self_intersection}"
        if c.intrinsic:
            record += " intrinsic=" + ",".join(s.value for s in c.intrinsic)
        lines.append(record)
    if config.points:
        lines.append("[points]")
        for p in config.points:
            _check_name("point", p.name)
            lines.append(f"{p.name} {p.local_type.value} " + " ".join(p.incident))
    return "\n".join(lines) + "\n"
