"""Command-line front end.

Subcommands: list, show, classify, compare, matrix. Reports go to stdout,
diagnostics to stderr. Exit status is 0 on success, 1 for usage and parse
errors, 2 for validation failures and unrecognized curves. `--format json`
emits machine-readable output with stable field names.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Any, Iterator

from .catalog import TypeSpecError, build, catalog_types, classify, parse_type
from .curves import fiber_obstruction, intersection_matrix
from .document import _INTEGER, DocumentError, parse_document
from .invariants import DsgStatus, invariant_profile
from .partner import PartnerVerdict, VerdictKind, compare, partner_matrix

_DSG_TEXT = {
    DsgStatus.TRIVIAL: "trivial (smooth curve)",
    DsgStatus.IDEMPOTENT_COMPLETE: "idempotent complete",
    DsgStatus.UNKNOWN: "unknown",
}

_CELL_CHAR = {
    VerdictKind.ISOMORPHIC: "=",
    VerdictKind.NOT_EQUIVALENT: "x",
    VerdictKind.POSSIBLY_EQUIVALENT: "?",
}

_CATALOG_LISTING = [
    (
        "L1 (reduced fibers)",
        [
            ("I(0)", "smooth elliptic curve"),
            ("I(1)", "rational curve with one node"),
            ("I(N)", "cycle of N rational curves, N >= 2; N components, multiplicities (1,...,1)"),
            ("II", "rational curve with one cusp"),
            ("III", "two rational curves meeting at a tacnode"),
            ("IV", "three concurrent rational curves"),
        ],
    ),
    (
        "L2 (non-reduced, non-multiple fibers)",
        [
            ("IStar(N)", "N+5 components, multiplicities (1,1,1,1,2,...,2), N >= 0"),
            ("IIStar", "9 components, multiplicities (1,2,3,4,5,6,4,3,2)"),
            ("IIIStar", "8 components, multiplicities (1,2,3,4,3,2,2,1)"),
            ("IVStar", "7 components, multiplicities (1,2,3,2,2,1,1)"),
        ],
    ),
    (
        "L3 (multiple fibers)",
        [
            ("mI(m,0)", "multiple smooth elliptic curve, m >= 2"),
            ("mI(m,1)", "multiple rational curve with one node, m >= 2"),
            ("mI(m,N)", "cycle of N rational curves with multiplicity m, m >= 2, N >= 2"),
        ],
    ),
]


def _dumps(value: Any, pad: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, each line after the first prefixed by `pad`.

    Before Python 3.13 the stdlib encodes with `indent` in pure Python, one
    call per list element; here a list (or tuple) of ints and strings
    encodes each distinct entry once.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    # each container is one f-string around one join: `a + b` would copy the text again
    if value and type(value) is dict and all(type(k) is str for k in value):
        items = [f"{json.dumps(k)}: {_dumps(value[k], inner)}" for k in sorted(value)]
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    if value and type(value) in (list, tuple):
        types = set(map(type, value))
        if types <= {int, str}:
            text = {v: json.dumps(v) for v in set(value)}
            return f"[\n{inner}{sep.join(map(text.__getitem__, value))}\n{pad}]"
        if types <= {list, tuple, dict}:
            return f"[\n{inner}{sep.join([_dumps(v, inner) for v in value])}\n{pad}]"
    # JSON strings hold no raw newline, so this re-indents exactly
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _emit_json(payload: Any) -> None:
    print(_dumps(payload))


def cmd_list(args: argparse.Namespace) -> int:
    if args.format == "json":
        families = [
            {"name": name, "subclass": group.split(" ", 1)[0], "description": text}
            for group, entries in _CATALOG_LISTING
            for name, text in entries
        ]
        _emit_json({"families": families})
        return 0
    print("Kodaira curve catalog")
    for group, entries in _CATALOG_LISTING:
        print(f"{group}:")
        for name, text in entries:
            print(f"  {name}: {text}")
    return 0


def _matrix_lines(entries: tuple[tuple[int, ...], ...]) -> Iterator[str]:
    values = set().union(*entries)
    width = max(len(str(v)) for v in values)
    cell = {v: f"{v:>{width}}" for v in values}
    for row in entries:
        yield "  [" + " ".join(map(cell.__getitem__, row)) + "]"


def cmd_show(args: argparse.Namespace) -> int:
    kind = parse_type(args.type)
    config = build(kind)
    p = invariant_profile(config)
    chi, count, status = 1 - p.arithmetic_genus, p.singular_point_count, p.dsg_status
    if p.smooth:
        locus = "empty (smooth curve)"
    elif count is None:
        locus = "the whole curve (non-reduced)"
    else:
        locus = f"{count} isolated point" + ("s" if count != 1 else "")
    mults, matrix = config.multiplicities(), intersection_matrix(config)
    # (text label, text value, JSON key, JSON value) in text order; no key
    # means text only. The matrix text is a generator of lines, so JSON
    # output never formats them.
    rows: list[tuple[str, Any, str | None, Any]] = [
        ("type", str(kind), "type", str(kind)),
        ("subclass", p.subclass.value, "subclass", p.subclass.value),
        ("components", str(p.n_components), "components", p.n_components),
        ("multiplicities", f"({', '.join(map(str, mults))})", "multiplicities", mults),
        ("reduced", "yes" if p.reduced else "no", "reduced", p.reduced),
        ("smooth", "yes" if p.smooth else "no", "smooth", p.smooth),
        ("euler characteristic", str(chi), "euler_characteristic", chi),
        ("arithmetic genus", str(p.arithmetic_genus), "arithmetic_genus", p.arithmetic_genus),
        ("G0 rank", str(p.g0_rank), "g0_rank", p.g0_rank),
        ("K^-1 rank", str(p.k_minus_one_rank), "k_minus_one_rank", p.k_minus_one_rank),
        ("K^i rank for i <= -2", "0", None, None),
        # every curve is K^-1-regular: Weibel's conjecture is a theorem in dimension 1
        ("K^-1-regular", "yes", "k_minus_one_regular", True),
        ("Pic", p.picard.describe(), "picard", asdict(p.picard)),
        ("singular locus", locus, "singular_point_count", count),
        ("dualising sheaf", "trivial", "dualising_sheaf", "trivial"),
        ("D_sg", _DSG_TEXT[status], "dsg_status", status.value),
        ("intersection matrix", _matrix_lines(matrix), "intersection_matrix", matrix),
    ]
    if args.format == "json":
        _emit_json({key: value for _, _, key, value in rows if key is not None})
        return 0
    for label, text, _, _ in rows:
        if isinstance(text, str):
            print(f"{label}: {text}")
        else:
            print(f"{label}:", *text, sep="\n")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    with open(args.path, encoding="utf-8-sig") as handle:
        text = handle.read()
    config = parse_document(text)
    kind = classify(config)
    if kind is not None:
        if args.format == "json":
            _emit_json({"recognized": True, "type": str(kind)})
        else:
            print(str(kind))
        return 0
    obstruction = fiber_obstruction(config)
    reason = obstruction if obstruction is not None else "no catalog match"
    if args.format == "json":
        payload: dict[str, Any] = {
            "recognized": False,
            "reason": reason,
            "fiber_like": obstruction is None,
        }
        if obstruction is None:
            payload["dualising_sheaf"] = "assumed trivial by fiber convention"
        _emit_json(payload)
    else:
        print(f"not a Kodaira curve: {reason}")
    return 2


def _verdict_payload(left: str, right: str, verdict: PartnerVerdict) -> dict[str, Any]:
    return {
        "left": left,
        "right": right,
        "verdict": verdict.kind.value,
        "witnesses": [
            {"invariant": w.invariant, "left": w.left, "right": w.right}
            for w in verdict.witnesses
        ],
        "note": verdict.note,
    }


def cmd_compare(args: argparse.Namespace) -> int:
    kind_a = parse_type(args.left)
    kind_b = parse_type(args.right)
    verdict = compare(build(kind_a), build(kind_b))
    if args.format == "json":
        _emit_json(_verdict_payload(str(kind_a), str(kind_b), verdict))
        return 0
    print(f"left: {kind_a}")
    print(f"right: {kind_b}")
    print(f"verdict: {verdict.kind.value}")
    for witness in verdict.witnesses:
        print(f"witness: {witness}")
    if verdict.note:
        print(f"note: {verdict.note}")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    types = catalog_types(args.max_n, args.max_m)
    table = partner_matrix(types)
    names = [str(t) for t in types]
    if args.format == "json":
        _emit_json(
            {
                "types": names,
                "cells": [[v.kind.value for v in row] for row in table],
            }
        )
        return 0
    print("legend: = isomorphic, x not equivalent, ? possibly equivalent")
    width = max(len(name) for name in names)
    print(" " * width + "".join(f" {name:>{width}}" for name in names))
    cell = {kind: f" {char:>{width}}" for kind, char in _CELL_CHAR.items()}
    for name, row in zip(names, table):
        print(f"{name:<{width}}" + "".join([cell[v.kind] for v in row]))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""

    def parse(text: str) -> int:
        if not _INTEGER.fullmatch(text):  # int() would also take "+1", "1_0" and non-ASCII digits
            raise ValueError(text)
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse says "invalid int value: 'x'" for a non-integer
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kodaira",
        description="Kodaira curves: catalog, invariants and Fourier-Mukai partner checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the catalog type families")
    _add_format(p_list)
    p_list.set_defaults(func=cmd_list)

    p_show = sub.add_parser("show", help="full invariant report for a type")
    p_show.add_argument("type", help='type spec, e.g. "IStar(3)" or "mI(2,4)"')
    _add_format(p_show)
    p_show.set_defaults(func=cmd_show)

    p_classify = sub.add_parser("classify", help="recognize a configuration document")
    p_classify.add_argument("path", help="configuration document to read")
    _add_format(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_compare = sub.add_parser("compare", help="Fourier-Mukai partner verdict for two types")
    p_compare.add_argument("left")
    p_compare.add_argument("right")
    _add_format(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_matrix = sub.add_parser("matrix", help="pairwise verdicts over a parameter range")
    p_matrix.add_argument(
        "--max-n", type=_int_at_least(0), default=4, help="largest cycle/star parameter N"
    )
    p_matrix.add_argument(
        "--max-m", type=_int_at_least(1), default=3, help="largest multiplicity m"
    )
    _add_format(p_matrix)
    p_matrix.set_defaults(func=cmd_matrix)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except (TypeSpecError, DocumentError, UnicodeDecodeError, OSError) as exc:
        # UnicodeDecodeError is a ValueError, but undecodable bytes are
        # unparseable input, not a failed validation
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
