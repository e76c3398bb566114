"""Command-line front end.

Subcommands: list, show, classify, compare, matrix. Reports go to stdout,
diagnostics to stderr. Exit status is 0 on success, 1 for usage and parse
errors and when memory runs out, 2 for validation failures and unrecognized
curves. `--format json` emits machine-readable output with stable field names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Any, Iterator

from .catalog import TypeSpecError, _recognize, _shape_rows, catalog_types, parse_type, subclass_of
from .document import _INTEGER, DocumentError, _parse_int, parse_document
from .invariants import DsgStatus, _type_profile
from .partner import VerdictKind, _verdict, _verdict_rows

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


def cmd_list(args: argparse.Namespace) -> int:
    if args.format == "json":
        families = [
            {"name": name, "subclass": group.split(" ", 1)[0], "description": text}
            for group, entries in _CATALOG_LISTING
            for name, text in entries
        ]
        print(json.dumps({"families": families}, indent=2, sort_keys=True))
        return 0
    print("Kodaira curve catalog")
    for group, entries in _CATALOG_LISTING:
        print(f"{group}:")
        for name, text in entries:
            print(f"  {name}: {text}")
    return 0


def _row_texts(
    rows: list[dict[int, Any]], sep: str, texts: dict[Any, str], head: str = "", tail: str = ""
) -> Iterator[str]:
    """`head + sep.join(texts[e] for e in row) + tail` per dense row: one join of slices of
    the all-zero row's text and the entries' texts, which the command builds, 0 included."""
    zero = texts[0]
    blank = sep.join([zero] * len(rows))
    step = len(zero) + len(sep)
    for row in rows:
        parts, end = [head], 0
        for j in sorted(row):
            parts += blank[end : j * step], texts[row[j]]
            end = j * step + len(zero)
        parts += blank[end:], tail
        yield "".join(parts)


def _print_json_rows(
    payload: dict[str, Any], key: str, rows: list[dict[int, Any]], texts: dict[Any, str]
) -> None:
    """Print `json.dumps(payload | {key: lists}, indent=2, sort_keys=True)`,
    where `lists` is the non-empty square matrix of the sparse `rows`, each
    entry's text looked up in `texts`, written a row at a time by `_row_texts`."""
    # the separator of two items of a list nested in a list at the top level
    # of a JSON document, as `json.dumps(..., indent=2)` writes it
    items = ",\n      "
    # the document around a placeholder, split where the rows go
    head, tail = json.dumps(payload | {key: 0}, indent=2, sort_keys=True).split(f'"{key}": 0')
    write = sys.stdout.write
    write(f'{head}"{key}": [')
    comma = ""
    for text in _row_texts(rows, items, texts, "\n    [\n      ", "\n    ]"):
        write(comma)
        write(text)
        comma = ","
    write("\n  ]" + tail + "\n")


def cmd_show(args: argparse.Namespace) -> int:
    kind = parse_type(args.type)
    p = _type_profile(kind)
    chi, count, status = 1 - p.arithmetic_genus, p.singular_point_count, p.dsg_status
    if p.smooth:
        locus = "empty (smooth curve)"
    elif count is None:
        locus = "the whole curve (non-reduced)"
    else:
        locus = f"{count} isolated point" + ("s" if count != 1 else "")
    mults, matrix = _shape_rows(kind)
    # the text of each distinct entry: 0 for the cells the sparse rows leave out
    texts = {e: str(e) for e in {0}.union(*map(dict.values, matrix))}
    # (text label, text value, JSON key, JSON value) in text order; no key
    # means text only. The intersection matrix follows them in both formats,
    # written a row at a time.
    rows: list[tuple[str, str, str | None, Any]] = [
        ("type", str(kind), "type", str(kind)),
        ("subclass", subclass_of(kind).value, "subclass", subclass_of(kind).value),
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
    ]
    if args.format == "json":
        payload = {key: value for _, _, key, value in rows if key}
        _print_json_rows(payload, "intersection_matrix", matrix, texts)
        return 0
    for label, text, _, _ in rows:
        print(f"{label}: {text}")
    print("intersection matrix:")
    width = max(map(len, texts.values()))
    texts = {e: text.rjust(width) for e, text in texts.items()}
    write = sys.stdout.write
    for text in _row_texts(matrix, " ", texts, "  [", "]\n"):
        write(text)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    with open(args.path, encoding="utf-8-sig") as handle:
        text = handle.read()
    kind, obstruction = _recognize(parse_document(text))
    if kind is not None:
        if args.format == "json":
            print(json.dumps({"recognized": True, "type": str(kind)}, indent=2, sort_keys=True))
        else:
            print(str(kind))
        return 0
    reason = obstruction if obstruction is not None else "no catalog match"
    if args.format == "json":
        payload: dict[str, Any] = {
            "recognized": False,
            "reason": reason,
            "fiber_like": obstruction is None,
        }
        if obstruction is None:
            payload["dualising_sheaf"] = "assumed trivial by fiber convention"
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"not a Kodaira curve: {reason}")
    return 2


def cmd_compare(args: argparse.Namespace) -> int:
    kind_a = parse_type(args.left)
    kind_b = parse_type(args.right)
    verdict = _verdict(_type_profile(kind_a), _type_profile(kind_b), kind_a == kind_b)
    if args.format == "json":
        payload = {
            "left": str(kind_a),
            "right": str(kind_b),
            "verdict": verdict.kind.value,
            "witnesses": [asdict(w) for w in verdict.witnesses],
            "note": verdict.note,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
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
    """The verdict kind of every ordered pair of types: `partner._verdict_rows`
    gives the sparse rows, and `_row_texts` writes the NotEquivalent cells
    around their entries."""
    types = catalog_types(args.max_n, args.max_m)
    rows = _verdict_rows(types)
    names = [str(t) for t in types]
    width = max(len(name) for name in names)
    if args.format == "json":
        text = {kind: json.dumps(kind.value) for kind in VerdictKind}
    else:
        text = {kind: f" {char:>{width}}" for kind, char in _CELL_CHAR.items()}
    text[0] = text[VerdictKind.NOT_EQUIVALENT]  # the cells left out of the rows
    if args.format == "json":
        _print_json_rows({"types": names}, "cells", rows, text)
        return 0
    print("legend: = isomorphic, x not equivalent, ? possibly equivalent")
    print(" " * width + "".join(f" {name:>{width}}" for name in names))
    write = sys.stdout.write
    for name, line in zip(names, _row_texts(rows, "", text, tail="\n")):
        write(f"{name:<{width}}")
        write(line)
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = _parse_int(text, "a bound", None)
        except DocumentError as exc:
            if not _INTEGER.fullmatch(text):
                raise  # a ValueError: argparse reports an invalid int value
            # past the digit limit: name the bound without echoing its digits
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse says "invalid int value: 'x'" for a non-integer
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: not an input error. With fd 1
        # on devnull the flush at exit fails silently (the `signal` docs' SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TypeSpecError, DocumentError, UnicodeDecodeError, OSError) as exc:
        # UnicodeDecodeError is a ValueError, but undecodable bytes are
        # unparseable input, not a failed validation
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # the traceback holds the records until the handler ends, so report below
    print("error: out of memory", file=sys.stderr)
    return 1
