import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kodaira
from kodaira import (
    Component,
    CurveConfiguration,
    KodairaType,
    LocalType,
    PartnerVerdict,
    SingularPoint,
    Witness,
    build,
    catalog,
    catalog_types,
    cli,
    curves,
    invariant_profile,
    invariants,
    parse_document,
    partner,
    serialize_document,
)
from kodaira.cli import _DSG_TEXT, main
from kodaira.curves import _sparse_rows
from oracles import compare_kinds, dense_matrix, matrix_output
from readme_examples import REPO, readme_console_examples


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXAMPLES = readme_console_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize(
    "argv,expected,status", EXAMPLES, ids=[" ".join(e[0]) for e in EXAMPLES]
)
def test_readme_examples_reproduce_byte_for_byte(
    capsys, monkeypatch, argv, expected, status
):
    monkeypatch.chdir(REPO)
    code, out, _ = run_cli(capsys, *argv)
    assert out == expected
    assert code == status


# int() has refused numbers of more than a set count of digits since Python
# 3.10.7 and 3.11; a limit of 0 turns the check off
_NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="int() has no digit limit"
)


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert out == ""
        # argparse renders the list of choices differently across Python versions
        usage = "usage: kodaira [-h] {list,show,classify,compare,matrix} ...\n"
        assert err.startswith(
            usage + "kodaira: error: argument command: invalid choice: 'frobnicate' (choose from "
        )
        assert err.endswith(")\n") and err.count("\n") == 2
        assert all(name in err for name in ("list", "show", "classify", "compare", "matrix"))

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ("show",),
                "usage: kodaira show [-h] [--format {table,json}] type\n"
                "kodaira show: error: the following arguments are required: type\n",
            ),
            (
                ("matrix", "--max-n", "1_0"),
                "usage: kodaira matrix [-h] [--max-n MAX_N] [--max-m MAX_M]\n"
                "                      [--format {table,json}]\n"
                "kodaira matrix: error: argument --max-n: invalid int value: '1_0'\n",
            ),
        ],
    )
    def test_usage_error_prints_usage_and_exits_one(self, capsys, monkeypatch, argv, expected):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal width
        assert run_cli(capsys, *argv) == (1, "", expected)

    @pytest.mark.parametrize(
        "argv,usage",
        [
            (("--help",), "usage: kodaira [-h] {list,show,classify,compare,matrix} ...\n"),
            (("show", "--help"), "usage: kodaira show [-h] [--format {table,json}] type\n"),
        ],
    )
    def test_help_prints_usage_to_stdout_and_exits_zero(self, capsys, monkeypatch, argv, usage):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith(usage)
        assert err == ""

    def test_bad_type_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "show", "W(3)")
        assert code == 1
        assert "cannot parse" in err

    def test_out_of_range_parameter_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "show", "mI(1,3)")
        assert code == 2
        assert "validation error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "classify", "no/such/file.curve")
        assert code == 1
        assert "error" in err

    def test_document_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.curve"
        bad.write_text("[components]\na 1 0\n")
        code, _, err = run_cli(capsys, "classify", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_non_utf8_document_is_a_parse_error(self, capsys, tmp_path):
        doc = tmp_path / "latin1.curve"
        doc.write_bytes(b"[components]\nc\xff 1 1 0\n")
        code, out, err = run_cli(capsys, "classify", str(doc))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "utf-8" in err

    def test_leading_byte_order_mark_is_ignored(self, capsys, tmp_path):
        plain = tmp_path / "plain.curve"
        plain.write_bytes(b"[components]\nc1 1 1 0\n")
        marked = tmp_path / "marked.curve"
        marked.write_bytes(b"\xef\xbb\xbf[components]\nc1 1 1 0\n")
        code, out, err = run_cli(capsys, "classify", str(marked))
        assert (code, out, err) == run_cli(capsys, "classify", str(plain))
        assert code == 0
        assert out.startswith("I(0)")

    @pytest.mark.parametrize(
        "bounds",
        [("--max-n", "-3", "--max-m", "0"), ("--max-n", "-1"), ("--max-m", "0"), ("--max-m", "-2")],
    )
    def test_out_of_range_matrix_bounds_are_usage_errors(self, capsys, bounds):
        code, out, err = run_cli(capsys, "matrix", *bounds)
        assert code == 1
        assert out == ""
        assert "must be >=" in err

    @pytest.mark.parametrize(
        "bounds",
        [
            ("--max-n", "1_0"),
            ("--max-n", "١"),
            ("--max-n", "+1"),
            ("--max-n", " 1"),
            ("--max-m", "３"),
            ("--max-m", "0x2"),
        ],
    )
    def test_matrix_bounds_must_be_ascii_integers(self, capsys, bounds):
        code, out, err = run_cli(capsys, "matrix", *bounds)
        assert code == 1
        assert out == ""
        assert f"invalid int value: {bounds[1]!r}" in err

    @_NEEDS_DIGIT_LIMIT
    @pytest.mark.parametrize("option", ["--max-n", "--max-m"])
    def test_a_matrix_bound_past_the_digit_limit_is_not_echoed(self, capsys, option):
        """A bound of more digits than int() converts is a usage error that
        names the bound; the usage error does not echo its digits."""
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "matrix", option, "1" + "0" * limit)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {option}: a bound has more than {limit} digits\n")
        assert len(err.encode()) < 400

    @pytest.mark.parametrize("spec", ["I(٣)", "IStar(１)", "mI(٢,3)", "I٣*"])
    def test_type_spec_digits_must_be_ascii(self, capsys, spec):
        code, out, err = run_cli(capsys, "show", spec)
        assert code == 1
        assert out == ""
        assert "cannot parse" in err

    @_NEEDS_DIGIT_LIMIT
    @pytest.mark.parametrize(
        "record,field",
        [("c1 {} 1 0", "multiplicity"), ("c1 1 1 -{}", "self_intersection")],
        ids=["multiplicity", "negative-square"],
    )
    def test_a_number_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path, record, field):
        """int() refuses more than `sys.get_int_max_str_digits()` digits;
        the parser reports that at the line, without echoing the number."""
        limit = sys.get_int_max_str_digits()
        doc = tmp_path / "long.curve"
        doc.write_text("[components]\n" + record.format("1" + "0" * limit) + "\n")
        code, out, err = run_cli(capsys, "classify", str(doc))
        assert (code, out) == (1, "")
        assert err == f"error: line 2: {field} has more than {limit} digits\n"
        assert "set_int_max_str_digits" not in err

    @_NEEDS_DIGIT_LIMIT
    @pytest.mark.parametrize("spec", ["I({})", "mI(2,{})", "{}I3", "I{}*"])
    def test_a_type_spec_parameter_past_the_digit_limit_is_a_parse_error(self, capsys, spec):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "show", spec.format("1" + "0" * limit))
        assert (code, out) == (1, "")
        assert err == f"error: a type spec parameter has more than {limit} digits\n"
        assert "set_int_max_str_digits" not in err

    def test_empty_component_list_is_a_parse_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.curve"
        empty.write_text("[components]\n")
        code, _, err = run_cli(capsys, "classify", str(empty))
        assert code == 1
        assert "no components" in err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (
                "[components]\nb 1 0 -2\n",
                "line 7: duplicate component name 'b' (first defined on line 3)",
            ),
            ("p transverse a b\n", "line 6: duplicate point name 'p' (first defined on line 5)"),
        ],
        ids=["component", "point"],
    )
    def test_duplicate_names_are_parse_errors(self, capsys, tmp_path, extra, message):
        doc = tmp_path / "twice.curve"
        doc.write_text("[components]\na 1 0 -2\nb 1 0 -2\n[points]\np transverse a b\n" + extra)
        code, out, err = run_cli(capsys, "classify", str(doc))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "record,message",
        [
            ("a 0 0 -2", "component 'a': multiplicity must be >= 1, got 0"),
            ("a 1 2 -2", "component 'a': geometric genus must be 0 or 1, got 2"),
            (
                "a 1 1 0 intrinsic=node",
                "component 'a': a genus-one component cannot carry intrinsic singularities",
            ),
        ],
        ids=["multiplicity-0", "genus-2", "genus-1-with-node"],
    )
    def test_component_invariant_violations_are_parse_errors(
        self, capsys, tmp_path, record, message
    ):
        doc = tmp_path / "bad.curve"
        doc.write_text(f"# one bad record\n[components]\n{record}\n")
        code, out, err = run_cli(capsys, "classify", str(doc))
        assert (code, out, err) == (1, "", f"error: line 3: {message}\n")

    def test_disconnected_document_is_a_validation_error(self, capsys, tmp_path):
        doc = tmp_path / "two.curve"
        doc.write_text("[components]\na 1 1 0\nb 1 1 0\n")
        code, _, err = run_cli(capsys, "classify", str(doc))
        assert code == 2
        assert err == "validation error: configuration is not connected\n"

    def test_unrecognized_curve_exits_two(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        code, out, _ = run_cli(capsys, "classify", "docs/examples/chain.curve")
        assert code == 2
        assert out.startswith("not a Kodaira curve")

    def test_recognized_curve_exits_zero(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        code, out, _ = run_cli(capsys, "classify", "docs/examples/nodal.curve")
        assert code == 0
        assert out == "I(1)\n"


# what `kodaira classify` prints, and its exit status, for each example document
_EXAMPLE_RESULTS = {
    "chain.curve": ("not a Kodaira curve: M*m != 0\n", 2),
    "double-tacnode.curve": ("not a Kodaira curve: no catalog match\n", 2),
    "istar0.curve": ("IStar(0)\n", 0),
    "nodal.curve": ("I(1)\n", 0),
}


def test_every_example_document_classifies_as_tabled(capsys):
    paths = sorted((REPO / "docs" / "examples").glob("*.curve"))
    assert [path.name for path in paths] == sorted(_EXAMPLE_RESULTS)
    for path in paths:
        code, out, err = run_cli(capsys, "classify", str(path))
        assert (out, code, err) == (*_EXAMPLE_RESULTS[path.name], ""), path.name


class TestJsonOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("list", "--format", "json"),
            ("show", "IStar(2)", "--format", "json"),
            ("compare", "I(1)", "II", "--format", "json"),
            ("compare", "IStar(4)", "IIStar", "--format", "json"),
            ("matrix", "--max-n", "2", "--max-m", "2", "--format", "json"),
        ],
    )
    def test_output_reparses_and_reserializes_identically(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_classify_json_for_recognized_curve(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        code, out, err = run_cli(capsys, "classify", "docs/examples/istar0.curve", "--format", "json")
        assert (code, out, err) == (0, '{\n  "recognized": true,\n  "type": "IStar(0)"\n}\n', "")

    def test_classify_json_for_unrecognized_fiber_like_curve(self, capsys):
        doc = REPO / "docs" / "examples" / "double-tacnode.curve"
        code, out, _ = run_cli(capsys, "classify", str(doc), "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload == {
            "recognized": False,
            "reason": "no catalog match",
            "fiber_like": True,
            "dualising_sheaf": "assumed trivial by fiber convention",
        }

    def test_show_json_content(self, capsys):
        code, out, _ = run_cli(capsys, "show", "I(0)", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "I(0)"
        assert payload["smooth"] is True
        assert payload["dsg_status"] == "trivial_singularity_category"
        assert payload["picard"] == {
            "unipotent_dim": 0,
            "torus_rank": 0,
            "elliptic_rank": 1,
            "discrete_rank": 1,
        }
        assert payload["intersection_matrix"] == [[0]]


@pytest.mark.parametrize("n,m", [(n, m) for n in range(9) for m in range(1, 5)])
def test_matrix_matches_one_compare_per_cell(capsys, n, m):
    types = catalog_types(n, m)
    kinds = compare_kinds(types)
    for fmt in ("table", "json"):
        argv = ("matrix", "--max-n", str(n), "--max-m", str(m), "--format", fmt)
        assert run_cli(capsys, *argv) == (0, matrix_output(types, kinds, fmt), "")


def test_large_matrix_prints_the_partner_matrix_kinds(capsys):
    types = catalog_types(40, 6)
    kinds = compare_kinds(types)
    for fmt in ("table", "json"):
        argv = ("matrix", "--max-n", "40", "--max-m", "6", "--format", fmt)
        assert run_cli(capsys, *argv) == (0, matrix_output(types, kinds, fmt), "")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_cold_matrix_builds_no_witness(capsys, monkeypatch, fmt):
    """`matrix` prints verdict kinds only, read off `partner._verdict_rows`:
    no witness, and one `_agreeing` verdict per type instead of a T² grid."""
    made = {Witness: 0, PartnerVerdict: 0}
    for cls in made:

        def counted(self, *args, cls=cls, init=cls.__init__, **kwargs):
            made[cls] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    code, out, _ = run_cli(capsys, "matrix", "--max-n", "40", "--max-m", "6", "--format", fmt)
    assert code == 0 and "IIStar" in out
    assert made[Witness] == 0
    assert made[PartnerVerdict] <= len(catalog_types(40, 6))


def _clear_caches() -> None:
    catalog._run.cache_clear()


def test_a_cold_matrix_makes_no_record_and_calls_neither_build_nor_recognize(
    capsys, monkeypatch
):
    """`matrix` reads each type's profile off the type itself, so a cold
    `matrix --max-n 40 --max-m 6` makes no component or point record and
    neither builds nor recognizes a configuration; profiling each built
    type made 299 and 666 records and called both 293 times."""
    made = {Component: 0, SingularPoint: 0}
    for cls in made:

        def counted(self, *args, cls=cls, init=cls.__init__, **kwargs):
            made[cls] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    calls = {"build": 0, "_recognize": 0}
    for name in calls:
        function = getattr(catalog, name)

        def counted_call(*args, name=name, function=function):
            calls[name] += 1
            return function(*args)

        for module in (kodaira, catalog, invariants, partner, cli):
            if vars(module).get(name) is function:
                monkeypatch.setattr(module, name, counted_call)
    _clear_caches()
    code, out, _ = run_cli(capsys, "matrix", "--max-n", "40", "--max-m", "6")
    assert code == 0 and "IIStar" in out
    assert made == {Component: 0, SingularPoint: 0}, made
    assert calls == {"build": 0, "_recognize": 0}, calls
    invariant_profile(catalog.build(KodairaType("I", 3)))  # the counters do count
    assert made == {Component: 3, SingularPoint: 3}, made
    assert calls == {"build": 1, "_recognize": 1}, calls


def test_a_cold_matrix_neither_checks_nor_hashes_a_configuration(capsys, monkeypatch):
    """`matrix` profiles types, not configurations, so a cold
    `matrix --max-n 40 --max-m 6` re-checks and hashes none; checked builds
    and a profile cache did each 293 times."""
    calls = {"__post_init__": 0, "__hash__": 0}
    for name in calls:

        def counted(self, name=name, method=getattr(CurveConfiguration, name)):
            calls[name] += 1
            return method(self)

        monkeypatch.setattr(CurveConfiguration, name, counted)
    _clear_caches()
    code, out, _ = run_cli(capsys, "matrix", "--max-n", "40", "--max-m", "6")
    assert code == 0 and "IIStar" in out
    assert calls == {"__post_init__": 0, "__hash__": 0}
    hash(CurveConfiguration((Component("a", 1, 1, 0),)))  # the counters do count
    assert calls == {"__post_init__": 1, "__hash__": 1}


_ORACLE_TYPES = catalog_types(8, 3) + [
    KodairaType("I", 150),
    KodairaType("IStar", 150),
    KodairaType("mI", n=150, m=3),
]


def per_cell_lines(entries) -> str:
    """The table's matrix lines, every cell formatted on its own."""
    width = max(len(str(e)) for row in entries for e in row)
    return "".join("  [" + " ".join(f"{e:>{width}}" for e in row) + "]\n" for row in entries)


@pytest.mark.parametrize("kind", _ORACLE_TYPES, ids=str)
def test_show_matrix_matches_a_per_cell_rendering(capsys, kind):
    entries = dense_matrix(build(kind))
    code, out, _ = run_cli(capsys, "show", str(kind))
    assert code == 0
    assert out.split("intersection matrix:\n", 1)[1] == per_cell_lines(entries)

    code, out, _ = run_cli(capsys, "show", str(kind), "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    assert json.loads(out)["intersection_matrix"] == entries


@st.composite
def matrix_configurations(draw):
    """Connected configurations whose matrices test the row renderer.

    Self-intersections may be 0, positive or several digits wide, and a
    point may be repeated up to 8 times, so a pair can sum to two digits at
    a tacnode, a transverse crossing or a triple point.
    """
    n = draw(st.integers(1, 6))
    square = st.sampled_from([-2, -1, 0, 1, 9]) | st.integers(-120, 12)
    squares = draw(st.lists(square, min_size=n, max_size=n))
    pairwise = st.sampled_from([LocalType.TRANSVERSE, LocalType.TACNODE])
    incidences = [(draw(pairwise), (i, draw(st.integers(0, i - 1)))) for i in range(1, n)]
    for _ in range(draw(st.integers(0, 3))):
        local = draw(st.sampled_from(list(LocalType)))
        if local.arity <= n:
            ids = draw(st.permutations(range(n)))[: local.arity]
            incidences += [(local, ids)] * draw(st.integers(1, 8))
    return CurveConfiguration(
        tuple(Component(f"c{i}", 1, 0, square) for i, square in enumerate(squares)),
        tuple(
            SingularPoint(f"p{k}", local, tuple(f"c{i}" for i in ids))
            for k, (local, ids) in enumerate(incidences)
        ),
    )


# two curves of square 0 meeting in six tacnodes: [[0, 12], [12, 0]], whose
# width comes from off the diagonal
_TACNODE_PAIR = CurveConfiguration(
    (Component("a", 1, 0, 0), Component("b", 1, 0, 0)),
    tuple(SingularPoint(f"p{k}", LocalType.TACNODE, ("a", "b")) for k in range(6)),
)


def show_output(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(matrix_configurations())
@example(_TACNODE_PAIR)
def test_show_renders_any_matrix_like_a_per_cell_rendering(config):
    """`_row_texts` slices each row out of one formatted zero row; both
    formats of `show` must still read as if every cell were formatted."""
    entries = dense_matrix(config)
    rows = _sparse_rows(config)
    with mock.patch.object(cli, "_sparse_rows", lambda _: rows):
        table = show_output("show", "I(0)")
        text = show_output("show", "I(0)", "--format", "json")
    assert table.split("intersection matrix:\n", 1)[1] == per_cell_lines(entries)
    payload = {**json.loads(text), "intersection_matrix": entries}
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_row_texts_formats_each_distinct_entry_once():
    """`_row_texts` runs `cell` once per distinct entry, not once per
    nonzero cell, and each row is the head, the per-cell join and the tail."""
    config = build(KodairaType("I", 400))
    rows, entries = _sparse_rows(config), dense_matrix(config)
    calls = []

    def cell(entry):
        calls.append(entry)
        return f"{entry:>2}"

    texts = list(cli._row_texts(rows, ", ", cell, "<", ">\n"))
    assert sorted(calls) == [-2, 0, 1]
    assert texts == ["<" + ", ".join(f"{e:>2}" for e in row) + ">\n" for row in entries]


class DigestSink:
    """A stdout that keeps only the byte count and a SHA-256 of the text."""

    def __init__(self) -> None:
        self.size, self.digest = 0, hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode()
        self.size += len(data)
        self.digest.update(data)
        return len(text)


def digest_of(argv: list[str]) -> DigestSink:
    sink = DigestSink()
    with contextlib.redirect_stdout(sink):
        assert main(argv) == 0
    return sink


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_show_writes_a_large_matrix_in_small_memory(fmt):
    """`show I(3000)` holds 9 million cells, 27 MB of table text and 72 MB
    of JSON; written a row at a time from the sparse rows, it allocates
    a few MiB at its peak."""
    argv = ["show", "I(3000)", "--format", fmt]
    entries = dense_matrix(build(KodairaType("I", 3000)))
    values = set().union(*entries)
    width = max(len(str(e)) for e in values)

    def per_cell(rows, sep, cell, head="", tail=""):
        """`cli._row_texts` as a lookup per cell of the oracle's matrix."""
        text = {e: f"{e:>{width}}" if sep == " " else str(e) for e in values}
        return (head + sep.join(map(text.__getitem__, row)) + tail for row in entries)

    with mock.patch.object(cli, "_row_texts", per_cell):
        expected = digest_of(argv)
    tracemalloc.start()
    try:
        sink = digest_of(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (sink.size, sink.digest.hexdigest()) == (expected.size, expected.digest.hexdigest())
    assert peak < 6 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_matrix_writes_its_rows_in_small_memory():
    """Every row of a profile class shares the class's sparse row, and
    `_row_texts` slices each printed row out of one all-NotEquivalent row:
    O(T) text for T types. With the runs grown, both formats of the
    853-type `matrix --max-n 120 --max-m 6` peak below 1.5 MiB; one row
    text per class took 3.7 MiB (table) and 7.2 MiB (JSON)."""
    peaks = {}
    for fmt in ("table", "json"):
        argv = ["matrix", "--max-n", "120", "--max-m", "6", "--format", fmt]
        digest_of(argv)  # grows the runs
        tracemalloc.start()
        try:
            digest_of(argv)
            _, peaks[fmt] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 1.5 * 2**20, peaks


def test_a_cold_matrix_builds_its_types_in_small_memory():
    """With every cache cleared, the 853 types of `matrix --max-n 120
    --max-m 6` are profiled without a record: the cold run peaks at about
    0.4 MiB, where building each type out of one run per multiplicity
    peaked at 0.7 MiB, and one set of records per type at 19.8 MiB."""
    _clear_caches()
    tracemalloc.start()
    try:
        digest_of(["matrix", "--max-n", "120", "--max-m", "6"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "kind",
    [KodairaType("I", n) for n in (0, 1, 5)]
    + [KodairaType("II"), KodairaType("IV"), KodairaType("IStar", 2), KodairaType("mI", 4, 3)],
    ids=str,
)
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_show_computes_the_loop_rank_once(capsys, monkeypatch, kind, fmt):
    """D_sg is read off the profile's smooth flag and K^-1 rank, the loop
    rank, so `show` reads the profile off its type once."""
    type_profile = invariants._type_profile
    calls = []

    def counted(kind):
        calls.append(kind)
        return type_profile(kind)

    monkeypatch.setattr(invariants, "_type_profile", counted)
    code, out, _ = run_cli(capsys, "show", str(kind), "--format", fmt)
    assert code == 0
    assert calls == [kind]
    status = invariant_profile(build(kind)).dsg_status
    if fmt == "json":
        assert json.loads(out)["dsg_status"] == status.value
    else:
        assert f"D_sg: {_DSG_TEXT[status]}\n" in out


class TestStability:
    def test_list_output_is_stable_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "list")
        _, second, _ = run_cli(capsys, "list")
        assert first == second

    def test_unicode_alias_accepted_with_ascii_output(self, capsys):
        code, out, _ = run_cli(capsys, "show", "I₀*")
        assert code == 0
        assert out.startswith("type: IStar(0)\n")


def test_module_entry_point_runs_in_a_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "kodaira", "compare", "I(2)", "mI(2,2)"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0
    assert "verdict: NotEquivalent" in result.stdout
    assert "isolated singularities" in result.stdout


def test_a_closed_stdout_exits_one_without_a_message():
    """`kodaira show "I(2000)" | head -1`: the reader goes away mid-matrix."""
    with subprocess.Popen(
        [sys.executable, "-m", "kodaira", "show", "I(2000)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=REPO,
    ) as proc:
        assert proc.stdout.readline() == b"type: I(2000)\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_running_out_of_memory_exits_one_with_an_error_line():
    """`compare "I(1000000)" II` peaks at about 460 MiB, so I(2000000)
    needs about twice the 512 MiB address-space cap set in the child
    alone; `main` reports the MemoryError in one line instead of a
    traceback."""
    import resource

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 512 * 2**20 if hard == resource.RLIM_INFINITY else min(512 * 2**20, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    result = subprocess.run(
        [sys.executable, "-m", "kodaira", "compare", "I(2000000)", "II"],
        capture_output=True,
        text=True,
        cwd=REPO,
        preexec_fn=cap,
        timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (1, "", "error: out of memory\n")


def test_module_entry_point_exits_one_on_a_usage_error():
    result = subprocess.run(
        [sys.executable, "-m", "kodaira", "bogus"], capture_output=True, text=True, cwd=REPO
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("usage: kodaira ")


@pytest.mark.parametrize(
    "text",
    [
        (REPO / "docs" / "examples" / "istar0.curve").read_text(),
        (REPO / "docs" / "examples" / "chain.curve").read_text(),
        (REPO / "docs" / "examples" / "double-tacnode.curve").read_text(),
    ],
    ids=["recognized", "not-fiber-like", "fiber-like-uncatalogued"],
)
def test_one_fiber_product_per_configuration(capsys, monkeypatch, tmp_path, text):
    """`classify` and `invariant_profile` each make one M·m product,
    whether or not the configuration is recognized."""
    product = curves._product
    calls = []

    def counted(config, vector):
        calls.append(config)
        return product(config, vector)

    monkeypatch.setattr(curves, "_product", counted)
    path = tmp_path / "doc.curve"
    path.write_text(text)
    main(["classify", str(path)])
    assert len(calls) == 1
    calls.clear()
    with contextlib.suppress(ValueError):  # only the recognized document has a profile
        invariant_profile(parse_document(text))
    assert len(calls) == 1


def test_classify_time_grows_linearly_with_the_document(capsys, tmp_path):
    """A cycle four times as long classifies in well under 8 times the time;
    a parse that copies the component names per point record gives about 28."""
    best = []
    for n in (2000, 8000):
        path = tmp_path / f"I{n}.curve"
        path.write_text(serialize_document(build(KodairaType("I", n))))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert main(["classify", str(path)]) == 0
            times.append(time.perf_counter() - start)
        best.append(min(times))
    assert capsys.readouterr().out == "I(2000)\n" * 3 + "I(8000)\n" * 3
    assert best[1] / best[0] < 8, best


_SPECS = st.one_of(
    st.builds("{}({})".format, st.sampled_from(["I", "IStar"]), st.integers(0, 999)),
    st.builds("mI({},{})".format, st.integers(0, 999), st.integers(0, 999)),
    st.sampled_from(["II", "III", "IV", "II*", "IIIStar", "IV*", "I₃", "I₀*", "₂I₃"]),
    st.text(st.sampled_from("ImStar()*,0123456789₀₃ -\t"), max_size=10),
).filter(lambda spec: not spec.startswith("-") and not re.search("[0-9₀-₉]{4}", spec))

_DOCUMENTS = [serialize_document(build(t)).encode() for t in catalog_types(5, 3)]
_BYTES = [b"\r", b"\n", b"\xef\xbb\xbf", b"\xff", b" ", b"#", b"[", b"]", b"-", b"0", b"x", b","]


@st.composite
def mutated_documents(draw):
    """A serialized catalog document with bytes deleted, inserted or duplicated, or none."""
    data = draw(st.sampled_from(_DOCUMENTS))
    rng = draw(st.randoms(use_true_random=False))  # spreads the edits over the document
    for _ in range(draw(st.integers(0, 3))):
        i = rng.randrange(len(data) + 1)
        how = rng.choice(["delete", "insert", "duplicate"])
        if how == "delete":
            data = data[:i] + data[i + 1 :]
        elif how == "insert":
            data = data[:i] + rng.choice(_BYTES) + data[i:]
        else:
            data = data[:i] + data[i : i + rng.randint(1, 40)] + data[i:]
    return data


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("classify"), mutated_documents()),
        st.tuples(st.just("show"), _SPECS),
        st.tuples(st.just("compare"), _SPECS, _SPECS),
    ),
    st.sampled_from(["table", "json"]),
)
@example(("classify", _DOCUMENTS[7] + b"p1 transverse c1 c2\n"), "table")
@example(("classify", b"[components]\na 1 1 0\nb 1 1 0\n"), "table")
@example(("classify", _DOCUMENTS[7].replace(b"-2", b"-3")), "json")
def test_main_answers_every_input_with_its_exit_status(tmp_path_factory, command, fmt):
    """Status 0, 1 or 2 and no escaping exception, whatever the document or
    spec. Status 1 prints one `error:` line and no report; status 2 prints
    either one `validation error:` line or the `classify` report."""
    argv = list(command)
    if argv[0] == "classify":
        argv[1] = tmp_path_factory.getbasetemp() / "fuzz.curve"
        argv[1].write_bytes(command[1])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*map(str, argv), "--format", fmt])
    out, err = out.getvalue(), err.getvalue()
    one_line = err.endswith("\n") and err.count("\n") == 1
    if code == 1:
        assert out == "" and one_line and err.startswith("error: "), err
    elif code == 2 and out:  # the report on a configuration that `classify` rejects
        assert argv[0] == "classify" and err == ""
        if fmt == "json":
            assert json.loads(out)["recognized"] is False
        else:
            assert out.startswith("not a Kodaira curve: ") and out.count("\n") == 1
    elif code == 2:
        assert one_line and err.startswith("validation error: "), err
    else:
        assert code == 0 and err == "", (code, err)
