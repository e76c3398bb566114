import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kodaira import (
    KodairaType,
    build,
    catalog_types,
    intersection_matrix,
    invariant_profile,
    invariants,
)
from kodaira.cli import _DSG_TEXT, _dumps, main
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


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert err

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

    @pytest.mark.parametrize("spec", ["I(٣)", "IStar(１)", "mI(٢,3)", "I٣*"])
    def test_type_spec_digits_must_be_ascii(self, capsys, spec):
        code, out, err = run_cli(capsys, "show", spec)
        assert code == 1
        assert out == ""
        assert "cannot parse" in err

    def test_empty_component_list_is_a_parse_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.curve"
        empty.write_text("[components]\n")
        code, _, err = run_cli(capsys, "classify", str(empty))
        assert code == 1
        assert "no components" in err

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

    def test_classify_json_for_unrecognized_fiber_like_curve(self, capsys, tmp_path):
        doc = tmp_path / "double_tacnode.curve"
        doc.write_text(
            "[components]\na 2 0 -2\nb 2 0 -2\n[points]\np tacnode a b\n"
        )
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

    def test_matrix_json_cells_match_types(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--max-n", "0", "--max-m", "2", "--format", "json")
        payload = json.loads(out)
        n = len(payload["types"])
        assert len(payload["cells"]) == n
        assert all(len(row) == n for row in payload["cells"])
        for i in range(n):
            assert payload["cells"][i][i] in ("Isomorphic", "PossiblyEquivalent")


_SMALL_INTS = st.integers(min_value=-3, max_value=3)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
    | st.lists(_SMALL_INTS)
    | st.lists(_SMALL_INTS | st.booleans())
    | st.lists(_SMALL_INTS | st.text(max_size=2))
    | st.lists(_SMALL_INTS).map(tuple),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_dumps_is_the_stdlib_encoder(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


_ORACLE_TYPES = catalog_types(8, 3) + [
    KodairaType("I", 150),
    KodairaType("IStar", 150),
    KodairaType("mI", n=150, m=3),
]


@pytest.mark.parametrize("kind", _ORACLE_TYPES, ids=str)
def test_show_matrix_matches_a_per_cell_rendering(capsys, kind):
    entries = intersection_matrix(build(kind))
    width = max(len(str(e)) for row in entries for e in row)
    expected = "".join("  [" + " ".join(f"{e:>{width}}" for e in row) + "]\n" for row in entries)
    code, out, _ = run_cli(capsys, "show", str(kind))
    assert code == 0
    assert out.split("intersection matrix:\n", 1)[1] == expected

    code, out, _ = run_cli(capsys, "show", str(kind), "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    assert json.loads(out)["intersection_matrix"] == [list(row) for row in entries]


@pytest.mark.parametrize(
    "kind",
    [KodairaType("I", n) for n in (0, 1, 5)]
    + [KodairaType("II"), KodairaType("IV"), KodairaType("IStar", 2), KodairaType("mI", 4, 3)],
    ids=str,
)
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_show_computes_the_loop_rank_once(capsys, monkeypatch, kind, fmt):
    """D_sg is read off the profile's smooth flag and K^-1 rank, so `show`
    with a cold profile cache runs `loop_rank` once."""
    loop_rank = invariants.loop_rank
    calls = []

    def counted(config):
        calls.append(config)
        return loop_rank(config)

    monkeypatch.setattr(invariants, "loop_rank", counted)
    invariant_profile.cache_clear()
    code, out, _ = run_cli(capsys, "show", str(kind), "--format", fmt)
    assert code == 0
    assert len(calls) == 1
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
