"""Mutation checks: every mutant below must fail each test named beside it.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py

The runner copies what the tests read (`src/`, `tests/`, `docs/`,
`README.md` and `pyproject.toml`) to a temporary directory and checks that
every named test passes there. Then it applies one mutant at a time to
the copy, runs each of the mutant's tests alone, and restores the file. It
fails if a mutant's old text does not occur exactly once in its file, or
if a named test passes against its mutant. The working tree is never
edited. When a refactor moves a mutant's old text, update the record; do
not drop it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "docs", "README.md", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    """A one-place change to a file, and the tests that must each catch it."""

    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids


MUTANTS = (
    Mutant(
        "`build` names every point p1",
        "src/kodaira/catalog.py",
        'SingularPoint(f"p{k}", local, [names[i] for i in incidence])',
        'SingularPoint("p1", local, [names[i] for i in incidence])',
        (
            "tests/test_catalog.py::TestBuild"
            "::test_the_checked_constructor_accepts_every_built_configuration",
        ),
    ),
    Mutant(
        "`invariant_profile` memoized per configuration",
        "src/kodaira/invariants.py",
        "def invariant_profile(",
        '@__import__("functools").cache\ndef invariant_profile(',
        (
            "tests/test_invariants.py::test_no_invariant_keeps_its_configuration_alive",
            "tests/test_partner.py::test_one_recognizer_call_per_profile",
        ),
    ),
    Mutant(
        "adjunction ignores intrinsic singularities",
        "src/kodaira/curves.py",
        "needed = 2 * (c.geometric_genus + len(c.intrinsic)) - 2",
        "needed = 2 * (c.geometric_genus + 0) - 2",
        (
            "tests/test_acceptance.py::test_criterion_1_genus_one_reproduction",
            "tests/test_catalog.py::TestClassify::test_roundtrip",
        ),
    ),
    Mutant(
        "III and IV swapped in the recognizer",
        "src/kodaira/catalog.py",
        'KodairaType("III" if local is LocalType.TACNODE else "IV")',
        'KodairaType("IV" if local is LocalType.TACNODE else "III")',
        (
            "tests/test_catalog.py::TestClassify::test_two_points_versus_one_tacnode",
            "tests/test_acceptance.py::test_criterion_9_recognition_roundtrip",
            "tests/test_properties.py::test_recognizer_agrees_with_isomorphism_to_the_catalog",
        ),
    ),
    Mutant(
        "`_fiber_type` drops `mult == 1` on III and IV",
        "src/kodaira/catalog.py",
        'if mult == 1:\n            return KodairaType("III"',
        'if True:\n            return KodairaType("III"',
        ("tests/test_kodaira_list.py::test_kodaira_list_is_exhaustive",),
    ),
    Mutant(
        "`_recognize` reads the type past a failed fiber test",
        "src/kodaira/catalog.py",
        "(_fiber_type(config) if obstruction is None else None)",
        "_fiber_type(config)",
        ("tests/test_kodaira_list.py::test_kodaira_list_is_exhaustive",),
    ),
    Mutant(
        "`_verdict_rows` groups types by their first check only",
        "src/kodaira/partner.py",
        "classes.setdefault(_row(profile),",
        "classes.setdefault(_row(profile)[:1],",
        ("tests/test_cli.py::test_large_matrix_prints_the_partner_matrix_kinds",),
    ),
    Mutant(
        "`_agreeing` notes every reduced isomorphism",
        "src/kodaira/partner.py",
        "_SMOOTH_ELLIPTIC_NOTE if px.smooth else None",
        "_SMOOTH_ELLIPTIC_NOTE if px.reduced else None",
        ("tests/test_partner.py::TestCompare::test_reduced_self_comparison_is_isomorphic[kind1]",),
    ),
    Mutant(
        "`build` memoized per type",
        "src/kodaira/catalog.py",
        "def build(kind: KodairaType) -> CurveConfiguration:",
        "@functools.cache\ndef build(kind: KodairaType) -> CurveConfiguration:",
        ("tests/test_catalog.py::TestBuild::test_build_keeps_no_configuration_alive",),
    ),
    Mutant(
        "G_m and elliptic swapped in the Picard identity component",
        "src/kodaira/invariants.py",
        'return "G_m" if self.torus_rank else "elliptic" if self.elliptic_rank else "G_a"',
        'return "elliptic" if self.torus_rank else "G_m" if self.elliptic_rank else "G_a"',
        ("tests/test_acceptance.py::test_criterion_5_picard_trichotomy",),
    ),
    Mutant(
        "`invariant_profile` profiles an uncatalogued configuration",
        "src/kodaira/invariants.py",
        '        raise ValueError("not a Kodaira curve: no catalog match")\n',
        "",
        (
            "tests/test_partner.py::test_curves_of_canonical_type_that_are_no_fiber_have_no_profile",
            "tests/test_properties.py::test_profile_fields_against_oracles",
        ),
    ),
    Mutant(
        "`_shape` makes cycle point pk with incident (ck, ck)",
        "src/kodaira/catalog.py",
        "(*zip(range(1, n), range(2, n + 1)), (n, 1))",
        "(*zip(range(1, n), range(1, n)), (n, 1))",
        (
            "tests/test_catalog.py::TestBuild"
            "::test_the_checked_constructors_accept_every_built_record",
            "tests/test_catalog.py::TestShape"
            "::test_the_matrix_is_minus_the_affine_cartan_matrix[I(3)]",
        ),
    ),
    Mutant(
        "`_shape_rows` adds a tacnode's contribution as 1",
        "src/kodaira/catalog.py",
        "k = local.pair_contribution",
        "k = 1",
        (
            "tests/test_cli.py"
            "::test_show_reads_the_matrix_and_multiplicities_of_the_built_type[III]",
        ),
    ),
    Mutant(
        "the tacnode's pair contribution is 1",
        "src/kodaira/curves.py",
        'self.pair_contribution = 2 if value == "tacnode" else 1',
        "self.pair_contribution = 1",
        ("tests/test_cli.py::test_show_matrix_matches_a_per_cell_rendering[III]",),
    ),
    Mutant(
        "`_type_profile` gives I(0) torus rank 1",
        "src/kodaira/invariants.py",
        "torus = int(row.cycle and n >= 1)",
        "torus = int(row.cycle and (n >= 1 or row.params == 1))",
        (
            "tests/test_acceptance.py::test_criterion_4_negative_k_groups",
            "tests/test_graphs.py::TestLoopRank::test_all_other_types_have_no_loops[kind0]",
            "tests/test_properties.py::test_profile_fields_against_oracles",
        ),
    ),
    Mutant(
        "`_type_profile` gives IStar(N) N + 4 components",
        "src/kodaira/catalog.py",
        '"IStar": _Row(Subclass.L2, 1, lambda n: n + 5,',
        '"IStar": _Row(Subclass.L2, 1, lambda n: n + 4,',
        (
            "tests/test_acceptance.py::test_criterion_3_grothendieck_group_ranks",
            "tests/test_properties.py::test_profile_fields_against_oracles",
        ),
    ),
    Mutant(
        "`invariant_profile` names no component that breaks adjunction",
        "src/kodaira/invariants.py",
        "obstruction = obstruction or _adjunction_failure(config)",
        "obstruction = obstruction",
        ("tests/test_kodaira_list.py::test_kodaira_list_is_exhaustive",),
    ),
    Mutant(
        "M*m checked on the first row only",
        "src/kodaira/curves.py",
        "if any(_product(config, config.multiplicities())):",
        "if _product(config, config.multiplicities())[0]:",
        ("tests/test_curves.py::TestFiberTest::test_a_product_zero_in_its_first_row_only_fails",),
    ),
    Mutant(
        "`SingularPoint` accepts a repeated incident component",
        "src/kodaira/curves.py",
        "if incident[0] == incident[1] or (arity == 3 and incident[2] in incident[:2]):",
        "if False:",
        ("tests/test_curves.py::TestValidation::test_repeated_incident_component_rejected",),
    ),
    Mutant(
        "`Component` keeps `intrinsic` as given",
        "src/kodaira/curves.py",
        '        object.__setattr__(self, "intrinsic", tuple(self.intrinsic))\n',
        "",
        ("tests/test_curves.py::TestValidation::test_every_way_of_making_a_record_runs_its_checks",),
    ),
    Mutant(
        "`Component` accepts genus 2",
        "src/kodaira/curves.py",
        "if genus not in (0, 1):",
        "if genus not in (0, 1, 2):",
        ("tests/test_curves.py::TestValidation::test_genus_two_rejected",),
    ),
    Mutant(
        "`_pairings` yields only the first pair of a triple point",
        "src/kodaira/curves.py",
        "for a, b in combinations(p.incident, 2):",
        "for a, b in list(combinations(p.incident, 2))[:1]:",
        ("tests/test_curves.py::TestFiberTest::test_radical_is_the_primitive_multiplicity_vector[IV]",),
    ),
    Mutant(
        "`cmd_show`'s table formats a 1 as a 0",
        "src/kodaira/cli.py",
        "texts = {e: text.rjust(width) for e, text in texts.items()}",
        "texts = {e: text.rjust(width) for e, text in texts.items()} | {1: texts[0].rjust(width)}",
        ("tests/test_cli.py::test_show_matrix_matches_a_per_cell_rendering[I(3)]",),
    ),
    Mutant(
        "`cmd_show` keeps every row text of the table",
        "src/kodaira/cli.py",
        r'for text in _row_texts(matrix, " ", texts, "  [", "]\n"):',
        r'for text in list(_row_texts(matrix, " ", texts, "  [", "]\n")):',
        ("tests/test_growth.py::test_show_cycle_peak_grows_linearly",),
    ),
    Mutant(
        "`_print_json_rows` keeps every row text",
        "src/kodaira/cli.py",
        r'for text in _row_texts(rows, items, texts, "\n    [\n      ", "\n    ]"):',
        r'for text in list(_row_texts(rows, items, texts, "\n    [\n      ", "\n    ]")):',
        ("tests/test_growth.py::test_show_istar_json_peak_grows_linearly",),
    ),
    Mutant(
        "`cmd_compare` never finds the two sides identical",
        "src/kodaira/cli.py",
        "_type_profile(kind_b), kind_a == kind_b)",
        "_type_profile(kind_b), False)",
        (
            "tests/test_cli.py"
            "::test_comparing_a_type_with_itself_notes_that_the_configurations_are_identical",
        ),
    ),
    Mutant(
        "`cmd_compare` builds and profiles both configurations",
        "src/kodaira/cli.py",
        "verdict = _verdict(_type_profile(kind_a), _type_profile(kind_b), kind_a == kind_b)",
        'verdict = __import__("kodaira.partner").partner.compare(build(kind_a), build(kind_b))',
        (
            "tests/test_cli.py::test_a_cold_compare_makes_no_record_and_calls_neither_build"
            "_nor_recognize[I(100000)-II-NotEquivalent]",
            "tests/test_cli.py::test_a_cold_compare_makes_no_record_and_calls_neither_build"
            "_nor_recognize[IStar(4)-IStar(4)-PossiblyEquivalent]",
        ),
    ),
    Mutant(
        "`cmd_compare` builds and profiles the left configuration",
        "src/kodaira/cli.py",
        "verdict = _verdict(_type_profile(kind_a),",
        "verdict = _verdict("
        '__import__("kodaira.invariants").invariants.invariant_profile(build(kind_a)),',
        ("tests/test_growth.py::test_compare_peak_does_not_grow_with_the_cycle",),
    ),
    Mutant(
        "`cmd_show` builds and profiles its configuration",
        "src/kodaira/cli.py",
        "p = _type_profile(kind)",
        'p = __import__("kodaira.invariants").invariants.invariant_profile('
        '__import__("kodaira.catalog").catalog.build(kind))',
        ("tests/test_cli.py::test_show_computes_the_loop_rank_once[table-II]",),
    ),
    Mutant(
        "`cmd_show` builds its type",
        "src/kodaira/cli.py",
        "kind = parse_type(args.type)\n",
        'kind = parse_type(args.type)\n    __import__("kodaira.catalog").catalog.build(kind)\n',
        (
            "tests/test_cli.py::test_a_cold_show_makes_no_record_and_calls_neither_build"
            "_nor_recognize[table-IStar(800)]",
            "tests/test_cli.py::test_a_cold_show_makes_no_record_and_calls_neither_build"
            "_nor_recognize[json-I(400)]",
        ),
    ),
    Mutant(
        "`cmd_matrix` holds every row text in a list",
        "src/kodaira/cli.py",
        'zip(names, _row_texts(rows, "", text, tail="\\n"))',
        'zip(names, list(_row_texts(rows, "", text, tail="\\n")))',
        ("tests/test_growth.py::test_matrix_peak_grows_linearly_with_the_types",),
    ),
    Mutant(
        "`_class_count` takes a link inside the class rooted at 0 for a join",
        "src/kodaira/curves.py",
        "        if a != b:\n",
        "        if a != b or a == 0:\n",
        (
            "tests/test_properties.py"
            "::test_the_constructor_rejects_exactly_the_disconnected_configurations",
        ),
    ),
    Mutant(
        "`_verdict_rows` profiles each type twice",
        "src/kodaira/partner.py",
        "profile = _type_profile(t)",
        "profile = _type_profile(t) and _type_profile(t)",
        ("tests/test_cli.py::test_matrix_profiles_each_type_once[4-3]",),
    ),
    Mutant(
        "an E-star `list` entry prints its sorted multiplicities",
        "src/kodaira/catalog.py",
        "','.join(map(str, star))",
        "','.join(map(str, sorted(star)))",
        ("tests/test_cli.py::test_readme_examples_reproduce_byte_for_byte[list]",),
    ),
    Mutant(
        "`KodairaType` skips the int check",
        "src/kodaira/catalog.py",
        "if value is not None and type(value) is not int:",
        "if False:",
        (
            "tests/test_catalog.py::TestTypeParameters"
            "::test_a_parameter_that_is_not_an_int_is_rejected[I-True]",
        ),
    ),
    Mutant(
        "`list --format json` gives each entry its subclass header as the subclass",
        "src/kodaira/cli.py",
        '"subclass": s.value,',
        '"subclass": f"{s.value} ({_SUBCLASS_TITLES[s]})",',
        (
            "tests/test_cli.py::TestJsonOutput"
            "::test_list_json_holds_the_table_entries_under_their_headers",
        ),
    ),
    Mutant(
        "`main` lets a MemoryError through",
        "src/kodaira/cli.py",
        "except MemoryError:",
        "except ZeroDivisionError:",
        ("tests/test_cli.py::test_running_out_of_memory_exits_one_with_an_error_line",),
    ),
    Mutant(
        "`build_parser` configures only argv[0]'s command",
        "src/kodaira/cli.py",
        "        if name in argv:\n",
        "        if name in argv[:1]:\n",
        (
            "tests/test_cli.py"
            "::test_a_parser_with_only_the_named_commands_configured_answers_like_a_full_one",
        ),
    ),
    Mutant(
        "`build_parser` configures every command",
        "src/kodaira/cli.py",
        "        if name in argv:\n",
        "        if True:\n",
        (
            "tests/test_cli.py::test_a_call_adds_arguments_only_to_the_command_it_runs[classify]",
        ),
    ),
)


def _pytest(root: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status for the tests in the copy at root: 0 when all
    pass, 1 when one fails, other values when a test id does not resolve."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=root, env=env, capture_output=True).returncode


def _copy(root: Path) -> None:
    for name in COPIED:
        source = REPO / name
        if source.is_dir():
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
            shutil.copytree(source, root / name, ignore=ignore)
        else:
            shutil.copy2(source, root / name)


def run() -> list[str]:
    """Every failure of the mutation checks, as one line each."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="kodaira-mutants-") as tmp:
        root = Path(tmp)
        _copy(root)
        named = tuple(dict.fromkeys(test for m in MUTANTS for test in m.tests))
        status = _pytest(root, named)
        if status != 0:
            return [f"the unmutated copy does not pass every named test (pytest exit {status})"]
        for mutant in MUTANTS:
            path = root / mutant.path
            text = path.read_text(encoding="utf-8")
            found = text.count(mutant.old)
            if found != 1:
                failures.append(f"{mutant.name}: old text occurs {found} times in {mutant.path}")
                continue
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                for test in mutant.tests:
                    status = _pytest(root, (test,))
                    verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exit {status}")
                    print(f"{verdict}: {mutant.name} / {test}", flush=True)
                    if status != 1:
                        failures.append(f"{mutant.name}: {test} {verdict}")
            finally:
                path.write_text(text, encoding="utf-8")
    return failures


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print(f"FAIL: {line}", file=sys.stderr)
    print(f"{len(MUTANTS)} mutants, {len(problems)} failures")
    sys.exit(1 if problems else 0)
