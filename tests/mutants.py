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
        "`build` names every point of an incidence build p1",
        "src/kodaira/catalog.py",
        'SingularPoint(f"p{k + 1}", local,',
        'SingularPoint("p1", local,',
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
        "`_grown` makes point pk with incident (ck, ck)",
        "src/kodaira/catalog.py",
        "(curves[k - 1].name, curves[k].name)",
        "(curves[k - 1].name, curves[k - 1].name)",
        (
            "tests/test_catalog.py::TestBuild"
            "::test_the_checked_constructors_accept_every_built_record",
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
        'torus = int(family in ("I", "mI") and n >= 1)',
        'torus = int(family in ("I", "mI") and (n >= 1 or family == "I"))',
        (
            "tests/test_acceptance.py::test_criterion_4_negative_k_groups",
            "tests/test_graphs.py::TestLoopRank::test_all_other_types_have_no_loops[kind0]",
            "tests/test_properties.py::test_profile_fields_against_oracles",
        ),
    ),
    Mutant(
        "`_type_profile` gives IStar(N) N + 4 components",
        "src/kodaira/invariants.py",
        "components = n + 5",
        "components = n + 4",
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
        "`_pairings` yields only the first pair of a triple point",
        "src/kodaira/curves.py",
        "for a, b in combinations(p.incident, 2):",
        "for a, b in list(combinations(p.incident, 2))[:1]:",
        (
            "tests/test_cli.py::test_show_matrix_matches_a_per_cell_rendering[IV]",
            "tests/test_curves.py::TestFiberTest::test_radical_is_the_primitive_multiplicity_vector[IV]",
        ),
    ),
    Mutant(
        "the `_row_texts` memo formats a 1 as a 0",
        "src/kodaira/cli.py",
        "texts = {0: zero}",
        "texts = {0: zero, 1: zero}",
        (
            "tests/test_cli.py::test_show_matrix_matches_a_per_cell_rendering[I(3)]",
            "tests/test_cli.py::test_row_texts_formats_each_distinct_entry_once",
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
