"""The public surface of the package: `kodaira.__all__` and its modules."""

import importlib
import os
import subprocess
import sys

import pytest

import kodaira
from readme_examples import REPO, readme_library_example


def test_every_public_name_resolves_once():
    assert len(set(kodaira.__all__)) == len(kodaira.__all__) == 26
    for name in kodaira.__all__:
        assert getattr(kodaira, name) is not None, name


@pytest.mark.parametrize(
    "name", ["Multigraph", "dual_graph", "bipartite_graph", "first_betti", "reduce"]
)
def test_removed_graph_names_are_gone(name):
    assert not hasattr(kodaira, name)


@pytest.mark.parametrize(
    "name",
    [
        "IntersectionMatrix",
        "SingularitySummary",
        "is_smooth",
        "singularity_summary",
        "is_fiber_like",
        "gcd_multiplicity",
        "radical_basis",
        "divisor_square",
        "FreeAbelianGroup",
        "euler_characteristic",
        "arithmetic_genus",
        "grothendieck_group",
        "negative_k",
        "picard_descriptor",
        "dsg_status",
        # `compare` gives every cell; `matrix` reads the kinds off the profile classes
        "partner_matrix",
        # `show` writes the sparse rows; the tests' `oracles.dense_matrix` writes it out
        "intersection_matrix",
        # the profile reads the K^-1 rank off the recognized type
        "loop_rank",
    ],
)
def test_names_folded_into_the_profile_are_gone(name):
    assert not hasattr(kodaira, name)


def test_readme_library_example_runs():
    exec(compile(readme_library_example(), "README.md", "exec"), {})


def test_graphs_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("kodaira.graphs")


def test_cli_import_leaves_out_fractions_and_decimal():
    """The library is integer-only, so the CLI never pays for these imports."""
    code = "import sys, kodaira.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        check=True,
    )
    assert result.stdout == "[]\n"
