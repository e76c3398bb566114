"""The public surface of the package: `kodaira.__all__` and its modules."""

import importlib

import pytest

import kodaira


def test_every_public_name_resolves_once():
    assert len(set(kodaira.__all__)) == len(kodaira.__all__) == 44
    for name in kodaira.__all__:
        assert getattr(kodaira, name) is not None, name


@pytest.mark.parametrize(
    "name", ["Multigraph", "dual_graph", "bipartite_graph", "first_betti", "reduce"]
)
def test_removed_graph_names_are_gone(name):
    assert not hasattr(kodaira, name)


def test_graphs_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("kodaira.graphs")
