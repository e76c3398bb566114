"""Dual graphs, branch-incidence graphs and their cycle ranks.

Two graphs are attached to a reduced configuration. The dual graph has one
vertex per component and one edge per intersection incidence; its first
Betti number is the torus rank of the Picard scheme when all crossings are
nodes. The branch-incidence graph (Roberts' bipartite graph) has a vertex
for every singular point and for every normalized component, with one edge
per branch through the point; its first Betti number is the rank of the
first negative K-group.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .curves import CurveConfiguration, IntrinsicType, _class_count, reduce

COMPONENT_PREFIX = "c:"
POINT_PREFIX = "p:"
INTRINSIC_PREFIX = "i:"


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; parallel edges and self-loops allowed."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise ValueError("vertex labels must be unique")
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ValueError(f"edge ({a!r}, {b!r}) references an unknown vertex")

    def degree(self, vertex: str) -> int:
        d = 0
        for a, b in self.edges:
            if a == vertex:
                d += 1
            if b == vertex:
                d += 1  # a self-loop counts twice
        return d

    def connected_component_count(self) -> int:
        index = {v: i for i, v in enumerate(self.vertices)}
        return _class_count(len(self.vertices), ((index[a], index[b]) for a, b in self.edges))

    def edge_list_text(self) -> str:
        """Plain-text edge list, one edge per line, labels verbatim."""
        return "".join(f"{a}\t{b}\n" for a, b in self.edges)


def _require_reduced(config: CurveConfiguration, what: str) -> None:
    if not config.is_reduced():
        raise ValueError(f"{what} is defined for reduced configurations only")


def dual_graph(config: CurveConfiguration) -> Multigraph:
    """One vertex per component, one edge per intersection incidence.

    A transverse point or a tacnode joins its two components by a single
    edge, an ordinary triple point joins each of its three pairs, and a
    node intrinsic to one component becomes a self-loop there. A cusp has a
    single branch and contributes no edge.
    """
    _require_reduced(config, "the dual graph")
    vertices = tuple(c.name for c in config.components)
    edges: list[tuple[str, str]] = []
    for p in config.points:
        for a in range(len(p.incident)):
            for b in range(a + 1, len(p.incident)):
                edges.append((p.incident[a], p.incident[b]))
    for c in config.components:
        for s in c.intrinsic:
            if s is IntrinsicType.NODE:
                edges.append((c.name, c.name))
    return Multigraph(vertices, tuple(edges))


def bipartite_graph(config: CurveConfiguration) -> Multigraph:
    """Roberts' graph: singular points vs. normalized components.

    Every branch through a singular point contributes one edge from the
    point to the component the branch lies on: two edges per transverse
    point or tacnode (one to each component), three per triple point, two
    parallel edges for an intrinsic node, one for a cusp.
    """
    _require_reduced(config, "the branch-incidence graph")
    vertices = [COMPONENT_PREFIX + c.name for c in config.components]
    edges: list[tuple[str, str]] = []
    for p in config.points:
        label = POINT_PREFIX + p.name
        vertices.append(label)
        for name in p.incident:
            edges.append((label, COMPONENT_PREFIX + name))
    for c in config.components:
        for i, s in enumerate(c.intrinsic):
            label = f"{INTRINSIC_PREFIX}{c.name}.{i}"
            vertices.append(label)
            for _ in range(s.branches):
                edges.append((label, COMPONENT_PREFIX + c.name))
    return Multigraph(tuple(vertices), tuple(edges))


def first_betti(graph: Multigraph) -> int:
    """Cycle rank: |edges| - |vertices| + number of connected components."""
    return len(graph.edges) - len(graph.vertices) + graph.connected_component_count()


@functools.cache
def loop_rank(config: CurveConfiguration) -> int:
    """Cycle rank of the branch-incidence graph of the reduced curve.

    This is the free rank of the first negative K-group; it only depends on
    the reduction, so non-reduced input is reduced first.
    """
    return first_betti(bipartite_graph(reduce(config)))
