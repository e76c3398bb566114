"""Independent oracles used by the test suite.

Each oracle recomputes a quantity along a route the library does not use:
kernels by unimodular integer column reduction instead of rational RREF,
cycle ranks by growing a spanning forest, semidefiniteness by signs of all
principal minors, the intersection matrix cell by cell from the point
records instead of from sparse rows, reference affine diagrams built
directly as networkx multigraphs, and isomorphism of configurations by
networkx graph matching, and the `matrix` table from one `compare` per
cell, each cell rendered on its own.
The dual graph and Roberts' branch-incidence graph of a configuration are
networkx multigraphs too; the library reads what it needs of them off the
records in closed form.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import networkx as nx

from kodaira import (
    Component,
    CurveConfiguration,
    IntrinsicType,
    LocalType,
    SingularPoint,
    build,
    compare,
    invariant_profile,
    partner,
)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def integer_kernel(matrix: list[list[int]] | tuple) -> list[list[int]]:
    """Kernel basis of an integer matrix by fraction-free column reduction.

    Unimodular column operations (tracked on an identity matrix) clear each
    row in turn; columns of the transform that pair with zero columns of
    the reduced matrix span the kernel over Z, hence over Q.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    a = [list(row) for row in matrix]
    t = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def combine(j1: int, j2: int, r: int) -> None:
        x, y = a[r][j1], a[r][j2]
        g, u, v = _extended_gcd(x, y)
        p, q = -(y // g), x // g
        for rows in (a, t):
            for row in rows:
                c1, c2 = row[j1], row[j2]
                row[j1] = u * c1 + v * c2
                row[j2] = p * c1 + q * c2

    def swap(j1: int, j2: int) -> None:
        for rows in (a, t):
            for row in rows:
                row[j1], row[j2] = row[j2], row[j1]

    first_free = 0
    for r in range(nrows):
        nonzero = [j for j in range(first_free, ncols) if a[r][j]]
        while len(nonzero) > 1:
            combine(nonzero[0], nonzero[1], r)
            nonzero = [j for j in nonzero if a[r][j]]
        if nonzero:
            swap(first_free, nonzero[0])
            first_free += 1
    return [[t[i][j] for i in range(ncols)] for j in range(first_free, ncols)]


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by rational Gaussian elimination with pivoting."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def negative_semidefinite_by_minors(matrix) -> bool:
    """M is NSD iff (-1)^|S| det(M_S) >= 0 for every principal submatrix."""
    n = len(matrix)
    for size in range(1, n + 1):
        sign = (-1) ** size
        for subset in itertools.combinations(range(n), size):
            sub = [[Fraction(matrix[i][j]) for j in subset] for i in subset]
            if sign * determinant(sub) < 0:
                return False
    return True


PAIR_WEIGHT = {LocalType.TRANSVERSE: 1, LocalType.TACNODE: 2, LocalType.ORDINARY_TRIPLE: 1}


def dense_matrix(config: CurveConfiguration) -> list[list[int]]:
    """The intersection matrix written out from the records, by hand."""
    index = {c.name: i for i, c in enumerate(config.components)}
    rows = [[0] * config.n_components for _ in config.components]
    for i, c in enumerate(config.components):
        rows[i][i] = c.self_intersection
    for p in config.points:
        for a in p.incident:
            for b in p.incident:
                if a != b:
                    rows[index[a]][index[b]] += PAIR_WEIGHT[p.local_type]
    return rows


def reduce(config: CurveConfiguration) -> CurveConfiguration:
    """The underlying reduced curve: every multiplicity reset to 1."""
    return CurveConfiguration(
        tuple(replace(c, multiplicity=1) for c in config.components), config.points
    )


def dual_graph(config: CurveConfiguration) -> nx.MultiGraph:
    """One vertex per component, one edge per intersection incidence.

    A transverse point or a tacnode joins its two components by a single
    edge, an ordinary triple point joins each of its three pairs, and a
    node intrinsic to one component becomes a self-loop there. A cusp has a
    single branch and contributes no edge.
    """
    g = nx.MultiGraph()
    g.add_nodes_from(c.name for c in config.components)
    for p in config.points:
        g.add_edges_from(itertools.combinations(p.incident, 2))
    for c in config.components:
        g.add_edges_from((c.name, c.name) for s in c.intrinsic if s is IntrinsicType.NODE)
    return g


def bipartite_graph(config: CurveConfiguration) -> nx.MultiGraph:
    """Roberts' graph: singular points vs. normalized components.

    Every branch through a singular point contributes one edge from the
    point to the component the branch lies on: two edges per transverse
    point or tacnode, three per triple point, two parallel edges for an
    intrinsic node, one for a cusp. Vertices are ("c", component),
    ("p", point) and ("i", component, k) for the k-th intrinsic singularity.
    """
    g = nx.MultiGraph()
    g.add_nodes_from(("c", c.name) for c in config.components)
    for p in config.points:
        g.add_node(("p", p.name))
        g.add_edges_from((("p", p.name), ("c", name)) for name in p.incident)
    for c in config.components:
        for k, s in enumerate(c.intrinsic):
            g.add_node(("i", c.name, k))
            g.add_edges_from([(("i", c.name, k), ("c", c.name))] * s.branches)
    return g


def first_betti(graph: nx.MultiGraph) -> int:
    """Cycle rank: |edges| - |vertices| + number of connected components."""
    return (
        graph.number_of_edges()
        - graph.number_of_nodes()
        + nx.number_connected_components(graph)
    )


def cycle_rank_by_spanning_forest(graph: nx.MultiGraph) -> int:
    """Edges left over after growing a spanning forest."""
    parent = {v: v for v in graph.nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    extra = 0
    for a, b in graph.edges():
        ra, rb = find(a), find(b)
        if ra == rb:
            extra += 1
        else:
            parent[ra] = rb
    return extra


def reference_cycle(n: int) -> nx.MultiGraph:
    """Affine A~(n-1): a cycle on n vertices (two parallel edges at n=2)."""
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    if n == 2:
        g.add_edge(0, 1)
        g.add_edge(0, 1)
    else:
        for i in range(n):
            g.add_edge(i, (i + 1) % n)
    return g


def reference_dstar(n: int) -> nx.MultiGraph:
    """Affine D~(n+4): a path of n+1 hubs with two leaves at each end."""
    g = nx.MultiGraph()
    hubs = [f"h{i}" for i in range(n + 1)]
    for a, b in zip(hubs, hubs[1:]):
        g.add_edge(a, b)
    g.add_edge("l1", hubs[0])
    g.add_edge("l2", hubs[0])
    g.add_edge("l3", hubs[-1])
    g.add_edge("l4", hubs[-1])
    return g


def reference_estar(arm_lengths: tuple[int, int, int]) -> nx.MultiGraph:
    """Affine E~6/E~7/E~8 for arm lengths (2,2,2)/(3,3,1)/(5,2,1)."""
    g = nx.MultiGraph()
    g.add_node("center")
    for arm, length in enumerate(arm_lengths):
        previous = "center"
        for i in range(length):
            node = f"a{arm}.{i}"
            g.add_edge(previous, node)
            previous = node
    return g


def _incidence_graph(config: CurveConfiguration) -> nx.Graph:
    """Components and points as vertices that carry every field but the name,
    with an edge from each point to each of its incident components."""
    g = nx.Graph()
    for c in config.components:
        record = (c.multiplicity, c.geometric_genus, c.self_intersection, tuple(sorted(c.intrinsic)))
        g.add_node(("c", c.name), record=record)
    for p in config.points:
        g.add_node(("p", p.name), record=p.local_type)
        g.add_edges_from((("p", p.name), ("c", name)) for name in p.incident)
    return g


def isomorphic_configurations(a: CurveConfiguration, b: CurveConfiguration) -> bool:
    """Equal up to names: a networkx isomorphism of the incidence graphs
    that preserves multiplicity, genus, self-intersection, intrinsic
    singularities and local types."""
    return nx.is_isomorphic(
        _incidence_graph(a),
        _incidence_graph(b),
        node_match=lambda x, y: x["record"] == y["record"],
    )


def relabeled(config: CurveConfiguration, rng: random.Random) -> CurveConfiguration:
    """Same configuration with shuffled order and fresh labels everywhere."""
    comp_names = [c.name for c in config.components]
    fresh = [f"k{i}" for i in range(len(comp_names) + len(config.points))]
    rng.shuffle(fresh)
    mapping = {old: fresh[i] for i, old in enumerate(comp_names)}
    components = [
        Component(mapping[c.name], c.multiplicity, c.geometric_genus, c.self_intersection, c.intrinsic)
        for c in config.components
    ]
    rng.shuffle(components)
    points = []
    for j, p in enumerate(config.points):
        incident = [mapping[name] for name in p.incident]
        rng.shuffle(incident)
        points.append(SingularPoint(fresh[len(comp_names) + j], p.local_type, tuple(incident)))
    rng.shuffle(points)
    return CurveConfiguration(tuple(components), tuple(points))


MATRIX_CHARS = {"Isomorphic": "=", "NotEquivalent": "x", "PossiblyEquivalent": "?"}


def compare_kinds(types) -> list[list[str]]:
    """The verdict kind of every ordered pair of types, one `compare` per cell.

    Each type is built once and profiled once: while the cells are filled,
    `partner.invariant_profile` answers from a memo keyed by the id of the
    configuration, and every configuration stays alive until the end.
    """
    configs = [build(t) for t in types]
    profiles = {id(c): invariant_profile(c) for c in configs}
    real = partner.invariant_profile
    partner.invariant_profile = lambda config: profiles[id(config)]
    try:
        return [[compare(a, b).kind.value for b in configs] for a in configs]
    finally:
        partner.invariant_profile = real


def matrix_output(types, kinds: list[list[str]], fmt: str) -> str:
    """What `kodaira matrix --format fmt` prints for the types and a grid of
    verdict kind names, every cell rendered on its own."""
    names = [str(t) for t in types]
    if fmt == "json":
        return json.dumps({"types": names, "cells": kinds}, indent=2, sort_keys=True) + "\n"
    width = max(len(name) for name in names)
    lines = [
        "legend: = isomorphic, x not equivalent, ? possibly equivalent",
        " " * width + "".join(" " + name.rjust(width) for name in names),
    ]
    for name, row in zip(names, kinds):
        lines.append(name.ljust(width) + "".join(" " + MATRIX_CHARS[k].rjust(width) for k in row))
    return "\n".join(lines) + "\n"
