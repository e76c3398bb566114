"""Kodaira's list, checked exhaustively up to a stated size.

The recognizer (`catalog._fiber_type`) rests on the classification of
affine Cartan matrices (Kac, Infinite-Dimensional Lie Algebras, Theorem
4.3 and Table Aff 1) and on the fiber list (Barth-Hulek-Peters-Van de
Ven, Compact Complex Surfaces, Section V.7). This test checks `classify`
against oracles that share no code with it: M*m from `oracles.dense_matrix`,
the kernel from `oracles.integer_kernel` and the match from
`oracles.isomorphic_configurations`. It also checks
`catalog._recognize`, the one pass of the fiber gates, and
`invariant_profile` against `classify`. The inputs, all connected:

- every connected graph of networkx's atlas (1 to 7 vertices, 996
  graphs), every tree on 8 to 12 vertices (962) and the doubled edge of
  A~1, each made a configuration of (-2)-curves with one transverse point
  per edge: 1,959 graphs, each at multiplicities 1, ..., 1 and, when the
  kernel of its intersection matrix is one positive line, at that line's
  primitive root times 1, 2 and 3;
- every configuration of two or three (-2)-curves with a tacnode or a
  triple point among its points, where each pair of curves carries at
  most two transverse points or tacnodes and the three curves at most one
  triple point: 399 point sets, each at every multiplicity vector in
  {1, 2, 3}^n;
- one rational curve with a node or a cusp, or one smooth curve of genus
  one, of square -2, 0 or 2, at multiplicities 1 to 4;
- configurations with M*m = 0 that break adjunction: a ring of 2 to 6
  curves of square -2 meeting transversally, one of them nodal, cuspidal
  or of genus one, at multiplicities k, ..., k for k = 1, 2, 3, and a
  rational curve of square -4 and multiplicity 1 meeting one of square -1
  and multiplicity 2 at two transverse points: 46 configurations.

That makes 12,805 configurations. For each, `classify` returns a type
exactly when M*m = 0, every component satisfies adjunction (C^2 =
2 (g + intrinsic singularities) - 2) and m is the primitive root of the
kernel, or any multiple of it on a cycle (a ring of (-2)-curves meeting
transversally, a nodal rational curve or a smooth genus-one curve: the
families I and mI), and `build` of that type is isomorphic to the input. `_recognize`
returns that type with the obstruction "M*m != 0" exactly when M*m is not
0. `invariant_profile` has that type as its `kind`; with no type it
raises ValueError, "not fiber-like: ..." when M*m is not 0 or a component
breaks adjunction, and "not a Kodaira curve: no catalog match" otherwise.
The test runs in under two seconds.
"""

import itertools
import math

import networkx as nx

from kodaira import (
    Component,
    CurveConfiguration,
    IntrinsicType,
    LocalType,
    SingularPoint,
    build,
    classify,
    invariant_profile,
)
from kodaira.catalog import _recognize
from oracles import dense_matrix, integer_kernel, isomorphic_configurations

TRANSVERSE, TACNODE, TRIPLE = LocalType.TRANSVERSE, LocalType.TACNODE, LocalType.ORDINARY_TRIPLE


def _curves(mults, points) -> CurveConfiguration:
    """(-2)-curves c0, c1, ... of the multiplicities, and one point per
    (local type, component numbers) pair."""
    components = tuple(Component(f"c{i}", m, 0, -2) for i, m in enumerate(mults))
    return CurveConfiguration(
        components,
        tuple(
            SingularPoint(f"p{k}", local, tuple(f"c{i}" for i in ids))
            for k, (local, ids) in enumerate(points)
        ),
    )


def _root(rows) -> list[int] | None:
    """The primitive positive generator of the kernel, when the kernel is
    one line with a vector of positive entries, else None."""
    kernel = integer_kernel(rows)
    if len(kernel) != 1:
        return None
    line = kernel[0] if kernel[0][0] > 0 else [-v for v in kernel[0]]
    if min(line) <= 0:
        return None
    return [v // math.gcd(*line) for v in line]


def _disagreements(config: CurveConfiguration, root, cycle: bool) -> list[str]:
    """What `classify`, `_recognize` or `invariant_profile` gets wrong about
    one configuration, by the rules above."""
    mults = list(config.multiplicities())
    product = [sum(x * m for x, m in zip(row, mults)) for row in dense_matrix(config)]
    adjunction = all(
        c.self_intersection == 2 * (c.geometric_genus + len(c.intrinsic)) - 2
        for c in config.components
    )
    expected = not any(product) and adjunction and root is not None and (mults == root or cycle)
    kind = classify(config)
    if (kind is not None) != expected:
        return [f"{config}: classify gives {kind}, a type expected: {expected}"]
    if kind is not None and not isomorphic_configurations(build(kind), config):
        return [f"{config}: not isomorphic to build({kind})"]
    obstruction = "M*m != 0" if any(product) else None
    if _recognize(config) != (kind, obstruction):
        return [f"{config}: _recognize gives {_recognize(config)}, not {(kind, obstruction)}"]
    try:
        profiled = invariant_profile(config).kind
    except ValueError as error:
        profiled = str(error)
    if kind is not None:
        agrees = profiled == kind
    elif obstruction:
        agrees = profiled == "not fiber-like: M*m != 0"
    elif not adjunction:
        agrees = isinstance(profiled, str) and profiled.startswith("not fiber-like: component ")
    else:
        agrees = profiled == "not a Kodaira curve: no catalog match"
    return [] if agrees else [f"{config}: invariant_profile gives {profiled!r}, classify {kind}"]


def _graph_inputs():
    """(edges, vertex count, cycle) per graph: the atlas, the trees and the doubled edge."""
    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() and nx.is_connected(g)]
    graphs += [tree for n in range(8, 13) for tree in nx.nonisomorphic_trees(n)]
    for g in graphs:
        cycle = g.number_of_nodes() >= 3 and all(d == 2 for _, d in g.degree())
        yield list(g.edges()), g.number_of_nodes(), cycle
    yield [(0, 1), (0, 1)], 2, True


def _tacnode_and_triple_point_sets():
    """(points, curve count) with a tacnode or a triple point among the points."""
    # the points on one pair of curves: at most two, each transverse or a tacnode
    multisets = [
        locals_
        for size in range(3)
        for locals_ in itertools.combinations_with_replacement((TRANSVERSE, TACNODE), size)
    ]
    for locals_ in multisets:
        if TACNODE in locals_:
            yield [(local, (0, 1)) for local in locals_], 2
    for triples in range(2):
        for on_pairs in itertools.product(multisets, repeat=3):
            if not triples and (TACNODE not in sum(on_pairs, ()) or on_pairs.count(()) > 1):
                continue  # no tacnode or triple point, or not connected
            points = [(TRIPLE, (0, 1, 2))] * triples
            for pair, locals_ in zip(((0, 1), (0, 2), (1, 2)), on_pairs):
                points += [(local, pair) for local in locals_]
            yield points, 3


def _adjunction_breaking():
    """Configurations with M*m = 0 and a component that breaks adjunction."""
    decorations = ((0, (IntrinsicType.NODE,)), (0, (IntrinsicType.CUSP,)), (1, ()))
    for n in range(2, 7):
        points = [(TRANSVERSE, (i, (i + 1) % n)) for i in range(n)]
        for genus, intrinsic in decorations:
            for k in (1, 2, 3):
                config = _curves([k] * n, points)
                odd = Component("c0", k, genus, -2, intrinsic)
                yield CurveConfiguration((odd, *config.components[1:]), config.points)
    curves = (Component("a", 1, 0, -4), Component("b", 2, 0, -1))
    yield CurveConfiguration(
        curves,
        (SingularPoint("p", TRANSVERSE, ("a", "b")), SingularPoint("q", TRANSVERSE, ("a", "b"))),
    )


def test_kodaira_list_is_exhaustive():
    failures = []
    sizes = {"graphs": 0, "point sets": 0, "configurations": 0}
    for edges, n, cycle in _graph_inputs():
        points = [(TRANSVERSE, edge) for edge in edges]
        root = _root(dense_matrix(_curves([1] * n, points)))
        vectors = {(1,) * n} | ({tuple(k * v for v in root) for k in (1, 2, 3)} if root else set())
        for mults in vectors:
            failures += _disagreements(_curves(mults, points), root, cycle)
        sizes["graphs"] += 1
        sizes["configurations"] += len(vectors)
    for points, n in _tacnode_and_triple_point_sets():
        root = _root(dense_matrix(_curves([1] * n, points)))
        for mults in itertools.product((1, 2, 3), repeat=n):
            failures += _disagreements(_curves(mults, points), root, False)
        sizes["point sets"] += 1
        sizes["configurations"] += 3**n
    for square in (-2, 0, 2):
        for genus, intrinsic in ((0, (IntrinsicType.NODE,)), (0, (IntrinsicType.CUSP,)), (1, ())):
            for m in range(1, 5):
                config = CurveConfiguration((Component("c", m, genus, square, intrinsic),))
                root = _root(dense_matrix(config))
                failures += _disagreements(config, root, intrinsic != (IntrinsicType.CUSP,))
                sizes["configurations"] += 1
    for config in _adjunction_breaking():
        mults = config.multiplicities()
        assert not any(sum(x * m for x, m in zip(row, mults)) for row in dense_matrix(config))
        failures += _disagreements(config, _root(dense_matrix(config)), False)
        sizes["configurations"] += 1
    assert failures == []
    assert sizes == {"graphs": 1959, "point sets": 399, "configurations": 12805}
