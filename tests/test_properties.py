"""Property tests over randomized configurations, not just catalog members."""

import math
import random
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kodaira import (
    Component,
    CurveConfiguration,
    IntrinsicType,
    KodairaType,
    LocalType,
    SingularPoint,
    build,
    catalog_types,
    classify,
    fiber_obstruction,
    invariant_profile,
)
from kodaira.curves import _sparse_rows
from oracles import (
    PAIR_WEIGHT,
    bipartite_graph,
    catalog_match,
    cycle_rank_by_spanning_forest,
    dense_matrix,
    dual_graph,
    first_betti,
    integer_kernel,
    negative_semidefinite_by_minors,
    reduce,
    relabeled,
)

_INTRINSIC = st.lists(st.sampled_from([IntrinsicType.NODE, IntrinsicType.CUSP]), max_size=2)


@st.composite
def configurations(draw):
    """Random valid configurations: connected, arbitrary multiplicities,
    nodes and cusps on rational components."""
    n = draw(st.integers(1, 5))
    components = []
    for i in range(n):
        genus = draw(st.integers(0, 1))
        components.append(
            Component(
                f"c{i}",
                draw(st.integers(1, 3)),
                genus,
                draw(st.sampled_from([-4, -2, 0, 2] if n == 1 else [-4, -2, 0])),
                tuple(draw(_INTRINSIC)) if genus == 0 else (),
            )
        )
    if n == 1:
        return CurveConfiguration(tuple(components))
    names = [c.name for c in components]
    points = []
    for i in range(1, n):  # random spanning tree keeps it connected
        j = draw(st.integers(0, i - 1))
        local = draw(st.sampled_from([LocalType.TRANSVERSE, LocalType.TACNODE]))
        points.append(SingularPoint(f"p{len(points)}", local, (names[i], names[j])))
    for _ in range(draw(st.integers(0, 3))):
        local = draw(
            st.sampled_from(
                [LocalType.TRANSVERSE, LocalType.TACNODE, LocalType.ORDINARY_TRIPLE]
            )
        )
        if local.arity > n:
            continue
        picked = draw(st.permutations(names))[: local.arity]
        points.append(SingularPoint(f"p{len(points)}", local, tuple(picked)))
    return CurveConfiguration(tuple(components), tuple(points))


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_intersection_matrix_shape(config):
    """The rows `show` prints are symmetric, with no negative entry off the diagonal."""
    rows = _sparse_rows(config)
    for i, row in enumerate(rows):
        for j, entry in row.items():
            assert rows[j].get(i) == entry
            assert i == j or entry >= 0


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_reduce_is_idempotent_and_primitive(config):
    once = reduce(config)
    assert reduce(once) == once
    assert math.gcd(*once.multiplicities()) == 1
    assert once.points == config.points
    assert [c.name for c in once.components] == [c.name for c in config.components]


@settings(max_examples=60, deadline=None)
@given(configurations(), st.integers(0, 2**32 - 1))
def test_classify_is_label_independent(config, seed):
    assert classify(relabeled(config, random.Random(seed))) == classify(config)


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_recognized_configurations_share_the_catalog_profile(config):
    kind = classify(config)
    if kind is None:
        return
    assert invariant_profile(config) == invariant_profile(build(kind))


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_transverse_only_dual_graphs_satisfy_the_point_count_formula(config):
    reduced = reduce(config)
    if any(p.local_type is not LocalType.TRANSVERSE for p in reduced.points):
        return
    if any(c.intrinsic for c in reduced.components):
        return
    betti = first_betti(dual_graph(reduced))
    assert betti == len(reduced.points) - reduced.n_components + 1


@st.composite
def fiber_candidates(
    draw,
    kinds=(LocalType.TRANSVERSE, LocalType.TACNODE, LocalType.ORDINARY_TRIPLE),
    constrained=st.booleans(),
):
    """Connected rational configurations of 1-8 components, multiplicities 1-6.

    Points of the given local types are drawn first. A constrained draw
    then lowers multiplicities until each m_i divides the off-diagonal part
    of (M*m)_i, and sets each self-intersection to make M*m = 0; an
    unconstrained draw takes random self-intersections.
    """
    n = draw(st.integers(1, 8))
    mults = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    incidences = []
    for i in range(1, n):  # join each component to an earlier one
        j = draw(st.integers(0, i - 1))
        local = draw(st.sampled_from(kinds if n >= 3 else kinds[:2]))
        ids = [i, j]
        if local is LocalType.ORDINARY_TRIPLE:
            ids.append(draw(st.sampled_from([k for k in range(n) if k not in ids])))
        incidences.append((local, ids))
    for _ in range(draw(st.integers(0, 4))):
        local = draw(st.sampled_from(kinds))
        if local.arity <= n:
            incidences.append((local, draw(st.permutations(range(n)))[: local.arity]))

    def off_diagonal(mults):
        """(M*m)_i without the self-intersection term."""
        sums = [0] * n
        for local, ids in incidences:
            for a in ids:
                for b in ids:
                    if a != b:
                        sums[a] += PAIR_WEIGHT[local] * mults[b]
        return sums

    if draw(constrained):
        # lower each m_i to gcd(m_i, sum) until every division is exact
        while (lowered := [math.gcd(m, s) for m, s in zip(mults, off_diagonal(mults))]) != mults:
            mults = lowered
        squares = [-s // m for m, s in zip(mults, off_diagonal(mults))]
    else:
        squares = [draw(st.integers(-8, 2)) for _ in range(n)]
    components = tuple(Component(f"c{i}", mults[i], 0, squares[i]) for i in range(n))
    points = tuple(
        SingularPoint(f"p{k}", local, tuple(f"c{i}" for i in ids))
        for k, (local, ids) in enumerate(incidences)
    )
    return CurveConfiguration(components, points)


def proportional(v, w):
    return all(v[i] * w[0] == v[0] * w[i] for i in range(len(w)))


@settings(max_examples=200, deadline=None)
@given(fiber_candidates())
def test_fiber_test_is_zariskis_lemma(config):
    """M*m = 0 alone decides the fiber test, as Zariski's lemma says: the
    oracles confirm the semidefiniteness and the rank-1 radical Q*m that
    the library takes from the lemma."""
    mult = config.multiplicities()
    rows = dense_matrix(config)
    # the sparse rows that `show` prints, written out in full
    shown = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(_sparse_rows(config)):
        for j, entry in row.items():
            shown[i][j] = entry
    assert shown == rows
    product = [sum(x * v for x, v in zip(row, mult)) for row in rows]

    kernel = integer_kernel(rows)
    fiber = (
        not any(product)
        and len(kernel) == 1
        and proportional(kernel[0], mult)
        and negative_semidefinite_by_minors(rows)
    )
    obstruction = fiber_obstruction(config)
    assert obstruction in (None, "M*m != 0")
    assert (obstruction is None) == fiber


_REDUCIBLE_TYPES = [t for t in catalog_types(6, 3) if build(t).n_components >= 2]


@st.composite
def scaled_catalog_fibers(draw):
    """Relabeled reducible catalog members with multiplicities scaled by 1-3."""
    config = relabeled(
        build(draw(st.sampled_from(_REDUCIBLE_TYPES))),
        random.Random(draw(st.integers(0, 2**32 - 1))),
    )
    k = draw(st.integers(1, 3))
    return CurveConfiguration(
        tuple(replace(c, multiplicity=k * c.multiplicity) for c in config.components),
        config.points,
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(fiber_candidates(constrained=st.just(True)), scaled_catalog_fibers()))
@example(build(KodairaType("III")))
@example(build(KodairaType("IV")))
def test_recognizer_agrees_with_isomorphism_to_the_catalog(config):
    """classify(c) is T exactly when c is isomorphic to build(T), and so is
    the type the profile carries; the expected type is found by networkx
    alone, never by the recognizer.

    By Zariski's lemma and the classification of affine Cartan matrices,
    (-2)-curves with M*m = 0 form an affine diagram with m a multiple of its
    null root, so those are drawn as scaled, relabeled catalog members,
    scaled III and IV among them; the generator adds configurations with
    M*m = 0 and other squares, with transverse points, tacnodes and triple
    points mixed.
    """
    expected = catalog_match(config)
    assert classify(config) == expected
    try:
        profile = invariant_profile(config)
    except ValueError:
        assert expected is None
    else:
        assert profile.kind == expected


def two_components(a, b, local_types):
    points = tuple(
        SingularPoint(f"p{i}", local, ("a", "b")) for i, local in enumerate(local_types)
    )
    return CurveConfiguration((a, b), points)


_NOT_FIBER_LIKE = "not fiber-like: M*m != 0"


def adjunction_rejection(config):
    """The profile's message for the first component off C^2 = 2 p_a - 2,
    with p_a the geometric genus plus one per node or cusp, or None."""
    for c in config.components:
        square = 2 * (c.geometric_genus + len(c.intrinsic)) - 2
        if c.self_intersection != square:
            return (
                f"not fiber-like: component {c.name!r} has self-intersection "
                f"{c.self_intersection}, adjunction needs {square}"
            )
    return None


@settings(max_examples=200, deadline=None)
@given(st.one_of(configurations(), fiber_candidates(constrained=st.just(True))))
@example(build(KodairaType("mI", 1, 3)))
@example(build(KodairaType("I", 0)))
@example(build(KodairaType("mI", 0, 2)))
@example(CurveConfiguration((Component("c", 1, 0, 0, (IntrinsicType.NODE, IntrinsicType.CUSP)),)))
@example(CurveConfiguration((Component("c", 1, 0, 0),)))
@example(
    two_components(
        Component("a", 1, 0, -1, (IntrinsicType.NODE,)),
        Component("b", 1, 0, -1),
        [LocalType.TRANSVERSE],
    )
)
@example(
    two_components(Component("a", 1, 1, -2), Component("b", 1, 0, -2), [LocalType.TRANSVERSE] * 2)
)
@example(
    two_components(Component("a", 1, 0, -3), Component("b", 1, 0, -3), [LocalType.TRANSVERSE] * 3)
)
@example(
    two_components(Component("a", 1, 0, -4), Component("b", 2, 0, -1), [LocalType.TRANSVERSE] * 2)
)
@example(two_components(Component("a", 2, 0, -2), Component("b", 2, 0, -2), [LocalType.TACNODE]))
@example(CurveConfiguration((Component("c", 2, 0, 0, (IntrinsicType.CUSP,)),)))
@example(build(KodairaType("IStar", 1)))
def test_profile_fields_against_oracles(config):
    """invariant_profile raises exactly the first of its three rejections
    that the oracles find, and nothing on any other input: M*m != 0, then a
    component whose square breaks adjunction, then no catalog type that
    networkx finds isomorphic. Past all three, no intrinsic
    singularity or genus-one component lies on a reducible curve, and the
    unipotent dimension is not negative. A profile it returns has the cycle
    rank of Roberts' graph as K^-1 and torus rank; chi = -m.Mm/2, or
    1 - g - sum of deltas on one singular component, gives g_a = 1 - chi
    and the unipotent dimension 1 - chi - torus - elliptic; the elliptic
    rank is the sum of the genera, the discrete rank the component count,
    and G0 has rank components + 1 over rational components and 2 over one
    genus-1 component. A reduced curve counts the point and intrinsic
    vertices of Roberts' graph as its singular points, and is smooth when
    there are none; a non-reduced curve has no count."""
    mult = config.multiplicities()
    product = [sum(x * v for x, v in zip(row, mult)) for row in dense_matrix(config)]
    graph = bipartite_graph(reduce(config))
    torus = cycle_rank_by_spanning_forest(graph)
    genera = [c.geometric_genus for c in config.components]
    first, *rest = config.components
    if first.intrinsic and not rest:
        chi = 1 - first.geometric_genus - len(first.intrinsic)
    else:
        chi = -(sum(v * w for v, w in zip(mult, product)) // 2)
    expected_error = _NOT_FIBER_LIKE if any(product) else adjunction_rejection(config)
    if expected_error is None and catalog_match(config) is None:
        expected_error = "not a Kodaira curve: no catalog match"
    try:
        profile = invariant_profile(config)
    except ValueError as error:
        assert str(error) == expected_error
        return
    assert expected_error is None
    assert not (rest and any(c.intrinsic for c in config.components))
    assert not (rest and any(genera))
    assert 1 - chi - torus - sum(genera) >= 0
    reduced = reduce(config) == config
    points = sum(1 for vertex in graph if vertex[0] != "c")
    assert profile.reduced == reduced
    assert profile.smooth == (reduced and points == 0)
    assert profile.singular_point_count == (points if reduced else None)
    assert profile.k_minus_one_rank == torus
    assert profile.arithmetic_genus == 1 - chi
    assert profile.picard.torus_rank == torus
    assert profile.picard.elliptic_rank == sum(genera)
    assert profile.picard.discrete_rank == len(config.components)
    assert profile.picard.unipotent_dim == 1 - chi - torus - sum(genera)
    if all(g == 0 for g in genera):
        assert profile.g0_rank == len(config.components) + 1
    else:
        assert genera == [1]
        assert profile.g0_rank == 2
