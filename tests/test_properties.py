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
    divisor_square,
    fiber_obstruction,
    gcd_multiplicity,
    intersection_matrix,
    invariant_profile,
    loop_rank,
    radical_basis,
)
from oracles import (
    bipartite_graph,
    cycle_rank_by_spanning_forest,
    dual_graph,
    first_betti,
    integer_kernel,
    isomorphic_configurations,
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
    m = intersection_matrix(config).entries
    for i in range(len(m)):
        for j in range(len(m)):
            assert m[i][j] == m[j][i]
            if i != j:
                assert m[i][j] >= 0


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_reduce_is_idempotent_and_primitive(config):
    once = reduce(config)
    assert reduce(once) == once
    assert gcd_multiplicity(once) == 1
    assert once.points == config.points
    assert [c.name for c in once.components] == [c.name for c in config.components]


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_loop_rank_ignores_multiplicities(config):
    assert loop_rank(config) == loop_rank(reduce(config))


@settings(max_examples=100, deadline=None)
@given(configurations())
def test_loop_rank_is_the_cycle_rank_of_roberts_graph(config):
    """The closed-form count equals the cycle rank of the explicit graph."""
    graph = bipartite_graph(reduce(config))
    assert loop_rank(config) == first_betti(graph) == cycle_rank_by_spanning_forest(graph)


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


_PAIR_WEIGHT = {LocalType.TRANSVERSE: 1, LocalType.TACNODE: 2, LocalType.ORDINARY_TRIPLE: 1}


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
                        sums[a] += _PAIR_WEIGHT[local] * mults[b]
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


def dense_matrix(config):
    """The intersection matrix written out from the records, by hand."""
    index = {c.name: i for i, c in enumerate(config.components)}
    rows = [[0] * config.n_components for _ in config.components]
    for i, c in enumerate(config.components):
        rows[i][i] = c.self_intersection
    for p in config.points:
        for a in p.incident:
            for b in p.incident:
                if a != b:
                    rows[index[a]][index[b]] += _PAIR_WEIGHT[p.local_type]
    return rows


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
    assert intersection_matrix(config).entries == tuple(map(tuple, rows))
    product = [sum(x * v for x, v in zip(row, mult)) for row in rows]
    assert divisor_square(config, mult) == sum(v * w for v, w in zip(mult, product))

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
    if fiber:
        (basis,) = radical_basis(config)
        assert proportional(basis, mult)


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
def test_recognizer_agrees_with_isomorphism_to_the_catalog(config):
    """classify(c) is T exactly when c is isomorphic to build(T); the
    expected type is found by networkx alone, never by the recognizer.

    By Zariski's lemma and the classification of affine Cartan matrices,
    (-2)-curves with M*m = 0 form an affine diagram with m a multiple of its
    null root, so those are drawn as scaled, relabeled catalog members,
    scaled III and IV among them; the generator adds configurations with
    M*m = 0 and other squares, with transverse points, tacnodes and triple
    points mixed.
    """
    same_size = [
        t
        for t in catalog_types(config.n_components, max(config.multiplicities()))
        if build(t).n_components == config.n_components
    ]
    matches = [t for t in same_size if isomorphic_configurations(config, build(t))]
    assert len(matches) <= 1
    assert classify(config) == (matches[0] if matches else None)


@settings(max_examples=200, deadline=None)
@given(st.one_of(configurations(), fiber_candidates(constrained=st.just(True))))
@example(build(KodairaType("mI", 1, 3)))
@example(build(KodairaType("I", 0)))
@example(build(KodairaType("mI", 0, 2)))
@example(CurveConfiguration((Component("c", 1, 0, 0, (IntrinsicType.NODE, IntrinsicType.CUSP)),)))
def test_profile_fields_against_oracles(config):
    """invariant_profile reports "not fiber-like" exactly when M*m != 0. A
    profile it returns has the cycle rank of Roberts' graph as K^-1 and
    torus rank; chi = -m.Mm/2, or 1 - g - sum of deltas on one singular
    component, gives g_a = 1 - chi and the unipotent dimension
    1 - chi - torus - elliptic; the elliptic rank is the sum of the genera,
    the discrete rank the component count, and G0 has rank components + 1
    over rational components and 2 over one genus-1 component."""
    mult = config.multiplicities()
    product = [sum(x * v for x, v in zip(row, mult)) for row in dense_matrix(config)]
    try:
        profile = invariant_profile(config)
    except ValueError as error:
        assert (str(error) == "not fiber-like: M*m != 0") == any(product)
        return
    assert not any(product)
    torus = cycle_rank_by_spanning_forest(bipartite_graph(reduce(config)))
    genera = [c.geometric_genus for c in config.components]
    first, *rest = config.components
    if first.intrinsic and not rest:
        chi = 1 - first.geometric_genus - len(first.intrinsic)
    else:
        chi = -(sum(v * w for v, w in zip(mult, product)) // 2)
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
