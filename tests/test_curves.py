import inspect
import math
from dataclasses import fields, replace

import pytest

from kodaira import (
    Component,
    ConfigurationError,
    CurveConfiguration,
    IntrinsicType,
    KodairaType,
    LocalType,
    SingularPoint,
    Subclass,
    build,
    catalog_types,
    fiber_obstruction,
    invariant_profile,
    subclass_of,
)
from oracles import BRANCHES, dense_matrix, integer_kernel, reduce


def single_elliptic():
    return CurveConfiguration((Component("e", 1, 1, 0),))


def chain_of_three():
    # three (-2)-curves in a row: connected but not a fiber
    return CurveConfiguration(
        (Component("a"), Component("b"), Component("c")),
        (
            SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),
            SingularPoint("q", LocalType.TRANSVERSE, ("b", "c")),
        ),
    )


class TestIntersectionMatrix:
    def test_istar0_matrix(self):
        m = dense_matrix(build(KodairaType("IStar", 0)))
        expected = [
            [-2, 0, 0, 0, 1],
            [0, -2, 0, 0, 1],
            [0, 0, -2, 0, 1],
            [0, 0, 0, -2, 1],
            [1, 1, 1, 1, -2],
        ]
        assert m == expected

    def test_single_elliptic_component(self):
        assert dense_matrix(single_elliptic()) == [[0]]

    def test_tacnode_contributes_two(self):
        m = dense_matrix(build(KodairaType("III")))
        assert m == [[-2, 2], [2, -2]]
        # the fiber class pairs to zero against each component
        assert fiber_obstruction(build(KodairaType("III"))) is None

    @pytest.mark.parametrize("kind", catalog_types(8, 4))
    def test_symmetric_with_nonnegative_off_diagonal(self, kind):
        m = dense_matrix(build(kind))
        n = len(m)
        for i in range(n):
            for j in range(n):
                assert m[i][j] == m[j][i]
                if i != j:
                    assert m[i][j] >= 0


def fiber_square(config):
    """D^2 for the fiber class D = sum m_i C_i, read off the dense matrix."""
    m = config.multiplicities()
    rows = dense_matrix(config)
    return sum(m[i] * x * m[j] for i, row in enumerate(rows) for j, x in enumerate(row))


class TestFiberSquare:
    def test_istar0_fiber_class_squares_to_zero(self):
        config = build(KodairaType("IStar", 0))
        # expand by hand: 4*(1^2*-2) + 2^2*(-2) + 2*(4 points * 1*2*1) = 0
        by_hand = 4 * -2 + 4 * -2 + 2 * (4 * 1 * 2 * 1)
        assert by_hand == 0
        assert fiber_square(config) == 0
        assert fiber_obstruction(config) is None

    def test_single_component(self):
        # chi = -D^2/2 = 0, so g_a = 1
        assert invariant_profile(single_elliptic()).arithmetic_genus == 1

    @pytest.mark.parametrize("kind", catalog_types(6, 3))
    def test_catalog_fiber_squares_to_zero(self, kind):
        config = build(kind)
        assert fiber_square(config) == 0
        assert invariant_profile(config).arithmetic_genus == 1


class TestFiberTest:
    @pytest.mark.parametrize("n", range(21))
    def test_istar_family_is_fiber_like(self, n):
        config = build(KodairaType("IStar", n))
        assert fiber_obstruction(config) is None
        basis = integer_kernel(dense_matrix(config))
        assert len(basis) == 1
        v = basis[0]
        mult = config.multiplicities()
        # kernel is the line spanned by the multiplicity vector
        assert all(v[i] * mult[0] == v[0] * mult[i] for i in range(len(mult)))

    def test_single_elliptic_is_fiber_like(self):
        assert fiber_obstruction(single_elliptic()) is None

    def test_a2_cartan_pair_is_not(self):
        config = CurveConfiguration(
            (Component("a"), Component("b")),
            (SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),),
        )
        assert dense_matrix(config) == [[-2, 1], [1, -2]]
        assert fiber_obstruction(config) == "M*m != 0"

    def test_chain_is_not_fiber_like(self):
        assert fiber_obstruction(chain_of_three()) == "M*m != 0"

    def test_a_product_zero_in_its_first_row_only_fails(self):
        # m = (1, 2), so M * m = (-2 + 2, 1 - 4) = (0, -3)
        config = CurveConfiguration(
            (Component("a"), Component("b", 2)),
            (SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),),
        )
        assert fiber_obstruction(config) == "M*m != 0"

    @pytest.mark.parametrize("kind", catalog_types(6, 4), ids=str)
    def test_radical_is_the_primitive_multiplicity_vector(self, kind):
        config = build(kind)
        assert fiber_obstruction(config) is None
        (basis,) = integer_kernel(dense_matrix(config))
        if basis[0] < 0:
            basis = [-x for x in basis]
        g = math.gcd(*config.multiplicities())
        assert basis == [x // g for x in config.multiplicities()]

    def test_profile_rejects_a_non_fiber(self):
        # the A3 chain is negative definite: its kernel is 0, not Q * m
        with pytest.raises(ValueError, match=r"^not fiber-like: M\*m != 0$"):
            invariant_profile(chain_of_three())

    def test_positive_self_intersection_reported(self):
        config = CurveConfiguration(
            (Component("a", 1, 0, 0), Component("b", 1, 0, 0)),
            (
                SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),
                SingularPoint("q", LocalType.TRANSVERSE, ("a", "b")),
            ),
        )
        # M = [[0,2],[2,0]] is indefinite even though M*m != 0 fails first
        assert fiber_obstruction(config) == "M*m != 0"

    def test_positive_pairing_fails_the_product_test(self):
        config = CurveConfiguration(
            (Component("a", 1, 0, 2), Component("b", 1, 0, 2)),
            (SingularPoint("p", LocalType.TACNODE, ("a", "b")),),
        )
        assert dense_matrix(config) == [[2, 2], [2, 2]]
        assert fiber_obstruction(config) == "M*m != 0"

    def test_obstruction_is_none_for_fibers(self):
        assert fiber_obstruction(build(KodairaType("mI", 4, 5))) is None


class TestReduce:
    def test_multiple_cycle_reduces_to_cycle(self):
        assert reduce(build(KodairaType("mI", 2, 3))) == build(KodairaType("I", 2))

    def test_reduced_configuration_is_fixed(self):
        config = build(KodairaType("IV"))
        assert reduce(config) == config

    def test_iistar_reduction_has_unit_multiplicities(self):
        reduced = reduce(build(KodairaType("IIStar")))
        assert reduced.multiplicities() == (1,) * 9
        assert reduced.points == build(KodairaType("IIStar")).points

    @pytest.mark.parametrize("kind", catalog_types(6, 3))
    def test_idempotent(self, kind):
        once = reduce(build(kind))
        assert reduce(once) == once


class TestMultipleFibers:
    # a fiber is multiple (subclass L3) exactly when gcd(m) > 1
    def test_multiple_cycle(self):
        assert subclass_of(invariant_profile(build(KodairaType("mI", 3, 2))).kind) is Subclass.L3

    def test_reduced_cycle(self):
        assert subclass_of(invariant_profile(build(KodairaType("I", 5))).kind) is Subclass.L1

    def test_iistar_is_not_multiple(self):
        assert subclass_of(invariant_profile(build(KodairaType("IIStar"))).kind) is Subclass.L2


class TestRadicalAgainstIntegerOracle:
    @pytest.mark.parametrize("kind", [k for k in catalog_types(10, 3) if build(k).n_components >= 2])
    def test_kernel_matches_column_reduction(self, kind):
        config = build(kind)
        entries = dense_matrix(config)
        oracle = integer_kernel([list(r) for r in entries])
        assert len(oracle) == 1
        v = oracle[0]
        mult = config.multiplicities()
        assert all(v[i] * mult[0] == v[0] * mult[i] for i in range(len(mult)))


class TestValidation:
    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ConfigurationError):
            Component("a", 0)

    def test_genus_two_rejected(self):
        with pytest.raises(ConfigurationError):
            Component("a", 1, 2, 0)

    def test_genus_one_with_node_rejected(self):
        with pytest.raises(ConfigurationError):
            Component("a", 1, 1, 0, (IntrinsicType.NODE,))

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(ConfigurationError):
            CurveConfiguration((Component("a"), Component("a")))

    def test_duplicate_point_names_rejected(self):
        points = [SingularPoint("p", LocalType.TRANSVERSE, ("a", "b"))] * 2
        with pytest.raises(ConfigurationError, match="point names must be unique"):
            CurveConfiguration((Component("a"), Component("b")), points)

    def test_empty_configuration_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one component"):
            CurveConfiguration(())

    def test_unknown_point_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            CurveConfiguration(
                (Component("a"), Component("b")),
                (SingularPoint("p", LocalType.TRANSVERSE, ("a", "z")),),
            )

    def test_disconnected_configuration_rejected(self):
        with pytest.raises(ConfigurationError, match="not connected"):
            CurveConfiguration((Component("a", 1, 1, 0), Component("b", 1, 1, 0)))

    def test_point_arity_enforced(self):
        with pytest.raises(ConfigurationError):
            SingularPoint("p", LocalType.ORDINARY_TRIPLE, ("a", "b"))

    def test_local_and_intrinsic_constants(self):
        arity = {local: local.arity for local in LocalType}
        contribution = {local: local.pair_contribution for local in LocalType}
        assert arity == {
            LocalType.TRANSVERSE: 2,
            LocalType.TACNODE: 2,
            LocalType.ORDINARY_TRIPLE: 3,
        }
        assert contribution == {
            LocalType.TRANSVERSE: 1,
            LocalType.TACNODE: 2,
            LocalType.ORDINARY_TRIPLE: 1,
        }
        # the library keeps no branch count; the oracle's covers every type
        assert set(BRANCHES) == set(IntrinsicType)

    def test_repeated_incident_component_rejected(self):
        with pytest.raises(ConfigurationError):
            SingularPoint("p", LocalType.TRANSVERSE, ("a", "a"))
        for incident in (("a", "a", "b"), ("a", "b", "a"), ("a", "b", "b")):
            with pytest.raises(ConfigurationError, match="pairwise distinct"):
                SingularPoint("p", LocalType.ORDINARY_TRIPLE, incident)

    def test_every_way_of_making_a_record_runs_its_checks(self):
        """Every way of making a record runs its checks: the constructor takes
        the fields as keywords with their declared defaults, `dataclasses.replace`
        goes through the same checks, lists come back as tuples, and each
        rejection keeps its message."""
        for cls in (Component, SingularPoint):
            assert list(inspect.signature(cls).parameters) == [f.name for f in fields(cls)]
        assert Component("a") == Component("a", 1, 0, -2, ())
        component = Component(
            name="a",
            multiplicity=2,
            geometric_genus=0,
            self_intersection=-1,
            intrinsic=[IntrinsicType.CUSP],
        )
        assert component == Component("a", 2, 0, -1, (IntrinsicType.CUSP,))
        assert component.intrinsic == (IntrinsicType.CUSP,)
        point = SingularPoint(name="p", local_type=LocalType.TRANSVERSE, incident=["a", "b"])
        assert point == SingularPoint("p", LocalType.TRANSVERSE, ("a", "b"))
        assert point.incident == ("a", "b")
        assert hash(component) == hash(replace(component))
        assert hash(point) == hash(replace(point))
        with pytest.raises(ConfigurationError, match="multiplicity must be >= 1"):
            replace(component, multiplicity=0)
        with pytest.raises(ConfigurationError, match="geometric genus must be 0 or 1, got 2"):
            replace(component, geometric_genus=2)
        with pytest.raises(ConfigurationError, match="pairwise distinct"):
            replace(point, incident=("a", "a"))
        with pytest.raises(ConfigurationError, match="genus-one component"):
            Component("a", geometric_genus=1, self_intersection=0, intrinsic=[IntrinsicType.NODE])
        with pytest.raises(ConfigurationError, match="needs 3 incident components, got 2"):
            SingularPoint(name="p", local_type=LocalType.ORDINARY_TRIPLE, incident=["a", "b"])
