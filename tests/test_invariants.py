import gc
import json
import weakref

import pytest

from kodaira import (
    Component,
    CurveConfiguration,
    DsgStatus,
    FreeAbelianGroup,
    KodairaType,
    LocalType,
    PicardDescriptor,
    SingularPoint,
    Subclass,
    arithmetic_genus,
    build,
    catalog_types,
    classify,
    divisor_square,
    dsg_status,
    euler_characteristic,
    grothendieck_group,
    invariant_profile,
    loop_rank,
    negative_k,
    parse_document,
    picard_descriptor,
    serialize_document,
)
from oracles import reduce


def single_rational_minus_two():
    return CurveConfiguration((Component("a", 1, 0, -2),))


class TestEulerCharacteristic:
    @pytest.mark.parametrize("kind", catalog_types(8, 3))
    def test_catalog_fibers_have_chi_zero(self, kind):
        assert euler_characteristic(build(kind)) == 0

    def test_smooth_rational_component(self):
        assert euler_characteristic(single_rational_minus_two()) == 1

    def test_nodal_curve_delta_route_agrees_with_square_route(self):
        config = build(KodairaType("I", 1))
        assert euler_characteristic(config) == 0
        assert -divisor_square(config, config.multiplicities()) // 2 == 0

    def test_mixed_intrinsic_case_rejected(self):
        from kodaira import IntrinsicType

        config = CurveConfiguration(
            (Component("a", 1, 0, 0, (IntrinsicType.NODE,)), Component("b", 1, 0, -2)),
            (SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),),
        )
        with pytest.raises(ValueError, match="reducible"):
            euler_characteristic(config)

    def test_odd_square_rejected(self):
        config = CurveConfiguration((Component("a", 1, 0, -1),))
        with pytest.raises(ValueError, match="odd"):
            euler_characteristic(config)


class TestArithmeticGenus:
    @pytest.mark.parametrize("kind", catalog_types(6, 3))
    def test_catalog_fibers_have_genus_one(self, kind):
        assert arithmetic_genus(build(kind)) == 1

    def test_projective_line(self):
        assert arithmetic_genus(single_rational_minus_two()) == 0

    def test_ivstar_square_expansion(self):
        config = build(KodairaType("IVStar"))
        marks = (1, 2, 3, 2, 2, 1, 1)
        diagonal = sum(-2 * m * m for m in marks)
        edges = (
            (1, 2), (2, 3), (3, 2), (3, 2), (2, 1), (2, 1),
        )  # multiplicity pairs along the six incidences
        off_diagonal = 2 * sum(a * b for a, b in edges)
        assert diagonal + off_diagonal == 0
        assert divisor_square(config, marks) == 0
        assert arithmetic_genus(config) == 1


class TestGrothendieckGroup:
    def test_iistar(self):
        assert grothendieck_group(build(KodairaType("IIStar"))) == FreeAbelianGroup(10)

    def test_smooth_elliptic(self):
        assert grothendieck_group(build(KodairaType("I", 0))) == FreeAbelianGroup(2)

    @pytest.mark.parametrize("kind", catalog_types(8, 3))
    def test_devissage_rank_survives_reduction(self, kind):
        config = build(kind)
        assert grothendieck_group(config) == grothendieck_group(reduce(config))

    def test_rejects_genus_one_component_in_reducible_curve(self):
        config = CurveConfiguration(
            (Component("a", 1, 1, -2), Component("b")),
            (
                SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),
                SingularPoint("q", LocalType.TRANSVERSE, ("a", "b")),
            ),
        )
        with pytest.raises(ValueError, match="genus"):
            grothendieck_group(config)

    def test_group_rendering(self):
        assert str(FreeAbelianGroup(0)) == "0"
        assert str(FreeAbelianGroup(1)) == "Z"
        assert str(FreeAbelianGroup(10)) == "Z^10"


class TestNegativeK:
    def test_cycle_has_k_minus_one_z(self):
        assert negative_k(build(KodairaType("I", 7)), -1) == FreeAbelianGroup(1)

    def test_iiistar_has_vanishing_k_minus_one(self):
        assert negative_k(build(KodairaType("IIIStar")), -1) == FreeAbelianGroup(0)

    @pytest.mark.parametrize("i", [-2, -3, -5, -17])
    def test_everything_vanishes_below_minus_one(self, i):
        for kind in (KodairaType("I", 3), KodairaType("IIStar"), KodairaType("mI", 2, 4)):
            assert negative_k(build(kind), i) == FreeAbelianGroup(0)

    def test_nonnegative_index_rejected(self):
        with pytest.raises(ValueError):
            negative_k(build(KodairaType("II")), 0)

    @pytest.mark.parametrize("kind", catalog_types(4, 2))
    def test_k_minus_one_regularity_is_reported(self, kind, capsys):
        from kodaira.cli import main

        assert main(["show", str(kind), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["k_minus_one_regular"] is True


class TestPicardDescriptor:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            (KodairaType("I", 0), PicardDescriptor(0, 0, 1, 1)),
            (KodairaType("I", 2), PicardDescriptor(0, 1, 0, 2)),
            (KodairaType("IStar", 0), PicardDescriptor(1, 0, 0, 5)),
        ],
    )
    def test_small_fibers(self, kind, expected):
        assert picard_descriptor(build(kind)) == expected

    def test_cuspidal_curve_is_additive(self):
        assert picard_descriptor(build(KodairaType("II"))) == PicardDescriptor(1, 0, 0, 1)

    def test_nodal_curve_is_a_torus(self):
        assert picard_descriptor(build(KodairaType("I", 1))) == PicardDescriptor(0, 1, 0, 1)

    def test_multiple_cycle_keeps_the_torus(self):
        assert picard_descriptor(build(KodairaType("mI", n=2, m=3))) == PicardDescriptor(
            0, 1, 0, 2
        )

    @pytest.mark.parametrize("kind", catalog_types(8, 3))
    def test_identity_component_has_dimension_one(self, kind):
        p = picard_descriptor(build(kind))
        assert p.unipotent_dim + p.torus_rank + p.elliptic_rank == 1
        assert p.discrete_rank == build(kind).n_components

    @pytest.mark.parametrize("kind", catalog_types(6, 3))
    def test_identity_component_follows_the_subclass(self, kind):
        from kodaira import subclass_of

        label = picard_descriptor(build(kind)).identity_component_label()
        subclass = subclass_of(kind)
        if subclass is Subclass.L2 or kind.family in ("II", "III", "IV"):
            assert label == "G_a"
        elif kind.n == 0:  # I(0), mI(m,0)
            assert label == "elliptic"
        else:  # cycles and their multiples
            assert label == "G_m"

    def test_two_elliptic_components_are_rejected(self):
        config = CurveConfiguration(
            (Component("a", 1, 1, -2), Component("b", 1, 1, -2)),
            (
                SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),
                SingularPoint("q", LocalType.TRANSVERSE, ("a", "b")),
            ),
        )
        with pytest.raises(ValueError, match="unipotent"):
            picard_descriptor(config)

    def test_describe(self):
        assert (
            picard_descriptor(build(KodairaType("IIStar"))).describe()
            == "extension of Z^9 by G_a"
        )


class TestSingularPoints:
    """The profile's reduced and smooth flags and its singular point count."""

    @staticmethod
    def summary(kind):
        p = invariant_profile(build(kind))
        return p.reduced, p.smooth, p.singular_point_count

    def test_istar4_is_non_reduced(self):
        assert self.summary(KodairaType("IStar", 4)) == (False, False, None)

    def test_cycle_of_eight_has_eight_points(self):
        assert self.summary(KodairaType("I", 8)) == (True, False, 8)

    def test_smooth_elliptic(self):
        assert self.summary(KodairaType("I", 0)) == (True, True, 0)

    def test_triple_point(self):
        assert self.summary(KodairaType("IV")) == (True, False, 1)

    def test_intrinsic_singularities_counted(self):
        assert self.summary(KodairaType("I", 1)) == (True, False, 1)
        assert self.summary(KodairaType("II")) == (True, False, 1)


class TestDsgStatus:
    @pytest.mark.parametrize(
        "kind",
        [KodairaType("IStar", n) for n in range(8)]
        + [KodairaType("IIStar"), KodairaType("IIIStar"), KodairaType("IVStar")],
    )
    def test_l2_types_are_idempotent_complete(self, kind):
        assert dsg_status(build(kind)) is DsgStatus.IDEMPOTENT_COMPLETE

    def test_smooth_elliptic_is_trivial(self):
        assert dsg_status(build(KodairaType("I", 0))) is DsgStatus.TRIVIAL

    def test_multiple_cycle_is_unknown(self):
        assert dsg_status(build(KodairaType("mI", n=3, m=2))) is DsgStatus.UNKNOWN

    def test_reduced_types_without_loops_are_idempotent_complete(self):
        for family in ("II", "III", "IV"):
            assert dsg_status(build(KodairaType(family))) is DsgStatus.IDEMPOTENT_COMPLETE

    def test_cycles_are_unknown(self):
        assert dsg_status(build(KodairaType("I", 5))) is DsgStatus.UNKNOWN

    @pytest.mark.parametrize("kind", catalog_types(8, 3), ids=str)
    def test_profile_property_agrees_with_the_function(self, kind):
        config = build(kind)
        assert invariant_profile(config).dsg_status is dsg_status(config)


class TestInvariantProfile:
    def test_istar4(self):
        p = invariant_profile(build(KodairaType("IStar", 4)))
        assert p.n_components == 9
        assert p.arithmetic_genus == 1
        assert p.g0_rank == 10
        assert p.k_minus_one_rank == 0
        assert p.picard == PicardDescriptor(1, 0, 0, 9)
        assert not p.reduced
        assert p.singular_point_count is None
        assert p.subclass is Subclass.L2

    def test_smooth_elliptic(self):
        p = invariant_profile(build(KodairaType("I", 0)))
        assert (p.n_components, p.arithmetic_genus, p.g0_rank, p.k_minus_one_rank) == (1, 1, 2, 0)
        assert p.picard == PicardDescriptor(0, 0, 1, 1)
        assert p.reduced and p.smooth
        assert p.singular_point_count == 0
        assert p.subclass is Subclass.L1

    def test_iistar_matches_istar4(self):
        a = invariant_profile(build(KodairaType("IStar", 4)))
        b = invariant_profile(build(KodairaType("IIStar")))
        assert a == b

    def test_type_is_carried_but_not_compared(self):
        a = invariant_profile(build(KodairaType("IStar", 4)))
        b = invariant_profile(build(KodairaType("IIStar")))
        assert (a.kind, b.kind) == (KodairaType("IStar", 4), KodairaType("IIStar"))
        assert a == b and hash(a) == hash(b)

    def test_non_fiber_input_rejected(self):
        with pytest.raises(ValueError, match="not fiber-like"):
            invariant_profile(single_rational_minus_two())


class TestNormalizationCountOracle:
    @pytest.mark.parametrize(
        "kind",
        [KodairaType("I", n) for n in range(2, 12)]
        + [KodairaType("IStar", n) for n in range(5)]
        + [KodairaType("IIStar"), KodairaType("IIIStar"), KodairaType("IVStar")],
    )
    def test_chi_equals_component_chis_minus_gluing_points(self, kind):
        config = reduce(build(kind))
        assert all(p.local_type is LocalType.TRANSVERSE for p in config.points)
        by_normalization = sum(
            1 - c.geometric_genus for c in config.components
        ) - len(config.points)
        assert euler_characteristic(config) == by_normalization


def test_no_invariant_keeps_its_configuration_alive():
    """Only `build` and `invariant_profile` memoize, so a parsed
    configuration is freed once its caller lets go of it."""
    config = parse_document(serialize_document(build(KodairaType("IStar", 3))))
    for function in (classify, loop_rank, euler_characteristic, picard_descriptor):
        function(config)
    ref = weakref.ref(config)
    del config
    gc.collect()
    assert ref() is None
