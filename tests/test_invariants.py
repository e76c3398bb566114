import gc
import json
import weakref

import pytest

from kodaira import (
    Component,
    CurveConfiguration,
    DsgStatus,
    IntrinsicType,
    KodairaType,
    LocalType,
    PicardDescriptor,
    SingularPoint,
    Subclass,
    build,
    catalog_types,
    classify,
    compare,
    fiber_obstruction,
    invariant_profile,
    parse_document,
    serialize_document,
    subclass_of,
)
from oracles import dense_matrix, reduce


def single_rational_minus_two():
    return CurveConfiguration((Component("a", 1, 0, -2),))


def two_components(a, b, local_types):
    """Components a and b meeting at one point per local type."""
    points = tuple(
        SingularPoint(f"p{i}", local, ("a", "b")) for i, local in enumerate(local_types)
    )
    return CurveConfiguration((a, b), points)


def profile(kind):
    return invariant_profile(build(kind))


class TestEulerCharacteristic:
    @pytest.mark.parametrize("kind", catalog_types(8, 3))
    def test_catalog_fibers_have_chi_zero(self, kind):
        assert 1 - profile(kind).arithmetic_genus == 0

    def test_nodal_curve_delta_route_agrees_with_square_route(self):
        config = build(KodairaType("I", 1))
        # delta route: chi = 1 - (g + delta) = 0; square route: D^2 = 0
        assert 1 - invariant_profile(config).arithmetic_genus == 0
        assert dense_matrix(config) == [[0]]

    def test_mixed_intrinsic_case_rejected(self):
        # M * m = 0, but a nodal rational curve has p_a = 1, so adjunction needs square 0
        config = two_components(
            Component("a", 1, 0, -1, (IntrinsicType.NODE,)),
            Component("b", 1, 0, -1),
            [LocalType.TRANSVERSE],
        )
        assert fiber_obstruction(config) is None
        with pytest.raises(ValueError) as err:
            invariant_profile(config)
        assert str(err.value) == (
            "not fiber-like: component 'a' has self-intersection -1, adjunction needs 0"
        )


class TestArithmeticGenus:
    @pytest.mark.parametrize("kind", catalog_types(6, 3))
    def test_catalog_fibers_have_genus_one(self, kind):
        assert profile(kind).arithmetic_genus == 1

    def test_ivstar_square_expansion(self):
        config = build(KodairaType("IVStar"))
        marks = (1, 2, 3, 2, 2, 1, 1)
        assert config.multiplicities() == marks
        diagonal = sum(-2 * m * m for m in marks)
        edges = (
            (1, 2), (2, 3), (3, 2), (3, 2), (2, 1), (2, 1),
        )  # multiplicity pairs along the six incidences
        off_diagonal = 2 * sum(a * b for a, b in edges)
        assert diagonal + off_diagonal == 0
        rows = dense_matrix(config)
        assert sum(marks[i] * rows[i][j] * marks[j] for i in range(7) for j in range(7)) == 0
        assert invariant_profile(config).arithmetic_genus == 1


class TestAdjunction:
    @pytest.mark.parametrize(
        "config,message",
        [
            (
                CurveConfiguration((Component("a", 1, 0, 0),)),
                "component 'a' has self-intersection 0, adjunction needs -2",
            ),
            (
                CurveConfiguration(
                    (Component("a", 1, 0, 0, (IntrinsicType.NODE, IntrinsicType.CUSP)),)
                ),
                "component 'a' has self-intersection 0, adjunction needs 2",
            ),
            (
                two_components(
                    Component("a", 1, 0, -4), Component("b", 2, 0, -1), [LocalType.TRANSVERSE] * 2
                ),
                "component 'a' has self-intersection -4, adjunction needs -2",
            ),
        ],
        ids=["smooth-rational", "node-and-cusp", "squares-minus-4-and-minus-1"],
    )
    def test_fiber_test_survivors_that_break_adjunction_are_rejected(self, config, message):
        """M * m = 0 holds for each, but a fiber component has
        C^2 = 2 p_a(C) - 2, so none is a fiber and none has a profile."""
        assert fiber_obstruction(config) is None
        assert classify(config) is None
        with pytest.raises(ValueError) as err:
            invariant_profile(config)
        assert str(err.value) == "not fiber-like: " + message


class TestGrothendieckGroup:
    def test_iistar(self):
        assert profile(KodairaType("IIStar")).g0_rank == 10

    def test_smooth_elliptic(self):
        assert profile(KodairaType("I", 0)).g0_rank == 2

    @pytest.mark.parametrize("kind", catalog_types(8, 3))
    def test_devissage_rank_survives_reduction(self, kind):
        config = build(kind)
        rank = invariant_profile(config).g0_rank
        assert rank == config.n_components + 1
        # the reduction of a multiple cycle is a cycle; of a star, no fiber
        if fiber_obstruction(reduce(config)) is None:
            assert invariant_profile(reduce(config)).g0_rank == rank

    @pytest.mark.parametrize("genera", [(1, 0), (1, 1)])
    def test_rejects_genus_one_component_in_reducible_curve(self, genera):
        config = two_components(
            Component("a", 1, genera[0], -2),
            Component("b", 1, genera[1], -2),
            [LocalType.TRANSVERSE] * 2,
        )
        assert fiber_obstruction(config) is None
        with pytest.raises(ValueError) as err:
            invariant_profile(config)
        # a genus-one component has p_a = 1, so adjunction needs square 0
        assert str(err.value) == (
            "not fiber-like: component 'a' has self-intersection -2, adjunction needs 0"
        )


class TestNegativeK:
    def test_cycle_has_k_minus_one_z(self):
        assert profile(KodairaType("I", 7)).k_minus_one_rank == 1

    def test_iiistar_has_vanishing_k_minus_one(self):
        assert profile(KodairaType("IIIStar")).k_minus_one_rank == 0

    @pytest.mark.parametrize(
        "kind", [KodairaType("I", 3), KodairaType("IIStar"), KodairaType("mI", 2, 4)], ids=str
    )
    def test_everything_vanishes_below_minus_one(self, kind, capsys):
        from kodaira.cli import main

        assert main(["show", str(kind)]) == 0
        assert "\nK^i rank for i <= -2: 0\n" in capsys.readouterr().out

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
        assert profile(kind).picard == expected

    def test_cuspidal_curve_is_additive(self):
        assert profile(KodairaType("II")).picard == PicardDescriptor(1, 0, 0, 1)

    def test_nodal_curve_is_a_torus(self):
        assert profile(KodairaType("I", 1)).picard == PicardDescriptor(0, 1, 0, 1)

    def test_multiple_cycle_keeps_the_torus(self):
        assert profile(KodairaType("mI", n=2, m=3)).picard == PicardDescriptor(0, 1, 0, 2)

    @pytest.mark.parametrize("kind", catalog_types(8, 3))
    def test_identity_component_has_dimension_one(self, kind):
        p = profile(kind).picard
        assert p.unipotent_dim + p.torus_rank + p.elliptic_rank == 1
        assert p.discrete_rank == build(kind).n_components

    @pytest.mark.parametrize("kind", catalog_types(6, 3))
    def test_identity_component_follows_the_subclass(self, kind):
        label = profile(kind).picard.identity_component_label()
        subclass = subclass_of(kind)
        if subclass is Subclass.L2 or kind.family in ("II", "III", "IV"):
            assert label == "G_a"
        elif kind.n == 0:  # I(0), mI(m,0)
            assert label == "elliptic"
        else:  # cycles and their multiples
            assert label == "G_m"

    def test_negative_unipotent_dimension_is_rejected(self):
        # three crossings of two (-3)-curves: M * m = 0, and the loop rank 2
        # would exceed h^1(O_X) = 1, but adjunction already rules them out
        config = two_components(
            Component("a", 1, 0, -3), Component("b", 1, 0, -3), [LocalType.TRANSVERSE] * 3
        )
        assert fiber_obstruction(config) is None
        with pytest.raises(ValueError) as err:
            invariant_profile(config)
        assert str(err.value) == (
            "not fiber-like: component 'a' has self-intersection -3, adjunction needs -2"
        )

    def test_describe(self):
        assert profile(KodairaType("IIStar")).picard.describe() == "extension of Z^9 by G_a"


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
        assert profile(kind).dsg_status is DsgStatus.IDEMPOTENT_COMPLETE

    def test_smooth_elliptic_is_trivial(self):
        assert profile(KodairaType("I", 0)).dsg_status is DsgStatus.TRIVIAL

    def test_multiple_cycle_is_unknown(self):
        assert profile(KodairaType("mI", n=3, m=2)).dsg_status is DsgStatus.UNKNOWN

    def test_reduced_types_without_loops_are_idempotent_complete(self):
        for family in ("II", "III", "IV"):
            assert profile(KodairaType(family)).dsg_status is DsgStatus.IDEMPOTENT_COMPLETE

    def test_cycles_are_unknown(self):
        assert profile(KodairaType("I", 5)).dsg_status is DsgStatus.UNKNOWN

    @pytest.mark.parametrize("kind", catalog_types(8, 3), ids=str)
    def test_status_by_type(self, kind):
        # trivial only for the smooth I(0); open for the cycles I(N), mI(m,N), N >= 1
        if kind == KodairaType("I", 0):
            expected = DsgStatus.TRIVIAL
        elif kind.family in ("I", "mI") and kind.n >= 1:
            expected = DsgStatus.UNKNOWN
        else:
            expected = DsgStatus.IDEMPOTENT_COMPLETE
        assert profile(kind).dsg_status is expected


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
        assert subclass_of(p.kind) is Subclass.L2

    def test_smooth_elliptic(self):
        p = invariant_profile(build(KodairaType("I", 0)))
        assert (p.n_components, p.arithmetic_genus, p.g0_rank, p.k_minus_one_rank) == (1, 1, 2, 0)
        assert p.picard == PicardDescriptor(0, 0, 1, 1)
        assert p.reduced and p.smooth
        assert p.singular_point_count == 0
        assert subclass_of(p.kind) is Subclass.L1

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


# delta invariant of each singularity: r(r - 1)/2 at an ordinary r-fold point,
# 2 at a tacnode (an A3 point), 1 at a node or a cusp
_DELTA = {
    LocalType.TRANSVERSE: 1,
    LocalType.TACNODE: 2,
    LocalType.ORDINARY_TRIPLE: 3,
    IntrinsicType.NODE: 1,
    IntrinsicType.CUSP: 1,
}


class TestNormalizationCountOracle:
    @pytest.mark.parametrize(
        "kind",
        [KodairaType("I", n) for n in range(12)] + [KodairaType(f) for f in ("II", "III", "IV")],
        ids=str,
    )
    def test_chi_equals_component_chis_minus_deltas(self, kind):
        config = build(kind)
        by_normalization = sum(1 - c.geometric_genus for c in config.components)
        by_normalization -= sum(_DELTA[p.local_type] for p in config.points)
        by_normalization -= sum(_DELTA[s] for c in config.components for s in c.intrinsic)
        assert 1 - invariant_profile(config).arithmetic_genus == by_normalization


def test_no_invariant_keeps_its_configuration_alive():
    """Only the runs that `build` slices memoize, so a parsed configuration
    is freed once its caller lets go of it, profiled and compared or not."""
    config = parse_document(serialize_document(build(KodairaType("IStar", 3))))
    for function in (classify, fiber_obstruction, invariant_profile):
        function(config)
    compare(config, build(KodairaType("IIStar")))
    compare(config, config)
    ref = weakref.ref(config)
    del config
    gc.collect()
    assert ref() is None
