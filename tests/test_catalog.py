import random

import pytest

from kodaira import (
    Component,
    CurveConfiguration,
    KodairaType,
    LocalType,
    SingularPoint,
    Subclass,
    TypeSpecError,
    build,
    catalog_types,
    classify,
    fiber_obstruction,
    parse_type,
    subclass_of,
)
from oracles import relabeled


class TestTypeParameters:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            KodairaType("I", -1)
        with pytest.raises(ValueError):
            KodairaType("mI", n=3, m=1)
        with pytest.raises(ValueError):
            KodairaType("II", 1)
        with pytest.raises(ValueError):
            KodairaType("IStar")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            KodairaType("V")


class TestParseType:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("I(0)", KodairaType("I", 0)),
            ("I(12)", KodairaType("I", 12)),
            ("II", KodairaType("II")),
            ("III", KodairaType("III")),
            ("IV", KodairaType("IV")),
            ("IStar(3)", KodairaType("IStar", 3)),
            ("IIStar", KodairaType("IIStar")),
            ("IIIStar", KodairaType("IIIStar")),
            ("IVStar", KodairaType("IVStar")),
            ("mI(2,4)", KodairaType("mI", n=4, m=2)),
            # aliases
            ("I0", KodairaType("I", 0)),
            ("I4", KodairaType("I", 4)),
            ("I0*", KodairaType("IStar", 0)),
            ("I3*", KodairaType("IStar", 3)),
            ("II*", KodairaType("IIStar")),
            ("III*", KodairaType("IIIStar")),
            ("IV*", KodairaType("IVStar")),
            ("2I3", KodairaType("mI", n=3, m=2)),
            ("I₄", KodairaType("I", 4)),
            ("I₀*", KodairaType("IStar", 0)),
            ("₂I₃", KodairaType("mI", n=3, m=2)),
        ],
    )
    def test_specs_and_aliases(self, text, expected):
        assert parse_type(text) == expected

    @pytest.mark.parametrize("kind", catalog_types(6, 3))
    def test_canonical_form_roundtrips(self, kind):
        assert parse_type(str(kind)) == kind

    @pytest.mark.parametrize(
        "text",
        ["", "W", "I(", "I(x)", "mI(2)", "I**", "Star"]
        # parameters are ASCII digits or the alias subscripts, nothing else int() takes
        + ["I(٣)", "IStar(１)", "mI(٢,3)", "mI(2,３)", "I٣", "I٣*", "٢I3", "I(1_0)", "I(+1)"],
    )
    def test_junk_rejected(self, text):
        with pytest.raises(TypeSpecError):
            parse_type(text)

    def test_out_of_range_multiplicity_is_not_a_spec_error(self):
        with pytest.raises(ValueError) as exc_info:
            parse_type("mI(1,3)")
        assert not isinstance(exc_info.value, TypeSpecError)


class TestBuild:
    def test_iistar_components(self):
        config = build(KodairaType("IIStar"))
        assert config.n_components == 9
        assert config.multiplicities() == (1, 2, 3, 4, 5, 6, 4, 3, 2)
        assert len(config.points) == 8
        assert all(p.local_type is LocalType.TRANSVERSE for p in config.points)

    def test_smooth_elliptic(self):
        config = build(KodairaType("I", 0))
        assert config.n_components == 1
        c = config.components[0]
        assert (c.multiplicity, c.geometric_genus, c.self_intersection) == (1, 1, 0)
        assert config.points == ()

    def test_istar3_counts(self):
        config = build(KodairaType("IStar", 3))
        assert config.n_components == 8
        assert config.multiplicities() == (1, 1, 1, 1, 2, 2, 2, 2)
        assert len(config.points) == 7

    def test_iiistar_multiplicities(self):
        assert build(KodairaType("IIIStar")).multiplicities() == (1, 2, 3, 4, 3, 2, 2, 1)

    def test_ivstar_multiplicities(self):
        assert build(KodairaType("IVStar")).multiplicities() == (1, 2, 3, 2, 2, 1, 1)

    @pytest.mark.parametrize("kind", catalog_types(12, 4))
    def test_every_catalog_configuration_is_fiber_like(self, kind):
        assert fiber_obstruction(build(kind)) is None


class TestClassify:
    @pytest.mark.parametrize("kind", catalog_types(8, 3))
    def test_roundtrip(self, kind):
        assert classify(build(kind)) == kind

    @pytest.mark.parametrize("kind", catalog_types(5, 3))
    def test_roundtrip_after_relabeling(self, kind):
        rng = random.Random(f"relabel:{kind}")
        for _ in range(5):
            assert classify(relabeled(build(kind), rng)) == kind

    def test_two_points_versus_one_tacnode(self):
        # same intersection matrix, different local structure
        two_nodes = CurveConfiguration(
            (Component("a"), Component("b")),
            (
                SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),
                SingularPoint("q", LocalType.TRANSVERSE, ("a", "b")),
            ),
        )
        tacnode = CurveConfiguration(
            (Component("a"), Component("b")),
            (SingularPoint("p", LocalType.TACNODE, ("a", "b")),),
        )
        assert classify(two_nodes) == KodairaType("I", 2)
        assert classify(tacnode) == KodairaType("III")

    def test_chain_is_not_a_kodaira_curve(self):
        chain = CurveConfiguration(
            (Component("a"), Component("b"), Component("c")),
            (
                SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),
                SingularPoint("q", LocalType.TRANSVERSE, ("b", "c")),
            ),
        )
        assert classify(chain) is None

    def test_multiple_cusp_curve_is_not_catalogued(self):
        from kodaira import IntrinsicType

        config = CurveConfiguration(
            (Component("c", 2, 0, 0, (IntrinsicType.CUSP,)),)
        )
        assert classify(config) is None

    def test_multiple_tacnode_pair_is_fiber_like_but_not_catalogued(self):
        config = CurveConfiguration(
            (Component("a", 2), Component("b", 2)),
            (SingularPoint("p", LocalType.TACNODE, ("a", "b")),),
        )
        assert fiber_obstruction(config) is None
        assert classify(config) is None

    def test_unequal_multiple_cycle_rejected(self):
        config = CurveConfiguration(
            (Component("a", 2), Component("b", 4)),
            (
                SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),
                SingularPoint("q", LocalType.TRANSVERSE, ("a", "b")),
            ),
        )
        # M*m = (-4+8, 4-8) != 0, so this is not even fiber-like
        assert classify(config) is None

    def test_istar_with_wrong_leaf_multiplicity_rejected(self):
        base = build(KodairaType("IStar", 0))
        components = list(base.components)
        components[0] = Component("c1", 2)
        broken = CurveConfiguration(tuple(components), base.points)
        assert classify(broken) is None

    def test_star_with_swapped_multiplicities_rejected(self):
        base = build(KodairaType("IStar", 1))
        swapped = tuple(
            Component(c.name, 3 - c.multiplicity, 0, -2) for c in base.components
        )
        broken = CurveConfiguration(swapped, base.points)
        assert classify(broken) is None

    def test_genus_one_component_in_a_cycle_rejected(self):
        config = CurveConfiguration(
            (Component("a", 1, 1, -2), Component("b")),
            (
                SingularPoint("p", LocalType.TRANSVERSE, ("a", "b")),
                SingularPoint("q", LocalType.TRANSVERSE, ("a", "b")),
            ),
        )
        assert classify(config) is None


class TestSubclass:
    def test_examples(self):
        assert subclass_of(KodairaType("IV")) is Subclass.L1
        assert subclass_of(KodairaType("IStar", 0)) is Subclass.L2
        assert subclass_of(KodairaType("mI", n=0, m=2)) is Subclass.L3

    @pytest.mark.parametrize("kind", catalog_types(4, 3))
    def test_partition(self, kind):
        expected = (
            Subclass.L3
            if kind.family == "mI"
            else Subclass.L2
            if "Star" in kind.family
            else Subclass.L1
        )
        assert subclass_of(kind) is expected
