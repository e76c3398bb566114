import gc
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

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
    catalog,
    catalog_types,
    classify,
    fiber_obstruction,
    parse_type,
    serialize_document,
    subclass_of,
)
from oracles import relabeled


class TestTypeParameters:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            KodairaType("I", -1)
        with pytest.raises(ValueError):
            KodairaType("mI", n=3, m=1)
        with pytest.raises(ValueError, match="needs a parameter N"):
            KodairaType("mI", m=2)
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


_SLICED = catalog_types(12, 4) + [
    KodairaType("I", 150),
    KodairaType("IStar", 150),
    KodairaType("mI", n=150, m=3),
]


# every type that the re-validation tests rebuild with the checked constructors
_REVALIDATED = (
    _SLICED
    + catalog_types(40, 6)
    + [KodairaType("I", 2000), KodairaType("IStar", 2000), KodairaType("mI", n=2000, m=5)]
)


def _clear_runs() -> None:
    catalog._run.cache_clear()


def _incidence_build(kind: KodairaType) -> CurveConfiguration:
    """A cycle of N >= 3 curves or an IStar type, every record made for it
    alone from its incidences."""
    n = kind.n
    if kind.family == "IStar":
        far = n + 5
        incidences = [(1, 5), (2, 5), (3, far), (4, far)] + [(j, j + 1) for j in range(5, far)]
        return catalog._from_incidences((1,) * 4 + (2,) * (n + 1), tuple(incidences))
    mult = 1 if kind.family == "I" else kind.m
    return catalog._from_incidences((mult,) * n, tuple((i, i % n + 1) for i in range(1, n + 1)))


class TestBuild:
    def test_build_keeps_no_configuration_alive(self):
        """`build` makes a fresh configuration on every call and memoizes
        none: only the runs that it slices the records from stay."""
        ref = weakref.ref(build(KodairaType("I", 5)))
        gc.collect()
        assert ref() is None
        assert build(KodairaType("I", 5)) == build(KodairaType("I", 5))

    def test_cold_and_warm_runs_give_the_same_configuration(self):
        """A type built from runs that only it has grown serializes as it
        does after every other type, in reverse order, has grown them; the
        cycles of N >= 3 curves and the IStar types equal their incidence
        builds."""
        cold = {}
        for kind in _SLICED:
            _clear_runs()
            cold[kind] = serialize_document(build(kind))
            if kind.family == "IStar" or kind.n is not None and kind.n >= 3:
                assert build(kind) == _incidence_build(kind), kind
        for kind in _SLICED:
            _clear_runs()
            for other in reversed(_SLICED):
                if other != kind:
                    build(other)
            assert serialize_document(build(kind)) == cold[kind], kind

    def test_concurrent_builds_match_builds_made_alone(self):
        """Four threads build shuffled mixes of cycles and IStar types from
        cold runs, switching every microsecond; the runs grow under one
        lock, so every configuration equals the one built alone."""
        kinds = [
            kind
            for n in range(50, 1000, 50)
            for kind in (KodairaType("I", n), KodairaType("IStar", n), KodairaType("mI", n, 2))
        ]
        alone = {}
        for kind in kinds:
            _clear_runs()
            alone[kind] = build(kind)

        start = threading.Barrier(4)

        def build_all(seed: int) -> list[tuple[KodairaType, CurveConfiguration]]:
            order = kinds[:]
            random.Random(seed).shuffle(order)
            start.wait(timeout=60)
            return [(kind, build(kind)) for kind in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for first in range(0, 16, 4):
                _clear_runs()
                seeds = range(first, first + 4)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    for built in pool.map(build_all, seeds, timeout=60):
                        assert all(config == alone[kind] for kind, config in built)
        finally:
            sys.setswitchinterval(interval)

    def test_the_checked_constructor_accepts_every_built_configuration(self):
        """`build` returns its configurations unchecked, as valid by
        construction; the public constructor re-checks names, references and
        connectivity, and gives back an equal configuration for each."""
        for kind in _REVALIDATED:
            config = build(kind)
            assert CurveConfiguration(config.components, config.points) == config, kind

    def test_the_checked_constructors_accept_every_built_record(self):
        """`build` makes its component and point records through the checked
        constructors, so each one passes its checks; made again from its own
        fields, each gives back an equal record. The records are slotted."""
        assert not hasattr(build(KodairaType("I", 3)).components[0], "__dict__")
        for kind in _REVALIDATED:
            config = build(kind)
            for c in config.components:
                checked = Component(
                    c.name, c.multiplicity, c.geometric_genus, c.self_intersection, c.intrinsic
                )
                assert checked == c, (kind, c)
            for p in config.points:
                assert SingularPoint(p.name, p.local_type, p.incident) == p, (kind, p)

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
