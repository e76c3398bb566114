import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kodaira
from kodaira import (
    Component,
    CurveConfiguration,
    IntrinsicType,
    KodairaType,
    PartnerVerdict,
    VerdictKind,
    Witness,
    build,
    catalog,
    catalog_types,
    classify,
    compare,
    fiber_obstruction,
    invariant_profile,
    invariants,
    partner,
    subclass_of,
)
from kodaira.cli import main

L1_SAMPLE = [KodairaType("I", n) for n in range(7)] + [
    KodairaType("II"),
    KodairaType("III"),
    KodairaType("IV"),
]


# Each check's value read straight off the profile fields, in witness order.
CHECK_VALUES = {
    "G0 rank": lambda p: p.g0_rank,
    "K^-1 rank": lambda p: p.k_minus_one_rank,
    "Picard identity component": lambda p: p.picard.identity_component_label(),
    "Picard discrete rank": lambda p: p.picard.discrete_rank,
    "isolated singularities": lambda p: "yes" if p.reduced else "no",
    "singular point count": lambda p: p.singular_point_count,
}


def witness_names(verdict):
    return [w.invariant for w in verdict.witnesses]


def verdict_grid(types):
    """The partner matrix: the `compare` verdict of every ordered pair of types."""
    return [[compare(build(a), build(b)) for b in types] for a in types]


def assert_check_values_rule(verdict, a, b):
    """The witnesses are the checks whose profile values differ, both
    defined, left value first; with none the verdict is not NotEquivalent."""
    pa, pb = invariant_profile(build(a)), invariant_profile(build(b))
    witnesses = tuple(
        Witness(name, str(value(pa)), str(value(pb)))
        for name, value in CHECK_VALUES.items()
        if value(pa) != value(pb) and None not in (value(pa), value(pb))
    )
    if witnesses:
        assert verdict == PartnerVerdict(VerdictKind.NOT_EQUIVALENT, witnesses), (a, b)
    else:
        assert verdict.kind is not VerdictKind.NOT_EQUIVALENT, (a, b)


class TestCompare:
    def test_node_versus_cusp(self):
        verdict = compare(build(KodairaType("I", 1)), build(KodairaType("II")))
        assert verdict.kind is VerdictKind.NOT_EQUIVALENT
        pic = [w for w in verdict.witnesses if w.invariant == "Picard identity component"]
        assert len(pic) == 1
        assert (pic[0].left, pic[0].right) == ("G_m", "G_a")

    @pytest.mark.parametrize("kind", L1_SAMPLE)
    def test_reduced_self_comparison_is_isomorphic(self, kind):
        verdict = compare(build(kind), build(kind))
        assert verdict.kind is VerdictKind.ISOMORPHIC
        # I(0) is the only smooth type, and only its isomorphism carries a note
        assert (verdict.note is None) == (kind != KodairaType("I", 0)), verdict.note

    def test_smooth_elliptic_self_comparison_carries_a_note(self):
        verdict = compare(build(KodairaType("I", 0)), build(KodairaType("I", 0)))
        assert verdict.kind is VerdictKind.ISOMORPHIC
        assert verdict.note is not None and "j-invariant" in verdict.note

    @pytest.mark.parametrize(
        "kind",
        [KodairaType("IStar", 2), KodairaType("IIStar"), KodairaType("mI", n=3, m=2)],
    )
    def test_non_reduced_self_comparison_is_only_possible(self, kind):
        verdict = compare(build(kind), build(kind))
        assert verdict.kind is VerdictKind.POSSIBLY_EQUIVALENT
        assert verdict.note == "the two configurations are identical"

    def test_istar4_and_iistar_share_every_invariant(self):
        verdict = compare(build(KodairaType("IStar", 4)), build(KodairaType("IIStar")))
        assert verdict.kind is VerdictKind.POSSIBLY_EQUIVALENT
        assert verdict.witnesses == ()

    def test_non_fiber_input_rejected(self):
        with pytest.raises(ValueError, match="not fiber-like"):
            compare(
                CurveConfiguration((Component("a", 1, 0, -2),)),
                build(KodairaType("II")),
            )


class TestSeparation:
    @pytest.mark.parametrize(
        "a,b", list(itertools.combinations(L1_SAMPLE, 2))
    )
    def test_distinct_reduced_types_never_match(self, a, b):
        verdict = compare(build(a), build(b))
        assert verdict.kind is VerdictKind.NOT_EQUIVALENT
        assert verdict.witnesses

    def test_cross_subclass_pairs_never_match(self):
        sample = catalog_types(5, 3)
        for a, b in itertools.combinations(sample, 2):
            if subclass_of(a) is subclass_of(b):
                continue
            verdict = compare(build(a), build(b))
            assert verdict.kind is VerdictKind.NOT_EQUIVALENT, (a, b)

    def test_reduced_versus_multiple_witnessed_by_isolated_flag(self):
        verdict = compare(build(KodairaType("I", 2)), build(KodairaType("mI", n=2, m=2)))
        assert verdict.kind is VerdictKind.NOT_EQUIVALENT
        assert "isolated singularities" in witness_names(verdict)

    def test_singular_point_count_compared_only_between_reduced_curves(self):
        assert "singular point count" in witness_names(
            compare(build(KodairaType("I", 2)), build(KodairaType("I", 3)))
        )
        mixed = [
            (KodairaType("I", 2), KodairaType("mI", n=2, m=2)),
            (KodairaType("IStar", 0), KodairaType("IV")),
        ]
        for a, b in mixed:
            assert "singular point count" not in witness_names(compare(build(a), build(b)))
            assert "singular point count" not in witness_names(compare(build(b), build(a)))

    def test_l2_versus_l3_witnessed_by_picard_identity(self):
        verdict = compare(build(KodairaType("IStar", 0)), build(KodairaType("mI", n=5, m=2)))
        assert verdict.kind is VerdictKind.NOT_EQUIVALENT
        pic = [w for w in verdict.witnesses if w.invariant == "Picard identity component"]
        assert (pic[0].left, pic[0].right) == ("G_a", "G_m")


class TestVerdictStructure:
    @pytest.mark.parametrize(
        "a,b",
        [
            (KodairaType("I", 1), KodairaType("II")),
            (KodairaType("I", 3), KodairaType("IStar", 3)),
            (KodairaType("IIStar"), KodairaType("mI", n=4, m=2)),
            (KodairaType("IV"), KodairaType("IV")),
            (KodairaType("mI", n=2, m=3), KodairaType("mI", n=2, m=5)),
        ],
    )
    def test_symmetry_of_the_verdict_kind(self, a, b):
        forward = compare(build(a), build(b))
        backward = compare(build(b), build(a))
        assert forward.kind is backward.kind
        assert witness_names(forward) == witness_names(backward)

    @pytest.mark.parametrize("kind", catalog_types(4, 3))
    def test_reflexivity(self, kind):
        assert compare(build(kind), build(kind)).kind is not VerdictKind.NOT_EQUIVALENT

    def test_witness_values_are_reassertable(self):
        for a, b in itertools.combinations(catalog_types(4, 3), 2):
            verdict = compare(build(a), build(b))
            pa, pb = invariant_profile(build(a)), invariant_profile(build(b))
            for witness in verdict.witnesses:
                getter = CHECK_VALUES[witness.invariant]
                assert str(getter(pa)) == witness.left
                assert str(getter(pb)) == witness.right
                assert witness.left != witness.right


class TestPartnerMatrix:
    def test_reduced_block_is_diagonal(self):
        types = [KodairaType("I", n) for n in range(7)] + [
            KodairaType("II"),
            KodairaType("III"),
            KodairaType("IV"),
        ]
        table = verdict_grid(types)
        for i, row in enumerate(table):
            for j, verdict in enumerate(row):
                expected = VerdictKind.ISOMORPHIC if i == j else VerdictKind.NOT_EQUIVALENT
                assert verdict.kind is expected, (types[i], types[j])

    def test_matrix_is_square_and_symmetric_in_kind(self):
        types = catalog_types(2, 2)
        table = verdict_grid(types)
        assert len(table) == len(types)
        for row in table:
            assert len(row) == len(types)
        for i in range(len(types)):
            for j in range(len(types)):
                assert table[i][j].kind is table[j][i].kind

    def test_l1_subclass_constant_on_matching_cells(self):
        types = [KodairaType("IStar", 0), KodairaType("mI", n=5, m=2)]
        table = verdict_grid(types)
        assert table[0][1].kind is VerdictKind.NOT_EQUIVALENT
        assert table[0][0].kind is VerdictKind.POSSIBLY_EQUIVALENT

    def test_every_cell_equals_compare(self):
        """Every cell follows the `CHECK_VALUES` witness rule, and a
        PossiblyEquivalent cell says "identical" exactly when the two
        configurations are, off the diagonal as well."""
        i0, istar4, iistar = KodairaType("I", 0), KodairaType("IStar", 4), KodairaType("IIStar")
        mi25, mi35 = KodairaType("mI", n=5, m=2), KodairaType("mI", n=5, m=3)
        # the repeats put identical configurations off the diagonal as well
        types = catalog_types(6, 4) + [i0, istar4, iistar, mi25, mi35]
        table = verdict_grid(types)
        for row, a in zip(table, types):
            for verdict, b in zip(row, types):
                assert_check_values_rule(verdict, a, b)
                if verdict.kind is VerdictKind.POSSIBLY_EQUIVALENT:
                    identical = verdict.note == "the two configurations are identical"
                    assert identical == (build(a) == build(b)), (a, b)

        def cell(a, b):
            return table[types.index(a)][types.index(b)]

        assert "j-invariant" in cell(i0, i0).note
        assert cell(istar4, iistar).kind is VerdictKind.POSSIBLY_EQUIVALENT
        assert cell(istar4, iistar).witnesses == ()
        assert invariant_profile(build(mi25)) == invariant_profile(build(mi35))
        assert cell(mi25, mi35).kind is VerdictKind.POSSIBLY_EQUIVALENT
        assert cell(mi25, mi35).note != cell(mi25, mi25).note


def test_curves_of_canonical_type_that_are_no_fiber_have_no_profile():
    """IVStar, III and II with every multiplicity doubled pass the fiber
    test and adjunction but are no catalog type, so they have no profile
    and no verdict."""
    ivstar, iii = build(KodairaType("IVStar")), build(KodairaType("III"))
    doubled = [
        CurveConfiguration(
            tuple(replace(c, multiplicity=2 * c.multiplicity) for c in config.components),
            config.points,
        )
        for config in (ivstar, iii)
    ]
    doubled.append(CurveConfiguration((Component("c", 2, 0, 0, (IntrinsicType.CUSP,)),)))
    for config in doubled:
        assert fiber_obstruction(config) is None
        assert classify(config) is None
        for rejected in (
            lambda: invariant_profile(config),
            lambda: compare(ivstar, config),
            lambda: compare(config, ivstar),
        ):
            with pytest.raises(ValueError) as error:
                rejected()
            assert str(error.value) == "not a Kodaira curve: no catalog match"


def test_one_recognizer_call_per_profile(capsys, monkeypatch):
    """The recognized type rides on the profile, so only profiles run the
    recognizer: one call per profile and two per `compare`. `kodaira
    matrix` reads each profile off its type and runs it never."""
    recognize = catalog._fiber_type
    calls = []

    def counted(config):
        calls.append(config)
        return recognize(config)

    for module in (kodaira, catalog, invariants, partner):
        if vars(module).get("_fiber_type") is recognize:
            monkeypatch.setattr(module, "_fiber_type", counted)
    types = catalog_types(6, 3)
    for kind in types:
        calls.clear()
        invariant_profile(build(kind))
        assert len(calls) == 1, kind
    for kind in (KodairaType("I", 0), KodairaType("I", 3), KodairaType("IV")):
        calls.clear()
        assert compare(build(kind), build(kind)).kind is VerdictKind.ISOMORPHIC
        assert len(calls) == 2, kind
    calls.clear()
    table = verdict_grid(types)
    assert len(calls) == 2 * len(types) ** 2
    assert all(table[i][i].kind is not VerdictKind.NOT_EQUIVALENT for i in range(len(types)))
    calls.clear()
    assert main(["matrix", "--max-n", "6", "--max-m", "3"]) == 0
    assert "IIStar" in capsys.readouterr().out
    assert len(calls) == 0


_II, _III, _IV = KodairaType("II"), KodairaType("III"), KodairaType("IV")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(catalog_types(12, 5)), min_size=1, max_size=12))
@example([_II, _III, _IV, KodairaType("mI", 1, 2), KodairaType("mI", 1, 5), _III, _II])
def test_matrix_cells_are_compare_verdicts_with_the_profiles_witnesses(types):
    """Every `compare` verdict over ordered pairs follows the `CHECK_VALUES`
    witness rule, and it is NotEquivalent exactly across the profile classes
    that `kodaira matrix` reads its kinds from: the rows of one class are
    one dict, and each cell of `_verdict_rows` is the verdict's kind."""
    rows = partner._verdict_rows(types)
    for i, a in enumerate(types):
        for j, b in enumerate(types):
            verdict = compare(build(a), build(b))
            assert_check_values_rule(verdict, a, b)
            assert (verdict.kind is VerdictKind.NOT_EQUIVALENT) == (rows[i] is not rows[j]), (a, b)
            assert rows[i].get(j, VerdictKind.NOT_EQUIVALENT) is verdict.kind, (a, b)
