"""Acceptance criteria, one test per criterion, exact checks throughout.

The test range is every catalog type with cycle/star parameter N <= 20 and
multiplicity m <= 6. Each test prints a single PASS line on success (run
with `pytest -s` to see them); a failing criterion fails its test.
"""

import itertools
import json
import random

from kodaira import (
    DsgStatus,
    KodairaType,
    Subclass,
    VerdictKind,
    arithmetic_genus,
    bipartite_graph,
    build,
    catalog_types,
    classify,
    compare,
    dsg_status,
    euler_characteristic,
    grothendieck_group,
    intersection_matrix,
    loop_rank,
    negative_k,
    radical_basis,
    reduce,
    subclass_of,
)
from kodaira.cli import main as cli_main
from oracles import cycle_rank_by_spanning_forest, integer_kernel, relabeled
from readme_examples import REPO, readme_console_examples

MAX_N = 20
MAX_M = 6
ALL_TYPES = catalog_types(MAX_N, MAX_M)
L1_TYPES = [t for t in ALL_TYPES if subclass_of(t) is Subclass.L1]
L2_TYPES = [t for t in ALL_TYPES if subclass_of(t) is Subclass.L2]
L3_TYPES = [t for t in ALL_TYPES if subclass_of(t) is Subclass.L3]


def test_criterion_1_genus_one_reproduction():
    for kind in ALL_TYPES:
        config = build(kind)
        assert euler_characteristic(config) == 0, kind
        assert arithmetic_genus(config) == 1, kind
    print(f"PASS: genus-one reproduction (chi = 0, g_a = 1 for {len(ALL_TYPES)} configurations)")


def test_criterion_2_fiber_class_radical():
    reducible = [t for t in ALL_TYPES if build(t).n_components >= 2]
    for kind in reducible:
        config = build(kind)
        entries = [list(row) for row in intersection_matrix(config).entries]
        mult = config.multiplicities()
        product = [sum(x * v for x, v in zip(row, mult)) for row in entries]
        assert product == [0] * len(mult), kind

        basis = radical_basis(config)  # library route: m / gcd(m)
        assert len(basis) == 1, kind
        v = basis[0]
        assert all(v[i] * mult[0] == v[0] * mult[i] for i in range(len(mult))), kind

        oracle = integer_kernel(entries)  # fraction-free route
        assert len(oracle) == 1, kind
        w = oracle[0]
        assert all(w[i] * mult[0] == w[0] * mult[i] for i in range(len(mult))), kind
    print(f"PASS: fiber-class radical (rank-1 kernel spanned by m, {len(reducible)} reducible fibers, two routes)")


def test_criterion_3_grothendieck_group_ranks():
    for kind in ALL_TYPES:
        config = build(kind)
        assert grothendieck_group(config).rank == config.n_components + 1, kind
    assert grothendieck_group(build(KodairaType("IIStar"))).rank == 10
    assert grothendieck_group(build(KodairaType("I", 0))).rank == 2
    print(f"PASS: Grothendieck group ranks (N+1 for {len(ALL_TYPES)} configurations)")


def test_criterion_4_negative_k_groups():
    for kind in ALL_TYPES:
        config = build(kind)
        expected = 1 if kind.family in ("I", "mI") and kind.n >= 1 else 0
        assert negative_k(config, -1).rank == expected, kind
        assert negative_k(config, -2).rank == 0, kind
        assert negative_k(config, -7).rank == 0, kind
        by_forest = cycle_rank_by_spanning_forest(bipartite_graph(reduce(config)))
        assert loop_rank(config) == by_forest == expected, kind
    print(f"PASS: negative K-groups (loop rank against spanning-tree oracle, {len(ALL_TYPES)} configurations)")


def test_criterion_5_picard_trichotomy():
    from kodaira import picard_descriptor

    for kind in ALL_TYPES:
        p = picard_descriptor(build(kind))
        assert p.unipotent_dim + p.torus_rank + p.elliptic_rank == 1, kind
        label = p.identity_component_label()
        if kind.family in ("I", "mI") and kind.n == 0:
            assert label == "elliptic", kind
        elif kind.family in ("I", "mI"):
            assert label == "G_m", kind
        else:  # II, III, IV and all of L2
            assert label == "G_a", kind
    print(f"PASS: Picard trichotomy (identity component per type, {len(ALL_TYPES)} configurations)")


def test_criterion_6_cross_subclass_pairs_are_not_equivalent():
    pairs = 0
    for a, b in itertools.product(ALL_TYPES, ALL_TYPES):
        if subclass_of(a) is subclass_of(b):
            continue
        verdict = compare(build(a), build(b))
        assert verdict.kind is VerdictKind.NOT_EQUIVALENT, (a, b)
        names = {w.invariant for w in verdict.witnesses}
        sub = {subclass_of(a), subclass_of(b)}
        if sub == {Subclass.L2, Subclass.L3}:
            assert "Picard identity component" in names, (a, b)
        if Subclass.L1 in sub:
            assert "isolated singularities" in names, (a, b)
        pairs += 1
    print(f"PASS: cross-subclass separation ({pairs} ordered pairs, witnesses as required)")


def test_criterion_7_reduced_fibers_have_no_partners():
    for a, b in itertools.combinations(L1_TYPES, 2):
        verdict = compare(build(a), build(b))
        assert verdict.kind is VerdictKind.NOT_EQUIVALENT, (a, b)
    for a in L1_TYPES:
        assert compare(build(a), build(a)).kind is VerdictKind.ISOMORPHIC, a
    print(f"PASS: reduced-fiber separation ({len(L1_TYPES)} types pairwise distinct, self-isomorphic)")


def test_criterion_8_singularity_category_status():
    for kind in L2_TYPES:
        assert dsg_status(build(kind)) is DsgStatus.IDEMPOTENT_COMPLETE, kind
    assert dsg_status(build(KodairaType("I", 0))) is DsgStatus.TRIVIAL
    for kind in L3_TYPES:
        if kind.n >= 1:
            assert dsg_status(build(kind)) is DsgStatus.UNKNOWN, kind
    print(f"PASS: singularity-category status (idempotent complete on {len(L2_TYPES)} star types)")


def test_criterion_9_recognition_roundtrip():
    checked = 0
    for kind in ALL_TYPES:
        base = build(kind)
        assert classify(base) == kind
        rng = random.Random(f"acceptance:{kind}")
        for _ in range(50):
            assert classify(relabeled(base, rng)) == kind, kind
            checked += 1
    print(f"PASS: recognition roundtrip ({checked} relabeled classifications)")


def test_criterion_10_invariance_under_reduction():
    for kind in ALL_TYPES:
        config = build(kind)
        reduced = reduce(config)
        assert grothendieck_group(config).rank == grothendieck_group(reduced).rank, kind
        assert loop_rank(config) == loop_rank(reduced), kind
    print(f"PASS: devissage consistency (G0 rank and loop rank survive reduction, {len(ALL_TYPES)} configurations)")


def test_criterion_11_cli_contract(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    examples = readme_console_examples()
    assert len(examples) >= 8
    for argv, expected, status in examples:
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert out == expected, argv
        assert code == status, argv
    json_commands = [
        ["list", "--format", "json"],
        ["show", "IIStar", "--format", "json"],
        ["compare", "I(1)", "II", "--format", "json"],
        ["matrix", "--max-n", "2", "--max-m", "2", "--format", "json"],
    ]
    for argv in json_commands:
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out, argv
    with capsys.disabled():
        print(f"\nPASS: CLI contract ({len(examples)} documented examples byte-for-byte, JSON round-trips)")
