"""Seeded inputs and expected outputs for the benchmark workloads.

This module never imports kodaira: every expected output is derived from
closed forms (cycle and star matrices, component counts, multiplicities)
or from how an input was constructed, so a defect in the code under test
cannot also hide in its own check.

An op is one `kodaira <argv>` call. `plan(workload, seed)` returns the op
list of one pass over the workload (the benchmark repeats that pass) and
the documents the ops read; the same seed gives byte-identical ops and
documents.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field

WORKLOADS = ("show-large", "matrix-grid", "classify-docs")


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, whether caches are cleared first, and what
    the checker expects. A `{doc}` argument is replaced by the path of the
    document named in `doc`."""

    argv: tuple[str, ...]
    expect: tuple
    clear_caches: bool = True
    doc: str | None = None


@dataclass
class Plan:
    workload: str
    seed: int
    ops: list[Op]
    documents: dict[str, str] = field(default_factory=dict)

    def serialized(self) -> bytes:
        """Canonical bytes of the op list and documents, for determinism checks."""
        body = {
            "ops": [[list(op.argv), list(op.expect), op.clear_caches, op.doc] for op in self.ops],
            "documents": self.documents,
        }
        return json.dumps(body, sort_keys=True).encode()


def plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "show-large":
        return Plan(workload, seed, _show_ops(rng))
    if workload == "matrix-grid":
        return Plan(workload, seed, _matrix_ops(rng))
    if workload == "classify-docs":
        ops, documents = _classify_ops(rng)
        return Plan(workload, seed, ops, documents)
    raise ValueError(f"unknown workload {workload!r}")


def check(op: Op, rc: int, out: str, err: str) -> str | None:
    """Why the op's result is wrong, or None when it is right."""
    kind = op.expect[0]
    if kind == "show":
        return _check_show(op.expect, rc, out)
    if kind == "matrix":
        return _check_matrix(op.expect, rc, out)
    return _check_classify(op.expect, rc, out, err)


# --- show-large -------------------------------------------------------------

# One pass shows every rung of every family once, the format alternating
# along each ladder. Costs grow as N^3 (the Bareiss fiber test) and N^2
# (printing the dense matrix), so the ladders stop near one second per op;
# I(1000) alone takes about 15 s. Sixteen rungs per family give the cost
# distribution no wide gaps, so p50 and p90 do not hinge on one op.
_CYCLE_LADDER = (20, 30, 45, 60, 80, 100, 120, 145, 170, 200, 230, 260, 295, 330, 365, 400)
SHOW_LADDERS = {"I": _CYCLE_LADDER, "mI": _CYCLE_LADDER, "IStar": tuple(2 * n for n in _CYCLE_LADDER)}
SHOW_M = 3


def _show_ops(rng: random.Random) -> list[Op]:
    ops = []
    for phase, (family, ladder) in enumerate(SHOW_LADDERS.items()):
        for i, rung in enumerate(ladder):
            # jitter of at most 1% keeps the cost of each rung, and so the
            # latency percentiles, nearly independent of the seed
            n = rung + rng.randint(0, rung // 100)
            fmt = ("table", "json")[(i + phase) % 2]
            ops.append(Op(("show", _type_name(family, n, SHOW_M), "--format", fmt), ("show", family, n, fmt)))
    return _order(ops, rng)


def _order(ops: list[Op], rng: random.Random) -> list[Op]:
    """Ops that each stand for a whole CLI process: the largest matrix
    first, the rest in seeded order.

    The first op then meets a fresh heap, as a real process would, so the
    peak RSS of the pass does not depend on the order. Shuffling the rest
    spreads the ops of similar cost over the pass, so the samples next to
    a percentile come from different moments of the run.
    """
    def size(op: Op) -> int:
        if op.expect[0] == "show":
            return op.expect[2] + 5 if op.expect[1] == "IStar" else op.expect[2]
        n, m = op.expect[1:]
        return (m + 1) * (n + 1)

    largest = max(ops, key=size)
    rest = [op for op in ops if op is not largest]
    rng.shuffle(rest)
    return [largest, *rest]


def _cycle_matrix_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -2
        j = (i + 1) % n
        rows[i][j] += 1
        rows[j][i] += 1
    return rows


def _istar_matrix_rows(n: int) -> list[list[int]]:
    """D~(n+4): leaves 1-4 (multiplicity 1) on the ends of a chain 5..n+5."""
    size = n + 5
    edges = [(1, 5), (2, 5), (3, size), (4, size)] + [(j, j + 1) for j in range(5, size)]
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = -2
    for a, b in edges:
        rows[a - 1][b - 1] += 1
        rows[b - 1][a - 1] += 1
    return rows


def show_expected(family: str, n: int) -> dict:
    """The `show --format json` payload of I(n), mI(3,n) or IStar(n), n >= 3."""
    if family == "IStar":
        components = n + 5
        mults = [1, 1, 1, 1] + [2] * (n + 1)
        rows = _istar_matrix_rows(n)
        loops, picard = 0, {"unipotent_dim": 1, "torus_rank": 0, "elliptic_rank": 0}
    else:
        components = n
        mults = [1 if family == "I" else SHOW_M] * n
        rows = _cycle_matrix_rows(n)
        loops, picard = 1, {"unipotent_dim": 0, "torus_rank": 1, "elliptic_rank": 0}
    reduced = family == "I"
    return {
        "type": _type_name(family, n, SHOW_M),
        "subclass": {"I": "L1", "mI": "L3", "IStar": "L2"}[family],
        "components": components,
        "multiplicities": mults,
        "reduced": reduced,
        "smooth": False,
        "euler_characteristic": 0,
        "arithmetic_genus": 1,
        "g0_rank": components + 1,
        "k_minus_one_rank": loops,
        "k_minus_one_regular": True,
        "picard": {**picard, "discrete_rank": components},
        "singular_point_count": n if reduced else None,
        "dualising_sheaf": "trivial",
        "dsg_status": "unknown" if loops else "idempotent_complete",
        "intersection_matrix": rows,
    }


def show_expected_text(family: str, n: int) -> str:
    p = show_expected(family, n)
    pic = p["picard"]
    identity = "G_m" if pic["torus_rank"] else "G_a"
    locus = f"{n} isolated points" if p["reduced"] else "the whole curve (non-reduced)"
    dsg = {"unknown": "unknown", "idempotent_complete": "idempotent complete"}[p["dsg_status"]]
    lines = [
        f"type: {p['type']}",
        f"subclass: {p['subclass']}",
        f"components: {p['components']}",
        "multiplicities: (" + ", ".join(map(str, p["multiplicities"])) + ")",
        f"reduced: {'yes' if p['reduced'] else 'no'}",
        "smooth: no",
        "euler characteristic: 0",
        "arithmetic genus: 1",
        f"G0 rank: {p['g0_rank']}",
        f"K^-1 rank: {p['k_minus_one_rank']}",
        "K^i rank for i <= -2: 0",
        "K^-1-regular: yes",
        f"Pic: extension of Z^{pic['discrete_rank']} by {identity}",
        f"singular locus: {locus}",
        "dualising sheaf: trivial",
        f"D_sg: {dsg}",
        "intersection matrix:",
    ]
    cell = {-2: "-2", 0: " 0", 1: " 1"}  # every entry has width 2
    lines += ["  [" + " ".join(cell[e] for e in row) + "]" for row in p["intersection_matrix"]]
    return "\n".join(lines) + "\n"


def _check_show(expect: tuple, rc: int, out: str) -> str | None:
    _, family, n, fmt = expect
    if rc != 0:
        return f"exit status {rc}, expected 0"
    if fmt == "json":
        try:
            payload = json.loads(out)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        if payload != show_expected(family, n):
            return "JSON payload differs from the closed form"
        return None
    if out != show_expected_text(family, n):
        return "table output differs from the closed form"
    return None


# --- matrix-grid ------------------------------------------------------------

# `matrix --max-n n --max-m m` lists (m+1)(n+1)+6 types and makes a compare
# call for every ordered pair. A pass runs every grid with n >= 4,
# 3 <= m <= 6 and at most 100 types, then the (40,6) grid: 293 types, 86k
# cells. Many grids of nearby cost put plenty of samples next to p50 and
# p90, so the percentiles do not hinge on one op. The cost depends steeply
# on (n, m), not only on the type count: at about 136 types, (31,3) takes
# twice as long as (18,6). So the grids are fixed, and the seed varies only
# how each op is spelled (option order, `--opt value` or `--opt=value`) and
# the order of the ops.
MATRIX_MAX_TYPES = 100
MATRIX_GRIDS = tuple(
    (n, m) for m in range(3, 7) for n in range(4, 41) if (m + 1) * (n + 1) + 6 <= MATRIX_MAX_TYPES
) + ((40, 6),)


def catalog_names(max_n: int, max_m: int) -> list[str]:
    """Canonical names of the catalog types `matrix` lists, in its order."""
    names = [f"I({n})" for n in range(max_n + 1)] + ["II", "III", "IV"]
    names += [f"IStar({n})" for n in range(max_n + 1)] + ["IIStar", "IIIStar", "IVStar"]
    names += [f"mI({m},{n})" for m in range(2, max_m + 1) for n in range(max_n + 1)]
    return names


def _matrix_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n, m in MATRIX_GRIDS:
        options = [("--max-n", str(n)), ("--max-m", str(m))]
        rng.shuffle(options)
        argv = ["matrix"]
        for option, value in options:
            argv += [f"{option}={value}"] if rng.random() < 0.5 else [option, value]
        ops.append(Op(tuple(argv), ("matrix", n, m)))
    return _order(ops, rng)


def _subclass(name: str) -> str:
    if name.startswith("mI("):
        return "L3"
    return "L2" if "Star" in name else "L1"


def _parse_matrix_table(out: str, names: list[str]) -> list[list[str]] | str:
    lines = out.split("\n")
    if lines[-1] != "" or len(lines) != len(names) + 3:
        return f"{len(lines) - 1} lines, expected {len(names) + 2}"
    if lines[0] != "legend: = isomorphic, x not equivalent, ? possibly equivalent":
        return "legend line differs"
    width = max(len(name) for name in names)
    if lines[1] != " " * width + "".join(f" {name:>{width}}" for name in names):
        return "header line differs"
    cells = []
    for name, line in zip(names, lines[2:-1]):
        tokens = line.split()
        if not tokens or tokens[0] != name:
            return f"row for {name} is missing"
        row = tokens[1:]
        if line != f"{name:<{width}}" + "".join(f" {c:>{width}}" for c in row):
            return f"row {name} is misaligned"
        cells.append(row)
    return cells


def _check_matrix(expect: tuple, rc: int, out: str) -> str | None:
    _, n, m = expect
    if rc != 0:
        return f"exit status {rc}, expected 0"
    names = catalog_names(n, m)
    cells = _parse_matrix_table(out, names)
    if isinstance(cells, str):
        return cells
    if len(cells) != len(names) or any(len(row) != len(names) for row in cells):
        return "table is not square over the type list"
    classes = [_subclass(name) for name in names]
    for i, row in enumerate(cells):
        for j, c in enumerate(row):
            if c not in ("=", "x", "?"):
                return f"cell ({names[i]}, {names[j]}) is {c!r}"
            if c != cells[j][i]:
                return f"asymmetric cell ({names[i]}, {names[j]})"
            if i == j:
                want = "=" if classes[i] == "L1" else "?"
            elif classes[i] == "L1" or classes[i] != classes[j]:
                # a reduced fiber has no partner but itself; a subclass
                # mismatch always separates two types
                want = "x"
            else:
                continue
            if c != want:
                return f"cell ({names[i]}, {names[j]}) is {c!r}, expected {want!r}"
    return None


# --- classify-docs ----------------------------------------------------------

# One pass classifies this many distinct documents in one long-lived
# process: 70% catalog fibers, 30% rejects of four kinds.
CLASSIFY_MIX = (
    ("catalog", 1400),
    ("not-fiber", 180),
    ("no-match", 160),
    ("disconnected", 130),
    ("malformed", 130),
)
MAX_COMPONENTS = 60
_EXCEPTIONAL = ("II", "III", "IV", "IIStar", "IIIStar", "IVStar")
# E~8, E~7, E~6: multiplicity of the trivalent component and its arms,
# read outward from it.
_E_STARS = {
    "IIStar": (6, ((5, 4, 3, 2, 1), (4, 2), (3,))),
    "IIIStar": (4, ((3, 2, 1), (3, 2, 1), (2,))),
    "IVStar": (3, ((2, 1), (2, 1), (2, 1))),
}


@dataclass
class _Curve:
    """Components as (multiplicity, genus, self-intersection, intrinsic)
    and points as (local type, component indices)."""

    components: list[tuple[int, int, int, str]]
    points: list[tuple[str, tuple[int, ...]]]


def _cycle(n: int, mult: int = 1) -> _Curve:
    components = [(mult, 0, -2, "")] * n
    return _Curve(components, [("transverse", (i, (i + 1) % n)) for i in range(n)])


def _tree(mults: list[int], edges: list[tuple[int, int]]) -> _Curve:
    return _Curve([(m, 0, -2, "") for m in mults], [("transverse", e) for e in edges])


def _catalog_curve(name: str, n: int, m: int) -> _Curve:
    if name in ("I", "mI"):
        mult = 1 if name == "I" else m
        if n == 0:
            return _Curve([(mult, 1, 0, "")], [])
        if n == 1:
            return _Curve([(mult, 0, 0, "node")], [])
        return _cycle(n, mult)
    if name == "II":
        return _Curve([(1, 0, 0, "cusp")], [])
    if name == "III":
        return _Curve([(1, 0, -2, "")] * 2, [("tacnode", (0, 1))])
    if name == "IV":
        return _Curve([(1, 0, -2, "")] * 3, [("ordinary_triple", (0, 1, 2))])
    if name == "IStar":
        chain = list(range(4, n + 5))
        edges = [(0, chain[0]), (1, chain[0]), (2, chain[-1]), (3, chain[-1])]
        edges += list(zip(chain, chain[1:]))
        return _tree([1, 1, 1, 1] + [2] * (n + 1), edges)
    center, arms = _E_STARS[name]
    mults, edges = [center], []
    for arm in arms:
        previous = 0
        for mult in arm:
            mults.append(mult)
            edges.append((previous, len(mults) - 1))
            previous = len(mults) - 1
    return _tree(mults, edges)


def _type_name(name: str, n: int, m: int) -> str:
    if name == "I":
        return f"I({n})"
    if name == "mI":
        return f"mI({m},{n})"
    if name == "IStar":
        return f"IStar({n})"
    return name


def _random_catalog(rng: random.Random, index: int) -> tuple[_Curve, str]:
    """A catalog fiber; `index` cycles through I, mI, IStar and the
    exceptional types so that each gets a quarter of the draws."""
    family = ("I", "mI", "IStar", "exceptional")[index % 4]
    if family == "exceptional":
        name, n, m = rng.choice(_EXCEPTIONAL), 0, 0
    else:
        name, m = family, rng.randint(2, 4)
        n = rng.randint(0, MAX_COMPONENTS - 5 if family == "IStar" else MAX_COMPONENTS)
    return _catalog_curve(name, n, m), _type_name(name, n, m)


def _not_fiber(rng: random.Random) -> _Curve:
    """A connected curve with M*m != 0: a chain, or a reducible fiber with
    one multiplicity raised (which changes that row of M*m by -2)."""
    if rng.random() < 0.5:
        k = rng.randint(2, MAX_COMPONENTS)
        return _tree([1] * k, [(i, i + 1) for i in range(k - 1)])
    while True:
        curve, _ = _random_catalog(rng, rng.randrange(4))
        if len(curve.components) >= 2:
            break
    i = rng.randrange(len(curve.components))
    mult, genus, square, intrinsic = curve.components[i]
    curve.components[i] = (mult + 1, genus, square, intrinsic)
    return curve


def _no_match(rng: random.Random) -> _Curve:
    """Fiber-like but outside the catalog: a cycle of at least two
    components, one of which carries a node or a cusp or has genus one."""
    curve = _cycle(rng.randint(2, MAX_COMPONENTS))
    i = rng.randrange(len(curve.components))
    decoration = rng.choice(("node", "cusp", "genus"))
    if decoration == "genus":
        curve.components[i] = (1, 1, -2, "")
    else:
        curve.components[i] = (1, 0, -2, decoration)
    return curve


def _disconnected(rng: random.Random) -> _Curve:
    a = _cycle(rng.randint(2, MAX_COMPONENTS // 2))
    b = _cycle(rng.randint(2, MAX_COMPONENTS // 2))
    shift = len(a.components)
    return _Curve(
        a.components + b.components,
        a.points + [(kind, tuple(i + shift for i in ids)) for kind, ids in b.points],
    )


_MALFORMATIONS = ("short-component", "bad-integer", "bad-local-type", "unknown-reference")


def _render(rng: random.Random, curve: _Curve, malformation: str | None = None) -> tuple[str, int]:
    """Document text with random labels and shuffled records.

    With a malformation, one record is broken; returns the text and the
    1-based line of the broken record (0 without one).
    """
    names: list[str] = []
    while len(names) < len(curve.components):
        label = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase + string.digits) for _ in range(5)
        )
        if label not in names:
            names.append(label)
    component_lines = []
    for name, (mult, genus, square, intrinsic) in zip(names, curve.components):
        record = f"{name} {mult} {genus} {square}"
        if intrinsic:
            record += f" intrinsic={intrinsic}"
        component_lines.append(record)
    point_lines = []
    for k, (kind, ids) in enumerate(curve.points):
        incident = [names[i] for i in ids]
        rng.shuffle(incident)
        point_lines.append(f"q{k}{rng.choice(string.ascii_lowercase)} {kind} " + " ".join(incident))
    rng.shuffle(component_lines)
    rng.shuffle(point_lines)

    broken = 0
    if malformation in ("short-component", "bad-integer"):
        i = rng.randrange(len(component_lines))
        tokens = component_lines[i].split()
        if malformation == "short-component":
            component_lines[i] = " ".join(tokens[:3])
        else:
            component_lines[i] = " ".join([tokens[0], "two"] + tokens[2:])
        broken = 3 + i  # after the comment and the [components] header
    elif malformation is not None:
        i = rng.randrange(len(point_lines))
        tokens = point_lines[i].split()
        if malformation == "bad-local-type":
            tokens[1] = "crossing"
        else:
            tokens[-1] = "zz" + tokens[-1]  # 8 characters: never one of the 6-character labels
        point_lines[i] = " ".join(tokens)
        broken = 4 + len(component_lines) + i

    lines = ["# benchmark document", "[components]", *component_lines]
    if point_lines:
        lines += ["[points]", *point_lines]
    return "\n".join(lines) + "\n", broken


def _classify_ops(rng: random.Random) -> tuple[list[Op], dict[str, str]]:
    kinds = [kind for kind, count in CLASSIFY_MIX for _ in range(count)]
    rng.shuffle(kinds)
    ops, documents, seen = [], {}, set()
    fibers = 0
    for index, kind in enumerate(kinds):
        while True:
            broken = 0
            if kind == "catalog":
                curve, type_name = _random_catalog(rng, fibers)
                text, _ = _render(rng, curve)
                expect = ("classify", 0, f"{type_name}\n", "")
            elif kind == "not-fiber":
                text, _ = _render(rng, _not_fiber(rng))
                expect = ("classify", 2, "not a Kodaira curve: M*m != 0\n", "")
            elif kind == "no-match":
                text, _ = _render(rng, _no_match(rng))
                expect = ("classify", 2, "not a Kodaira curve: no catalog match\n", "")
            elif kind == "disconnected":
                text, _ = _render(rng, _disconnected(rng))
                expect = ("classify", 2, "", "validation error: configuration is not connected\n")
            else:
                curve = _cycle(rng.randint(2, MAX_COMPONENTS))
                text, broken = _render(rng, curve, rng.choice(_MALFORMATIONS))
                expect = ("classify", 1, "", f"error: line {broken}: ")
            if text not in seen:  # every input distinct: no cache hits across documents
                break
        seen.add(text)
        fibers += kind == "catalog"
        name = f"doc-{index:04d}.curve"
        documents[name] = text
        ops.append(Op(("classify", "{doc}"), expect, clear_caches=False, doc=name))
    return ops, documents


def _check_classify(expect: tuple, rc: int, out: str, err: str) -> str | None:
    _, want_rc, want_out, want_err = expect
    if rc != want_rc:
        return f"exit status {rc}, expected {want_rc}"
    if out != want_out:
        return f"stdout {out[:80]!r}, expected {want_out[:80]!r}"
    if want_rc == 1:
        # a parse error names the broken line; the message after it is free
        if not err.startswith(want_err):
            return f"stderr {err[:80]!r} does not start with {want_err!r}"
    elif err != want_err:
        return f"stderr {err[:80]!r}, expected {want_err!r}"
    return None
