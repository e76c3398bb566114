"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _cli(argv: list[str]) -> tuple[int, str, str]:
    import kodaira.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = kodaira.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_reset_empties_every_discovered_cache():
    caches = tracer.discover_caches(tracer.kodaira_modules())
    assert caches
    _cli(["show", "IStar(2)"])
    _cli(["matrix", "--max-n", "2", "--max-m", "2"])
    assert tracer.cache_totals(caches)[2] > 0
    tracer.reset(caches)
    assert [c.cache_info().currsize for c in caches] == [0] * len(caches)


def test_reset_still_empties_caches_once_bindings_are_wrapped():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import tracer, kodaira.cli\n"
        "modules = tracer.kodaira_modules()\n"
        "caches = tracer.discover_caches(modules)\n"
        "tracer.Tracer().install(modules)\n"
        "assert not hasattr(kodaira.cli.main, 'cache_info') and kodaira.cli.main.__wrapped__\n"
        "kodaira.cli.main(['show', 'I(3)'])\n"
        "assert tracer.cache_totals(caches)[2] > 0\n"
        "tracer.reset(caches)\n"
        "assert all(c.cache_info().currsize == 0 for c in caches)\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
        check=True,
        stdout=subprocess.DEVNULL,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_list_and_documents(workload):
    first = workloads.plan(workload, 7).serialized()
    assert workloads.plan(workload, 7).serialized() == first
    assert workloads.plan(workload, 8).serialized() != first


def _cheapest(plan: workloads.Plan) -> list[workloads.Op]:
    if plan.workload == "classify-docs":
        return plan.ops[:60]
    if plan.workload == "show-large":
        return sorted(plan.ops, key=lambda op: op.expect[2])[:6]  # every family, both formats
    return sorted(plan.ops, key=lambda op: op.expect[1] * op.expect[2])[:4]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_the_current_outputs(workload, tmp_path):
    plan = workloads.plan(workload, 3)
    for name, text in plan.documents.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for op in _cheapest(plan):
        argv = [str(tmp_path / op.doc) if a == "{doc}" else a for a in op.argv]
        assert workloads.check(op, *_cli(argv)) is None, argv


def test_classify_docs_cover_every_reject_kind():
    ops = workloads.plan("classify-docs", 0).ops
    kinds = {(op.expect[1], op.expect[2].split(":")[-1], op.expect[3][:16]) for op in ops}
    assert (2, " M*m != 0\n", "") in kinds
    assert (2, " no catalog match\n", "") in kinds
    assert (2, "", "validation error") in kinds
    assert any(rc == 1 for rc, _, _ in kinds)
    assert sum(op.expect[1] == 0 for op in ops) == len(ops) * 7 // 10


def test_corrupted_expectation_raises_failed_ratio(monkeypatch, capsys):
    good = workloads.Op(("show", "I(20)", "--format", "json"), ("show", "I", 20, "json"))
    corrupted = workloads.Op(("show", "I(20)"), ("show", "I", 21, "table"))
    monkeypatch.setattr(
        workloads, "plan", lambda workload, seed: workloads.Plan(workload, seed, [good, corrupted])
    )
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "PROBES_PER_PASS", 1)
    status = run.main(["--workload", "show-large", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] == 0.5


def test_absent_functions_are_reported_not_fatal():
    metrics, table = tracer.Tracer().span_metrics()
    assert table == {}
    assert metrics["linalg.semidefinite_s"] == "kodaira.linalg.negative_semidefinite_with_rank not found"
    assert metrics["cli.self_s"] == "kodaira.cli not found"
    assert isinstance(metrics["curves.fiber_growth"], str)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
