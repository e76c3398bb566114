"""Benchmark of the kodaira CLI: end-to-end metrics or per-layer timings.

    python3 bench/run.py --workload show-large --seed 1 --seconds 30 --trace 0

Each workload is a seeded list of ops, each op one `kodaira <argv>` call.
The list is run as a closed loop (one client; each op starts when the
previous one has returned) in passes. Every pass runs in a fresh worker
process (bench/worker.py), and the pass is repeated until `--seconds` have
passed, at least three passes have run and, untraced, at least 100 ops
have been timed. Every op's output is checked against expectations that
bench/workloads.py derives without kodaira.

With `--trace 0` the last stdout line reports the end-to-end metrics, and
with `--trace 1` the per-layer metrics of the traced passes; a traced run
alternates untraced and traced passes and reports their time ratio as
`trace.overhead_ratio`. `--workload all` runs every workload in turn. The
exit status is 1 when any op failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)
MIN_PASSES = 3
MIN_SAMPLES = 100  # at least ten latencies beyond p90
PROBES_PER_PASS = 4  # set-up timings besides each pass's own launch
SPANS_SHOWN = 15
HARD_LIMIT_S = 150  # stop starting ops after this, whatever else is unmet


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Pass:
    traced: bool
    latencies_ns: list[int] = field(default_factory=list)
    completed: int = 0
    failures: list[str] = field(default_factory=list)
    stdout_bytes: int = 0
    final: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def _launch(*flags: str) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and the seconds until it was ready."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *flags],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line != b"ready\n":
        _stop(proc)
        raise BenchError(f"worker did not start (exit status {proc.returncode})")
    return proc, ready_s


def _stop(proc: subprocess.Popen) -> None:
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _read_exact(stream, n: int) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise BenchError("worker output ended early")
    return data


def run_pass(plan: workloads.Plan, docs_dir: Path, traced: bool, deadline: float, setups: list[float]) -> Pass:
    flags = ["--trace", "--spans", str(OUT_DIR / f"spans-{plan.workload}.tsv.gz")] if traced else []
    proc, ready_s = _launch(*flags)
    setups.append(ready_s)
    result = Pass(traced)
    try:
        for op in plan.ops:
            if time.perf_counter() > deadline:
                break
            argv = [str(docs_dir / op.doc) if arg == "{doc}" else arg for arg in op.argv]
            proc.stdin.write(json.dumps({"argv": argv, "clear": op.clear_caches}).encode() + b"\n")
            proc.stdin.flush()
            header_line = proc.stdout.readline()
            if not header_line:
                raise BenchError(f"worker exited during {argv}")
            header = json.loads(header_line)
            out = _read_exact(proc.stdout, header["out"]).decode()
            err = _read_exact(proc.stdout, header["err"]).decode()
            result.latencies_ns.append(header["ns"])
            result.stdout_bytes += header["out"]
            if header["failure"] is not None:
                why = "raised:\n" + header["failure"]
            else:
                why = workloads.check(op, header["rc"], out, err)
            if why is None:
                result.completed += 1
            else:
                result.failures.append(f"kodaira {' '.join(argv)}: {why}")
        proc.stdin.write(b'{"end": true}\n')
        proc.stdin.flush()
        final_line = proc.stdout.readline()
        if not final_line:
            raise BenchError("worker exited before its summary")
        result.final = json.loads(final_line)
    finally:
        _stop(proc)
    return result


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metadata(kodaira_all: int | None) -> dict:
    """Where the numbers come from; recorded beside them, never gated."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted((ROOT / "src" / "kodaira").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "kodaira_all": kodaira_all,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Runs one workload and returns its result; prints a human summary."""
    if not (ROOT / "src" / "kodaira" / "__init__.py").is_file():
        raise BenchError(f"no kodaira sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    plan = workloads.plan(workload, seed)
    docs_dir = Path(tempfile.mkdtemp(prefix="docs-", dir=OUT_DIR))
    try:
        for name, text in plan.documents.items():
            (docs_dir / name).write_text(text, encoding="utf-8")
        return _measure(plan, docs_dir, seconds, trace)
    finally:
        shutil.rmtree(docs_dir, ignore_errors=True)


def _measure(plan: workloads.Plan, docs_dir: Path, seconds: float, trace: bool) -> dict:
    _stop(_launch("--probe")[0])  # warms the file cache; not timed
    setups: list[float] = []
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    passes: list[Pass] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        for _ in range(PROBES_PER_PASS):
            proc, ready_s = _launch("--probe")
            _stop(proc)
            setups.append(ready_s)
        passes.append(run_pass(plan, docs_dir, traced, deadline, setups))
        plain = [p for p in passes if not p.traced]
        traced_passes = [p for p in passes if p.traced]
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and len(passes) >= MIN_PASSES
        if trace:
            enough = enough and len(traced_passes) >= 2 and len(plain) >= 2
        else:
            enough = enough and sum(len(p.latencies_ns) for p in plain) >= MIN_SAMPLES
        if enough or time.perf_counter() > deadline:
            break

    if sum(len(p.latencies_ns) for p in plain) < 2 or (trace and not traced_passes):
        raise BenchError(f"too few ops finished within {HARD_LIMIT_S} s")
    attempted = sum(len(p.latencies_ns) for p in passes)
    failures = [f for p in passes for f in p.failures]
    latencies_ms = [ns / 1e6 for p in plain for ns in p.latencies_ns]
    pass_rates = [p.completed / p.busy_s for p in plain]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(pass_rates),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": _percentile(latencies_ms, 90),
        "peak_rss_mib": statistics.median(p.final["maxrss_kib"] / 1024 for p in plain),
    }
    per_layer: dict[str, float | str] = {}
    if trace:
        finals = [p.final["layers"] for p in traced_passes]
        for name, _, _ in tracer.PER_LAYER:
            values = [f[name] for f in finals if name in f]
            if values and all(not isinstance(v, str) for v in values):
                per_layer[name] = statistics.median(values)
            elif values:
                per_layer[name] = next(v for v in values if isinstance(v, str))
        per_layer["cli.stdout_bytes"] = statistics.median(p.stdout_bytes for p in traced_passes)
        per_layer["trace.overhead_ratio"] = statistics.median(
            p.busy_s for p in traced_passes
        ) / statistics.median(p.busy_s for p in plain)
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        "passes": len(passes),
        "pass_rates": pass_rates,
        "ops_per_pass": len(plan.ops),
        "samples": len(latencies_ms),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "setup_samples": len(setups),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": traced_passes[-1].final["spans"] if trace else {},
        "kodaira_all": passes[0].final.get("kodaira_all"),
    }


def _report(result: dict, trace: bool) -> dict:
    """Prints a result for people and returns its metrics for the last line."""
    print(
        f"# workload {result['workload']} seed {result['seed']}: {result['passes']} passes of "
        f"{result['ops_per_pass']} ops, {result['attempted']} attempted, {result['failed']} failed, "
        f"failed_ratio {result['failed'] / result['attempted']:.4f}"
    )
    print("# untraced passes, ops/s: " + " ".join(f"{r:.4g}" for r in result["pass_rates"]))
    for failure in result["failures"][:10]:
        print(f"# FAILED {failure}")
    metrics = {}
    if trace:
        print("# span (last traced pass)            calls      self_s      incl_s")
        ranked = sorted(result["spans"].items(), key=lambda item: -item[1][1])
        for name, (calls, self_s, incl_s) in ranked[:SPANS_SHOWN]:
            print(f"# {name:<34} {calls:>8} {self_s:>11.4f} {incl_s:>11.4f}")
        for name, unit, _ in tracer.PER_LAYER:
            value = result["per_layer"].get(name, "not reported by any traced pass")
            if isinstance(value, str):
                print(f"{name:<30} absent: {value}")
                value = 0
            else:
                print(f"{name:<30} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        notes = {
            "setup_s": f"median of {result['setup_samples']} launches",
            "op_p50_ms": f"{result['samples']} ops",
            "op_p90_ms": f"{result['samples']} ops, {result['samples'] // 10} beyond",
            "ops_per_s": f"median of {result['passes']} passes",
            "peak_rss_mib": f"median of {result['passes']} passes",
        }
        for name, unit, _ in END_TO_END:
            value = result["end_to_end"][name]
            print(f"{name:<30} {value:.6g} {unit}  ({notes[name]})")
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("# meta " + json.dumps(metadata(results[0]["kodaira_all"]), sort_keys=True))
    metrics = {}
    for result in results:
        reported = _report(result, bool(args.trace))
        if len(results) == 1:
            metrics = reported
        else:
            metrics.update({f"{result['workload']}.{k}": v for k, v in reported.items()})
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
