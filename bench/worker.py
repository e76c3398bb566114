"""One benchmark worker: a fresh interpreter running one pass of a workload.

It imports kodaira from the checkout's `src/`, writes `ready` (the parent
times set-up up to that line), then runs the ops its parent sends on stdin
one at a time, each an in-process `kodaira.cli.main(argv)` call with stdout
and stderr captured. For every op it answers with a JSON header line
(exit status, nanoseconds, exception) followed by the raw output bytes.
An `{"end": true}` request makes it answer with its peak RSS and, when
traced, the per-layer metrics of the pass, and exit.

    python3 bench/worker.py [--probe] [--trace] [--spans PATH]

`--probe` exits right after `ready`.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def start() -> None:
    """Import kodaira.cli from the checkout and tell the parent it is ready.

    Nothing else is imported first, so the parent's launch-to-ready time is
    what every `kodaira` command pays before it does any work.
    """
    sys.path.insert(0, SRC)
    import kodaira.cli

    if not os.path.abspath(kodaira.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"kodaira was imported from {kodaira.cli.__file__}, not from {SRC}")
    sys.stdout.buffer.write(b"ready\n")
    sys.stdout.buffer.flush()


def serve(traced: bool, spans_path: str | None) -> None:
    import contextlib
    import io
    import json
    import resource
    import time
    import traceback

    import kodaira
    import tracer

    reply = sys.stdout.buffer
    requests = sys.stdin.buffer
    modules = tracer.kodaira_modules()
    caches = tracer.discover_caches(modules)  # before wrapping: the originals
    spans = tracer.Tracer() if traced else None
    if spans is not None:
        spans.install(modules)
    main = kodaira.cli.main  # the wrapper, when traced
    hits = misses = entries = 0
    while True:
        request = json.loads(requests.readline() or b'{"end": true}')
        if request.get("end"):
            break
        if request["clear"]:
            tracer.reset(caches)
        if spans is not None:
            spans.begin_op()
            h0, m0, _ = tracer.cache_totals(caches)
        out, err = io.StringIO(), io.StringIO()
        rc, failure = None, None
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(request["argv"])
        except Exception:  # the op failed; the parent counts it and goes on
            failure = traceback.format_exc()
        elapsed = time.perf_counter_ns() - t0
        if spans is not None:
            h1, m1, e1 = tracer.cache_totals(caches)
            hits, misses, entries = hits + h1 - h0, misses + m1 - m0, max(entries, e1)
        out_bytes = out.getvalue().encode()
        err_bytes = err.getvalue().encode()
        header = {"rc": rc, "ns": elapsed, "out": len(out_bytes), "err": len(err_bytes), "failure": failure}
        reply.write(json.dumps(header).encode() + b"\n" + out_bytes + err_bytes)
        reply.flush()
    final = {
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kodaira_all": len(getattr(kodaira, "__all__", ())),
    }
    if spans is not None:
        layers, final["spans"] = spans.span_metrics()
        lookups = hits + misses
        layers["cache.hit_ratio"] = hits / lookups if lookups else 0
        layers["cache.entries"] = entries
        final["layers"] = layers
        if spans_path:
            spans.write_spans(spans_path)
    reply.write(json.dumps(final).encode() + b"\n")
    reply.flush()


if __name__ == "__main__":
    start()
    if "--probe" not in sys.argv:
        spans_path = sys.argv[sys.argv.index("--spans") + 1] if "--spans" in sys.argv else None
        serve("--trace" in sys.argv, spans_path)
