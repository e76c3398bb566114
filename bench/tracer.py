"""Runtime discovery of kodaira's caches and functions, and the span tracer.

Nothing here names a kodaira function that must exist. Caches are found by
their `cache_clear`/`cache_info` methods and functions by being public
module-level bindings of a `kodaira.*` module, so a commit that adds,
removes or renames one needs no change here; a per-layer metric whose
function is gone is reported as absent.

The traced run replaces every such binding, in every module namespace that
holds it, by one wrapper per function. Because kodaira modules call each
other through their module globals, every call crosses a wrapper and
becomes a span (name, start, end, parent). Spans live in flat arrays until
the worker summarizes them at the end of a pass.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import inspect
import math
import pkgutil
import statistics
import time
from array import array
from types import ModuleType

# Span flags. MISS: the call computed its result (a cache miss, or any call
# of an uncached function). NESTED: inside another call of the same name.
MISS, RETURNED, RAISED, NESTED = 1, 2, 4, 8

# Spans that also record a size: components of the configuration, or bytes
# of the document text.
_SIZES = {
    "curves.intersection_matrix": lambda args: len(args[0].components),
    "curves.fiber_obstruction": lambda args: len(args[0].components),
    "document.parse_document": lambda args: len(args[0].encode()),
}

# Per-layer metrics: (name, unit, better). The BENCHMARK.json per_layer list
# is this list.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "B", "lower"),
    ("catalog.build_s", "s", "lower"),
    ("catalog.classify_s", "s", "lower"),
    ("catalog.classify_calls", "count", "lower"),
    ("catalog.recognized_ratio", "ratio", "higher"),
    ("curves.intersection_matrix_s", "s", "lower"),
    ("curves.fiber_obstruction_s", "s", "lower"),
    ("curves.fiber_tests", "count", "lower"),
    ("curves.matrix_cells", "count", "lower"),
    ("curves.fiber_growth", "exponent", "lower"),
    ("linalg.semidefinite_s", "s", "lower"),
    ("linalg.matvec_s", "s", "lower"),
    ("linalg.calls", "count", "lower"),
    ("graphs.dual_graph_s", "s", "lower"),
    ("graphs.loop_rank_s", "s", "lower"),
    ("graphs.calls", "count", "lower"),
    ("invariants.profile_s", "s", "lower"),
    ("invariants.profile_calls", "count", "lower"),
    ("partner.compare_s", "s", "lower"),
    ("partner.compare_calls", "count", "lower"),
    ("document.parse_s", "s", "lower"),
    ("document.bytes", "B", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.entries", "count", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_collections", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Metrics read from the spans: metric -> (span name, or a bare layer name
# for the whole module, and the statistic). `self_ns` is a span's duration
# minus its child spans; `incl_ns` counts only outermost calls of a name.
_FROM_SPANS = {
    "cli.self_s": ("cli", "self_ns"),
    "catalog.build_s": ("catalog.build", "incl_ns"),
    "catalog.classify_s": ("catalog.classify", "self_ns"),
    "catalog.classify_calls": ("catalog.classify", "calls"),
    "catalog.recognized_ratio": ("catalog.classify", "returned_ratio"),
    "curves.intersection_matrix_s": ("curves.intersection_matrix", "incl_ns"),
    "curves.fiber_obstruction_s": ("curves.fiber_obstruction", "self_ns"),
    "curves.fiber_tests": ("curves.fiber_obstruction", "calls"),
    "curves.matrix_cells": ("curves.intersection_matrix", "computed_cells"),
    "curves.fiber_growth": ("curves.fiber_obstruction", "growth"),
    "linalg.semidefinite_s": ("linalg.negative_semidefinite_with_rank", "incl_ns"),
    "linalg.matvec_s": ("linalg.matvec", "incl_ns"),
    "linalg.calls": ("linalg", "calls"),
    "graphs.dual_graph_s": ("graphs.dual_graph", "incl_ns"),
    "graphs.loop_rank_s": ("graphs.loop_rank", "incl_ns"),
    "graphs.calls": ("graphs", "calls"),
    "invariants.profile_s": ("invariants.invariant_profile", "self_ns"),
    "invariants.profile_calls": ("invariants.invariant_profile", "calls"),
    "partner.compare_s": ("partner.compare", "self_ns"),
    "partner.compare_calls": ("partner.compare", "calls"),
    "document.parse_s": ("document.parse_document", "incl_ns"),
    "document.bytes": ("document.parse_document", "size_sum"),
}


def kodaira_modules() -> list[ModuleType]:
    """The kodaira package and every submodule except `__main__`."""
    import kodaira

    modules = [kodaira]
    for info in pkgutil.iter_modules(kodaira.__path__, "kodaira."):
        if info.name != "kodaira.__main__":
            modules.append(importlib.import_module(info.name))
    return modules


def _is_kodaira(value: object) -> bool:
    module = getattr(value, "__module__", None) or ""
    return module == "kodaira" or module.startswith("kodaira.")


def discover_caches(modules: list[ModuleType]) -> list:
    """Every cache reachable from a module namespace or a kodaira class body."""
    namespaces = []
    for module in modules:
        namespaces.append(vars(module))
        namespaces += [
            vars(v) for v in vars(module).values() if inspect.isclass(v) and _is_kodaira(v)
        ]
    found: dict[int, object] = {}
    for namespace in namespaces:
        for value in namespace.values():
            value = getattr(value, "__func__", value)  # staticmethod, classmethod
            if callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            ):
                found.setdefault(id(value), value)
    return list(found.values())


def span_name(function: object) -> str:
    """`layer.function`, the layer being the defining module's last part."""
    return f"{function.__module__.rpartition('.')[2]}.{function.__qualname__}"


def public_functions(modules: list[ModuleType]) -> list[tuple[ModuleType, str, object]]:
    """(module, binding, function) for every public kodaira function binding."""
    found = []
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("_") or inspect.isclass(value) or not callable(value):
                continue
            if _is_kodaira(value):
                found.append((module, name, value))
    return found


def reset(caches: list) -> None:
    for cache in caches:
        cache.cache_clear()


def cache_totals(caches: list) -> tuple[int, int, int]:
    """Hits, misses and entries summed over every cache."""
    hits = misses = entries = 0
    for cache in caches:
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return hits, misses, entries


class Tracer:
    """Spans of every call through a wrapped binding, plus gc pauses."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.flags = array("b")
        self.size = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op_first = array("i")  # first span of each op
        self.stack: list[int] = []
        self.active: list[int] = []  # open spans per name
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0

    def install(self, modules: list[ModuleType]) -> None:
        """Wrap every public kodaira function binding and start timing gc."""
        wrappers: dict[int, object] = {}
        for module, name, function in public_functions(modules):
            wrapper = wrappers.get(id(function))
            if wrapper is None:
                wrapper = wrappers[id(function)] = self._wrap(function)
            setattr(module, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def begin_op(self) -> None:
        self.op_first.append(len(self.start))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    def _wrap(self, function):
        name = span_name(function)
        nid = len(self.names)
        self.names.append(name)
        self.active.append(0)
        info = getattr(function, "cache_info", None)
        size_of = _SIZES.get(name)
        stack, active = self.stack, self.active
        names, parents, flags_a, sizes = self.name, self.parent, self.flags, self.size
        starts, ends = self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            flags = NESTED if active[nid] else 0
            size = -1
            if size_of is not None:
                try:
                    size = size_of(args)
                except (AttributeError, IndexError, TypeError):
                    pass  # the signature changed; the size stays unknown
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            sizes.append(size)
            flags_a.append(0)
            starts.append(0)
            ends.append(0)
            active[nid] += 1
            stack.append(idx)
            misses = info().misses if info is not None else 0
            t0 = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                flags |= RAISED
                raise
            finally:
                if info is None or info().misses != misses:
                    flags |= MISS
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                starts[idx] = t0
                ends[idx] = t1
                flags_a[idx] = flags
            if result is not None:
                flags_a[idx] = flags | RETURNED
            return result

        functools.update_wrapper(traced, function)
        return traced

    def write_spans(self, path: str) -> None:
        """Gzipped tab-separated spans: op, span id, name, parent, start, end, flags, size."""
        op = -1
        firsts = list(self.op_first) + [len(self.start)]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("op\tspan\tname\tparent\tstart_ns\tend_ns\tflags\tsize\n")
            for i in range(len(self.start)):
                while i >= firsts[op + 1]:
                    op += 1
                handle.write(
                    f"{op}\t{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.flags[i]}\t{self.size[i]}\n"
                )

    def span_metrics(self) -> tuple[dict[str, float | str], dict[str, list]]:
        """The metrics of `_FROM_SPANS`, where a string value is an absence
        reason, and [calls, self seconds, inclusive seconds] per span name."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        stats: dict[str, dict] = {}
        growth: dict[int, list[int]] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            flags = self.flags[i]
            for key in (name, name.partition(".")[0]):
                s = stats.setdefault(
                    key,
                    {"calls": 0, "self_ns": 0, "incl_ns": 0, "returned": 0, "computed_cells": 0, "size_sum": 0},
                )
                s["calls"] += 1
                s["self_ns"] += duration[i] - child[i]
            s = stats[name]
            if not flags & NESTED:
                s["incl_ns"] += duration[i]
            if flags & RETURNED:
                s["returned"] += 1
            if self.size[i] > 0:
                s["size_sum"] += self.size[i]
                if flags & MISS:
                    s["computed_cells"] += self.size[i] ** 2
                    if name == "curves.fiber_obstruction" and not flags & NESTED:
                        growth.setdefault(self.size[i], []).append(duration[i])
        known = set(self.names) | {name.partition(".")[0] for name in self.names}
        metrics: dict[str, float | str] = {}
        for metric, (key, statistic) in _FROM_SPANS.items():
            if key not in known:
                metrics[metric] = f"kodaira.{key} not found"
                continue
            s = stats.get(key)
            if statistic == "growth":
                metrics[metric] = _loglog_slope(growth)
            elif s is None:
                metrics[metric] = 0  # the function exists but this workload never calls it
            elif statistic == "returned_ratio":
                metrics[metric] = s["returned"] / s["calls"]
            elif statistic.endswith("_ns"):
                metrics[metric] = s[statistic] / 1e9
            else:
                metrics[metric] = s[statistic]
        metrics["runtime.gc_s"] = self.gc_ns / 1e9
        metrics["runtime.gc_collections"] = self.gc_collections
        table = {
            name: [s["calls"], s["self_ns"] / 1e9, s["incl_ns"] / 1e9]
            for name, s in stats.items()
            if "." in name
        }
        return metrics, table


def _loglog_slope(points: dict[int, list[int]]) -> float | str:
    """Growth of the slowest fiber test: the least-squares slope of
    log(median time) against log(components), over the sizes whose median
    exceeds that of every smaller size. Different shapes (cycles, trees) of
    one size differ in their constants; the envelope follows the worst."""
    envelope, slowest = [], 0.0
    for size in sorted(points):
        median = statistics.median(points[size])
        if size >= 2 and median > slowest:
            envelope.append((math.log(size), math.log(median)))
            slowest = median
    if len(envelope) < 2:
        return "fewer than two computed fiber tests of distinct sizes"
    mx = statistics.fmean(x for x, _ in envelope)
    my = statistics.fmean(y for _, y in envelope)
    sxx = sum((x - mx) ** 2 for x, _ in envelope)
    return sum((x - mx) * (y - my) for x, y in envelope) / sxx
