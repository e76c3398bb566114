"""Growth rates by counting: the log-log slope of `main`'s traced peak memory.

Wall times drift from run to run; the tracemalloc peak of one command does
not. `traced_peak` runs `kodaira.cli.main` into a sink that counts the
bytes written and keeps none, once untraced, so that one-time allocations
(imports, caches that persist between calls) stay out of the peak, and
once under tracemalloc. `peak_slope` fits the least-squares slope of
log(peak bytes) against log(N) over a ladder.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import tracemalloc
from typing import Callable, Sequence

from kodaira.cli import main


class ByteCount:
    """A stdout that keeps only the number of bytes written to it."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text.encode())
        return len(text)


def _run(argv: list[str]) -> None:
    sink = ByteCount()
    with contextlib.redirect_stdout(sink):
        assert main(argv) == 0 and sink.size > 0, argv


def traced_peak(argv: list[str]) -> int:
    """The tracemalloc peak, in bytes, of one warm `main(argv)`."""
    _run(argv)
    tracemalloc.start()
    try:
        _run(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_slope(argv_of: Callable[[int], list[str]], ladder: Sequence[int]) -> float:
    """The least-squares slope of log(traced peak of `main(argv_of(n))`)
    against log(n) over the ladder: the growth exponent of the peak."""
    peaks = [traced_peak(argv_of(n)) for n in ladder]
    logs = [math.log(n) for n in ladder], [math.log(peak) for peak in peaks]
    return statistics.linear_regression(*logs).slope
