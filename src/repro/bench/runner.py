"""Timing helpers for the scaling experiments (Theorem 3, Props 4–5).

The benchmarks assert *shapes*, not absolute numbers: we time an
operation over a size sweep and fit the log–log slope.  A slope near 1
is linear scaling, near 2 quadratic, and so on.  ``fit_loglog_slope``
does an ordinary least-squares fit; tests allow generous tolerances
because constant factors and Python overheads bend small-n curves.
(End-to-end and per-layer performance is ``benchmarks/e2e``'s job, with
``BENCHMARK.json`` as the record; nothing here writes result files.)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Measurement:
    """One (size, seconds) point of a sweep."""

    size: int
    seconds: float


def time_callable(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn`` (best-of reduces scheduler noise)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


def sweep(
    make_input: Callable[[int], object],
    run: Callable[[object], object],
    sizes: Iterable[int],
    repeats: int = 3,
) -> list[Measurement]:
    """Time ``run`` over inputs of growing size (setup excluded)."""
    out: list[Measurement] = []
    for size in sizes:
        payload = make_input(size)
        out.append(Measurement(size, time_callable(lambda: run(payload), repeats)))
    return out


def fit_loglog_slope(measurements: Sequence[Measurement]) -> float:
    """OLS slope of log(seconds) against log(size).

    >>> pts = [Measurement(n, 1e-6 * n ** 2) for n in (10, 20, 40, 80)]
    >>> round(fit_loglog_slope(pts), 3)
    2.0
    """
    if len(measurements) < 2:
        raise ValueError("need at least two measurements to fit a slope")
    xs = [math.log(m.size) for m in measurements]
    ys = [math.log(max(m.seconds, 1e-9)) for m in measurements]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var = sum((x - mean_x) ** 2 for x in xs)
    return cov / var


def format_table(
    rows: Iterable[Sequence[object]], headers: Sequence[str]
) -> str:
    """A plain fixed-width table for EXPERIMENTS.md-style reports."""
    rows = [tuple(str(c) for c in row) for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines)
