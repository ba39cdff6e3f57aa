"""Benchmark harness utilities."""

from repro.bench.runner import (
    Measurement,
    fit_loglog_slope,
    format_table,
    sweep,
    time_callable,
)

__all__ = [
    "Measurement",
    "fit_loglog_slope",
    "format_table",
    "sweep",
    "time_callable",
]
