"""Seeded micro-benchmarks and the committed perf baseline.

``python -m repro bench --suite`` runs :func:`run_suite` and diffs the
result against ``BENCH_compressor.json``; see docs/BENCHMARKS.md.
"""

from repro.bench.runner import (
    BenchCase,
    BenchReport,
    CaseResult,
    Comparison,
    SpeedupResult,
    calibrate,
    compare,
    default_suite,
    load_baseline,
    measure_precision,
    measure_speedups,
    merge_reports,
    run_case,
    run_suite,
    DEFAULT_TOLERANCE,
    MIN_SPEEDUP,
    SCHEMA,
)

__all__ = [
    "BenchCase",
    "BenchReport",
    "CaseResult",
    "Comparison",
    "SpeedupResult",
    "calibrate",
    "compare",
    "default_suite",
    "load_baseline",
    "measure_precision",
    "measure_speedups",
    "merge_reports",
    "run_case",
    "run_suite",
    "DEFAULT_TOLERANCE",
    "MIN_SPEEDUP",
    "SCHEMA",
]
