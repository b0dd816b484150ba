"""Prometheus dumps of the seeded demos, byte for byte.

The fixtures under ``golden/`` were rendered before the metric hot path
moved to bound handles and ``bisect`` buckets; the dumps must not move.
The fleet fixture was regenerated once since, when each service began
passing its registry to the plan cache it builds: that added the
``repro_plan_cache_*`` series and changed no other line.
Each demo runs in a fresh interpreter: plan-cache instance labels
(``cache="c0"``) and the process registry are per process.  The
serve-demo flags match the CI observability step, which diffs the same
fixture.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"

DEMOS = {
    "serve_demo": [
        "serve-demo", "--requests", "100", "--seed", "7", "--min-hit-rate", "0.5",
        "--trace-out", "trace.jsonl",
    ],
    "fleet_demo": ["fleet-demo", "--requests", "400", "--workers", "4", "--slo"],
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_dump_matches_golden(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-m", "repro", *DEMOS[demo], "--metrics-out", "metrics.txt"],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
    )
    got = (tmp_path / "metrics.txt").read_bytes()
    assert got == (GOLDEN / f"{demo}.prom").read_bytes()
