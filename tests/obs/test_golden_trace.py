"""Trace files of seeded runs, byte for byte.

Two cases pin every per-request trace event the serving path emits:

* the sha256 of the ``--trace-out`` JSONL of the fleet SLO + SDC soak
  (``integrity.fault``, ``overload.shed`` and ``resilience.*`` events),
  run in a fresh interpreter because plan-cache labels and the process
  registry are per process;
* ``golden/degrade_hedge_trace.jsonl``, the trace of a seeded in-process
  :class:`CompressionService` replay under a fault storm with the
  degrade shed policy, hedging and circuit breakers
  (``overload.degrade``, ``overload.hedge``, ``breaker.*`` and
  ``request.failed`` events).

Both were rendered before the service routed its trace events through
one fan-out method; that change may not move a byte.  Re-render the
fixture with ``PYTHONPATH=src python tests/obs/test_golden_trace.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE = GOLDEN / "degrade_hedge_trace.jsonl"

SOAK_ARGS = [
    "chaos-soak", "--fleet", "--slo", "--sdc", "--seed", "7", "--requests", "600",
    "--trace-out", "trace.jsonl",
]
SOAK_SHA256 = "2e35f1aef4d3ae0c0c3bb57a4e4dfb57bfbeec923bfdb7a338cb9c9bc7274fdf"


def render_degrade_hedge_trace() -> str:
    """Trace JSONL of a 20-request seeded replay under a fault storm."""
    from repro.chaos.storm import fault_storm
    from repro.faults import FaultInjector
    from repro.obs import Tracer
    from repro.serve import CompressionService, synthetic_trace
    from repro.serve.overload import BreakerPolicy, OverloadPolicy

    seed = 7
    platforms = ("ipu", "a100")
    tracer = Tracer(seed=seed)
    service = CompressionService(
        platforms,
        max_batch=8,
        max_wait=0.002,
        negative_ttl=8,
        tracer=tracer,
        overload=OverloadPolicy(
            default_deadline=0.05,
            shed_policy="degrade",
            max_queue_depth=64,
            breaker=BreakerPolicy(failure_threshold=3, open_seconds=0.005),
            hedge_queue_seconds=0.0005,
        ),
    )
    storm = fault_storm(
        seed + 1, platforms=platforms, bursts=2, burst_len=4, burst_spacing=12,
        compile_flakes=1,
    )
    with FaultInjector(storm):
        service.process(synthetic_trace(n=20, seed=seed, rate=2000.0))
    return tracer.to_jsonl_str()


def test_fleet_soak_trace_matches_golden_digest(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-m", "repro", *SOAK_ARGS],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
    )
    digest = hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest()
    assert digest == SOAK_SHA256


def test_degrade_hedge_trace_matches_golden():
    got = render_degrade_hedge_trace()
    assert got == FIXTURE.read_text()


def test_degrade_hedge_fixture_holds_every_service_event():
    names = {json.loads(line)["name"] for line in FIXTURE.read_text().splitlines()}
    assert {"overload.degrade", "overload.hedge", "request.failed"} <= names
    assert any(name.startswith("breaker.") for name in names)


if __name__ == "__main__":
    FIXTURE.write_text(render_degrade_hedge_trace())
