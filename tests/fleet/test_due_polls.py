"""The fleet router polls only workers with a flush due, and loses nothing.

``FleetRouter.process`` calls ``service.poll(now)`` only when the
worker's ``batcher.next_due`` is at or before ``now``.  ``next_due`` may
lag low but never high, so every skipped poll is one that would have
flushed nothing.  A router made to poll every live worker (``next_due``
patched to ``-inf``) must give identical responses, stats, shed and
failure lists, and metrics dumps on random traces with crashes, hangs,
spills, deadlines and quotas.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    FleetRouter,
    TenantPolicy,
    multi_tenant_trace,
    route_key,
    worker_storm,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve import CompressionService, DynamicBatcher, Request
from repro.serve.overload import OverloadPolicy


def _replay(trace, *, n_workers, overload, storm_seed, poll_all):
    reg = MetricsRegistry()
    workers = tuple(f"w{i}" for i in range(n_workers))
    router = FleetRouter(
        n_workers,
        spill_depth=4,
        overload=(
            OverloadPolicy(default_deadline=0.02, max_queue_depth=32, breaker=None)
            if overload
            else None
        ),
        tenant_policy=TenantPolicy(contention_depth=8),
        fault_plan=(
            worker_storm(storm_seed, workers=workers, crashes=1, hangs=1, span=len(trace),
                         restart_after=len(trace) // 5)
            if storm_seed is not None
            else None
        ),
        registry=reg,
    )
    with pytest.MonkeyPatch.context() as mp:
        if poll_all:
            mp.setattr(DynamicBatcher, "next_due", property(lambda self: -math.inf))
        responses, stats = router.process(trace)
    return (
        [
            (r.request.rid, r.platform, r.start, r.finish, r.degraded, r.output.tobytes())
            for r in responses
        ],
        [(s.request.rid, s.reason, s.time) for s in router.all_shed()],
        [(f.request.rid, type(f.error).__name__) for f in router.all_failures()],
        stats.format_table(),
        # Plan-cache labels count caches per process; the lines must match.
        sorted(re.sub(r'cache="c\d+"', 'cache="c"', reg.render_prometheus()).splitlines()),
    )


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(20, 90),
    seed=st.integers(0, 2**16),
    rate=st.sampled_from([2000.0, 20000.0, 100000.0]),
    n_workers=st.integers(2, 4),
    overload=st.booleans(),
    storm_seed=st.none() | st.integers(0, 2**8),
)
def test_due_polls_match_polling_every_worker(n, seed, rate, n_workers, overload, storm_seed):
    trace = multi_tenant_trace(n, seed=seed, rate=rate, resolutions=(16, 24, 32))
    kwargs = dict(n_workers=n_workers, overload=overload, storm_seed=storm_seed)
    due = _replay(trace, poll_all=False, **kwargs)
    every = _replay(trace, poll_all=True, **kwargs)
    for got, want in zip(due, every):
        assert got == want


def test_idle_workers_are_not_polled(monkeypatch):
    calls = []
    poll = CompressionService.poll

    def spy(self, now):
        out = poll(self, now)
        calls.append(len(out))
        return out

    monkeypatch.setattr(CompressionService, "poll", spy)
    trace = multi_tenant_trace(200, seed=3)
    router = FleetRouter(4, registry=MetricsRegistry())
    router.process(trace)
    # Polling every live worker before each arrival would make 4 * 200.
    assert 0 < len(calls) < 200
    assert sum(calls) > 0


def test_worker_is_polled_at_exactly_its_deadline(monkeypatch):
    # The flush timer fires at the deadline (DynamicBatcher.due uses <=),
    # so a request arriving exactly then must see the other worker flushed.
    polled = []
    poll = CompressionService.poll

    def spy(self, now):
        polled.append((self.slo_worker, now))
        return poll(self, now)

    monkeypatch.setattr(CompressionService, "poll", spy)
    router = FleetRouter(2, max_wait=0.002, registry=MetricsRegistry())
    rng = np.random.default_rng(0)
    images = {res: rng.standard_normal((1, res, res)).astype(np.float32) for res in (16, 24, 32)}
    owner = {res: router.ring.primary(route_key(Request(0, images[res]).key)) for res in images}
    first, second = next(
        (a, b) for a in images for b in images if owner[a] != owner[b]
    )
    router.process([
        Request(rid=0, image=images[first], arrival=0.0),
        Request(rid=1, image=images[second], arrival=0.002),
    ])
    assert (owner[first], 0.002) in polled
