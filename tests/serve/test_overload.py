"""Overload layer: deadlines, shedding, breakers, hedging, drain."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShedError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve import (
    BreakerPolicy,
    CircuitBreaker,
    CompressionService,
    OverloadPolicy,
    Request,
    synthetic_trace,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    from repro.obs.metrics import get_registry

    old = get_registry()
    set_registry(MetricsRegistry())
    yield
    set_registry(old)


def _service(**kwargs):
    return CompressionService(("ipu", "a100"), **kwargs)


def _big_trace(n=6, cf=8, spacing=0.0001, res=256):
    rng = np.random.default_rng(0)
    return [
        Request(
            rid=i,
            image=rng.normal(size=(3, res, res)).astype(np.float32),
            arrival=i * spacing,
            cf=cf,
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Policy validation


def test_policy_validation():
    with pytest.raises(ConfigError):
        OverloadPolicy(shed_policy="panic")
    with pytest.raises(ConfigError):
        OverloadPolicy(default_deadline=0.0)
    with pytest.raises(ConfigError):
        OverloadPolicy(degrade_cfs=(1, 2))  # must be descending
    with pytest.raises(ConfigError):
        OverloadPolicy(degrade_cfs=(2, 0))
    with pytest.raises(ConfigError):
        OverloadPolicy(max_queue_depth=0)
    with pytest.raises(ConfigError):
        OverloadPolicy(hedge_queue_seconds=-1.0)
    with pytest.raises(ConfigError):
        BreakerPolicy(failure_threshold=0)
    with pytest.raises(ConfigError):
        BreakerPolicy(open_seconds=0.0)


# ----------------------------------------------------------------------
# Zero overhead when off / inert policy


def test_overload_off_is_bit_identical_to_plain():
    trace = synthetic_trace(n=60, seed=3)
    plain, plain_stats = _service().process(trace)
    set_registry(MetricsRegistry())
    inert = OverloadPolicy()  # no deadline, no bound, no hedging
    loaded, loaded_stats = _service(overload=inert).process(trace)
    assert len(plain) == len(loaded) == 60
    for a, b in zip(plain, loaded):
        assert np.array_equal(a.output, b.output)
        assert a.start == b.start and a.finish == b.finish
        assert a.platform == b.platform
    assert plain_stats.latencies_s == loaded_stats.latencies_s
    assert not plain_stats.overload_active and loaded_stats.overload_active


def test_overload_metrics_absent_when_off():
    svc = _service()
    svc.process(synthetic_trace(n=10, seed=0))
    from repro.obs.metrics import get_registry

    dump = get_registry().render_prometheus()
    assert "repro_overload_" not in dump
    assert "repro_breaker_" not in dump


def test_overload_metrics_present_when_on():
    svc = _service(overload=OverloadPolicy(default_deadline=0.001))
    svc.process(synthetic_trace(n=20, seed=0))
    from repro.obs.metrics import get_registry

    dump = get_registry().render_prometheus()
    assert "repro_overload_shed_total" in dump
    assert "repro_breaker_state" in dump


# ----------------------------------------------------------------------
# Deadlines: shed and degrade


def test_impossible_deadline_sheds_everything_explicitly():
    trace = synthetic_trace(n=40, seed=2)
    svc = _service(overload=OverloadPolicy(default_deadline=0.002))
    responses, stats = svc.process(trace)
    assert responses == []
    assert stats.n_shed == 40 and stats.n_ok == 0
    assert stats.shed_by_reason == {"deadline": 40}
    for shed in svc.shed:
        assert isinstance(shed.error, ShedError)
        assert shed.error.reason == "deadline"
        assert shed.error.deadline is not None
        assert shed.error.predicted_finish > shed.error.deadline


def test_generous_deadline_sheds_nothing():
    trace = synthetic_trace(n=40, seed=2)
    svc = _service(overload=OverloadPolicy(default_deadline=1.0))
    responses, stats = svc.process(trace)
    assert len(responses) == 40 and stats.n_shed == 0


def test_request_deadline_overrides_default():
    trace = synthetic_trace(n=8, seed=1)
    from dataclasses import replace

    # One request gets an impossible personal deadline; the rest ride the
    # generous default.
    trace[3] = replace(trace[3], deadline=trace[3].arrival + 1e-6)
    svc = _service(overload=OverloadPolicy(default_deadline=1.0))
    responses, stats = svc.process(trace)
    assert stats.n_shed == 1
    assert svc.shed[0].request.rid == trace[3].rid


def test_default_deadline_is_stamped_on_a_copy():
    policy = OverloadPolicy(default_deadline=0.0026)   # sheds part of this trace
    trace = synthetic_trace(n=40, seed=2)
    req = trace[0]
    admitted = _service(overload=policy)._admit(req)
    assert admitted is not req
    assert admitted.deadline == req.arrival + 0.0026
    assert admitted.key is req.key
    assert req.deadline is None

    def admitted_rids(overload):
        responses, _ = _service(overload=overload).process(trace)
        return {r.request.rid for r in responses}

    first = admitted_rids(policy)
    assert 0 < len(first) < len(trace)
    assert all(r.deadline is None for r in trace)
    # Had the tight stamp leaked into the trace, a generous policy would
    # still shed; a rerun of the tight one admits exactly the same set.
    assert len(admitted_rids(OverloadPolicy(default_deadline=1.0))) == len(trace)
    assert admitted_rids(policy) == first


def test_degrade_instead_of_shed(a100_only=("a100",)):
    # est(a100, 256px batch): cf=8 ~6.3ms, cf=4 ~5.0ms; flush deadline
    # 2ms.  A 7.5ms deadline misses at cf=8 but fits at cf=4.
    trace = _big_trace(cf=8)
    policy = OverloadPolicy(
        default_deadline=0.0075, shed_policy="degrade", degrade_cfs=(4, 2)
    )
    svc = CompressionService(a100_only, overload=policy)
    responses, stats = svc.process(trace)
    assert stats.n_shed == 0 and stats.n_degraded == len(trace)
    assert {r.request.cf for r in responses} == {4}
    # Degraded responses are bit-identical to the host compressor at the
    # *served* chop factor.
    from repro.core.api import make_compressor

    comp = make_compressor(256, 256, method="dc", cf=4)
    for r in responses:
        ref = comp.compress(r.request.image[None]).numpy()[0]
        assert np.array_equal(ref, r.output)


def test_degrade_falls_back_to_shed_when_no_rung_fits():
    trace = _big_trace(cf=8)
    policy = OverloadPolicy(
        default_deadline=0.0001, shed_policy="degrade", degrade_cfs=(4, 2)
    )
    svc = CompressionService(("a100",), overload=policy)
    responses, stats = svc.process(trace)
    assert responses == []
    assert stats.n_shed == len(trace) and stats.n_degraded == 0


# ----------------------------------------------------------------------
# Bounded queue backpressure


def test_bounded_queue_sheds_queue_full():
    trace = synthetic_trace(n=60, seed=2)
    svc = _service(overload=OverloadPolicy(max_queue_depth=3))
    responses, stats = svc.process(trace)
    assert stats.max_queue_depth <= 3
    assert stats.shed_by_reason.get("queue_full", 0) > 0
    assert len(responses) + stats.n_shed == 60


# ----------------------------------------------------------------------
# Expiry at dispatch


def test_expired_batch_members_shed_not_served():
    # With admission control on, prediction lower-bounds the finish time,
    # so a request that clears admission can never expire at dispatch.
    # The dispatch-time check is the safety net for deadline-carrying
    # requests on a service *without* admission control: their deadlines
    # are honoured at the last moment instead of silently ignored.
    from dataclasses import replace

    trace = synthetic_trace(n=16, seed=4)
    trace = [replace(r, deadline=r.arrival + 1e-6) for r in trace]
    svc = _service(max_wait=0.05)
    for req in trace:
        svc.submit(req)
    drained = svc.drain()          # draining activates the expiry check
    assert drained == []           # every member expired -> no dispatch at all
    assert svc._n_batches == 0
    assert len(svc.shed) == 16
    for shed in svc.shed:
        assert shed.error.reason == "expired"


def test_admitted_deadlines_never_expire_at_dispatch():
    # The admission predictor is a lower bound on the modelled finish, so
    # "expired" never appears while admission control is screening.
    from dataclasses import replace

    trace = synthetic_trace(n=60, seed=4)
    trace = [replace(r, deadline=r.arrival + 0.004) for r in trace]
    svc = _service(overload=OverloadPolicy())
    responses, stats = svc.process(trace)
    assert stats.shed_by_reason.get("expired", 0) == 0
    assert len(responses) + stats.n_shed == 60


# ----------------------------------------------------------------------
# Hedging


def test_hedging_books_time_without_batch_credit():
    trace = synthetic_trace(n=60, seed=2)
    svc = _service(overload=OverloadPolicy(hedge_queue_seconds=0.0005))
    responses, stats = svc.process(trace)
    assert len(responses) == 60
    assert stats.n_hedges > 0
    assert stats.n_hedge_wins <= stats.n_hedges
    # Losing hedge legs consume modelled time but never batch credit.
    assert sum(stats.batches_by_platform.values()) == stats.n_batches


def test_hedging_outputs_identical_to_unhedged():
    trace = synthetic_trace(n=60, seed=2)
    plain, _ = _service().process(trace)
    set_registry(MetricsRegistry())
    hedged, stats = _service(
        overload=OverloadPolicy(hedge_queue_seconds=0.0005)
    ).process(trace)
    assert stats.n_hedges > 0
    by_rid = {r.request.rid: r for r in plain}
    for r in hedged:
        assert np.array_equal(r.output, by_rid[r.request.rid].output)


# ----------------------------------------------------------------------
# Graceful drain


def test_drain_flushes_then_sheds():
    trace = synthetic_trace(n=20, seed=5)
    svc = _service(overload=OverloadPolicy())
    early: list = []
    for req in trace[:15]:
        early.extend(svc.submit(req))
    drained = svc.drain()
    assert svc.draining
    served = {r.request.rid for r in early} | {r.request.rid for r in drained}
    assert served == {r.rid for r in trace[:15]}
    late = [svc.submit(req) for req in trace[15:]]
    assert all(batch == [] for batch in late)
    assert [s.request.rid for s in svc.shed] == [r.rid for r in trace[15:]]
    assert all(s.error.reason == "draining" for s in svc.shed)


def test_drain_without_overload_policy_still_sheds_explicitly():
    trace = synthetic_trace(n=10, seed=5)
    svc = _service()
    for req in trace[:5]:
        svc.submit(req)
    svc.drain()
    svc.submit(trace[5])
    assert len(svc.shed) == 1 and svc.shed[0].error.reason == "draining"


# ----------------------------------------------------------------------
# Circuit breaker unit behaviour


def test_breaker_state_machine_cycle():
    b = CircuitBreaker("ipu", BreakerPolicy(failure_threshold=2, open_seconds=1.0))
    assert b.state == "closed" and b.allows(0.0)
    b.record_faults(1, 0.0)
    assert b.state == "closed"
    b.record_faults(1, 0.1)
    assert b.state == "open"
    assert not b.allows(0.5)               # still inside the open window
    assert b.would_allow(1.2)
    assert b.state == "open"               # would_allow never mutates
    assert b.allows(1.2)                   # window over -> half-open probe
    assert b.state == "half_open"
    b.record_success(1.3, clean=True)
    assert b.state == "closed"
    assert b.cycles() == 1
    assert [t[:2] for t in b.transitions] == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


def test_breaker_halfopen_fault_reopens():
    b = CircuitBreaker("ipu", BreakerPolicy(failure_threshold=1, open_seconds=1.0))
    b.record_faults(1, 0.0)
    assert b.allows(1.5) and b.state == "half_open"
    b.record_faults(1, 1.6)
    assert b.state == "open"
    assert not b.allows(1.7)
    assert b.cycles() == 0


def test_breaker_retried_success_does_not_reset_count():
    b = CircuitBreaker("ipu", BreakerPolicy(failure_threshold=3, open_seconds=1.0))
    for t in (0.0, 0.1, 0.2):
        b.record_faults(1, t)
        if b.state == "closed":
            b.record_success(t, clean=False)   # succeeded only after retries
    assert b.state == "open"                   # flakiness accumulated


def test_breaker_clean_success_resets_count():
    b = CircuitBreaker("ipu", BreakerPolicy(failure_threshold=3, open_seconds=1.0))
    b.record_faults(2, 0.0)
    b.record_success(0.1, clean=True)
    b.record_faults(2, 0.2)
    assert b.state == "closed"                 # reset kept it under threshold


# ----------------------------------------------------------------------
# Breakers integrated: fed by injected faults, never brick the service


def test_breaker_opens_under_fault_burst_and_recovers():
    from repro.faults import FaultInjector, FaultPlan

    trace = synthetic_trace(n=120, seed=7)
    plan = FaultPlan(seed=0)
    plan.add("run", "host_link_timeout", after=4, times=4, platform="ipu")
    svc = _service(
        overload=OverloadPolicy(
            breaker=BreakerPolicy(failure_threshold=3, open_seconds=0.005)
        )
    )
    with FaultInjector(plan):
        responses, stats = svc.process(trace)
    states = [t[1:3] for t in stats.breaker_transitions]
    assert ("closed", "open") in states
    assert ("open", "half_open") in states
    assert ("half_open", "closed") in states
    assert svc.breakers["ipu"].cycles() >= 1
    # The burst is retried/failed per request, but nothing is silently lost.
    assert len(responses) + stats.n_failed + stats.n_shed == 120


def test_all_breakers_open_does_not_brick_service():
    svc = _service(
        overload=OverloadPolicy(breaker=BreakerPolicy(failure_threshold=1, open_seconds=99.0))
    )
    for b in svc.breakers.values():
        b.record_faults(1, 0.0)
    assert all(b.state == "open" for b in svc.breakers.values())
    trace = synthetic_trace(n=10, seed=1)
    responses, stats = svc.process(trace)
    # pick() falls back to the full live set: requests are still served.
    assert len(responses) == 10 and stats.n_failed == 0
