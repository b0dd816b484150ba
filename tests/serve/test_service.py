"""CompressionService end-to-end: trace replay, failover, API routing."""

import numpy as np
import pytest

from repro.core import compress, make_compressor, set_service
from repro.faults import FaultInjector, FaultPlan
from repro.serve import CompiledPlanCache, CompressionService, synthetic_trace


def small_trace(n=40, seed=0):
    return synthetic_trace(
        n, seed=seed, resolutions=(16,), channels=1, cfs=(2, 4), rate=4000.0
    )


class TestTraceReplay:
    def test_all_requests_served(self):
        service = CompressionService(("ipu",), max_batch=4, max_wait=0.01)
        responses, stats = service.process(small_trace())
        assert stats.n_requests == 40 and stats.n_failed == 0
        assert len(responses) == 40
        assert sorted(r.request.rid for r in responses) == list(range(40))
        assert stats.n_batches >= 40 / 4
        assert stats.mean_batch_size <= 4

    def test_stats_are_consistent(self):
        service = CompressionService(("ipu", "a100"), max_batch=4, max_wait=0.01)
        responses, stats = service.process(small_trace())
        assert all(r.latency_s >= 0 for r in responses)
        assert stats.p50_latency_s <= stats.p95_latency_s
        assert stats.max_queue_depth >= 1
        assert stats.makespan_s > 0 and stats.busy_s > 0
        assert sum(stats.batches_by_platform.values()) == stats.n_batches
        assert stats.cache is not None and stats.cache.hits > 0

    def test_replay_is_deterministic(self):
        r1, s1 = CompressionService(("ipu",), max_batch=4).process(small_trace())
        r2, s2 = CompressionService(("ipu",), max_batch=4).process(small_trace())
        assert s1.makespan_s == s2.makespan_s
        assert s1.latencies_s == s2.latencies_s
        for a, b in zip(r1, r2):
            assert np.array_equal(a.output, b.output)

    def test_shared_cache_across_services_stays_warm(self):
        cache = CompiledPlanCache(capacity=32)
        CompressionService(("ipu",), max_batch=4, cache=cache).process(small_trace())
        cold_misses = cache.misses
        CompressionService(("ipu",), max_batch=4, cache=cache).process(small_trace())
        # A second fleet over the same traffic mix compiles nothing new.
        assert cache.misses == cold_misses


class TestDegradedServing:
    def test_compile_oom_recovers_via_ladder(self):
        # SN30 rejects 512x512 without partial serialization (paper 3.5.1);
        # the service must still serve the request, marked degraded.
        reqs = synthetic_trace(2, seed=0, resolutions=(512,), channels=1, cfs=(4,))
        service = CompressionService(("sn30",), max_batch=2, max_wait=0.01)
        responses, stats = service.process(reqs)
        assert stats.n_failed == 0
        assert all(r.degraded for r in responses)


class TestDeviceLossUnderLoad:
    def test_failover_marks_platform_dead_and_serves_everything(self):
        plan = FaultPlan(seed=3).add("run", "device_lost", platform="ipu", after=0)
        service = CompressionService(("ipu", "a100"), max_batch=4, max_wait=0.01)
        with FaultInjector(plan):
            responses, stats = service.process(small_trace())
        assert stats.n_failed == 0
        assert stats.n_failovers == 1
        dead = [w for w in service.scheduler.workers if w.dead]
        assert [w.platform for w in dead] == ["ipu"]
        # Traffic continued on the surviving instance.
        assert any(r.platform != "ipu" for r in responses)


class TestImmediatePath:
    def test_compress_one_matches_host_path(self):
        service = CompressionService(("ipu",))
        x = np.random.default_rng(0).standard_normal((2, 1, 16, 16)).astype(np.float32)
        served = service.compress_one(x, cf=4)
        host = make_compressor(16, cf=4).compress(x)
        assert np.array_equal(served.numpy(), host.numpy())
        assert service.cache.misses >= 1
        service.compress_one(x, cf=4)
        assert service.cache.hits >= 1

    def test_roundtrip_through_service(self):
        service = CompressionService(("ipu",))
        x = np.random.default_rng(1).standard_normal((1, 1, 16, 16)).astype(np.float32)
        y = service.compress_one(x, cf=2)
        rec = service.decompress_one(y, x.shape, cf=2)
        assert rec.shape == x.shape

    def test_api_routing_when_enabled(self):
        service = CompressionService(("ipu",))
        x = np.random.default_rng(2).standard_normal((1, 1, 16, 16)).astype(np.float32)
        eager = compress(x, cf=4)
        previous = set_service(service)
        try:
            routed = compress(x, cf=4)
        finally:
            set_service(previous)
        assert np.array_equal(routed.numpy(), eager.numpy())
        assert service.cache.misses >= 1  # the routed call used the plan cache

    def test_unroutable_shape_falls_back_to_host(self):
        # GroqChip cannot compile batch 2000; the immediate path must
        # still answer (eagerly) rather than surface a CompileError.
        service = CompressionService(("groq",))
        x = np.zeros((2000, 1, 16, 16), np.float32)
        out = service.compress_one(x, cf=4)
        assert out.shape[0] == 2000


class TestHostPathServing:
    def test_responses_are_stable_after_later_batches(self):
        """An early response must not change when the same service later
        serves more same-shape batches."""
        service = CompressionService(("ipu",), max_batch=4)
        responses, _ = service.process(small_trace())
        early = [r.output.copy() for r in responses]
        service.process(small_trace(seed=1))
        for response, kept in zip(responses, early):
            assert np.array_equal(response.output, kept)

    def test_responses_never_overlap(self):
        responses, _ = CompressionService(("ipu",), max_batch=4).process(small_trace())
        outputs = [r.output for r in responses]
        for i, a in enumerate(outputs):
            for b in outputs[i + 1 :]:
                assert not np.shares_memory(a, b)
