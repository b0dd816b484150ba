"""CompiledPlanCache: LRU behaviour, counters, negative caching."""

import numpy as np
import pytest

from repro.accel import PlanKey, compile_program
from repro.core import make_compressor
from repro.errors import CompileError, ConfigError, OutOfMemoryError
from repro.resilience.ladder import compile_plan
from repro.serve import CompiledPlanCache, CompressionService, Request


def key(i: int, platform: str = "ipu") -> PlanKey:
    return PlanKey.for_compressor(
        platform, (2, 3, 32, 32), method="dc", cf=i, s=2, block=8, direction="compress"
    )


def compile_dc(cf: int = 4, batch: int = 2, platform: str = "ipu"):
    comp = make_compressor(32, cf=cf)
    return compile_program(
        comp.compress, np.zeros((batch, 3, 32, 32), np.float32), platform
    )


class TestCounters:
    def test_miss_then_hit(self):
        cache = CompiledPlanCache(capacity=4)
        assert cache.get(key(2)) is None
        cache.put(key(2), compile_dc(cf=2))
        assert cache.get(key(2)) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_idle_cache_reports_zero_rate(self):
        assert CompiledPlanCache().snapshot().hit_rate == 0.0

    def test_contains_does_not_count(self):
        cache = CompiledPlanCache()
        cache.put(key(2), compile_dc(cf=2))
        assert key(2) in cache and key(3) not in cache
        assert cache.hits == cache.misses == 0


class TestLRU:
    def test_capacity_bound_and_eviction_order(self):
        cache = CompiledPlanCache(capacity=2)
        program = compile_dc()
        cache.put(key(1), program)
        cache.put(key(2), program)
        cache.get(key(1))            # refresh key(1); key(2) is now LRU
        cache.put(key(3), program)   # evicts key(2)
        assert len(cache) == 2
        assert key(2) not in cache
        assert key(1) in cache and key(3) in cache
        assert cache.evictions == 1

    def test_clear_keeps_counters(self):
        cache = CompiledPlanCache()
        cache.put(key(1), compile_dc())
        cache.get(key(1))
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            CompiledPlanCache(capacity=0)


class TestGetOrCompile:
    def test_factory_runs_once(self):
        cache = CompiledPlanCache()
        calls = []

        def factory():
            calls.append(1)
            return compile_dc()

        p1 = cache.get_or_compile(key(4), factory)
        p2 = cache.get_or_compile(key(4), factory)
        assert p1 is p2
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_compile_failure_is_cached(self):
        cache = CompiledPlanCache()
        calls = []

        def failing():
            calls.append(1)
            # GroqChip rejects batches past 1000 (paper Section 4.2.2).
            comp = make_compressor(64, cf=4)
            return compile_program(
                comp.compress, np.zeros((2000, 3, 64, 64), np.float32), "groq"
            )

        k = PlanKey.for_compressor(
            "groq", (2000, 3, 64, 64), method="dc", cf=4, s=2, block=8, direction="compress"
        )
        with pytest.raises(OutOfMemoryError):
            cache.get_or_compile(k, failing)
        with pytest.raises(OutOfMemoryError):
            cache.get_or_compile(k, failing)
        # Second rejection came from the cache, not a re-trace.
        assert len(calls) == 1
        assert cache.hits == 1


class TestNegativeTTL:
    """Transient compile failures get a bounded re-probe budget."""

    def _transient_error(self):
        exc = OutOfMemoryError("injected oom", platform="ipu", reason="flaky toolchain")
        exc.deterministic = False
        return exc

    def test_transient_negative_entry_reprobed_after_ttl(self):
        cache = CompiledPlanCache(negative_ttl=2)
        calls = []

        def flaky():
            calls.append(1)
            raise self._transient_error()

        for _ in range(3):                        # miss+compile, then 2 cached hits
            with pytest.raises(OutOfMemoryError):
                cache.get_or_compile(key(2), flaky)
        assert len(calls) == 1
        # Budget exhausted: the next lookup drops the entry and re-probes.
        with pytest.raises(OutOfMemoryError):
            cache.get_or_compile(key(2), flaky)
        assert len(calls) == 2

    def test_reprobe_success_replaces_negative_entry(self):
        cache = CompiledPlanCache(negative_ttl=1)
        outcomes = [self._transient_error(), None]  # fail once, then recover

        def sometimes():
            exc = outcomes.pop(0)
            if exc is not None:
                raise exc
            return compile_dc(cf=2)

        with pytest.raises(OutOfMemoryError):
            cache.get_or_compile(key(2), sometimes)
        with pytest.raises(OutOfMemoryError):       # served from cache (budget 1)
            cache.get_or_compile(key(2), sometimes)
        program = cache.get_or_compile(key(2), sometimes)  # re-probe succeeds
        assert program is cache.get_or_compile(key(2), sometimes)
        assert outcomes == []

    def test_deterministic_rejection_cached_forever_despite_ttl(self):
        cache = CompiledPlanCache(negative_ttl=1)
        calls = []

        def failing():
            calls.append(1)
            comp = make_compressor(64, cf=4)
            return compile_program(
                comp.compress, np.zeros((2000, 3, 64, 64), np.float32), "groq"
            )

        k = PlanKey.for_compressor(
            "groq", (2000, 3, 64, 64), method="dc", cf=4, s=2, block=8, direction="compress"
        )
        for _ in range(5):
            with pytest.raises(OutOfMemoryError):
                cache.get_or_compile(k, failing)
        # The capability model's rejection is deterministic: one trace, ever.
        assert len(calls) == 1

    def test_no_ttl_keeps_transient_entries_forever(self):
        cache = CompiledPlanCache()                 # negative_ttl=None (default)
        calls = []

        def flaky():
            calls.append(1)
            raise self._transient_error()

        for _ in range(5):
            with pytest.raises(OutOfMemoryError):
                cache.get_or_compile(key(2), flaky)
        assert len(calls) == 1

    def test_ttl_validation(self):
        with pytest.raises(ConfigError):
            CompiledPlanCache(negative_ttl=0)


class TestPricingPathAccounting:
    """Admission pricing makes one counted lookup per (request, platform),
    exactly as the same sequence of direct ``compile_plan`` calls would."""

    PLATFORMS = ("ipu", "a100")

    def _cache(self):
        cache = CompiledPlanCache(negative_ttl=2)
        exc = OutOfMemoryError("injected oom", platform="ipu", reason="flaky toolchain")
        exc.deterministic = False
        cache.put(key(4), exc)                 # ipu's plan at the service's shape
        return cache

    def _counts(self, cache):
        return (
            cache.hits,
            cache.misses,
            int(cache._c_reprobes.value(cache=cache._label)),
            cache.keys(),
        )

    def test_predict_finish_matches_direct_compile_plan_calls(self):
        service = CompressionService(self.PLATFORMS, max_batch=2, cache=self._cache())
        req = Request(0, np.zeros((3, 32, 32), np.float32), cf=4)
        estimates = [service._predict_finish(req, 0.0) for _ in range(4)]

        direct = self._cache()
        for _ in range(4):
            for platform in self.PLATFORMS:
                try:
                    compile_plan(
                        lambda: make_compressor(32, cf=4), (2, 3, 32, 32), platform,
                        method="dc", cf=4, s=2, block=8, direction="compress",
                        cache=direct,
                    )
                except CompileError:
                    pass

        # Two cached rejections spend the budget, the third lookup re-probes.
        assert self._counts(service.cache) == self._counts(direct)
        assert self._counts(direct)[:3] == (6, 2, 1)
        assert direct.keys() == [key(4), key(4, "a100")]
        # ipu prices in only once its plan compiles on the re-probe.
        assert estimates[0] == estimates[1] and estimates[2] <= estimates[0]
