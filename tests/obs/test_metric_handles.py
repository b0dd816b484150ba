"""Bound metric handles: bucket placement, thread safety, registry swaps,
and the serving hot path resolving each series once."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import PlanKey, compile_program
from repro.core import make_compressor
from repro.errors import ConfigError
from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    ByLabel,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.serve import CompiledPlanCache, CompressionService
from repro.serve.service import _BATCH_SIZE_BUCKETS
from repro.serve.trace import synthetic_trace

BUCKET_SETS = {
    "default": DEFAULT_BUCKETS,
    "batch_size": _BATCH_SIZE_BUCKETS,
    # float32(0.1) > 0.1: a float32 sample must compare at float64, as
    # searchsorted promotes it, or it lands one bucket low.
    "decimal": (0.1, 0.2, 0.3, 0.7),
}


def _edge_values(buckets) -> list:
    """Bounds, their float64 and float32 neighbours, gaps, ends, specials."""
    values: list = [0, 1, 2, 3, 7, 8, 9, 128, 129, -5, 10**6]      # Python ints
    values += [-np.inf, np.inf, np.nan, np.float32(np.nan), -0.0]
    values += [buckets[0] / 2, -buckets[0], buckets[-1] * 2]
    for lo, hi in zip(buckets, buckets[1:]):
        values.append((lo + hi) / 2)
    for b in buckets:
        values += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
        values += [np.float64(b), np.float32(b)]
        f32 = np.float32(b)
        values += [
            np.nextafter(f32, np.float32(-np.inf)),
            np.nextafter(f32, np.float32(np.inf)),
        ]
    return values


def _landing(buckets, value, *, bound: bool) -> int:
    hist = MetricsRegistry().histogram("h", buckets=buckets)
    if bound:
        hist.labels(site="x").observe(value)
    else:
        hist.observe(value, site="x")
    counts = hist.bucket_counts(site="x")
    assert sum(counts) == 1
    return counts.index(1)


@pytest.mark.parametrize("bound", [False, True], ids=["observe", "handle"])
@pytest.mark.parametrize("name", sorted(BUCKET_SETS))
def test_buckets_match_searchsorted(name, bound):
    buckets = BUCKET_SETS[name]
    for value in _edge_values(buckets):
        want = int(np.searchsorted(buckets, value, side="left"))
        assert _landing(buckets, value, bound=bound) == want, repr(value)


@settings(max_examples=200, deadline=None)
@given(
    value=st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(10**9), 10**9),
    name=st.sampled_from(sorted(BUCKET_SETS)),
)
def test_buckets_match_searchsorted_anywhere(value, name):
    buckets = BUCKET_SETS[name]
    want = int(np.searchsorted(buckets, value, side="left"))
    assert _landing(buckets, value, bound=True) == want
    assert _landing(buckets, value, bound=False) == want


def test_nan_lands_in_the_overflow_bucket():
    hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
    hist.labels().observe(float("nan"))
    assert hist.bucket_counts() == [0, 0, 1]


class TestHandles:
    def test_handles_write_the_labelled_series(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h", buckets=(1.0, 2.0))
        c.labels(platform="ipu").inc()
        c.inc(2, platform="ipu")
        g.labels(worker="w0").set(5)
        g.labels(worker="w0").dec(2)
        h.labels(b="1", a="2").observe(1.5)
        h.observe(0.5, a="2", b="1")
        assert c.value(platform="ipu") == 3
        assert c.labels(platform="ipu").value() == 3
        assert g.value(worker="w0") == 3
        assert h.count(a="2", b="1") == 2
        assert h.bucket_counts(a="2", b="1") == [1, 1, 0]

    def test_binding_creates_no_series(self):
        reg = MetricsRegistry()
        reg.counter("c").labels(platform="ipu")
        reg.gauge("g").labels()
        reg.histogram("h").labels()
        assert reg.render_prometheus() == "# TYPE c counter\n# TYPE g gauge\n# TYPE h histogram\n"

    def test_counter_handle_cannot_decrease(self):
        handle = MetricsRegistry().counter("n").labels()
        with pytest.raises(ConfigError, match="cannot decrease"):
            handle.inc(-1)

    def test_by_label_binds_once_per_value(self):
        c = MetricsRegistry().counter("c")
        by = ByLabel(c, "tenant")
        assert not by
        first = by["a"]
        by["a"].inc()
        by["b"].inc(3)
        assert by["a"] is first and sorted(by) == ["a", "b"]
        assert c.value(tenant="a") == 1 and c.value(tenant="b") == 3

    def test_two_threads_through_one_handle(self):
        handle = MetricsRegistry().counter("n").labels(site="x")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: [handle.inc() for _ in range(10_000)])
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert handle.value() == 20_000


def test_cached_program_reports_to_the_swapped_in_registry():
    comp = make_compressor(16, cf=4)
    x = np.zeros((2, 1, 16, 16), np.float32)
    key = PlanKey.for_compressor(
        "cpu", x.shape, method="dc", cf=4, s=2, block=comp.block, direction="compress"
    )
    cache = CompiledPlanCache(4)

    def build():
        return compile_program(comp.compress, x, "cpu", key=key)

    program = cache.get_or_compile(key, build)
    old = get_registry()
    program.run(x)
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        assert cache.get_or_compile(key, build) is program
        program.run(x)
    finally:
        set_registry(previous)
    runs = "repro_program_runs_total"
    assert fresh.counter(runs).value(platform="cpu") == 1
    assert old.counter(runs).value(platform="cpu") == 1
    seconds = fresh.counter("repro_device_modelled_seconds_total")
    assert seconds.value(platform="cpu") == program.estimated_time()


def test_service_plan_cache_reports_to_the_service_registry():
    own, process = MetricsRegistry(), MetricsRegistry()
    previous = set_registry(process)
    try:
        service = CompressionService(("cpu",), max_batch=4, registry=own)
        service.process(synthetic_trace(20, seed=0))
    finally:
        set_registry(previous)
    label = service.cache._label
    assert own.counter("repro_plan_cache_misses_total").value(cache=label) == service.cache.misses
    assert service.cache.misses > 0 and service.cache.hits > 0
    assert "repro_plan_cache_" in own.render_prometheus()
    assert "repro_plan_cache_" not in process.render_prometheus()


def test_serving_resolves_series_not_requests(monkeypatch):
    """400 requests cost label sorts and registry lookups per series only.

    A per-request ``registry.counter(name).inc(**labels)`` would cost
    several of each per request (about 1500 here) and fail this bound.
    """
    calls = {"label_key": 0, "get_or_create": 0}
    label_key, get_or_create = metrics._label_key, MetricsRegistry._get_or_create

    def counting_label_key(labels):
        calls["label_key"] += 1
        return label_key(labels)

    def counting_get_or_create(self, *args):
        calls["get_or_create"] += 1
        return get_or_create(self, *args)

    monkeypatch.setattr(metrics, "_label_key", counting_label_key)
    monkeypatch.setattr(MetricsRegistry, "_get_or_create", counting_get_or_create)
    reg = get_registry()
    service = CompressionService(("ipu", "a100"), max_batch=8, max_wait=0.02, registry=reg)
    served = 0
    for request in synthetic_trace(400, seed=0):
        served += len(service.submit(request))
    served += len(service.drain())
    assert served == 400
    series = sum(len(reg.get(name).series()) for name in reg.names())
    assert 0 < calls["label_key"] <= 3 * series
    assert 0 < calls["get_or_create"] <= 3 * series
