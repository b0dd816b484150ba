"""The host computes live rows only; the modelled device runs the padded plan.

A flushed batch of ``k < max_batch`` requests reaches the compressor as a
``(k, C, H, W)`` stack, while the plan key, the modelled duration, the
latency percentiles and the pad counter stay those of the padded
``max_batch`` plan.  Every batch size gives the bytes of the batch-1
dense oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import compile_program
from repro.core import make_compressor
from repro.obs.metrics import MetricsRegistry
from repro.resilience import ResilientCompressor
from repro.serve import CompiledPlanCache, CompressionService, Request
from repro.serve.stats import percentile

RES = 32
CHANNELS = 3
MAX_BATCH = 8


def _requests(k: int, *, method: str = "dc", seed: int = 0) -> list[Request]:
    rng = np.random.default_rng(seed)
    return [
        Request(
            rid=i,
            image=rng.standard_normal((CHANNELS, RES, RES)).astype(np.float32),
            arrival=i * 1e-5,
            method=method,
        )
        for i in range(k)
    ]


@pytest.mark.parametrize("method", ["dc", "ps", "sg"])
def test_every_batch_size_matches_the_batch1_dense_oracle(method):
    # sg compiles on the IPU only (paper Sec. 3.5.2).
    cache = CompiledPlanCache()
    oracle = make_compressor(RES, method=method, fast=False)
    for k in range(1, MAX_BATCH + 1):
        service = CompressionService(
            ("ipu",), max_batch=MAX_BATCH, max_wait=0.01, cache=cache
        )
        responses, stats = service.process(_requests(k, method=method, seed=k))
        assert stats.n_batches == 1 and len(responses) == k
        for r in responses:
            want = oracle.compress(r.request.image[None]).numpy()[0]
            assert np.array_equal(r.output, want), (method, k, r.request.rid)


@pytest.mark.parametrize("k", [1, 3, MAX_BATCH])
def test_compressor_sees_live_rows_and_device_is_charged_the_padded_plan(
    k, monkeypatch
):
    shapes = []
    compress = ResilientCompressor.compress

    def spy(self, x):
        shapes.append(np.shape(x))
        return compress(self, x)

    monkeypatch.setattr(ResilientCompressor, "compress", spy)
    reg = MetricsRegistry()
    service = CompressionService(("ipu",), max_batch=MAX_BATCH, max_wait=0.01, registry=reg)
    requests = _requests(k)
    responses, stats = service.process(requests)

    assert shapes == [(k, CHANNELS, RES, RES)]
    padded = compile_program(
        make_compressor(RES).compress,
        np.zeros((MAX_BATCH, CHANNELS, RES, RES), np.float32),
        "ipu",
    )
    duration = padded.estimated_time()
    (formed_at,) = {r.start for r in responses}
    for r in responses:
        assert r.finish == formed_at + duration
        assert r.attempt.rung == "original"
    assert stats.p95_latency_s == percentile([r.latency_s for r in responses], 95)
    assert reg.counter("repro_batch_pad_images_total").value() == MAX_BATCH - k
    # Plan keys stay those of the padded shape.
    (key,) = service.cache.keys()
    assert key.input_shapes == ((MAX_BATCH, CHANNELS, RES, RES),)
