"""Opt-in profiling hooks on the compressor hot paths."""

from __future__ import annotations

import numpy as np

from repro.core import make_compressor
from repro.obs import get_registry, profiling, profiling_enabled, set_profiling


def _counter(name):
    inst = get_registry().get(name)
    return inst


class TestProfiledHotPaths:
    def test_disabled_by_default_records_nothing(self, rng):
        assert not profiling_enabled()
        comp = make_compressor(32, 32)
        comp.roundtrip(rng.standard_normal((2, 1, 32, 32)).astype(np.float32))
        assert _counter("repro_profiled_calls_total") is None

    def test_dc_counts_two_matmuls_per_call(self, rng):
        comp = make_compressor(32, 32)
        x = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)
        with profiling():
            comp.compress(x)
        calls = _counter("repro_profiled_calls_total")
        matmuls = _counter("repro_profiled_matmuls_total")
        assert calls.value(site="core.dc.compress") == 1
        assert matmuls.value(site="core.dc.compress") == 2

    def test_ps_counts_two_matmuls_per_chunk(self, rng):
        comp = make_compressor(32, 32, method="ps", s=2)
        x = rng.standard_normal((1, 1, 32, 32)).astype(np.float32)
        with profiling():
            comp.compress(x)
        calls = _counter("repro_profiled_calls_total")
        matmuls = _counter("repro_profiled_matmuls_total")
        # The device program runs s*s = 4 chunks of 2 matmuls each; PS
        # runs its own kernels, so nothing is attributed to the DC site.
        assert calls.value(site="core.ps.compress") == 1
        assert matmuls.value(site="core.ps.compress") == 8
        assert calls.value(site="core.dc.compress") == 0

    def test_sg_delegates_to_inner_dc(self, rng):
        comp = make_compressor(32, 32, method="sg", cf=4)
        x = rng.standard_normal((1, 1, 32, 32)).astype(np.float32)
        with profiling():
            comp.roundtrip(x)
        calls = _counter("repro_profiled_calls_total")
        assert calls.value(site="core.sg.compress") == 1
        assert calls.value(site="core.sg.decompress") == 1
        assert calls.value(site="core.dc.compress") == 1
        assert calls.value(site="core.dc.decompress") == 1

    def test_elements_track_input_size(self, rng):
        comp = make_compressor(32, 32)
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        with profiling():
            comp.compress(x)
        elements = _counter("repro_profiled_elements_total")
        assert elements.value(site="core.dc.compress") == x.size

    def test_numerics_identical_with_and_without_profiling(self, rng):
        comp = make_compressor(32, 32)
        x = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)
        plain = comp.compress(x).numpy()
        with profiling():
            profiled_out = comp.compress(x).numpy()
        assert np.array_equal(plain, profiled_out)

    def test_set_profiling_returns_previous(self):
        assert set_profiling(True) is False
        try:
            assert profiling_enabled()
        finally:
            assert set_profiling(False) is True
