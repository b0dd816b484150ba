"""Top-level compress/decompress API and factory."""

import numpy as np
import pytest

from repro.core import (
    Compressor,
    DCTChopCompressor,
    PartialSerializedCompressor,
    ScatterGatherCompressor,
    compress,
    decompress,
    make_compressor,
)
from repro.errors import ConfigError


class TestFactory:
    def test_methods(self):
        assert isinstance(make_compressor(32, method="dc"), DCTChopCompressor)
        assert isinstance(make_compressor(64, method="ps", s=2), PartialSerializedCompressor)
        assert isinstance(make_compressor(32, method="sg"), ScatterGatherCompressor)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            make_compressor(32, method="huffman")

    def test_protocol_conformance(self):
        for method in ("dc", "ps", "sg"):
            comp = make_compressor(64, method=method, cf=3)
            assert isinstance(comp, Compressor)
            assert comp.method == method
            assert comp.cf == 3

    def test_rectangular(self):
        c = make_compressor(32, 64, method="dc", cf=2)
        assert c.compressed_shape((1, 32, 64)) == (1, 8, 16)


class TestOneShot:
    def test_roundtrip(self, rng):
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        y = compress(x, cf=4)
        assert y.shape == (2, 3, 16, 16)
        rec = decompress(y, x.shape, cf=4)
        assert rec.shape == x.shape
        ref = DCTChopCompressor(32, cf=4).roundtrip(x).numpy()
        np.testing.assert_allclose(rec.numpy(), ref, atol=1e-5)

    def test_compressor_cache_reused(self, rng, monkeypatch):
        # Independent of how full the 128-entry LRU already is: the second
        # call gets the first call's interned instance and builds nothing.
        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        from repro.core import api

        served = []
        real = api.make_compressor

        def spy(*args, **kwargs):
            served.append(real(*args, **kwargs))
            return served[-1]

        def rebuild(*args, **kwargs):
            raise AssertionError("interned compressor rebuilt")

        monkeypatch.setattr(api, "make_compressor", spy)
        compress(x, cf=5)
        monkeypatch.setattr(api, "DCTChopCompressor", rebuild)
        compress(x, cf=5)
        assert len(served) == 2 and served[1] is served[0]

    def test_sg_method(self, rng):
        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        y = compress(x, method="sg", cf=3)
        assert y.shape == (1, 4, 6)
        rec = decompress(y, x.shape, method="sg", cf=3)
        assert rec.shape == x.shape


class TestCompressorCache:
    """The bounded, lock-guarded LRU replacing the unbounded module dict."""

    def test_clear_cache(self, rng):
        from repro.core import api, clear_cache

        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        compress(x, cf=2)
        assert len(api._cache) >= 1
        clear_cache()
        assert len(api._cache) == 0

    def test_lru_bound_and_eviction_order(self):
        from repro.core.api import _CompressorCache

        cache = _CompressorCache(capacity=2)
        cache.get_or_build(("a",), lambda: object())
        b = cache.get_or_build(("b",), lambda: object())
        # Touch "a" so "b" becomes the least recently used entry.
        cache.get_or_build(("a",), lambda: object())
        cache.get_or_build(("c",), lambda: object())
        assert len(cache) == 2
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        # "b" rebuilds on demand (a fresh instance, not the evicted one).
        assert cache.get_or_build(("b",), lambda: object()) is not b

    def test_invalid_capacity(self):
        from repro.core.api import _CompressorCache

        with pytest.raises(ConfigError):
            _CompressorCache(capacity=0)

    def test_concurrent_first_calls_converge(self):
        import threading

        from repro.core.api import _CompressorCache

        cache = _CompressorCache(capacity=8)
        barrier = threading.Barrier(8)
        winners = []

        def worker():
            barrier.wait()
            winners.append(cache.get_or_build(("k",), object))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every thread got the same instance and only one entry exists.
        assert len(cache) == 1
        assert all(w is winners[0] for w in winners)

    def test_one_shot_calls_share_one_instance_under_threads(self, rng):
        import threading

        from repro.core import api, clear_cache

        clear_cache()
        x = rng.standard_normal((1, 24, 24)).astype(np.float32)
        barrier = threading.Barrier(4)
        errors = []

        def worker():
            try:
                barrier.wait()
                for _ in range(5):
                    compress(x, cf=3)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(api._cache) == 1
        clear_cache()


class TestSharedInstances:
    """make_compressor returns one shared, immutable instance per config."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        from repro.core import clear_cache

        clear_cache()
        yield
        clear_cache()

    def test_same_config_same_instance(self):
        assert make_compressor(32, cf=4) is make_compressor(32, 32, cf=4)
        assert make_compressor(32, cf=4) is not make_compressor(32, cf=3)
        # dc/sg ignore ``s``, so it does not split their key.
        assert make_compressor(32, s=2) is make_compressor(32, s=4)
        assert make_compressor(64, method="ps", s=2) is not make_compressor(
            64, method="ps", s=4
        )

    def test_dense_only_instance_is_separate(self):
        default = make_compressor(32, cf=4)
        dense = make_compressor(32, cf=4, fast=False)
        assert dense is not default
        assert dense is make_compressor(32, cf=4, fast=False)

    def test_default_is_the_fast_instance(self):
        assert make_compressor(32) is make_compressor(32, fast=True)

    @pytest.mark.parametrize("fast", ["auto", "turbo", None, 1, "dense", 0, np.True_])
    def test_fast_must_be_a_bool(self, fast):
        with pytest.raises(ConfigError, match="fast"):
            make_compressor(32, fast=fast)

    @pytest.mark.parametrize(
        "kwargs",
        [{"height": 32.0}, {"height": 32, "cf": True}, {"height": 32, "cf": 4.0}],
    )
    def test_invalid_args_never_hit_a_cached_instance(self, kwargs):
        make_compressor(32, cf=1)
        make_compressor(32, cf=4)
        height = kwargs.pop("height")
        with pytest.raises(ConfigError):
            make_compressor(height, **kwargs)

    def test_invalid_config_is_not_cached(self):
        from repro.core import api

        with pytest.raises(ConfigError):
            make_compressor(32, cf=9)
        with pytest.raises(ConfigError):
            make_compressor(32, cf=9)
        assert len(api._cache) == 0

    def test_cache_stays_bounded(self):
        from repro.core import api

        configs = [(8 * k, cf) for k in range(1, 18) for cf in range(1, 9)]
        assert len(configs) > api._cache.capacity == 128
        for height, cf in configs:
            make_compressor(height, cf=cf)
            assert len(api._cache) <= 128
        # The most recent configs survive; the oldest were evicted.
        last = make_compressor(configs[-1][0], cf=configs[-1][1])
        assert last is make_compressor(configs[-1][0], cf=configs[-1][1])

    def test_container_reads_probe_once_per_shape(self, rng):
        from repro.core import clear_cache, container, fused

        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        blob = container.pack(x, DCTChopCompressor(32, cf=4))
        clear_cache()
        before = sum(fused.fast_path_stats().values())
        outs = [container.unpack(blob)[0] for _ in range(5)]
        assert sum(fused.fast_path_stats().values()) - before == 1
        assert all(np.array_equal(o, outs[0]) for o in outs)

    def test_force_dense_beats_cached_verdicts(self, rng, monkeypatch):
        from repro.core import fused

        comp = make_compressor(32, cf=4)
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        y = comp.compress(x).data
        rec = comp.decompress(y).data
        assert comp._verdicts[("compress", (2,), "<f4")] is True
        assert comp._verdicts[("decompress", (2,), "<f4")] is True

        def tiled_called(*args, **kwargs):
            raise AssertionError("tiled kernel ran with the dense path forced")

        for name in ("tiled_compress_nd", "tiled_decompress_nd"):
            monkeypatch.setattr(fused, name, tiled_called)
        with fused.force_dense():
            y_dense = comp.compress(x).data
            rec_dense = comp.decompress(y_dense).data
        assert np.array_equal(y_dense, y)
        assert np.array_equal(rec_dense, rec)
        with pytest.raises(AssertionError, match="dense path forced"):
            comp.compress(x)

    @pytest.mark.parametrize("method", ["dc", "ps", "sg"])
    def test_shared_operands_are_read_only(self, method):
        comp = make_compressor(64, method=method, cf=4)
        dc = comp if method == "dc" else comp.inner
        arrays = [dc._lhs.data, dc._rhs.data, dc._rhs_d.data, dc._lhs_d.data,
                  dc._fops.enc_r, dc._fops.enc_l, dc._fops.dec_r, dc._fops.dec_l]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_custom_transform_operands_are_read_only(self):
        comp = DCTChopCompressor(16, cf=4, transform=np.eye(8, dtype=np.float32) * 2)
        for arr in (comp.lhs, comp.rhs, comp._rhs_d.data, comp._lhs_d.data,
                    comp._fops.enc_r, comp._fops.enc_l, comp._fops.dec_r,
                    comp._fops.dec_l):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_threads_share_one_instance_and_probe_once(self, rng):
        import sys
        import threading

        from repro.core import fused

        x = rng.standard_normal((3, 40, 40)).astype(np.float32)
        before = sum(fused.fast_path_stats().values())
        got, errors = [], []
        barrier = threading.Barrier(8, timeout=30)

        def worker():
            try:
                barrier.wait()
                for _ in range(20):
                    comp = make_compressor(40, cf=3)
                    got.append(comp)
                    comp.decompress(comp.compress(x))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(got) == 160 and all(c is got[0] for c in got)
        # One compress and one decompress probe for the one lead shape.
        assert sum(fused.fast_path_stats().values()) - before == 2

    @pytest.mark.parametrize("method,kw", [("ps", {"s": 2}), ("sg", {})])
    def test_ps_sg_inner_is_the_shared_dc_instance(self, method, kw):
        outer = make_compressor(64, method=method, cf=4, **kw)
        inner_n = 32 if method == "ps" else 64
        assert outer.inner is make_compressor(inner_n, cf=4)
