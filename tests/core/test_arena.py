"""Preallocated-buffer arena: reuse semantics, ring rotation, the
tracemalloc zero-allocation proof, and out= buffer validation."""

import tracemalloc

import numpy as np
import pytest

from repro.core import arena as arena_mod
from repro.core import fused
from repro.core.arena import Arena
from repro.core.chop import DCTChopCompressor
from repro.errors import ConfigError
from repro.tensor import Tensor, no_grad


class TestArenaBuffers:
    def test_scratch_reused_per_key(self):
        a = Arena()
        b1 = a.buffer("g1", (4, 8), np.float32)
        b2 = a.buffer("g1", (4, 8), np.float32)
        assert b1 is b2
        assert a.hits == 1 and a.misses == 1

    def test_scratch_distinct_per_tag_shape_dtype(self):
        a = Arena()
        base = a.buffer("g1", (4, 8), np.float32)
        assert a.buffer("g2", (4, 8), np.float32) is not base
        assert a.buffer("g1", (8, 4), np.float32) is not base
        assert a.buffer("g1", (4, 8), np.float64) is not base

    def test_ring_rotates_over_slots(self):
        a = Arena(slots=2)
        r1 = a.ring("out", (16,), np.float32)
        r2 = a.ring("out", (16,), np.float32)
        r3 = a.ring("out", (16,), np.float32)
        assert r1 is not r2
        assert r3 is r1  # wrapped around after ``slots`` requests

    def test_single_slot_ring_reuses_immediately(self):
        a = Arena(slots=1)
        assert a.ring("out", (4,), np.float32) is a.ring("out", (4,), np.float32)

    def test_slots_validated(self):
        with pytest.raises(ConfigError, match="slots"):
            Arena(slots=0)

    def test_reserved_bytes_and_clear(self):
        a = Arena(slots=2)
        a.buffer("s", (8,), np.float32)
        a.ring("r", (8,), np.float32)
        assert a.reserved_bytes() == 8 * 4 + 2 * 8 * 4
        a.clear()
        assert a.reserved_bytes() == 0
        assert a.hits == 0 and a.misses == 0


class TestActivation:
    def test_off_by_default(self):
        assert arena_mod.current() is None

    def test_use_is_scoped_and_nested(self):
        a, b = Arena(), Arena()
        with a.use():
            assert arena_mod.current() is a
            with b.use():
                assert arena_mod.current() is b
            assert arena_mod.current() is a
        assert arena_mod.current() is None

    def test_bypass_hides_active_arena(self):
        a = Arena()
        with a.use(), arena_mod.bypass():
            assert arena_mod.current() is None

    def test_probes_do_not_reserve_arena_buffers(self):
        """Equivalence probes run under bypass(): their dense + tiled
        legs must not reserve arena buffers."""
        a = Arena()
        comp = DCTChopCompressor(64, cf=4)
        with a.use():
            assert comp._probe("compress", (64, 64), np.float32)
        assert a.reserved_bytes() == 0
        assert a.misses == 0


class TestKernelIntegration:
    def test_bit_identical_with_and_without_arena(self, rng):
        comp = DCTChopCompressor(64, cf=4)
        x = Tensor(rng.standard_normal((2, 64, 64)).astype(np.float32))
        a = Arena()
        with no_grad():
            plain = comp.compress(x)
            with a.use():
                arena_first = comp.compress(x)
                arena_second = comp.compress(x)  # reused buffers
            rec_plain = comp.decompress(plain)
            with a.use():
                rec_arena = comp.decompress(plain)
        assert plain.data.tobytes() == arena_first.data.tobytes()
        assert plain.data.tobytes() == arena_second.data.tobytes()
        assert rec_plain.data.tobytes() == rec_arena.data.tobytes()

    @pytest.mark.parametrize("method", ["dc", "ps", "sg"])
    def test_every_method_bit_identical_inside_arena(self, rng, method):
        # PS holds all s*s chunk results until reassembly — more live
        # outputs of one shape than the ring has slots.
        from repro.core import make_compressor

        comp = make_compressor(64, method=method, cf=4, s=4)
        x = rng.standard_normal((2, 64, 64)).astype(np.float32)
        y = comp.compress(x).data.copy()
        rec = comp.decompress(y).data.copy()
        with Arena(slots=2).use():
            assert np.array_equal(comp.compress(x).data, y)
            assert np.array_equal(comp.decompress(y).data, rec)

    def test_steady_state_hits_dominate(self, rng):
        a = Arena()
        comp = DCTChopCompressor(64, cf=4)
        x = Tensor(rng.standard_normal((2, 64, 64)).astype(np.float32))
        with no_grad(), a.use():
            for _ in range(5):
                comp.compress(x)
        assert a.misses > 0
        assert a.hits >= 4 * a.misses  # only the first call populates

    def test_ring_output_overwritten_after_slots_calls(self, rng):
        """Documents the ring contract: results are valid until the same
        key is requested ``slots`` more times; keep-longer callers copy."""
        a = Arena(slots=2)
        comp = DCTChopCompressor(64, cf=4)
        x = Tensor(rng.standard_normal((64, 64)).astype(np.float32))
        y = Tensor(rng.standard_normal((64, 64)).astype(np.float32))
        with no_grad(), a.use():
            first = comp.compress(x)
            kept = first.data.copy()
            comp.compress(y)
            third = comp.compress(x)  # wraps onto first's buffer
        assert third.data is first.data
        assert np.array_equal(third.data, kept)


class TestZeroAllocationSteadyState:
    def test_compress_loop_allocates_nothing_array_sized(self, rng):
        """The ISSUE's zero-allocation criterion: with an arena active,
        steady-state compress traffic performs zero per-request ndarray
        allocations.  tracemalloc (which numpy's allocator reports into)
        must see only small Python-object churn, orders of magnitude
        below one call's buffer footprint."""
        comp = DCTChopCompressor(128, cf=4)
        x = Tensor(rng.standard_normal((2, 128, 128)).astype(np.float32))
        a = Arena()
        steps = 10

        with no_grad(), a.use():
            for _ in range(3):  # warmup: probe, operators, arena fill
                comp.compress(x)
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                for _ in range(steps):
                    comp.compress(x)
                _, arena_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        arena_delta = arena_peak - base

        # Control: the identical loop with no arena allocates fresh
        # buffers every call.
        with no_grad():
            comp.compress(x)
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                for _ in range(steps):
                    comp.compress(x)
                _, control_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        control_delta = control_peak - base

        one_output = 2 * 64 * 64 * 4  # bytes of one compressed result
        assert control_delta > one_output  # the control really allocates
        assert arena_delta < one_output // 2
        assert arena_delta < control_delta / 10


class TestOutBufferValidation:
    """Satellite regression: ``out=`` must never let a kernel write into
    a read-only array — in particular a cached fused operator."""

    def _ops_and_input(self, rng):
        ops = fused.fused_operators(8, 4, np.float32)
        x = rng.standard_normal((2, 16, 16)).astype(np.float32)
        return ops, x

    def test_explicit_out_is_used(self, rng):
        ops, x = self._ops_and_input(rng)
        out = np.empty((2, 8, 8), np.float32)
        result = fused.tiled_compress_nd(x, ops, out=out)
        assert result is out
        assert np.array_equal(out, fused.tiled_compress_nd(x, ops))

    def test_read_only_out_rejected(self, rng):
        ops, x = self._ops_and_input(rng)
        out = np.empty((2, 8, 8), np.float32)
        out.flags.writeable = False
        with pytest.raises(ConfigError, match="writable"):
            fused.tiled_compress_nd(x, ops, out=out)
        with pytest.raises(ConfigError, match="writable"):
            fused.tiled_decompress_nd(np.zeros((2, 8, 8), np.float32), ops, out=out_like_plane())

    def test_wrong_shape_or_dtype_rejected(self, rng):
        ops, x = self._ops_and_input(rng)
        with pytest.raises(ConfigError, match="shape"):
            fused.tiled_compress_nd(x, ops, out=np.empty((2, 8, 9), np.float32))
        with pytest.raises(ConfigError, match="dtype"):
            fused.tiled_compress_nd(x, ops, out=np.empty((2, 8, 8), np.float64))

    def test_non_contiguous_out_rejected(self, rng):
        ops, x = self._ops_and_input(rng)
        backing = np.empty((2, 8, 16), np.float32)
        with pytest.raises(ConfigError, match="contiguous"):
            fused.tiled_compress_nd(x, ops, out=backing[:, :, ::2])

    def test_non_ndarray_out_rejected(self, rng):
        ops, x = self._ops_and_input(rng)
        with pytest.raises(ConfigError, match="ndarray"):
            fused.tiled_compress_nd(x, ops, out=[[0.0] * 8] * 8)

    def test_cached_operator_as_out_rejected(self, rng):
        """A cached fused operator has exactly the read-only flag this
        guard exists for; even a shape-matching one must be refused."""
        ops = fused.fused_operators(8, 8, np.float32)  # square: (8, 8) ops
        x = rng.standard_normal((8, 8)).astype(np.float32)
        assert not ops.enc_r.flags.writeable
        with pytest.raises(ConfigError, match="writable"):
            fused.tiled_compress_nd(x, ops, out=ops.enc_r)

    def test_kernels_never_alias_cached_operators(self, rng):
        ops, x = self._ops_and_input(rng)
        a = Arena()
        with a.use():
            result = fused.tiled_compress_nd(x, ops)
        for buf in list(a._scratch.values()) + [
            b for ring in a._rings.values() for b in ring
        ]:
            assert not np.shares_memory(buf, ops.enc_r)
            assert not np.shares_memory(buf, ops.enc_l)
        assert not np.shares_memory(result, ops.enc_r)
        assert ops.enc_r.flags.writeable is False  # still frozen after use


def out_like_plane() -> np.ndarray:
    out = np.empty((2, 16, 16), np.float32)
    out.flags.writeable = False
    return out
