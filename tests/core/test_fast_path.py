"""Tiled fast path ≡ dense oracle, bit for bit — plus cache/no-copy guards.

The fast path's contract is *constructive* bit-identity: any shape whose
seeded probe does not match the dense path bitwise is pinned to the dense
path, so the user-visible output equals the dense oracle's bytes on every
shape, dtype and variant.  These tests exercise that contract directly.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    DCTChopCompressor,
    PaddedCompressor,
    PartialSerializedCompressor,
    ScatterGatherCompressor,
    force_dense,
    fused_operators,
    make_compressor,
)
from repro.core import fused
from repro.errors import ConfigError
from repro.tensor import Tensor

SHAPES = [
    # (n, cf, lead): square sizes with assorted batch/channel leads,
    # including odd and size-1 dims.
    (64, 2, ()),
    (64, 7, (4,)),
    (256, 4, (2,)),
    (32, 5, (3, 1, 2)),
    (48, 3, (5,)),
    (16, 8, (7, 3)),
]


def _pair(method, n, cf, **kw):
    fast = make_compressor(n, method=method, cf=cf, fast=True, **kw)
    dense = make_compressor(n, method=method, cf=cf, fast=False, **kw)
    return fast, dense


class TestBitIdentity:
    @pytest.mark.parametrize("method", ["dc", "ps", "sg"])
    @pytest.mark.parametrize("n,cf,lead", SHAPES)
    def test_compress_decompress_match_dense(self, rng, method, n, cf, lead):
        kw = {"s": 2} if method == "ps" else {}
        fast, dense = _pair(method, n, cf, **kw)
        x = rng.standard_normal(lead + (n, n)).astype(np.float32)
        yf, yd = fast.compress(x), dense.compress(x)
        assert yf.shape == yd.shape
        assert np.array_equal(yf.data, yd.data)
        rf, rd = fast.decompress(yf), dense.decompress(yd)
        assert np.array_equal(rf.data, rd.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtypes(self, rng, dtype):
        fast, dense = _pair("dc", 64, 4)
        x = Tensor(rng.standard_normal((3, 64, 64)), dtype=dtype)
        assert x.dtype == dtype
        yf, yd = fast.compress(x), dense.compress(x)
        assert yf.dtype == yd.dtype
        assert np.array_equal(yf.data, yd.data)
        assert np.array_equal(fast.decompress(yf).data, dense.decompress(yd).data)

    def test_rectangular_planes(self, rng):
        fast = DCTChopCompressor(32, 64, cf=3, fast=True)
        dense = DCTChopCompressor(32, 64, cf=3, fast=False)
        x = rng.standard_normal((2, 32, 64)).astype(np.float32)
        yf, yd = fast.compress(x), dense.compress(x)
        assert np.array_equal(yf.data, yd.data)
        assert np.array_equal(fast.decompress(yf).data, dense.decompress(yd).data)

    def test_custom_transform(self, rng):
        # Custom (non-orthonormal) transforms slice their own operators.
        t = np.linalg.qr(rng.standard_normal((8, 8)))[0].astype(np.float32) * 1.5
        fast = DCTChopCompressor(32, cf=4, transform=t, fast=True)
        dense = DCTChopCompressor(32, cf=4, transform=t, fast=False)
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        yf, yd = fast.compress(x), dense.compress(x)
        assert np.array_equal(yf.data, yd.data)
        assert np.array_equal(fast.decompress(yf).data, dense.decompress(yd).data)

    def test_ps_sweep_over_s(self, rng):
        for s in (1, 2, 4):
            fast = PartialSerializedCompressor(64, cf=4, s=s, fast=True)
            dense = PartialSerializedCompressor(64, cf=4, s=s, fast=False)
            x = rng.standard_normal((2, 64, 64)).astype(np.float32)
            assert np.array_equal(fast.compress(x).data, dense.compress(x).data)


# (lead, height, width, cf): the paper's resolution sweep at the bench
# batch shapes, many small planes, many channels, and rectangular planes.
DIFF_CASES = [
    ((8, 3), 512, 512, 4),
    ((8, 3), 512, 512, 7),
    ((2, 3), 1024, 1024, 4),
    ((64, 3), 128, 128, 4),
    ((4,), 512, 512, 2),
    ((4,), 512, 512, 4),
    ((4,), 512, 512, 7),
    ((16, 32), 32, 32, 4),
    ((2,), 256, 512, 4),
    ((3,), 64, 128, 4),
    ((2,), 512, 256, 4),
]

_oracles: dict = {}


def _oracle(method, case):
    """Dense-oracle compress, decompress and roundtrip gradient (cached)."""
    key = (method, case)
    if key not in _oracles:
        lead, h, w, cf = case
        rng = np.random.default_rng([h, w, cf, *lead])
        x = rng.standard_normal(lead + (h, w), dtype=np.float32)
        comp = make_compressor(h, w, method=method, cf=cf)
        with force_dense():
            y = comp.compress(x).data
            rec = comp.decompress(y).data
        g = rng.standard_normal(x.shape, dtype=np.float32)
        with force_dense():
            _, grad = _grad_roundtrip(comp, x, g)
        _oracles.clear()  # keep one case's arrays alive, not all of them
        _oracles[key] = (x, y, rec, g, grad)
    return _oracles[key]


class TestDifferential:
    """Every method, fast and dense, against the dense oracle: outputs bit
    for bit, roundtrip gradients to float32 reassociation noise."""

    @pytest.mark.parametrize("op", ["compress", "decompress", "grad"])
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "dense"])
    @pytest.mark.parametrize("method", ["dc", "ps", "sg"])
    @pytest.mark.parametrize("case", DIFF_CASES, ids=str)
    def test_matches_dense_oracle(self, case, method, fast, op):
        x, y, rec, g, grad = _oracle(method, case)
        lead, h, w, cf = case
        comp = make_compressor(h, w, method=method, cf=cf, fast=fast)
        if op == "compress":
            assert np.array_equal(comp.compress(x).data, y)
        elif op == "decompress":
            assert np.array_equal(comp.decompress(y).data, rec)
        else:
            out, got = _grad_roundtrip(comp, x, g)
            assert np.array_equal(out, rec)
            np.testing.assert_allclose(got, grad, rtol=1e-4, atol=1e-4)

    def test_ps_pins_to_its_chunked_oracle(self, rng):
        # PS's oracle is its serial chunk program, which on some shapes
        # rounds differently from whole-plane dense DC: the fast path
        # must reproduce the chunked bytes.
        comp = make_compressor(64, method="ps", s=2, cf=2, fast=True)
        x = rng.standard_normal((3, 2, 64, 64)).astype(np.float32)
        chunked = comp._map_chunks(comp.inner._compress_dense, Tensor(x), 32, 32)
        assert np.array_equal(comp.compress(x).data, chunked.data)
        rec = comp._map_chunks(comp.inner._decompress_dense, chunked, 8, 8)
        assert np.array_equal(comp.decompress(chunked).data, rec.data)

    @pytest.mark.parametrize("shape", [(16, 16), (14, 30)], ids=["plane", "padded"])
    @pytest.mark.parametrize("method", ["dc", "ps", "sg"])
    def test_finite_difference_gradient(self, rng, method, shape):
        from repro.core import PaddedCompressor
        from tests.conftest import check_gradient

        comp = PaddedCompressor(*shape, method=method, cf=3, s=2)
        check_gradient(comp.roundtrip, rng.standard_normal((2,) + shape))


class TestProbeGuard:
    def test_verdicts_cached_per_shape(self, rng):
        c = DCTChopCompressor(32, cf=4, fast=True)
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        c.compress(x)
        key = ("compress", (2,), "<f4")
        assert key in c._verdicts
        verdict = c._verdicts[key]
        c.compress(x)  # second call must reuse, not re-probe
        assert c._verdicts[key] is verdict

    def test_failed_probe_pins_shape_to_dense(self, rng, monkeypatch):
        c = DCTChopCompressor(32, cf=4, fast=True)
        monkeypatch.setattr(c, "_probe", lambda *a: False)
        x = rng.standard_normal((32, 32)).astype(np.float32)
        with force_dense():
            expected = c.compress(x).data
        assert np.array_equal(c.compress(x).data, expected)
        assert c._verdicts[("compress", (), "<f4")] is False

    def test_verdict_cache_bounded(self, rng):
        from repro.core import chop

        c = DCTChopCompressor(16, cf=2, fast=True)
        for batch in range(1, chop._VERDICT_CAP + 10):
            c.compress(rng.standard_normal((batch, 16, 16)).astype(np.float32))
        assert len(c._verdicts) <= chop._VERDICT_CAP

    def test_probe_input_deterministic(self):
        a = fused.probe_input((2, 16, 16), np.float32, cf=3, block=8, direction="compress")
        b = fused.probe_input((2, 16, 16), np.float32, cf=3, block=8, direction="compress")
        assert np.array_equal(a, b)
        c = fused.probe_input((2, 16, 16), np.float32, cf=3, block=8, direction="decompress")
        assert not np.array_equal(a, c)


CONSTRUCTORS = {
    # method -> (constructor taking ``fast=``, input plane size)
    "dc": (lambda fast: DCTChopCompressor(32, cf=4, fast=fast), 32),
    "ps": (lambda fast: PartialSerializedCompressor(32, cf=4, s=2, fast=fast), 32),
    "sg": (lambda fast: ScatterGatherCompressor(32, cf=4, fast=fast), 32),
    "padded": (lambda fast: PaddedCompressor(30, cf=4, fast=fast), 30),
}


def _no_tiled_kernels(monkeypatch) -> None:
    def tiled_called(*args, **kwargs):
        raise AssertionError("tiled kernel ran on a dense-only path")

    for name in ("tiled_compress_nd", "tiled_decompress_nd"):
        monkeypatch.setattr(fused, name, tiled_called)


class TestSwitches:
    def test_fast_false_pins_dense(self):
        c = DCTChopCompressor(32, cf=4, fast=False)
        assert not c._use_fast((2, 32, 32), np.float32, "compress")

    @pytest.mark.parametrize("method", list(CONSTRUCTORS))
    def test_fast_false_never_runs_tiled(self, rng, monkeypatch, method):
        build, n = CONSTRUCTORS[method]
        fast, dense = build(True), build(False)
        x = rng.standard_normal((2, n, n)).astype(np.float32)
        y = fast.compress(x).data
        rec = fast.decompress(y).data
        _no_tiled_kernels(monkeypatch)
        assert np.array_equal(dense.compress(x).data, y)
        assert np.array_equal(dense.decompress(y).data, rec)

    @pytest.mark.parametrize("fast", ["auto", "dense", 0])
    @pytest.mark.parametrize("method", list(CONSTRUCTORS))
    def test_constructors_reject_non_bool_fast(self, method, fast):
        # ``fast="dense"`` is truthy: coercing it would run the tiled path.
        build, _ = CONSTRUCTORS[method]
        with pytest.raises(ConfigError, match="fast"):
            build(fast)

    @pytest.mark.parametrize("override", [True, False], ids=["fast", "dense"])
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    def test_fast_path_active_truth_table(self, override, forced):
        if forced:
            with force_dense():
                assert fused.fast_path_active(override) is False
        else:
            assert fused.fast_path_active(override) is override

    def test_force_dense_nests(self):
        with force_dense():
            with force_dense():
                assert fused.dense_forced()
            assert fused.dense_forced()
        assert not fused.dense_forced()

    def test_force_dense_is_thread_local(self):
        seen = []
        with force_dense():
            worker = threading.Thread(target=lambda: seen.append(fused.dense_forced()))
            worker.start()
            worker.join()
            assert fused.dense_forced()
        assert seen == [False]

    def test_force_dense_context(self, rng):
        c = DCTChopCompressor(32, cf=4, fast=True)
        with force_dense():
            assert not c._use_fast((2, 32, 32), np.float32, "compress")
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        with force_dense():
            inside = c.compress(x)
        assert np.array_equal(inside.data, c.compress(x).data)


def _custom_transform() -> np.ndarray:
    """A well-conditioned, non-orthonormal 8x8 transform."""
    rng = np.random.default_rng(11)
    return (np.eye(8) * 2.0 + 0.3 * rng.standard_normal((8, 8))).astype(np.float32)


def _grad_compressor(method: str, fast: bool, transform: str) -> object:
    """A 32x32 compressor; custom transforms ride on a private DC inner."""
    if transform == "dct":
        kw = {"s": 2} if method == "ps" else {}
        return make_compressor(32, method=method, cf=4, fast=fast, **kw)
    t = _custom_transform()
    if method == "dc":
        return DCTChopCompressor(32, cf=4, transform=t, fast=fast)
    if method == "ps":
        comp = PartialSerializedCompressor(32, cf=4, s=2, fast=fast)
        comp.inner = DCTChopCompressor(16, cf=4, transform=t, fast=fast)
    else:
        comp = ScatterGatherCompressor(32, cf=4, fast=fast)
        comp.inner = DCTChopCompressor(32, cf=4, transform=t, fast=fast)
    return comp


def _grad_roundtrip(comp, data: np.ndarray, g: np.ndarray):
    """compress -> decompress -> backward(g); returns (output, input grad)."""
    x = Tensor(data.copy(), requires_grad=True)
    out = comp.decompress(comp.compress(x))
    out.backward(g)
    return out.data.copy(), x.grad.copy()


GRAD_CASES = [
    (method, transform)
    for method in ("dc", "ps", "sg")
    for transform in ("dct", "custom")
]


class TestGradients:
    def test_fast_path_gradients_match_dense(self, rng):
        data = rng.standard_normal((2, 32, 32)).astype(np.float32)
        grads = {}
        for fast in (True, False):
            c = DCTChopCompressor(32, cf=4, fast=fast)
            x = Tensor(data.copy(), requires_grad=True)
            y = c.compress(x)
            y.sum().backward()
            grads[fast] = x.grad.copy()
        np.testing.assert_allclose(grads[True], grads[False], atol=1e-5)

    @pytest.mark.parametrize("method,transform", GRAD_CASES)
    def test_adjoint_identity(self, rng, method, transform):
        # Compression is linear: <compress(x), g> == <x, d/dx <compress(x), g>>,
        # and the same for decompress.
        comp = _grad_compressor(method, True, transform)
        x = Tensor(rng.standard_normal((2, 32, 32)).astype(np.float32), requires_grad=True)
        y = comp.compress(x)
        g = rng.standard_normal(y.shape).astype(np.float32)
        y.backward(g)
        np.testing.assert_allclose(
            np.vdot(y.data, g), np.vdot(x.data, x.grad), rtol=1e-4
        )
        z = Tensor(y.data.copy(), requires_grad=True)
        out = comp.decompress(z)
        h = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(h)
        np.testing.assert_allclose(
            np.vdot(out.data, h), np.vdot(z.data, z.grad), rtol=1e-4
        )

    @pytest.mark.parametrize("method,transform", GRAD_CASES)
    def test_fast_gradients_match_dense(self, rng, method, transform):
        data = rng.standard_normal((3, 32, 32)).astype(np.float32)
        g = rng.standard_normal(data.shape).astype(np.float32)
        out_f, grad_f = _grad_roundtrip(_grad_compressor(method, True, transform), data, g)
        out_d, grad_d = _grad_roundtrip(_grad_compressor(method, False, transform), data, g)
        assert np.array_equal(out_f, out_d)
        np.testing.assert_allclose(grad_f, grad_d, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("method,transform", GRAD_CASES)
    def test_tape_values_survive_interleaved_graphs(self, rng, method, transform):
        # Every graph is built before any backward runs: a saved value or
        # output reused across calls would be overwritten by a later forward.
        comp = _grad_compressor(method, True, transform)
        inputs = [rng.standard_normal((2, 32, 32)).astype(np.float32) for _ in range(4)]
        g = rng.standard_normal((2, 32, 32)).astype(np.float32)
        expected = [_grad_roundtrip(comp, x, g) for x in inputs]
        leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
        outs = [comp.decompress(comp.compress(leaf)) for leaf in leaves]
        for leaf, out, (ref_out, ref_grad) in zip(leaves, outs, expected):
            out.backward(g)
            assert np.array_equal(out.data, ref_out)
            assert np.array_equal(leaf.grad, ref_grad)

    @pytest.mark.parametrize("method,transform", GRAD_CASES)
    def test_grad_roundtrip_under_integrity_policy(self, rng, method, transform):
        # Armed ABFT checks every tiled GEMM, backward included; the clean
        # path stays byte-identical and detects nothing.
        from repro.integrity import IntegrityPolicy, detected, integrity_guards

        comp = _grad_compressor(method, True, transform)
        data = rng.standard_normal((2, 32, 32)).astype(np.float32)
        g = rng.standard_normal(data.shape).astype(np.float32)
        plain = _grad_roundtrip(comp, data, g)
        before = detected("gemm")
        with integrity_guards(IntegrityPolicy()):
            guarded = _grad_roundtrip(comp, data, g)
        assert detected("gemm") == before
        assert np.array_equal(guarded[0], plain[0])
        assert np.array_equal(guarded[1], plain[1])


class TestFaultSites:
    """The ``gemm`` SDC site and the ABFT guard live in the one GEMM hook."""

    def test_gemm_site_fires_twice_per_direction(self, rng):
        from repro.faults import FaultInjector, FaultPlan

        comp = make_compressor(32, cf=4, fast=True)
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        comp.decompress(comp.compress(x))  # probes run outside the injector
        plan = FaultPlan(seed=3).add("gemm", "sdc_bit_flip", after=10**6)
        with FaultInjector(plan) as inj:
            y = comp.compress(x)
            assert inj.events_seen("gemm") == 2
            comp.decompress(y)
            assert inj.events_seen("gemm") == 4

    # Each direction runs a plain GEMM (event 0) then one broadcast over
    # block rows (event 1); a flip in either product is corrected.
    @pytest.mark.parametrize(
        "direction,gemm",
        [
            pytest.param("compress", 1, id="compress"),
            pytest.param("decompress", 1, id="decompress"),
            pytest.param("compress", 0, id="compress-plain"),
            pytest.param("decompress", 0, id="decompress-plain"),
        ],
    )
    def test_abft_corrects_a_flip(self, rng, direction, gemm):
        from repro.faults import FaultInjector, FaultPlan
        from repro.integrity import IntegrityPolicy, integrity_guards, integrity_stats

        comp = make_compressor(32, cf=4, fast=True)
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        y = comp.compress(x).data.copy()
        fn, arg = (comp.compress, x) if direction == "compress" else (comp.decompress, y)
        clean = fn(arg).data.copy()
        before = integrity_stats().get("corrected:gemm", 0)
        plan = FaultPlan(seed=5).add("gemm", "sdc_bit_flip", after=gemm, times=1)
        with integrity_guards(IntegrityPolicy()), FaultInjector(plan) as inj:
            out = fn(arg).data.copy()
        assert [r.site for r in inj.records] == ["gemm"]
        assert integrity_stats().get("corrected:gemm", 0) == before + 1
        assert np.array_equal(out, clean)


class TestOperatorCache:
    def test_fused_operators_cached_and_readonly(self):
        a = fused_operators(8, 4)
        b = fused_operators(8, 4)
        assert a is b
        for arr in (a.enc_r, a.enc_l, a.dec_r, a.dec_l):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_kernels_never_alias_cached_operators(self, rng):
        ops = fused_operators(8, 4, np.float32)
        x = rng.standard_normal((2, 16, 16)).astype(np.float32)
        y = fused.tiled_compress_nd(x, ops)
        rec = fused.tiled_decompress_nd(y, ops)
        for out in (y, rec):
            assert out.flags.writeable
            for arr in (ops.enc_r, ops.enc_l, ops.dec_r, ops.dec_l):
                assert not np.shares_memory(out, arr)
        assert ops.enc_r.flags.writeable is False  # still frozen after use

    def test_cache_key_includes_dtype(self):
        a = fused_operators(8, 4, np.float32)
        b = fused_operators(8, 4, np.float64)
        assert a is not b
        assert b.enc_r.dtype == np.float64

    def test_cache_bounded(self):
        fused.clear_fused_cache()
        for cf in range(1, 9):
            for block in (8, 16, 24, 32, 40, 48, 56, 64):
                if cf <= block:
                    fused_operators(block, cf)
        assert fused.fused_cache_size() <= fused._FUSED_CACHE_CAPACITY
        fused.clear_fused_cache()
        assert fused.fused_cache_size() == 0

    def test_transform_matrices_not_copied_per_call(self):
        # No-copy regression guard on the transform cache: constructing
        # two compressors must reuse the same cached DCT bytes.
        from repro.core.dct import block_diagonal_dct, dct_matrix

        assert block_diagonal_dct(32) is block_diagonal_dct(32)
        assert dct_matrix(8) is dct_matrix(8)
        t1 = DCTChopCompressor(32, cf=4)._fops
        t2 = DCTChopCompressor(32, cf=4)._fops
        assert t1 is t2  # same FusedOps object from the shared cache


def _kernel(direction: str, rng, dtype):
    """An input and a one-argument tiled kernel call for ``direction``."""
    ops = fused_operators(8, 4, dtype)
    if direction == "compress":
        arg = rng.standard_normal((2, 16, 16)).astype(dtype)
        return arg, lambda a: fused.tiled_compress_nd(a, ops)
    arg = rng.standard_normal((2, 8, 8)).astype(dtype)
    return arg, lambda a: fused.tiled_decompress_nd(a, ops)


class TestFreshBuffers:
    """Each kernel and compressor call hands back a new array it owns."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("direction", ["compress", "decompress"])
    def test_each_call_returns_a_new_owned_array(self, rng, direction, dtype):
        arg, run = _kernel(direction, rng, dtype)
        first = run(arg)
        kept = first.copy()
        second = run(arg)
        for out in (first, second):
            assert out.dtype == dtype
            assert out.flags.writeable and out.flags.c_contiguous
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        run(rng.standard_normal(arg.shape).astype(dtype))
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("direction", ["compress", "decompress"])
    def test_input_is_neither_aliased_nor_written(self, rng, direction):
        arg, run = _kernel(direction, rng, np.float32)
        kept = arg.copy()
        out = run(arg)
        assert not np.shares_memory(out, arg)
        assert np.array_equal(arg, kept)

    @pytest.mark.parametrize("direction", ["compress", "decompress"])
    def test_strided_input_matches_contiguous(self, rng, direction):
        arg, run = _kernel(direction, rng, np.float32)
        backing = np.zeros(arg.shape[:-1] + (2 * arg.shape[-1],), np.float32)
        strided = backing[..., ::2]
        strided[...] = arg
        assert not strided.flags.c_contiguous
        assert np.array_equal(run(strided), run(arg))

    @pytest.mark.parametrize("method", list(CONSTRUCTORS))
    def test_results_survive_later_calls(self, rng, method):
        build, n = CONSTRUCTORS[method]
        comp = build(True)
        x = rng.standard_normal((2, n, n)).astype(np.float32)
        y = comp.compress(x).data
        rec = comp.decompress(y).data
        y_kept, rec_kept = y.copy(), rec.copy()
        for _ in range(4):
            other = rng.standard_normal(x.shape).astype(np.float32)
            comp.decompress(comp.compress(other))
        assert np.array_equal(y, y_kept)
        assert np.array_equal(rec, rec_kept)
        assert not np.shares_memory(y, comp.compress(x).data)
        assert not np.shares_memory(rec, comp.decompress(y).data)


class TestTracingStaysDense:
    def test_traced_graph_is_two_matmuls_with_fast_enabled(self):
        # The tiled path must never leak into the captured device program.
        from repro.accel.graph import trace

        c = DCTChopCompressor(64, cf=4, fast=True)
        x = np.zeros((2, 64, 64), dtype=np.float32)
        graph = trace(c.compress, x)
        assert graph.op_names == ["matmul", "matmul"]

    def test_compiled_program_runs_fast_path_bit_identically(self, rng):
        from repro.accel.compiler import compile_program

        c = DCTChopCompressor(64, cf=4, fast=True)
        dense = DCTChopCompressor(64, cf=4, fast=False)
        x = rng.standard_normal((2, 64, 64)).astype(np.float32)
        prog = compile_program(c.compress, (x,), "a100")
        out = prog.run(x).output
        assert np.array_equal(out.data, dense.compress(x).data)


class TestConcurrentProbes:
    """Satellite: the probe-verdict cache and the global probe counters
    are shared mutable state; concurrent first-touch traffic must not
    lose updates or double-probe."""

    def test_concurrent_fresh_shapes_probe_exactly_once_each(self, rng):
        import threading

        c = DCTChopCompressor(16, cf=2, fast=True)
        probes = []
        probe_lock = threading.Lock()
        original = c._probe

        def counting_probe(direction, shape, dtype):
            with probe_lock:
                probes.append((direction, shape))
            return original(direction, shape, dtype)

        c._probe = counting_probe
        inputs = [
            rng.standard_normal((batch, 16, 16)).astype(np.float32)
            for batch in range(1, 9)
        ]
        errors = []
        barrier = threading.Barrier(8)

        def hammer(x):
            try:
                barrier.wait()
                for _ in range(5):
                    c.compress(x)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(x,)) for x in inputs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # One probe per distinct lead shape — the verdict lock must hold
        # across probe + insert, or racing threads re-probe.
        assert len(probes) == len(set(probes)) == 8
        assert len(c._verdicts) == 8

    def test_probe_counters_lose_no_updates(self):
        import threading

        before = fused.fast_path_stats()
        rounds, threads_n = 50, 8

        def spin():
            for i in range(rounds):
                fused.record_probe(i % 2 == 0)

        threads = [threading.Thread(target=spin) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = fused.fast_path_stats()
        gained = (after["pass"] - before["pass"]) + (after["fail"] - before["fail"])
        assert gained == rounds * threads_n
        assert after["pass"] - before["pass"] == rounds * threads_n // 2

    def test_stats_snapshot_is_a_copy(self):
        snap = fused.fast_path_stats()
        snap["pass"] += 1000
        assert fused.fast_path_stats()["pass"] != snap["pass"]
