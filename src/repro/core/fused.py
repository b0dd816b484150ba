"""Tiled fast path: block-diagonal kernels for the compressor hot loop.

The paper's pitch is that DCT+Chop is "exactly two matrix multiplications"
— but the host-side reference realises ``Y = (M T_L) A (T_L^T M^T)`` with
dense ``n x n`` operands, an O(n^3)-per-plane computation even though the
block-diagonal structure only ever mixes values inside one ``8 x 8`` tile.
This module provides the O(n^2 * block) equivalent with one precomputed
``(cf, block)`` / ``(block, cf)`` operator per side (Eq. 4/6, Sec. 3.3):
the same two GEMMs, with the block-diagonal operand applied as one small
block, and no layout shuffles in between.

Compress ``(..., H, W) -> (..., cf*nbh, cf*nbw)``:

1. column transform: ``x.reshape(-1, B) @ enc_r`` — contiguous, and it
   lands in ``(..., H, nbw*cf)``;
2. row transform: ``enc_l @ g.reshape(-1, B, nbw*cf)``, the ``(cf, B)``
   operator broadcast over block rows — it lands directly in the dense
   compressed layout.

Decompress runs the same two steps with ``dec_r`` then ``dec_l``, column
inverse first (the dense evaluation order), landing in the plane layout.

Bit-identity with the dense path
--------------------------------
Both paths accumulate exactly the same nonzero products in the same
ascending-k order (the dense operand rows are zero outside one block, and
adding an exact zero never changes an IEEE-754 partial sum), so on most
shapes the tiled result is bit-identical to the dense one.  BLAS kernel
*selection*, however, depends on the GEMM dimensions, and edge-case
kernels can round differently — so bit-identity is shape-dependent, not
guaranteed a priori.  The compressors therefore run a seeded equivalence
probe the first time a new ``(direction, batch-shape, dtype)`` appears:
dense and tiled results are compared bit-for-bit on deterministic probe
data, and on any mismatch that shape is pinned to the dense path.  The
outcome is cached, so the guarantee "compressor output == dense-path
output, bitwise" holds for every shape by construction.

The dense path remains available as the oracle in exactly two ways:
per-compressor via ``fast=False``, and temporarily on one thread via the
:func:`force_dense` context manager (the accelerator tracer uses it so
compiled graphs and modelled timings keep the paper's two-matmul shape).

Fused operators are cached per ``(block, cf, dtype)`` as read-only arrays
behind a lock; :func:`clear_fused_cache` resets the cache for tests.

Non-finite inputs
-----------------
The dense path multiplies other blocks' values by exact zeros, so a
non-finite value poisons its whole plane row (``0 * inf = nan``) — an
artifact of the dense realisation the tiled kernels do not reproduce.
The compressors therefore detect non-finite data (:func:`has_nonfinite`)
and pin those calls to the dense oracle, so fast and dense outputs agree
on NaN/Inf data too.  Detection exploits IEEE-754 propagation: any
product involving a non-finite operand is non-finite (``0 * inf`` and
``0 * nan`` are both NaN) and stays non-finite through summation, so a
non-finite plane always yields non-finite retained coefficients — the
*compressed-side* array (compress output / decompress input) is checked,
which is ``cf^2/block^2`` of the plane data.

One kernel family
-----------------
:func:`tiled_compress_nd` / :func:`tiled_decompress_nd` are the only
tiled kernels, and every method runs them on whole planes.  Each call
allocates its intermediate and its output fresh, and issues both GEMMs
through one hook, :func:`_gemm`, so the ``gemm`` SDC site and the ABFT
checksum (:mod:`repro.integrity.abft`) guard the same path plain traffic
runs.  Training uses them too:
:class:`TiledCompress` / :class:`TiledDecompress` wrap each direction as
one autograd op whose backward is the *other* direction's kernel run with
the transposed operators (:func:`adjoint`) — compression is linear, and
Eq. 6 already transposes the operands, so for the DCT the adjoint
operators are exactly the existing ones.
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

import repro.tensor as rt
from repro.errors import ConfigError
from repro.faults.injector import active_injector, corrupt_buffer
from repro.integrity import abft as _abft
from repro.integrity import policy as _integrity
from repro.tensor.tensor import DEFAULT_DTYPE as _DEFAULT_DTYPE

# ----------------------------------------------------------------------
# Fast-path switch
# ----------------------------------------------------------------------
_dense_state = threading.local()


def dense_forced() -> bool:
    """True inside a :func:`force_dense` block (thread-local)."""
    return getattr(_dense_state, "depth", 0) > 0


@contextlib.contextmanager
def force_dense():
    """Run with the dense oracle path, regardless of flags.

    The accelerator tracer wraps program capture in this context so the
    compiled graph is the paper's two-matmul kernel — the tiled fast path
    is a host-side execution strategy, never a different device program.
    """
    _dense_state.depth = getattr(_dense_state, "depth", 0) + 1
    try:
        yield
    finally:
        _dense_state.depth -= 1


def fast_path_active(override: bool) -> bool:
    """Whether a compressor built with ``fast=override`` runs tiled now."""
    return override and not dense_forced()


# ----------------------------------------------------------------------
# Probe bookkeeping (module-level counters; cheap, no registry coupling)
# ----------------------------------------------------------------------
_probe_stats = {"pass": 0, "fail": 0}
# Guards the counters: += on a shared dict is a read-modify-write, and
# concurrent probes (threaded serving) would lose updates without it.  The compressors' per-instance verdict locks
# serialize the probes themselves; this lock keeps the global tally
# consistent across compressor instances.
_probe_lock = threading.Lock()


def record_probe(ok: bool) -> None:
    with _probe_lock:
        _probe_stats["pass" if ok else "fail"] += 1


def fast_path_stats() -> dict[str, int]:
    """``{"pass": ..., "fail": ...}`` equivalence-probe outcomes so far."""
    with _probe_lock:
        return dict(_probe_stats)


def has_nonfinite(arr: np.ndarray) -> bool:
    """True when ``arr`` contains NaN or ±Inf (cheap two-reduction check).

    ``min + max`` is non-finite iff the array holds a non-finite value —
    except for a near-overflow false positive (``|min| + |max|`` past the
    dtype maximum), which is safe here: callers route flagged data to the
    dense oracle, and the oracle is correct for every input.
    """
    if arr.size == 0 or arr.dtype.kind not in "fc":
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        extremes = arr.min() + arr.max()
    return not np.isfinite(extremes)


# ----------------------------------------------------------------------
# Fused operator cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusedOps:
    """Per-block operator pair for one ``(block, cf)`` configuration.

    All arrays are contiguous and read-only, oriented the way the tiled
    kernels consume them (``x @ enc_r``, then ``enc_l @ g``):

    * ``enc_r`` — ``T^T M_b^T``  ``(block, cf)``  column transform
    * ``enc_l`` — ``M_b T``      ``(cf, block)``  row transform
    * ``dec_r`` — ``M_b S^T``    ``(cf, block)``  column inverse
    * ``dec_l`` — ``S M_b^T``    ``(block, cf)``  row inverse

    For the orthonormal DCT ``S = T^T`` and the four collapse to slices
    of ``T``; custom transforms keep all four distinct.
    """

    block: int
    cf: int
    enc_r: np.ndarray
    enc_l: np.ndarray
    dec_r: np.ndarray
    dec_l: np.ndarray


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def from_dense_operands(
    lhs: np.ndarray,
    rhs: np.ndarray,
    rhs_d: np.ndarray,
    lhs_d: np.ndarray,
    block: int,
    cf: int,
) -> FusedOps:
    """Slice the per-block operators out of the dense block-diagonal ones.

    The dense operands repeat one ``(cf, block)`` / ``(block, cf)`` block
    along the diagonal, so the top-left block *is* the fused operator —
    bitwise, by construction.  This also covers custom transforms, whose
    inverse is not the transpose.
    """
    return FusedOps(
        block=block,
        cf=cf,
        enc_r=_freeze(rhs[:block, :cf]),
        enc_l=_freeze(lhs[:cf, :block]),
        dec_r=_freeze(lhs_d[:cf, :block]),
        dec_l=_freeze(rhs_d[:block, :cf]),
    )


def adjoint(ops: FusedOps) -> FusedOps:
    """The operator pair of the transposed maps (read-only, contiguous).

    Compress ``Y = L X R`` has adjoint ``dX = L^T dY R^T``, which is the
    decompress kernel with ``dec_l = enc_l^T`` and ``dec_r = enc_r^T``;
    symmetrically for decompress.  For the orthonormal DCT the result
    equals ``ops`` itself; custom transforms get their true adjoint.
    """
    return FusedOps(
        block=ops.block,
        cf=ops.cf,
        enc_r=_freeze(ops.dec_r.T),
        enc_l=_freeze(ops.dec_l.T),
        dec_r=_freeze(ops.enc_r.T),
        dec_l=_freeze(ops.enc_l.T),
    )


_FUSED_CACHE_CAPACITY = 64
_fused_cache: OrderedDict[tuple, FusedOps] = OrderedDict()
_fused_lock = threading.RLock()


def fused_operators(block: int = 8, cf: int = 4, dtype=np.float32) -> FusedOps:
    """The fused DCT operator pair for ``(block, cf, dtype)``, cached.

    Returned arrays are shared, read-only views — callers must not write
    to them (mutating would corrupt every compressor built afterwards).
    The cache is bounded and lock-guarded; see :func:`clear_fused_cache`.
    """
    if not 1 <= cf <= block:
        raise ConfigError(f"chop factor must be in [1, {block}], got {cf}")
    key = (int(block), int(cf), np.dtype(dtype).str)
    with _fused_lock:
        ops = _fused_cache.get(key)
        if ops is not None:
            _fused_cache.move_to_end(key)
            return ops
    # Build outside the lock (cheap, but keeps the critical section tiny);
    # a concurrent first call may build twice — the first insert wins.
    from repro.core.dct import dct_matrix

    t = dct_matrix(block).astype(dtype, copy=True)
    ops = FusedOps(
        block=int(block),
        cf=int(cf),
        enc_r=_freeze(t[:cf].T),
        enc_l=_freeze(t[:cf]),
        dec_r=_freeze(t[:cf]),
        dec_l=_freeze(t[:cf].T),
    )
    with _fused_lock:
        existing = _fused_cache.get(key)
        if existing is not None:
            _fused_cache.move_to_end(key)
            return existing
        _fused_cache[key] = ops
        while len(_fused_cache) > _FUSED_CACHE_CAPACITY:
            _fused_cache.popitem(last=False)
    return ops


def clear_fused_cache() -> None:
    """Drop every cached fused operator pair (test hook)."""
    with _fused_lock:
        _fused_cache.clear()


def fused_cache_size() -> int:
    with _fused_lock:
        return len(_fused_cache)


# ----------------------------------------------------------------------
# Tiled kernels
# ----------------------------------------------------------------------
def _gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """One tiled-kernel GEMM ``out = a @ b``, routed through the guards.

    Plain ``np.matmul(out=)`` when nothing is armed.  An armed integrity
    policy checks the product with ABFT (:mod:`repro.integrity.abft`);
    an armed fault injector may strike it at the ``gemm`` SDC site.  The
    product has the same shape and element order either way, so a seeded
    flip lands on the same element whichever guard is armed.
    """
    policy = _integrity._POLICY
    if policy is not None and policy.abft:
        np.copyto(out, _abft.checked_matmul(a, b, policy=policy))
        return
    np.matmul(a, b, out=out)
    if active_injector() is not None:
        struck = corrupt_buffer("gemm", out)
        if struck is not out:
            np.copyto(out, struck)


def _ingest(arr: np.ndarray) -> np.ndarray:
    """Contiguous, with float64 cast to the library's float32 default
    (the Tensor library never runs a float64 GEMM either)."""
    if arr.dtype == np.float64:
        arr = arr.astype(_DEFAULT_DTYPE)
    return np.ascontiguousarray(arr)


def tiled_compress_nd(x: np.ndarray, ops: FusedOps) -> np.ndarray:
    """``(..., H, W) -> (..., cf*nbh, cf*nbw)`` via two GEMMs."""
    block, cf = ops.block, ops.cf
    x = _ingest(x)
    lead = x.shape[:-2]
    nbh = x.shape[-2] // block
    nbw = x.shape[-1] // block
    rdtype = np.result_type(x.dtype, ops.enc_r.dtype)
    g = np.empty((math.prod(lead) * nbh, block, nbw * cf), rdtype)
    out = np.empty(lead + (cf * nbh, cf * nbw), rdtype)
    with np.errstate(invalid="ignore"):
        # Column transform: (rows*B*nbw, B) @ (B, cf) -> (..., H, nbw*cf).
        _gemm(x.reshape(-1, block), ops.enc_r, g.reshape(-1, cf))
        # Row transform, (cf, B) broadcast over block rows.
        _gemm(ops.enc_l, g, out.reshape(-1, cf, nbw * cf))
    return out


def tiled_decompress_nd(y: np.ndarray, ops: FusedOps) -> np.ndarray:
    """Inverse of :func:`tiled_compress_nd`: ``(..., cf*nbh, cf*nbw) -> (..., H, W)``."""
    block, cf = ops.block, ops.cf
    y = _ingest(y)
    lead = y.shape[:-2]
    nbh = y.shape[-2] // cf
    nbw = y.shape[-1] // cf
    rdtype = np.result_type(y.dtype, ops.dec_r.dtype)
    g = np.empty((math.prod(lead) * nbh, cf, nbw * block), rdtype)
    out = np.empty(lead + (nbh * block, nbw * block), rdtype)
    with np.errstate(invalid="ignore"):
        # Column inverse first (the dense evaluation order):
        # (rows*cf*nbw, cf) @ (cf, B) -> (..., cf*nbh, W).
        _gemm(y.reshape(-1, cf), ops.dec_r, g.reshape(-1, block))
        # Row inverse, (B, cf) broadcast over block rows.
        _gemm(ops.dec_l, g, out.reshape(-1, block, nbw * block))
    return out


# ----------------------------------------------------------------------
# Autograd: one op per direction, backward = the other direction
# ----------------------------------------------------------------------
class TiledCompress(rt.Function):
    """Differentiable :func:`tiled_compress_nd`.

    Compression ``Y = L X R`` is linear, so ``dX = L^T dY R^T``: the
    decompress kernel run with the adjoint operators (:func:`adjoint`).
    """

    def forward(self, x, *, ops: FusedOps, adj: FusedOps):
        self.save(adj)
        return tiled_compress_nd(x, ops)

    def backward(self, grad):
        (adj,) = self.saved
        return (tiled_decompress_nd(grad, adj),)


class TiledDecompress(rt.Function):
    """Differentiable :func:`tiled_decompress_nd`; backward is compress
    with the adjoint operators."""

    def forward(self, y, *, ops: FusedOps, adj: FusedOps):
        self.save(adj)
        return tiled_decompress_nd(y, ops)

    def backward(self, grad):
        (adj,) = self.saved
        return (tiled_compress_nd(grad, adj),)


def probe_input(shape: tuple[int, ...], dtype, *, cf: int, block: int, direction: str) -> np.ndarray:
    """Deterministic probe data for one equivalence check.

    Seeded from the full call shape and the compressor configuration so
    every process, thread, and run probes with identical bytes.
    """
    tag = 0 if direction == "compress" else 1
    seed = [tag, int(cf), int(block), *(int(d) for d in shape)]
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape) * 8.0
    return data.astype(dtype, copy=False)
