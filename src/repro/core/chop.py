"""Baseline **DCT+Chop** compressor (paper Sections 3.2-3.4).

Compression of a plane ``A`` is ``Y = LHS @ A @ RHS`` with the two
operands precomputed at construction ("compile") time:

* ``LHS = M @ T_L``           — shape ``(CF*H/8, H)``
* ``RHS = T_L^T @ M^T``       — shape ``(W, CF*W/8)``

Decompression swaps the operands: ``A' = RHS_d @ Y @ LHS_d`` where
``RHS_d = LHS.T`` and ``LHS_d = RHS.T`` (Eq. 6).  Batches and channels ride
along for free through broadcasting: an input of shape ``(BD, C, H, W)``
is ``BD*C*H*W/64`` independent block transforms executed as two matmuls,
exactly the paper's PyTorch listing::

    Y = torch.matmul(LHS, torch.matmul(A, RHS))
    A_prime = torch.matmul(RHS_d, torch.matmul(Y, LHS_d))
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

import repro.tensor as rt
from repro.core import flops as flops_mod
from repro.core import fused
from repro.core.dct import DEFAULT_BLOCK, block_diagonal_dct
from repro.core.mask import chop_mask
from repro.errors import ConfigError, ShapeError, require_bool, require_int
from repro.faults.injector import suspend_faults
from repro.obs.profile import profiled
from repro.tensor import Tensor, no_grad

# Probe verdicts cached per compressor; bounded so a pathological caller
# cycling through batch shapes cannot grow it without limit.
_VERDICT_CAP = 256


def _block_diagonal(mat: np.ndarray, n: int) -> np.ndarray:
    """Tile ``mat`` (b x b) along the diagonal of an ``n x n`` zero matrix."""
    b = mat.shape[0]
    out = np.zeros((n, n), dtype=np.float32)
    for k in range(n // b):
        out[k * b : (k + 1) * b, k * b : (k + 1) * b] = mat
    return out


class ProbedFastPath:
    """Probe-gated dispatch between the tiled kernels and a dense oracle.

    Shared by the compressors whose fast path is one tiled kernel call
    (DC, and PS, whose oracle is its chunked dense program).  Subclasses
    set ``cf``/``block`` and the four kernels ``_compress_dense``,
    ``_compress_tiled``, ``_decompress_dense`` and ``_decompress_tiled``.
    """

    def _init_fast_path(self, fast: bool) -> None:
        self._fast = require_bool("fast", fast)
        # (direction, lead shape, dtype) -> probe verdict
        # (True = fast ok).  The lock serializes probe-and-insert: without
        # it, concurrent first-calls on one shape probe twice and racing
        # inserts can evict live verdicts mid-update.
        self._verdicts: OrderedDict[tuple, bool] = OrderedDict()
        self._verdict_lock = threading.Lock()

    def _use_fast(self, shape: tuple[int, ...], dtype, direction: str) -> bool:
        """Whether this exact call shape runs the tiled kernels.

        True only when the fast path is enabled *and* the seeded
        equivalence probe has proven this ``(direction, batch, dtype)``
        bit-identical to the dense oracle.  Verdicts are cached (bounded).
        The lock is held across the probe itself so concurrent first-calls
        on one shape cannot probe it twice.
        """
        if not fused.fast_path_active(self._fast):
            return False
        key = (direction, shape[:-2], np.dtype(dtype).str)
        with self._verdict_lock:
            verdict = self._verdicts.get(key)
            if verdict is None:
                verdict = self._probe(direction, shape, dtype)
                fused.record_probe(verdict)
                while len(self._verdicts) >= _VERDICT_CAP:
                    self._verdicts.popitem(last=False)
                self._verdicts[key] = verdict
        return verdict

    def _probe(self, direction: str, shape: tuple[int, ...], dtype) -> bool:
        """Run dense and tiled on seeded data of this shape; compare bytes.

        Runs with fault injection suspended: a scripted SDC flip landing in
        the probe's tiled leg would fail the comparison and wrongly pin the
        shape dense forever (besides desynchronising the fault script).
        """
        data = fused.probe_input(
            shape, dtype, cf=self.cf, block=self.block, direction=direction
        )
        with suspend_faults(), no_grad():
            t = Tensor(data, dtype=data.dtype)
            if direction == "compress":
                dense = self._compress_dense(t).data
                tiled = self._compress_tiled(t).data
            else:
                dense = self._decompress_dense(t).data
                tiled = self._decompress_tiled(t).data
        return np.array_equal(dense, tiled)

    def _run_compress(self, x: Tensor) -> Tensor:
        """The tiled kernel when probe-verified, else the dense oracle.

        Non-finite inputs are detected on the (small) compressed result —
        IEEE propagation guarantees a poisoned plane yields non-finite
        retained coefficients — and re-routed to the dense oracle, whose
        ``0 * inf`` row-poisoning *is* the contractual output.
        """
        if not self._use_fast(x.shape, x.dtype, "compress"):
            return self._compress_dense(x)
        result = self._compress_tiled(x)
        if fused.has_nonfinite(result.data):
            return self._compress_dense(x)
        return result

    def _run_decompress(self, y: Tensor) -> Tensor:
        # The input *is* the small compressed side — check it directly.
        if fused.has_nonfinite(y.data) or not self._use_fast(y.shape, y.dtype, "decompress"):
            return self._decompress_dense(y)
        return self._decompress_tiled(y)


class DCTChopCompressor(ProbedFastPath):
    """Fixed-shape DCT+Chop compressor for planes of size ``height x width``.

    Shapes are fixed at construction because every target accelerator's
    compiler requires tensor sizes at compile time (Section 3.1); the
    compression ratio therefore cannot vary sample-to-sample.

    Parameters
    ----------
    height, width:
        Plane resolution.  ``width`` defaults to ``height``.  Both must be
        multiples of ``block``.
    cf:
        Chop factor in ``[1, block]``; the paper evaluates 2..7.
    block:
        Transform block size (8 in the paper / JPEG).
    transform:
        Optional custom ``block x block`` decorrelating transform replacing
        DCT-II (the paper's future-work suggestion of the ZFP block
        transform).  Must be invertible; decompression uses its inverse, so
        a non-orthonormal transform still round-trips exactly at CF=block.
    fast:
        ``True`` (default) runs the tiled fast path; ``False`` pins this
        instance to the dense oracle.  Even when enabled, a shape only
        uses the fast path after a seeded equivalence probe proves it
        bit-identical to the dense oracle, and never inside
        :func:`repro.core.fused.force_dense` — see :mod:`repro.core.fused`.
        Anything but a bool raises :class:`ConfigError`.
    """

    method = "dc"

    def __init__(
        self,
        height: int,
        width: int | None = None,
        *,
        cf: int = 4,
        block: int = DEFAULT_BLOCK,
        transform: np.ndarray | None = None,
        fast: bool = True,
    ) -> None:
        height = require_int("height", height)
        width = height if width is None else require_int("width", width)
        block = require_int("block", block)
        cf = require_int("cf", cf)
        if not 1 <= cf <= block:
            raise ConfigError(f"chop factor must be in [1, {block}], got {cf}")
        if height % block or width % block:
            raise ConfigError(
                f"resolution {height}x{width} must be a multiple of block {block}"
            )
        self.height = height
        self.width = width
        self.cf = cf
        self.block = block
        self._init_fast_path(fast)

        # "Computed offline ... during compilation" (Section 3.3).
        # Forward (per block): D = T A T^T; inverse: A = S D S^T with
        # S = T^-1 (equal to T^T for the orthonormal DCT-II).
        if transform is None:
            t_h = block_diagonal_dct(self.height, block)
            t_w = block_diagonal_dct(self.width, block)
            s_h, s_w = t_h.T, t_w.T
        else:
            transform = np.asarray(transform, dtype=np.float32)
            if transform.shape != (block, block):
                raise ConfigError(
                    f"custom transform must be {block}x{block}, got {transform.shape}"
                )
            inv = np.linalg.inv(transform.astype(np.float64)).astype(np.float32)
            t_h = _block_diagonal(transform, self.height)
            t_w = _block_diagonal(transform, self.width)
            s_h = _block_diagonal(inv, self.height)
            s_w = _block_diagonal(inv, self.width)
        m_h = chop_mask(self.height, cf, block)
        m_w = chop_mask(self.width, cf, block)
        # Compression: Y = (M_h T_h) A (T_w^T M_w^T).
        self._lhs = Tensor(np.ascontiguousarray(m_h @ t_h))
        self._rhs = Tensor(np.ascontiguousarray(t_w.T @ m_w.T))
        # Decompression: A' = (S_h M_h^T) Y (M_w S_w^T) — for the DCT these
        # are exactly the transposes of the compression operands (Eq. 6).
        self._rhs_d = Tensor(np.ascontiguousarray(s_h @ m_h.T))
        self._lhs_d = Tensor(np.ascontiguousarray(m_w @ s_w.T))
        # make_compressor shares instances process-wide (the scrub oracle
        # included), so the operands are read-only like the fused pairs.
        for operand in (self._lhs, self._rhs, self._rhs_d, self._lhs_d):
            operand.data.flags.writeable = False

        # Tiled fast path: one fused (cf x block) operator pair per side
        # instead of the dense block-diagonal operands.  For the DCT the
        # pair comes from the shared (block, cf, dtype) cache; a custom
        # transform slices its own dense operands (bitwise the same block).
        if transform is None:
            ops = fused.fused_operators(self.block, self.cf, np.float32)
        else:
            ops = fused.from_dense_operands(
                self._lhs.data, self._rhs.data, self._rhs_d.data, self._lhs_d.data,
                self.block, self.cf,
            )
        self._fops = ops
        # Backward of either direction runs the other kernel with these.
        self._adj = fused.adjoint(ops)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lhs(self) -> np.ndarray:
        """``M @ T_L`` (compression left operand)."""
        return self._lhs.data

    @property
    def rhs(self) -> np.ndarray:
        """``T_L^T @ M^T`` (compression right operand)."""
        return self._rhs.data

    @property
    def compressed_height(self) -> int:
        return self.cf * self.height // self.block

    @property
    def compressed_width(self) -> int:
        return self.cf * self.width // self.block

    def compressed_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Output shape for a given ``(..., H, W)`` input shape."""
        self._check_plane(input_shape)
        return input_shape[:-2] + (self.compressed_height, self.compressed_width)

    @property
    def ratio(self) -> float:
        """Compression ratio ``block^2 / cf^2`` (Eq. 3)."""
        return flops_mod.compression_ratio(self.cf, self.block)

    def flops_compress(self) -> float:
        """Per-plane FLOPs (Eq. 5); only exact for square planes."""
        return flops_mod.compression_flops(self.height, self.cf, self.block)

    def flops_decompress(self) -> float:
        """Per-plane FLOPs (Eq. 7)."""
        return flops_mod.decompression_flops(self.height, self.cf, self.block)

    # ------------------------------------------------------------------
    # Compress / decompress
    # ------------------------------------------------------------------
    def _check_plane(self, shape: tuple[int, ...]) -> None:
        if len(shape) < 2:
            raise ShapeError(f"expected at least 2-D input, got shape {shape}")
        if shape[-2] != self.height or shape[-1] != self.width:
            raise ShapeError(
                f"compressor compiled for {self.height}x{self.width} planes, "
                f"got {shape[-2]}x{shape[-1]} (static shapes are required at "
                "compile time on all target accelerators)"
            )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    # NaN/Inf inputs are contractual on the dense oracle (see fused.py),
    # so its ``0 * inf`` products stay silent.
    def _compress_dense(self, x: Tensor) -> Tensor:
        with np.errstate(invalid="ignore"):
            return rt.matmul(self._lhs, rt.matmul(x, self._rhs))

    def _decompress_dense(self, y: Tensor) -> Tensor:
        with np.errstate(invalid="ignore"):
            return rt.matmul(self._rhs_d, rt.matmul(y, self._lhs_d))

    def _compress_tiled(self, x: Tensor) -> Tensor:
        return fused.TiledCompress.apply(x, ops=self._fops, adj=self._adj)

    def _decompress_tiled(self, y: Tensor) -> Tensor:
        return fused.TiledDecompress.apply(y, ops=self._fops, adj=self._adj)

    @profiled("core.dc.compress", matmuls=2)
    def compress(self, x) -> Tensor:
        """``Y = LHS @ A @ RHS`` over every leading batch/channel dim.

        Executed via the tiled fast path when enabled and probe-verified
        for this shape (bit-identical output either way); the dense
        two-matmul form remains the oracle and the traced device program.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        self._check_plane(x.shape)
        return self._run_compress(x)

    @profiled("core.dc.decompress", matmuls=2)
    def decompress(self, y) -> Tensor:
        """``A' = RHS_d @ Y @ LHS_d`` (Eq. 6)."""
        y = y if isinstance(y, Tensor) else Tensor(y)
        if y.shape[-2] != self.compressed_height or y.shape[-1] != self.compressed_width:
            raise ShapeError(
                f"expected compressed planes of "
                f"{self.compressed_height}x{self.compressed_width}, got {y.shape}"
            )
        return self._run_decompress(y)

    def roundtrip(self, x) -> Tensor:
        """Compress then decompress — the per-batch op used during training."""
        return self.decompress(self.compress(x))

    def __repr__(self) -> str:
        return (
            f"DCTChopCompressor(height={self.height}, width={self.width}, "
            f"cf={self.cf}, block={self.block}, ratio={self.ratio:.2f})"
        )
