"""**Partial serialization** optimisation (paper Section 3.5.1, Fig. 5).

An input batch ``BD x C x n x n`` is subdivided by a factor ``s`` into
``s x s`` spatial chunks of ``n/s x n/s``.  The chunks are processed
*serially* with a DC compressor compiled for the chunk resolution, so the
``LHS``/``RHS`` operands shrink by ``s`` per side and the on-chip working
set by ``s*s`` — this is what lets 512x512 inputs compile on SN30 and IPU.

The chunk loop is a device-memory strategy: on the host the block
transform never crosses a chunk edge, so the tiled fast path runs one
whole-plane kernel call.  The serial chunk loop stays as the dense oracle
(and the traced device program); the seeded probe and the non-finite pin
compare against it, not against whole-plane dense DC, whose float
accumulation differs from the chunked program on some shapes.
"""

from __future__ import annotations

import repro.tensor as rt
from repro.core.chop import ProbedFastPath
from repro.core.dct import DEFAULT_BLOCK
from repro.errors import ConfigError, ShapeError, require_int
from repro.obs.profile import profiled
from repro.tensor import Tensor


class PartialSerializedCompressor(ProbedFastPath):
    """DC compressor applied serially to ``s x s`` spatial subdivisions."""

    method = "ps"

    def __init__(
        self,
        height: int,
        width: int | None = None,
        *,
        cf: int = 4,
        s: int = 2,
        block: int = DEFAULT_BLOCK,
        fast: bool = True,
    ) -> None:
        height = require_int("height", height)
        width = height if width is None else require_int("width", width)
        s = require_int("subdivision factor s", s)
        block = require_int("block", block)
        if height % s or width % s:
            raise ConfigError(f"resolution {height}x{width} not divisible by s={s}")
        if (height // s) % block or (width // s) % block:
            raise ConfigError(
                f"chunk resolution {height // s}x{width // s} must be a "
                f"multiple of block {block}"
            )
        self.height = height
        self.width = width
        self.s = s
        # The device only ever sees the chunk-resolution compressor: its
        # dense operands are the oracle's, and its fused operators are the
        # whole-plane kernel's (the per-block operators do not depend on
        # the plane size).  Shared DC instance (lazy import: api imports us).
        from repro.core.api import make_compressor

        self.inner = make_compressor(height // s, width // s, cf=cf, block=block, fast=fast)
        self._init_fast_path(fast)

    @property
    def cf(self) -> int:
        return self.inner.cf

    @property
    def block(self) -> int:
        return self.inner.block

    @property
    def ratio(self) -> float:
        return self.inner.ratio

    @property
    def num_chunks(self) -> int:
        return self.s * self.s

    @property
    def compressed_height(self) -> int:
        return self.inner.compressed_height * self.s

    @property
    def compressed_width(self) -> int:
        return self.inner.compressed_width * self.s

    def compressed_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        self._check(input_shape, self.height, self.width)
        return input_shape[:-2] + (self.compressed_height, self.compressed_width)

    @staticmethod
    def _check(shape: tuple[int, ...], h: int, w: int) -> None:
        if len(shape) < 2 or shape[-2] != h or shape[-1] != w:
            raise ShapeError(f"expected (..., {h}, {w}) input, got {shape}")

    def _map_chunks(self, fn, t: Tensor, ch: int, cw: int) -> Tensor:
        """Apply ``fn`` to each ``ch x cw`` chunk serially, row-major, and
        reassemble the results in the same spatial grid."""
        parts = [
            fn(t[..., r * ch : (r + 1) * ch, c * cw : (c + 1) * cw])
            for r in range(self.s)
            for c in range(self.s)
        ]
        rows = [
            rt.concatenate(parts[r * self.s : (r + 1) * self.s], axis=-1)
            for r in range(self.s)
        ]
        return rt.concatenate(rows, axis=-2)

    # The serial chunk program is the oracle; the fast path is one
    # whole-plane tiled call with the chunk compressor's operators.
    def _compress_dense(self, x: Tensor) -> Tensor:
        return self._map_chunks(
            self.inner._compress_dense, x, self.inner.height, self.inner.width
        )

    def _decompress_dense(self, y: Tensor) -> Tensor:
        return self._map_chunks(
            self.inner._decompress_dense, y,
            self.inner.compressed_height, self.inner.compressed_width,
        )

    def _compress_tiled(self, x: Tensor) -> Tensor:
        return self.inner._compress_tiled(x)

    def _decompress_tiled(self, y: Tensor) -> Tensor:
        return self.inner._decompress_tiled(y)

    @profiled("core.ps.compress", matmuls=lambda self: 2 * self.num_chunks)
    def compress(self, x) -> Tensor:
        """Compress each chunk; chunks are reassembled in a grid so the
        compressed tensor keeps the input's spatial arrangement."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        self._check(x.shape, self.height, self.width)
        return self._run_compress(x)

    @profiled("core.ps.decompress", matmuls=lambda self: 2 * self.num_chunks)
    def decompress(self, y) -> Tensor:
        y = y if isinstance(y, Tensor) else Tensor(y)
        self._check(y.shape, self.compressed_height, self.compressed_width)
        return self._run_decompress(y)

    def roundtrip(self, x) -> Tensor:
        return self.decompress(self.compress(x))

    def __repr__(self) -> str:
        return (
            f"PartialSerializedCompressor(height={self.height}, width={self.width}, "
            f"cf={self.cf}, s={self.s}, ratio={self.ratio:.2f})"
        )
