"""Arbitrary-shape support: pad planes up to the block grid, then chop.

The accelerator compilers need static shapes that are multiples of the
8x8 DCT grid; real datasets are not always so polite (Table 2's
optical_damage samples are 492x656, cloud_slstr 1200x1500).  The
:class:`PaddedCompressor` wraps any fixed-shape compressor variant with
edge-replication padding up to the next block multiple, so every sample
shape compresses; the pad geometry is part of the compile-time
configuration, not the payload.
"""

from __future__ import annotations

import numpy as np

import repro.tensor as rt
from repro.core.api import make_compressor
from repro.core.dct import DEFAULT_BLOCK
from repro.errors import ShapeError, require_int
from repro.tensor import Tensor


def _pad_edge_tensor(t: Tensor, pad_r: int, pad_c: int) -> Tensor:
    """Differentiable edge-replication padding on the last two dims."""
    if pad_r:
        last_row = t[..., -1:, :]
        rows = last_row.broadcast_to(t.shape[:-2] + (pad_r, t.shape[-1]))
        t = rt.concatenate([t, rows], axis=-2)
    if pad_c:
        last_col = t[..., :, -1:]
        cols = last_col.broadcast_to(t.shape[:-1] + (pad_c,))
        t = rt.concatenate([t, cols], axis=-1)
    return t


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


class PaddedCompressor:
    """Wraps a compressor variant with pad-to-block-grid handling.

    Edge replication (rather than zero padding) avoids introducing an
    artificial brightness step at the boundary, which would leak energy
    into exactly the high-frequency coefficients the chop discards and
    ring back into the retained ones.
    """

    def __init__(
        self,
        height: int,
        width: int | None = None,
        *,
        method: str = "dc",
        cf: int = 4,
        s: int = 2,
        block: int = DEFAULT_BLOCK,
        fast: bool = True,
    ) -> None:
        height = require_int("height", height)
        width = height if width is None else require_int("width", width)
        block = require_int("block", block)
        self.height = height
        self.width = width
        self.padded_height = _round_up(self.height, block)
        self.padded_width = _round_up(self.width, block)
        self.inner = make_compressor(
            self.padded_height, self.padded_width, method=method, cf=cf, s=s,
            block=block, fast=fast,
        )
        self.method = self.inner.method
        self.cf = self.inner.cf
        self.block = block

    @property
    def pad(self) -> tuple[int, int]:
        """(rows, cols) of replicated padding added at the bottom/right."""
        return (self.padded_height - self.height, self.padded_width - self.width)

    @property
    def ratio(self) -> float:
        """Effective ratio including the padding overhead."""
        raw = self.inner.ratio
        overhead = (self.padded_height * self.padded_width) / (self.height * self.width)
        return raw / overhead

    def compressed_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        self._check(input_shape)
        padded = input_shape[:-2] + (self.padded_height, self.padded_width)
        return self.inner.compressed_shape(padded)

    def _check(self, shape: tuple[int, ...]) -> None:
        if len(shape) < 2 or shape[-2] != self.height or shape[-1] != self.width:
            raise ShapeError(
                f"expected (..., {self.height}, {self.width}) input, got {shape}"
            )

    def compress(self, x) -> Tensor:
        pad_r, pad_c = self.pad
        if isinstance(x, Tensor):
            # Stay inside autograd (activation compression needs gradients
            # to flow through the pad).
            self._check(x.shape)
            if pad_r or pad_c:
                x = _pad_edge_tensor(x, pad_r, pad_c)
            return self.inner.compress(x)
        arr = np.asarray(x, dtype=np.float32)
        self._check(arr.shape)
        if pad_r or pad_c:
            widths = [(0, 0)] * (arr.ndim - 2) + [(0, pad_r), (0, pad_c)]
            arr = np.pad(arr, widths, mode="edge")
        return self.inner.compress(arr)

    def decompress(self, y) -> Tensor:
        rec = self.inner.decompress(y)
        if self.pad == (0, 0):
            return rec
        return rec[..., : self.height, : self.width]

    def roundtrip(self, x) -> Tensor:
        return self.decompress(self.compress(x))

    def __repr__(self) -> str:
        return (
            f"PaddedCompressor({self.height}x{self.width} -> "
            f"{self.padded_height}x{self.padded_width}, method={self.method}, "
            f"cf={self.cf}, ratio={self.ratio:.2f})"
        )


class AdaptiveCompressor:
    """Shape-keyed cache of :class:`PaddedCompressor` instances.

    For compression targets whose tensor shapes vary by site (activations
    per layer, gradients per parameter), one logical compressor serves
    every shape; each distinct plane size compiles its padded variant once
    and reuses it — the "compiled separately per shape" behaviour of the
    real toolchains, automated.
    """

    def __init__(self, *, method: str = "dc", cf: int = 4, block: int = DEFAULT_BLOCK, s: int = 2) -> None:
        self.method = method
        self.cf = int(cf)
        self.block = int(block)
        self.s = int(s)
        self._cache: dict[tuple[int, int], PaddedCompressor] = {}

    def for_shape(self, shape: tuple[int, ...]) -> PaddedCompressor:
        if len(shape) < 2:
            raise ShapeError(f"need at least 2-D data, got shape {shape}")
        key = (int(shape[-2]), int(shape[-1]))
        comp = self._cache.get(key)
        if comp is None:
            comp = PaddedCompressor(
                key[0], key[1], method=self.method, cf=self.cf, s=self.s, block=self.block
            )
            self._cache[key] = comp
        return comp

    def roundtrip(self, x) -> Tensor:
        shape = x.shape if isinstance(x, Tensor) else np.asarray(x).shape
        return self.for_shape(shape).roundtrip(x)

    def compress(self, x) -> Tensor:
        shape = x.shape if isinstance(x, Tensor) else np.asarray(x).shape
        return self.for_shape(shape).compress(x)

    @property
    def compiled_shapes(self) -> list[tuple[int, int]]:
        return sorted(self._cache)
