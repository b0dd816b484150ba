"""**torch.scatter / torch.gather** optimisation (paper Section 3.5.2, Fig. 6).

On platforms that support ``gather``/``scatter`` (the Graphcore IPU among
the paper's four), the ``CF x CF`` square kept by DCT+Chop still stores
high-frequency values in its lower-right half that contribute little to
fidelity.  SG keeps only the upper-left *triangle* — the ``cf*(cf+1)/2``
coefficients with ``i + j < CF`` — via one ``gather`` with indices
precomputed at compile time, improving the ratio by ``2CF/(CF+1)``.
Decompression ``scatter``s the retained values back to their block
positions and then runs the normal DC decompression.

Both index the dense compressed plane directly: one flat index, built at
construction, names every retained coefficient's position in
``(..., CF*nbh, CF*nbw)``, so there is no layout shuffle on either side
and the host fast path is DC's own.
"""

from __future__ import annotations

import numpy as np

import repro.tensor as rt
from repro.core import flops as flops_mod
from repro.core.dct import DEFAULT_BLOCK
from repro.core.mask import triangle_count, triangle_indices
from repro.errors import ShapeError
from repro.obs.profile import profiled
from repro.tensor import Tensor


class ScatterGatherCompressor:
    """DC compressor followed by triangle gather (IPU-targeted SG variant)."""

    method = "sg"

    def __init__(
        self,
        height: int,
        width: int | None = None,
        *,
        cf: int = 4,
        block: int = DEFAULT_BLOCK,
        fast: bool = True,
    ) -> None:
        # The shared DC instance for this resolution (lazy import: api
        # imports us), so SG and plain DC traffic share probe verdicts.
        from repro.core.api import make_compressor

        self.inner = make_compressor(height, width, cf=cf, block=block, fast=fast)
        self.height = self.inner.height
        self.width = self.inner.width
        self.cf = self.inner.cf
        self.block = self.inner.block
        # Flat position of each retained coefficient in the dense
        # compressed plane, block-major then triangle order; known at
        # compile time, never shipped with the data.
        cf, nbw = self.cf, self.nblocks_w
        tri_r, tri_c = np.divmod(triangle_indices(cf), cf)
        blk_r, blk_c = np.divmod(np.arange(self.nblocks), nbw)
        rows = blk_r[:, None] * cf + tri_r
        cols = blk_c[:, None] * cf + tri_c
        self._flat = (rows * self.inner.compressed_width + cols).reshape(1, -1)
        self._flat.flags.writeable = False

    @property
    def nblocks_h(self) -> int:
        return self.height // self.block

    @property
    def nblocks_w(self) -> int:
        return self.width // self.block

    @property
    def nblocks(self) -> int:
        return self.nblocks_h * self.nblocks_w

    @property
    def values_per_block(self) -> int:
        return triangle_count(self.cf)

    @property
    def ratio(self) -> float:
        """``block^2 / (cf*(cf+1)/2)`` — e.g. 64/3 for CF=2."""
        return flops_mod.sg_compression_ratio(self.cf, self.block)

    def compressed_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) < 2 or input_shape[-2] != self.height or input_shape[-1] != self.width:
            raise ShapeError(
                f"expected (..., {self.height}, {self.width}) input, got {input_shape}"
            )
        return input_shape[:-2] + (self.nblocks, self.values_per_block)

    def _indices_for(self, lead: tuple[int, ...]) -> np.ndarray:
        """Gather/scatter index tensor broadcast to the full operand shape.

        A read-only zero-stride view of the flat index: nothing is
        materialised or kept per batch shape.
        """
        return np.broadcast_to(self._flat, lead + self._flat.shape)

    # ------------------------------------------------------------------
    # Compress / decompress
    # ------------------------------------------------------------------
    @profiled("core.sg.compress")
    def compress(self, x) -> Tensor:
        """DC compress, then gather the triangle out of the dense layout."""
        y = self.inner.compress(x)
        lead = y.shape[:-2]
        flat = y.reshape(*lead, 1, -1)
        z = rt.gather(flat, -1, self._indices_for(lead))
        return z.reshape(*lead, self.nblocks, self.values_per_block)

    @profiled("core.sg.decompress")
    def decompress(self, z) -> Tensor:
        """Scatter the triangle back into the dense layout, then DC decompress."""
        z = z if isinstance(z, Tensor) else Tensor(z)
        expected = (self.nblocks, self.values_per_block)
        if z.shape[-2:] != expected:
            raise ShapeError(f"expected (..., {expected[0]}, {expected[1]}), got {z.shape}")
        lead = z.shape[:-2]
        ch, cw = self.inner.compressed_height, self.inner.compressed_width
        flat = z.reshape(*lead, 1, -1)
        y = rt.scatter(flat, -1, self._indices_for(lead), ch * cw)
        return self.inner.decompress(y.reshape(*lead, ch, cw))

    def roundtrip(self, x) -> Tensor:
        return self.decompress(self.compress(x))

    def __repr__(self) -> str:
        return (
            f"ScatterGatherCompressor(height={self.height}, width={self.width}, "
            f"cf={self.cf}, ratio={self.ratio:.2f})"
        )
