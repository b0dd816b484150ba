"""The paper's core contribution: the portable DCT+Chop lossy compressor.

Three compressor variants (Section 3):

* :class:`DCTChopCompressor` — baseline **DC**: two matmuls to compress,
  two to decompress (Eq. 4 / Eq. 6).
* :class:`PartialSerializedCompressor` — **PS** (Section 3.5.1): subdivide
  the input spatially by a factor ``s`` and run DC serially per chunk so
  high resolutions fit in on-chip memory.
* :class:`ScatterGatherCompressor` — **SG** (Section 3.5.2): after DC,
  gather only the upper-left *triangle* of each retained block,
  raising the compression ratio by ``2*CF/(CF+1)``.

Plus the analytical cost models (Eq. 3 / 5 / 7) in :mod:`repro.core.flops`
and reconstruction-quality metrics in :mod:`repro.core.metrics`.
"""

from repro.core.dct import dct_matrix, block_diagonal_dct, idct_matrix
from repro.core.mask import chop_mask, triangle_indices, retained_coefficients
from repro.core.chop import DCTChopCompressor
from repro.core.serialization import PartialSerializedCompressor
from repro.core.scatter_gather import ScatterGatherCompressor
from repro.core.flops import (
    compression_ratio,
    sg_compression_ratio,
    compression_flops,
    decompression_flops,
    operand_sizes,
)
from repro.core.metrics import mse, psnr, nrmse, max_abs_error, achieved_ratio
from repro.core.api import (
    Compressor,
    make_compressor,
    compress,
    decompress,
    set_service,
    get_service,
    clear_cache,
)
from repro.core.fused import (
    force_dense,
    fused_operators,
    clear_fused_cache,
    fast_path_stats,
    has_nonfinite,
)
from repro.core.padded import PaddedCompressor, AdaptiveCompressor
from repro.core.autotune import (
    select_cf,
    build_for_target,
    TuneResult,
)
from repro.core.precision import (
    PRECISIONS,
    PrecisionPoint,
    accuracy_curve,
    quantize_int8,
    dequantize_int8,
)
from repro.core import container, colorspace

__all__ = [
    "dct_matrix",
    "idct_matrix",
    "block_diagonal_dct",
    "chop_mask",
    "triangle_indices",
    "retained_coefficients",
    "DCTChopCompressor",
    "PartialSerializedCompressor",
    "ScatterGatherCompressor",
    "compression_ratio",
    "sg_compression_ratio",
    "compression_flops",
    "decompression_flops",
    "operand_sizes",
    "mse",
    "psnr",
    "nrmse",
    "max_abs_error",
    "achieved_ratio",
    "Compressor",
    "make_compressor",
    "compress",
    "decompress",
    "set_service",
    "get_service",
    "clear_cache",
    "force_dense",
    "fused_operators",
    "clear_fused_cache",
    "fast_path_stats",
    "has_nonfinite",
    "PaddedCompressor",
    "AdaptiveCompressor",
    "select_cf",
    "build_for_target",
    "TuneResult",
    "PRECISIONS",
    "PrecisionPoint",
    "accuracy_curve",
    "quantize_int8",
    "dequantize_int8",
    "container",
    "colorspace",
]
