"""Error-targeted chop-factor selection.

SZ-style compressors take an error bound; DCT+Chop takes a chop factor.
This module bridges the two: given calibration data and a quality target
(PSNR floor or NRMSE ceiling), pick the smallest CF — i.e. the highest
compression ratio — whose reconstruction meets the target.  Because the
chop is an orthogonal projection, reconstruction error is monotone in CF,
so a simple ascending scan is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import Compressor, make_compressor
from repro.core.dct import DEFAULT_BLOCK
from repro.core.metrics import nrmse, psnr
from repro.errors import ConfigError
from repro.tensor import Tensor


@dataclass(frozen=True)
class TuneResult:
    """Outcome of an autotune scan."""

    cf: int
    ratio: float
    achieved_psnr: float
    achieved_nrmse: float
    satisfied: bool  # False when even CF=block missed the target


def select_cf(
    calibration,
    *,
    min_psnr: float | None = None,
    max_nrmse: float | None = None,
    method: str = "dc",
    block: int = DEFAULT_BLOCK,
    s: int = 2,
) -> TuneResult:
    """Smallest CF meeting the quality target on ``calibration`` data.

    Exactly one of ``min_psnr`` / ``max_nrmse`` must be given.
    ``calibration`` is a ``(..., H, W)`` array of representative samples.
    """
    if (min_psnr is None) == (max_nrmse is None):
        raise ConfigError("specify exactly one of min_psnr or max_nrmse")
    arr = calibration.data if isinstance(calibration, Tensor) else np.asarray(calibration)
    if arr.ndim < 2:
        raise ConfigError(f"calibration data must be at least 2-D, got shape {arr.shape}")

    last: TuneResult | None = None
    lo = 2 if method == "sg" else 1  # SG needs cf >= 2 for a nonempty triangle
    for cf in range(lo, block + 1):
        comp = make_compressor(arr.shape[-2], arr.shape[-1], method=method, cf=cf, block=block, s=s)
        rec = comp.roundtrip(arr)
        q_psnr = psnr(arr, rec)
        q_nrmse = nrmse(arr, rec)
        ok = (min_psnr is not None and q_psnr >= min_psnr) or (
            max_nrmse is not None and q_nrmse <= max_nrmse
        )
        last = TuneResult(
            cf=cf,
            ratio=comp.ratio,
            achieved_psnr=q_psnr,
            achieved_nrmse=q_nrmse,
            satisfied=ok,
        )
        if ok:
            return last
    assert last is not None
    return last


def build_for_target(
    calibration,
    *,
    min_psnr: float | None = None,
    max_nrmse: float | None = None,
    method: str = "dc",
    block: int = DEFAULT_BLOCK,
    s: int = 2,
) -> tuple[Compressor, TuneResult]:
    """Convenience: autotune and return the ready-to-use compressor."""
    result = select_cf(
        calibration, min_psnr=min_psnr, max_nrmse=max_nrmse, method=method, block=block, s=s
    )
    arr = calibration.data if isinstance(calibration, Tensor) else np.asarray(calibration)
    comp = make_compressor(
        arr.shape[-2], arr.shape[-1], method=method, cf=result.cf, block=block, s=s
    )
    return comp, result
