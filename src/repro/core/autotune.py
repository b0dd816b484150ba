"""Error-targeted chop-factor selection and execution planning.

SZ-style compressors take an error bound; DCT+Chop takes a chop factor.
This module bridges the two: given calibration data and a quality target
(PSNR floor or NRMSE ceiling), pick the smallest CF — i.e. the highest
compression ratio — whose reconstruction meets the target.  Because the
chop is an orthogonal projection, reconstruction error is monotone in CF,
so a simple ascending scan is exact.

The second half plans *execution*: for one ``(n, cf, dtype)`` workload,
:func:`plan_execution` measures the dense oracle and the tiled fast path
on seeded synthetic samples, then picks the faster.  The verdict is
returned as an :class:`ExecutionPlan` and cached, which is what
``fast="auto"`` in :func:`repro.core.api.make_compressor` consumes.  Measurements use the
real compressors, so a shape whose equivalence probe pins it to dense is
timed as dense — the plan never promises a path the bit-identity
contract would refuse.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.api import Compressor, make_compressor
from repro.core.dct import DEFAULT_BLOCK
from repro.core.metrics import nrmse, psnr
from repro.errors import ConfigError, require_int
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


# ----------------------------------------------------------------------
# Execution planning (fast vs dense)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPlan:
    """Measured execution choice for one ``(n, cf, dtype)`` workload."""

    height: int
    width: int
    cf: int
    block: int
    dtype: str
    fast: bool
    samples: dict = field(default_factory=dict, compare=False)  # label -> median s

    @property
    def label(self) -> str:
        return "fast" if self.fast else "dense"


def _plan_sample(height: int, width: int, batch: int, dtype, seed: int) -> np.ndarray:
    rng = np.random.default_rng([int(seed), batch, height, width])
    return (rng.standard_normal((batch, height, width)) * 4.0).astype(dtype)


def _median_time(fn, arg, repeats: int) -> float:
    fn(arg)  # warmup: probes, operator build, buffer growth
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def plan_execution(
    height: int,
    width: int | None = None,
    *,
    cf: int = 4,
    block: int = DEFAULT_BLOCK,
    dtype=np.float32,
    batch: int = 4,
    repeats: int = 3,
    seed: int = 1234,
) -> ExecutionPlan:
    """Measure the dense oracle and the fast path; return the faster.

    Each candidate times the *real* compressor — probe pinning, dispatch
    fallbacks and all — on a seeded synthetic batch, so the verdict
    reflects what serving traffic would actually run.
    """
    height = require_int("height", height)
    width = height if width is None else require_int("width", width)
    repeats = require_int("repeats", repeats)
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    x = _plan_sample(height, width, batch, dtype, seed)

    samples: dict[str, float] = {}
    dense = make_compressor(height, width, cf=cf, block=block, fast=False)
    samples["dense"] = _median_time(dense.compress, x, repeats)
    fast = make_compressor(height, width, cf=cf, block=block, fast=True)
    samples["fast"] = _median_time(fast.compress, x, repeats)
    return ExecutionPlan(
        height=height,
        width=width,
        cf=cf,
        block=block,
        dtype=np.dtype(dtype).str,
        fast=samples["fast"] < samples["dense"],
        samples=samples,
    )


# Plan cache consumed by ``make_compressor(fast="auto")``.
_plan_lock = threading.Lock()
_plans: dict[tuple, ExecutionPlan] = {}


def planned(
    height: int,
    width: int | None = None,
    *,
    cf: int = 4,
    block: int = DEFAULT_BLOCK,
    dtype=np.float32,
) -> ExecutionPlan:
    """The cached plan for ``(height, width, cf, block, dtype)``.

    Measures once per key (a handful of compress calls); subsequent
    lookups are a dict hit.  :func:`clear_plans` resets for tests.
    """
    width = height if width is None else width
    key = (int(height), int(width), int(cf), int(block), np.dtype(dtype).str)
    with _plan_lock:
        plan = _plans.get(key)
    if plan is not None:
        return plan
    plan = plan_execution(height, width, cf=cf, block=block, dtype=dtype)
    with _plan_lock:
        return _plans.setdefault(key, plan)


def clear_plans() -> None:
    """Drop every cached execution plan (test hook)."""
    with _plan_lock:
        _plans.clear()
