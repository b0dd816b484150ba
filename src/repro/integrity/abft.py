"""ABFT-checked matmul: checksum verification for the tiled fast path.

Classic algorithm-based fault tolerance (Huang & Abraham): for
``C = A @ B``, the row sums of ``C`` must equal ``A @ rowsum(B)`` — one
extra GEMV per GEMM, O(n) relative cost on an O(n*k*m) product.  A
bit-flip anywhere in the product (or in the accumulators that produced
it) breaks the identity by at least the flipped element's delta, while
honest float reassociation noise stays within
``rtol * (|A| @ rowsum(|B|)) + atol``.

The injected fault model flips a float's exponent MSB (see
:func:`repro.faults.injector.corrupt_buffer`), which guarantees a delta
of ~2 or more — orders of magnitude above the tolerance envelope — so
detection is exact, not probabilistic.

On mismatch the guard escalates: recompute densely up to
``max_recomputes`` times and majority-vote on byte-identical results
(two agreeing recomputes win; a transiently-flaky unit cannot outvote
them).  The corrected product is returned in place, so a GEMM-level SDC
costs one retry's compute and is invisible to callers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IntegrityFault
from repro.faults.injector import corrupt_buffer
from repro.integrity.policy import IntegrityPolicy, note_detected


def abft_mismatch(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, *, rtol: float, atol: float
) -> bool:
    """True when ``c``'s row sums break the checksum identity for ``a @ b``.

    ``a`` and ``b`` may be stacks that broadcast like ``np.matmul`` (the
    tiled kernels apply one ``(cf, B)`` operator over ``(N, B, K)`` block
    rows), so the row sums are taken as matrix-vector products.

    NaN/Inf-safe: an exponent flip can push an element to Inf (and its
    row sum to NaN), and ``NaN > tol`` is False — a naive comparison
    would wave exactly the worst corruption through.  Any non-finite row
    sum that the honest inputs cannot explain is therefore a mismatch by
    definition.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        expect = (a @ b.sum(axis=-1)[..., None])[..., 0]
        got = c.sum(axis=-1)
        scale = (np.abs(a) @ np.abs(b).sum(axis=-1)[..., None])[..., 0]
        bad = ~np.isfinite(got) & np.isfinite(expect)
        diff = np.abs(got - expect)
    return bool(np.any(bad) or np.any(diff > (rtol * scale + atol)))


def checked_matmul(
    a: np.ndarray,
    b: np.ndarray,
    *,
    policy: IntegrityPolicy,
    platform: str | None = None,
) -> np.ndarray:
    """``a @ b`` with ABFT verification and majority-vote correction.

    Byte-identical to a plain ``np.matmul`` when nothing is corrupted —
    the checksum pass only *reads* the product — so the fast path's
    bit-identity guarantee against the dense oracle is preserved.

    Raises :class:`~repro.errors.IntegrityFault` only if every recompute
    disagrees with every other (no majority), which the single-flip SDC
    model cannot produce; real hardware that flaky should be failed, not
    retried.
    """
    c = corrupt_buffer("gemm", np.matmul(a, b), platform=platform)
    if not abft_mismatch(a, b, c, rtol=policy.rtol, atol=policy.atol):
        return c
    # Checksum broken: the product buffer took a hit.  Recompute densely
    # and majority-vote; recomputes bypass the corruption hook because the
    # fault model is one strike against one live buffer, not a stuck unit.
    votes: dict[bytes, np.ndarray] = {}
    counts: dict[bytes, int] = {}
    last = c
    for _ in range(policy.max_recomputes):
        r = np.matmul(a, b)
        key = r.tobytes()
        votes[key] = r
        counts[key] = counts.get(key, 0) + 1
        last = r
        if counts[key] >= 2:
            note_detected("gemm", platform, corrected=True)
            return votes[key]
    if policy.max_recomputes == 1:
        # A single recompute can't self-confirm; trust it if it now passes
        # the checksum (the original product was the corrupted copy).
        if not abft_mismatch(a, b, last, rtol=policy.rtol, atol=policy.atol):
            note_detected("gemm", platform, corrected=True)
            return last
    note_detected("gemm", platform, corrected=False)
    raise IntegrityFault(
        f"ABFT checksum mismatch persisted across {policy.max_recomputes} recompute(s)",
        platform=platform,
        site="gemm",
    )
