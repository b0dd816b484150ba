"""Silent-data-corruption defense: ABFT guards, digests, scrub, accounting.

The loud failures — crashes, hangs, ``CompileError``s — are handled by
:mod:`repro.resilience` and :mod:`repro.fleet`.  This package handles the
quiet one: a worker that keeps answering, just wrongly.  Three layers:

* **ABFT-checked GEMMs** (:mod:`~repro.integrity.abft`): the tiled fast
  path's two skinny matmuls per plane get checksum verification at O(n)
  relative cost, with dense recompute + majority vote on mismatch.
* **Stage-boundary digests** (:mod:`~repro.integrity.digest`): blake2b
  fingerprints pin buffer bytes across the device boundary; the
  device-output guard raises :class:`~repro.errors.IntegrityFault` into
  the existing retry ladder.  (``.dcz`` containers carry their own CRCs;
  see :mod:`repro.core.container`.)
* **Scrub passes** (:mod:`~repro.integrity.scrub`): restored plan-cache
  snapshots and quarantined workers' caches are revalidated against host
  oracles so poisoned plans never serve twice.

Everything is gated on :func:`integrity_guards` / :func:`set_integrity_policy`
and costs one module-reference check when disabled — a guards-off run is
byte-identical to a build without this package.
"""

from repro.integrity.abft import abft_mismatch, checked_matmul
from repro.integrity.digest import DIGEST_SIZE, plane_digest
from repro.integrity.policy import (
    GUARD_SITES,
    IntegrityPolicy,
    current_policy,
    detected,
    integrity_enabled,
    integrity_guards,
    integrity_stats,
    note_detected,
    note_scrub,
    reset_integrity_stats,
    set_integrity_policy,
)

__all__ = [
    "IntegrityPolicy",
    "integrity_guards",
    "set_integrity_policy",
    "current_policy",
    "integrity_enabled",
    "integrity_stats",
    "detected",
    "note_detected",
    "note_scrub",
    "reset_integrity_stats",
    "GUARD_SITES",
    "checked_matmul",
    "abft_mismatch",
    "plane_digest",
    "DIGEST_SIZE",
    "scrub_cache",
    "validate_program",
]


def __getattr__(name):
    # scrub pulls in repro.core lazily; importing it here eagerly would
    # cycle (core.fused imports this package for the ABFT guard).
    if name in ("scrub_cache", "validate_program"):
        from repro.integrity import scrub

        return getattr(scrub, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
