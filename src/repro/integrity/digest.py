"""Stage-boundary digests: cheap blake2b fingerprints of live buffers.

A digest pins a buffer's exact bytes (plus dtype and shape, so a
reinterpreted or reshaped buffer never collides with the original) at one
pipeline stage so the next stage can prove it received what was produced:
device output -> serve response, snapshot -> restored cache.  blake2b-128
is used because it is in-stdlib, fast enough to sit on the serving path,
and 128 bits is far beyond accidental-collision territory for an SDC (not
adversarial) threat model.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Digest width in bytes; 128 bits.
DIGEST_SIZE = 16


def plane_digest(arr: np.ndarray) -> str:
    """Hex digest of an array's dtype, shape, and exact bytes."""
    a = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    h.update(str(a.dtype).encode())
    h.update(repr(tuple(a.shape)).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def payload_digest(blob: bytes) -> str:
    """Hex digest of a packed payload byte string.

    No program path calls this any more (``.dcz`` payloads carry only a
    CRC32); the end-to-end benchmark's traced run still names it as its
    ``integrity.digest`` span, so it stays until that target goes.
    """
    return hashlib.blake2b(blob, digest_size=DIGEST_SIZE).hexdigest()
