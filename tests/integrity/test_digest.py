"""Stage-boundary digests: stability and sensitivity."""

import numpy as np

from repro.integrity import DIGEST_SIZE, plane_digest
from repro.integrity.digest import payload_digest


class TestPlaneDigest:
    def test_stable_across_copies(self, rng):
        x = rng.standard_normal((3, 16, 16)).astype(np.float32)
        assert plane_digest(x) == plane_digest(x.copy())

    def test_hex_width_matches_digest_size(self, rng):
        d = plane_digest(rng.standard_normal((4, 4)))
        assert len(d) == 2 * DIGEST_SIZE
        int(d, 16)                           # valid hex

    def test_single_bit_flip_changes_digest(self, rng):
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        before = plane_digest(x)
        y = x.copy()
        y.reshape(-1).view(np.uint32)[17] ^= np.uint32(1)   # lowest mantissa bit
        assert plane_digest(y) != before

    def test_dtype_is_part_of_the_identity(self, rng):
        x = (rng.integers(0, 100, (8, 8))).astype(np.float32)
        assert plane_digest(x) != plane_digest(x.astype(np.float64))

    def test_shape_is_part_of_the_identity(self, rng):
        # Same bytes, different shape: a reinterpreted buffer must not
        # collide with the original.
        x = rng.standard_normal((4, 16)).astype(np.float32)
        assert plane_digest(x) != plane_digest(x.reshape(8, 8))

    def test_non_contiguous_views_digest_their_logical_bytes(self, rng):
        x = rng.standard_normal((8, 8)).astype(np.float32)
        assert plane_digest(x.T) == plane_digest(np.ascontiguousarray(x.T))
        assert plane_digest(x.T) != plane_digest(x)


class TestPayloadDigest:
    def test_stable_and_sensitive(self):
        blob = b"\x00" * 64 + b"payload"
        assert payload_digest(blob) == payload_digest(bytes(blob))
        flipped = bytearray(blob)
        flipped[3] ^= 0x10
        assert payload_digest(bytes(flipped)) != payload_digest(blob)
        assert len(payload_digest(blob)) == 2 * DIGEST_SIZE
