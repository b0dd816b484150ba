"""DCZ container format: pack/unpack/save/load."""

import numpy as np
import pytest

from repro.core import DCTChopCompressor, ScatterGatherCompressor, make_compressor
from repro.core import container
from repro.errors import ConfigError, IntegrityError

#: A 1x8x8 DC cf=4 DCZ2 blob written while the header still carried a
#: blake2b payload ``digest`` next to ``crc32``.
LEGACY_DIGEST_BLOB = bytes.fromhex(
    "44435a32d10000007b226d6574686f64223a20226463222c20226366223a2034"
    "2c2022626c6f636b223a20382c20227368617065223a205b312c20382c20385d"
    "2c20226474797065223a2022666c6f61743332222c2022636f6d707265737365"
    "645f7368617065223a205b312c20342c20345d2c202276657273696f6e223a20"
    "322c20226372633332223a20313933313232303537352c202264696765737422"
    "3a20226662356163373637303636663461396566393032373739363362346463"
    "353335222c202268637263223a20343035323935343838357d4cc493beabb69f"
    "be34d9de3f7a9f513f21dc30bffc9d7dbe23e1a6bff8918dbf55211140733ec5"
    "3ee18bb63e5b84d93e98a8c63ee81d3c3f68ad123fa0ab98bf"
)
#: The float32 sample that blob decoded to when it was written.
LEGACY_DIGEST_DECODED = np.frombuffer(
    bytes.fromhex(
        "a447ae3e76aa003fc7330a3f6f838c3e2e25a7bd374511bec0fa3d3ebc8a0d3f"
        "f26f4dbd39bb92bd4355b0bdb40b86bda97814bc0fc76d3d36dddf3d8181093e"
        "2863efbecb2e25bfe70137bfab43f3bec439afbd1093d13d106e26bd1f558abe"
        "749603bf83b92ebfeb724cbf45c62ebff8decfbea8e04dbe5bd843bef19c8abe"
        "e630b3bd11da5cbe6b71e0be4d9b27bfa62037bf526108bf5fce43be65efa23d"
        "543f163ff371903e754c38be27a20fbf9cc125bfb8c3c4bebc90843d0df5ce3e"
        "bd2f983f6031ee3e0258a6beb5730bbf160c33bee90d993e46c2fa3e1058eb3e"
        "7c77c23f1022da3ed6d31bbf4d5915bf186e923eb55e733ffff2513f5d84bb3e"
    ),
    dtype="<f4",
).reshape(1, 8, 8)


def _bit_flip_survivors(blob: bytes) -> list[str]:
    """Every single-bit flip of ``blob`` that does not raise IntegrityError."""
    survived = []
    for pos in range(len(blob)):
        for bit in range(8):
            mutated = bytearray(blob)
            mutated[pos] ^= 1 << bit
            try:
                container.unpack(bytes(mutated))
            except IntegrityError:
                continue
            except Exception as exc:          # noqa: BLE001 - the fuzz contract
                survived.append(f"byte {pos} bit {bit}: crashed with {type(exc).__name__}")
            else:
                survived.append(f"byte {pos} bit {bit}: decoded corrupt bytes")
    return survived


class TestPackUnpack:
    def test_roundtrip(self, rng):
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        comp = DCTChopCompressor(32, cf=4)
        blob = container.pack(x, comp)
        rec, header = container.unpack(blob)
        assert rec.shape == x.shape
        np.testing.assert_allclose(rec, comp.roundtrip(x).numpy(), atol=1e-5)
        assert header["method"] == "dc" and header["cf"] == 4

    def test_bad_magic(self):
        with pytest.raises(ConfigError):
            container.unpack(b"NOPE" + b"\x00" * 16)

    def test_packed_ratio_close_to_nominal(self, rng):
        x = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
        comp = DCTChopCompressor(64, cf=2)
        blob = container.pack(x, comp)
        ratio = container.packed_ratio(blob)
        # Header overhead is tiny relative to a real batch.
        assert 0.9 * comp.ratio < ratio <= comp.ratio

    def test_sg_container(self, rng):
        x = rng.standard_normal((1, 32, 32)).astype(np.float32)
        comp = ScatterGatherCompressor(32, cf=3)
        rec, header = container.unpack(container.pack(x, comp))
        np.testing.assert_allclose(rec, comp.roundtrip(x).numpy(), atol=1e-5)
        assert header["method"] == "sg"

    def test_ps_container_records_s(self, rng):
        x = rng.standard_normal((1, 64, 64)).astype(np.float32)
        comp = make_compressor(64, method="ps", cf=4, s=2)
        blob = container.pack(x, comp)
        rec, header = container.unpack(blob)
        assert header["s"] == 2
        np.testing.assert_allclose(rec, comp.roundtrip(x).numpy(), atol=1e-5)

    def test_compressor_for_header_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            container.compressor_for_header({"shape": [8], "method": "dc", "cf": 2, "block": 8})


class TestFP16Payload:
    def test_doubles_ratio(self, rng):
        x = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
        comp = DCTChopCompressor(64, cf=4)
        blob32 = container.pack(x, comp)
        blob16 = container.pack(x, comp, payload_dtype="float16")
        assert container.packed_ratio(blob16) > 1.9 * container.packed_ratio(blob32)

    def test_quality_cost_small(self, rng):
        from repro.core import psnr

        x = rng.standard_normal((4, 64, 64)).astype(np.float32)
        comp = DCTChopCompressor(64, cf=4)
        rec32, _ = container.unpack(container.pack(x, comp))
        rec16, _ = container.unpack(container.pack(x, comp, payload_dtype="float16"))
        # Half-precision coefficients cost only a little PSNR on top of the chop.
        assert psnr(x, rec16) > psnr(x, rec32) - 3.0

    def test_header_records_dtype(self, rng):
        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        blob = container.pack(x, DCTChopCompressor(16, cf=4), payload_dtype="float16")
        rec, header = container.unpack(blob)
        assert header["dtype"] == "float16"
        assert rec.dtype == np.float32

    def test_invalid_dtype(self, rng):
        with pytest.raises(ConfigError):
            container.pack(
                rng.standard_normal((1, 16, 16)).astype(np.float32),
                DCTChopCompressor(16, cf=4),
                payload_dtype="int8",
            )


class TestPaddedContainer:
    def test_padded_compressor_roundtrip(self, rng):
        from repro.core import PaddedCompressor

        x = rng.standard_normal((2, 20, 28)).astype(np.float32)
        comp = PaddedCompressor(20, 28, cf=4)
        rec, header = container.unpack(container.pack(x, comp))
        assert rec.shape == x.shape
        assert header["padded"] is True
        np.testing.assert_allclose(rec, comp.roundtrip(x).numpy(), atol=1e-5)


class TestFiles:
    def test_save_load(self, rng, tmp_path):
        x = rng.standard_normal((4, 16, 16)).astype(np.float32)
        comp = DCTChopCompressor(16, cf=4)
        path = container.save(tmp_path / "batch.dcz", x, comp)
        rec, header = container.load(path)
        np.testing.assert_allclose(rec, comp.roundtrip(x).numpy(), atol=1e-5)
        assert path.stat().st_size < x.nbytes / 2

    def test_decoder_needs_no_sideband(self, rng, tmp_path):
        """The file alone suffices: decode without knowing cf/method."""
        x = rng.standard_normal((2, 24, 24)).astype(np.float32)
        for method, cf in (("dc", 2), ("sg", 5)):
            comp = make_compressor(24, method=method, cf=cf)
            path = container.save(tmp_path / f"{method}.dcz", x, comp)
            rec, header = container.load(path)
            assert rec.shape == x.shape
            assert header["cf"] == cf


class TestEveryByteBitFlipFuzz:
    """No single bit flip anywhere in a container may slip through.

    The container's layered checks (magic, framing, hcrc over the parsed
    header, CRC32 over the payload) exist to make this property total:
    for EVERY byte position and EVERY bit, the mutated blob must raise
    IntegrityError — never crash with an unrelated exception, and never
    decode to an array at all (a "successful" decode of corrupt bytes
    would be a silent wrong answer).
    """

    def test_every_single_bit_flip_raises_integrity_error(self, rng):
        x = rng.standard_normal((2, 1, 16, 16)).astype(np.float32)
        comp = DCTChopCompressor(16, cf=2)
        blob = container.pack(x, comp)
        container.unpack(blob)                    # pristine blob decodes
        survived = _bit_flip_survivors(blob)
        assert not survived, "; ".join(survived[:10])

    def test_truncation_at_every_length_raises_integrity_error(self, rng):
        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        blob = container.pack(x, DCTChopCompressor(16, cf=4))
        for cut in range(len(blob)):
            with pytest.raises(IntegrityError):
                container.unpack(blob[:cut])


class TestPayloadChecksum:
    """CRC32 is the one payload checksum; older digest-carrying blobs load."""

    def test_new_blobs_carry_crc32_and_no_digest(self, rng):
        blob = container.pack(
            rng.standard_normal((1, 16, 16)).astype(np.float32), DCTChopCompressor(16, cf=4)
        )
        _, header = container.unpack(blob)
        assert blob[:4] == b"DCZ2"
        assert "digest" not in header
        assert {"crc32", "hcrc"} <= header.keys()

    def test_legacy_digest_blob_decodes_to_its_written_bytes(self):
        rec, header = container.unpack(LEGACY_DIGEST_BLOB)
        assert header["version"] == 2 and "digest" in header
        payload = np.frombuffer(LEGACY_DIGEST_BLOB[-64:], dtype="<f4").reshape(1, 4, 4)
        np.testing.assert_array_equal(
            rec, make_compressor(8, cf=4).decompress(payload).numpy()
        )
        np.testing.assert_allclose(rec, LEGACY_DIGEST_DECODED, rtol=0, atol=1e-6)

    def test_legacy_digest_blob_rejects_every_single_bit_flip(self):
        survived = _bit_flip_survivors(LEGACY_DIGEST_BLOB)
        assert not survived, "; ".join(survived[:10])
