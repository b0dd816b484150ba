"""Byte-level container for compressed tensors (the storage use case).

The paper motivates training-data compression partly by *disk storage*
cost; this module gives compressed tensors a self-describing serialized
form so datasets can actually be stored and reloaded:

``HEADER | payload``

* header: magic, version, method, cf, block, s, original shape, payload
  dtype, payload CRC32 — everything needed to rebuild the matching
  compressor, *verify* the payload, and decompress without out-of-band
  metadata.
* payload: the compressed coefficient tensor, raw little-endian.

``pack``/``unpack`` operate on bytes; ``save``/``load`` on files.

Format versions
---------------
``DCZ2`` (current) headers carry ``crc32`` over the payload bytes and
``hcrc`` — a CRC over the canonical header itself, so a flipped bit in
``dtype`` or ``compressed_shape`` cannot reinterpret a pristine payload.
``unpack`` verifies header checksum, payload length and payload
checksum, raising :class:`~repro.errors.IntegrityError` on any mismatch —
the contract (enforced by the seeded every-byte bit-flip fuzz suite) is
that *any* single-bit corruption of a DCZ2 blob raises
``IntegrityError``, never crashes, never decodes wrong data.  CRC-32
detects every single-bit error; a random multi-bit corruption passes it
with probability 2**-32 per blob, the residual risk accepted under the
silent-data-corruption (not adversarial) threat model.  Older DCZ2
blobs also carry a payload ``digest`` string; ``hcrc`` covers it and
nothing else reads it.  ``DCZ1`` files (no checksum) still load; length
is validated and a ``UserWarning`` notes the missing checksum.  Headers
that predate ``hcrc`` keep loading; their decode path is hardened to
reject (not crash on) corrupt-but-parseable fields.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.core.api import Compressor, make_compressor
from repro.errors import ConfigError, ContainerFormatError, IntegrityError
from repro.faults import corrupt_payload
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.tensor import Tensor

MAGIC = b"DCZ2"
MAGIC_V1 = b"DCZ1"
_LEN = struct.Struct("<I")


def _header_crc(header: dict) -> int:
    """CRC32 over the canonical (sorted-key, ``hcrc``-less) header JSON.

    The payload CRC cannot vouch for the header that frames it — a
    flipped bit in ``dtype`` or ``compressed_shape`` would reinterpret a
    pristine payload.  ``hcrc`` closes that gap; it is computed from the
    *parsed* header so pack and unpack agree regardless of key order or
    whitespace in the serialized form.
    """
    canonical = json.dumps(
        {k: v for k, v in header.items() if k != "hcrc"}, sort_keys=True
    ).encode()
    return zlib.crc32(canonical)


def _header_for(comp, original_shape: tuple[int, ...], dtype: str) -> dict:
    from repro.core.padded import PaddedCompressor

    header = {
        "method": comp.method,
        "cf": comp.cf,
        "block": comp.block,
        "shape": list(original_shape),
        "dtype": dtype,
    }
    if isinstance(comp, PaddedCompressor):
        header["padded"] = True
        inner = comp.inner
        if inner.method == "ps":
            header["s"] = inner.s
    elif comp.method == "ps":
        header["s"] = comp.s
    return header


def compressor_for_header(header: dict) -> Compressor:
    """Rebuild the compressor a container was written with."""
    from repro.core.padded import PaddedCompressor

    shape = header["shape"]
    if len(shape) < 2:
        raise ConfigError(f"invalid stored shape {shape}")
    if header.get("padded"):
        return PaddedCompressor(
            shape[-2],
            shape[-1],
            method=header["method"],
            cf=header["cf"],
            s=header.get("s", 2),
            block=header["block"],
        )
    return make_compressor(
        shape[-2],
        shape[-1],
        method=header["method"],
        cf=header["cf"],
        s=header.get("s", 2),
        block=header["block"],
    )


def pack(x, comp: Compressor, *, payload_dtype: str = "float32") -> bytes:
    """Compress ``x`` with ``comp`` and serialize to a self-describing blob.

    ``payload_dtype="float16"`` stores the retained DCT coefficients at
    half precision, doubling the container's ratio on top of the chop.
    The dominant coefficients are low-frequency and large-magnitude, so
    the extra quantization costs little fidelity (see the container
    tests); this is the storage analogue of the paper's observation that
    lower-precision formats exist but differ across platforms — the
    *container* can standardise on FP16 even when devices cannot.
    """
    if payload_dtype not in ("float32", "float16"):
        raise ConfigError(f"unsupported payload dtype {payload_dtype!r}")
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)
    compressed = np.ascontiguousarray(
        comp.compress(arr).numpy().astype(payload_dtype, copy=False)
    )
    header = _header_for(comp, arr.shape, payload_dtype)
    header["compressed_shape"] = list(compressed.shape)
    header["version"] = 2
    header["crc32"] = zlib.crc32(compressed)
    header["hcrc"] = _header_crc(header)
    header_bytes = json.dumps(header).encode()
    # The join reads the coefficients through the buffer protocol: one copy.
    blob = corrupt_payload(
        b"".join((MAGIC, _LEN.pack(len(header_bytes)), header_bytes, compressed))
    )
    reg = get_registry()
    reg.counter(
        "repro_container_bytes_in_total", help="uncompressed bytes packed into containers"
    ).inc(arr.nbytes)
    reg.counter(
        "repro_container_bytes_out_total", help="container bytes produced"
    ).inc(len(blob))
    return blob


def _parse(blob: bytes) -> tuple[dict, memoryview, int]:
    """Validate framing; return (header, payload view, format version)."""
    if len(blob) < 8:
        raise IntegrityError(f"container truncated: {len(blob)} bytes is shorter than the frame")
    magic = blob[:4]
    if magic == MAGIC:
        version = 2
    elif magic == MAGIC_V1:
        version = 1
    else:
        raise ContainerFormatError("not a DCZ container (bad magic)")
    (hlen,) = _LEN.unpack(blob[4:8])
    if 8 + hlen > len(blob):
        raise IntegrityError(
            f"container truncated inside the header: need {8 + hlen} bytes, have {len(blob)}"
        )
    try:
        header = json.loads(blob[8 : 8 + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"container header is corrupt: {exc}") from exc
    if not isinstance(header, dict) or "compressed_shape" not in header or "dtype" not in header:
        raise IntegrityError("container header is corrupt: missing required fields")
    if version >= 2:
        # DCZ2 headers are self-checked; a missing hcrc is itself corruption
        # (a flipped bit in the key name must not bypass verification).
        # DCZ1 predates hcrc and is skipped — its unchecked-header risk is
        # part of the documented legacy surface.
        stored_hcrc = header.get("hcrc")
        actual = _header_crc(header)
        if stored_hcrc != actual:
            get_registry().counter(
                "repro_container_hcrc_failures_total",
                help="containers rejected by header-checksum validation",
            ).inc()
            raise IntegrityError(
                f"header checksum mismatch: stored {stored_hcrc}, computed {actual} "
                "(header corrupted)"
            )
    return header, memoryview(blob)[8 + hlen :], version


def unpack(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decompress a blob; returns (reconstructed array, header).

    Raises :class:`~repro.errors.IntegrityError` when the payload is
    truncated, padded, or fails its checksum.
    """
    header, payload, version = _parse(blob)
    try:
        expected = (
            int(np.prod(header["compressed_shape"])) * np.dtype(header["dtype"]).itemsize
        )
    except (TypeError, ValueError) as exc:
        # Only reachable for pre-hcrc headers: a corrupt dtype/shape field
        # that still parsed as JSON must reject, not crash.
        raise IntegrityError(f"container header is corrupt: {exc}") from exc
    if len(payload) != expected:
        raise IntegrityError(
            f"payload length mismatch: header promises {expected} bytes, found {len(payload)} "
            "(file truncated or padded)"
        )
    stored_crc = header.get("crc32")
    if stored_crc is not None:
        actual = zlib.crc32(payload)
        if actual != stored_crc:
            get_registry().counter(
                "repro_container_crc_failures_total",
                help="containers rejected by checksum validation",
            ).inc()
            raise IntegrityError(
                f"payload checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x} "
                "(file corrupted)"
            )
    elif version >= 2:
        raise IntegrityError("DCZ2 container is missing its checksum field")
    else:
        get_logger().warning(
            "container.legacy_dcz1",
            "loading a legacy DCZ1 container without a checksum; corruption "
            "cannot be detected — re-save to upgrade to DCZ2",
            version=version,
        )
    header.setdefault("version", version)
    try:
        arr = np.frombuffer(payload, dtype=header["dtype"]).reshape(
            header["compressed_shape"]
        )
    except (TypeError, ValueError) as exc:
        raise IntegrityError(f"container header is corrupt: {exc}") from exc
    comp = compressor_for_header(header)
    # Both paths allocate their output, so the sample is a fresh array
    # the caller owns, never a view of the read-only payload.
    rec = comp.decompress(arr.astype(np.float32, copy=False)).numpy()
    return rec.reshape(header["shape"]), header


def packed_ratio(blob: bytes, header: dict | None = None) -> float:
    """Actual end-to-end storage ratio achieved by a container."""
    if header is None:
        (hlen,) = _LEN.unpack(blob[4:8])
        header = json.loads(blob[8 : 8 + hlen].decode())
    original = int(np.prod(header["shape"])) * 4
    return original / len(blob)


def save(path, x, comp: Compressor, *, payload_dtype: str = "float32") -> Path:
    """Compress and write ``x`` to ``path`` (conventionally ``.dcz``)."""
    path = Path(path)
    path.write_bytes(pack(x, comp, payload_dtype=payload_dtype))
    return path


def load(path) -> tuple[np.ndarray, dict]:
    """Read and decompress a ``.dcz`` file."""
    return unpack(Path(path).read_bytes())
