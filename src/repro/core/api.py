"""Top-level compressor API: the two calls an end user makes.

The paper's usage model is "call our compress or decompress APIs directly
from Python training or inference code".  :func:`make_compressor` returns
the compiled (fixed-shape) compressor for one of the three methods, built
once per normalised configuration and shared process-wide; the
convenience :func:`compress`/:func:`decompress` pair goes through it.

When a serving layer is installed via :func:`set_service`, the
convenience pair routes through it instead, so one-shot calls share the
service's compiled-plan cache (see :mod:`repro.serve`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Protocol, runtime_checkable

from repro.core.chop import DCTChopCompressor
from repro.core.dct import DEFAULT_BLOCK
from repro.core.scatter_gather import ScatterGatherCompressor
from repro.core.serialization import PartialSerializedCompressor
from repro.errors import ConfigError, require_bool, require_int
from repro.tensor import Tensor

METHODS = ("dc", "ps", "sg")


@runtime_checkable
class Compressor(Protocol):
    """Structural interface shared by the three compressor variants."""

    method: str
    cf: int

    @property
    def ratio(self) -> float: ...

    def compress(self, x) -> Tensor: ...

    def decompress(self, y) -> Tensor: ...

    def roundtrip(self, x) -> Tensor: ...

    def compressed_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]: ...


def make_compressor(
    height: int,
    width: int | None = None,
    *,
    method: str = "dc",
    cf: int = 4,
    s: int = 2,
    block: int = DEFAULT_BLOCK,
    fast: bool = True,
) -> Compressor:
    """The compiled compressor for one configuration, shared per process.

    Operands are computed "offline ... during compilation" (Sec. 3.3), so
    a process pays construction and the seeded equivalence probes once
    per normalised ``(height, width, method, cf, s, block, fast)``: every
    call with the same configuration returns the same
    instance from a bounded LRU (128 entries; :func:`clear_cache` drops
    them).  Shared instances are immutable — their operands are
    read-only and nothing may set attributes on them; only their probe
    verdicts accumulate, which is the point of sharing.

    Parameters
    ----------
    method:
        ``"dc"`` (baseline DCT+Chop), ``"ps"`` (partial serialization with
        subdivision factor ``s``), or ``"sg"`` (scatter/gather triangle).
    cf:
        Chop factor; the paper sweeps 2..7.
    fast:
        ``True`` (default) runs the probe-gated tiled fast path; ``False``
        builds a separate instance pinned to the dense oracle.  Anything
        but a bool raises :class:`ConfigError`.

    Degenerate configurations — non-integral or non-positive sizes,
    ``cf > block``, ``s`` not dividing the resolution, resolutions that
    are not block multiples — raise :class:`ConfigError` naming the
    offending values; nothing is silently truncated.
    """
    # Validate and normalise before the cache lookup: the key must be
    # built from plain ints, or ``32.0``/``True`` would hash equal to a
    # cached valid ``32``/``1`` and skip the ConfigError.  Range and
    # divisibility checks stay in the constructors — they depend only on
    # the normalised key, so an invalid key never enters the cache.
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    height = require_int("height", height)
    width = height if width is None else require_int("width", width)
    cf = require_int("cf", cf)
    block = require_int("block", block)
    # Only PS subdivides; the other methods ignore ``s`` and share one key.
    s = require_int("subdivision factor s", s) if method == "ps" else None
    fast = require_bool("fast", fast)

    def build() -> Compressor:
        if method == "ps":
            return PartialSerializedCompressor(
                height, width, cf=cf, s=s, block=block, fast=fast
            )
        cls = DCTChopCompressor if method == "dc" else ScatterGatherCompressor
        return cls(height, width, cf=cf, block=block, fast=fast)

    return _cache.get_or_build((height, width, method, cf, s, block, fast), build)


# Installed serving layer (duck-typed to avoid a core -> serve import;
# repro.serve imports this module).  None means "run on the host".
_service = None


def set_service(service):
    """Install (or with ``None`` remove) a serving layer; returns the old one.

    ``service`` must expose ``compress_one(x, *, method, cf, s, block)``
    and ``decompress_one(y, original_shape, *, method, cf, s, block)`` —
    :class:`repro.serve.CompressionService` does.
    """
    global _service
    previous, _service = _service, service
    return previous


def get_service():
    """The installed serving layer, or ``None``."""
    return _service


class _CompressorCache:
    """Bounded, lock-guarded LRU of compiled compressors.

    Keyed on :func:`make_compressor`'s normalised configuration.  Builds
    happen outside the lock (construction compiles operators, which can be
    slow); when two threads race to build the same key, the first insert
    wins and the loser's instance is discarded, so callers always converge
    on one shared compressor per key.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple, Compressor] = OrderedDict()

    def get_or_build(self, key: tuple, builder) -> Compressor:
        with self._lock:
            comp = self._entries.get(key)
            if comp is not None:
                self._entries.move_to_end(key)
                return comp
        built = builder()
        with self._lock:
            comp = self._entries.get(key)
            if comp is not None:
                self._entries.move_to_end(key)
                return comp
            self._entries[key] = built
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return built

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries


_cache = _CompressorCache()


def clear_cache() -> None:
    """Drop every cached compressor and fused operator pair (test hook)."""
    from repro.core import fused

    _cache.clear()
    fused.clear_fused_cache()


def compress(x, *, method: str = "dc", cf: int = 4, s: int = 2, block: int = DEFAULT_BLOCK) -> Tensor:
    """One-shot compression of a ``(..., H, W)`` array/tensor."""
    if _service is not None:
        return _service.compress_one(x, method=method, cf=cf, s=s, block=block)
    shape = x.shape
    comp = make_compressor(shape[-2], shape[-1], method=method, cf=cf, s=s, block=block)
    return comp.compress(x)


def decompress(
    y,
    original_shape: tuple[int, ...],
    *,
    method: str = "dc",
    cf: int = 4,
    s: int = 2,
    block: int = DEFAULT_BLOCK,
) -> Tensor:
    """One-shot decompression back to ``original_shape``'s plane size."""
    if _service is not None:
        return _service.decompress_one(y, original_shape, method=method, cf=cf, s=s, block=block)
    comp = make_compressor(
        original_shape[-2], original_shape[-1], method=method, cf=cf, s=s, block=block
    )
    return comp.decompress(y)
