"""Exception hierarchy shared across the repro package."""

import numbers


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ReproError):
    """An operation received tensors with incompatible shapes."""


class CompileError(ReproError):
    """An accelerator compiler rejected a computation graph.

    Mirrors the paper's observed compile failures (e.g. SN30 and GroqChip
    out-of-memory at 512x512 resolution, GroqChip beyond batch size 1000).

    ``deterministic`` distinguishes rejections that are a pure function of
    the plan key (the platform capability model always says no) from
    transient toolchain failures (an injected flaky compiler): only the
    former may be negatively cached forever.
    """

    deterministic = True

    def __init__(self, message: str, *, platform: str | None = None, reason: str | None = None):
        super().__init__(message)
        self.platform = platform
        self.reason = reason


class UnsupportedOperatorError(CompileError):
    """The target platform's toolchain does not support a required operator."""


class OutOfMemoryError(CompileError):
    """On-chip memory allocation failed during compilation."""


class ConfigError(ReproError):
    """Invalid user-facing configuration (chop factor, block size, ...)."""


def require_int(name: str, value, *, minimum: int = 1) -> int:
    """Validate an integral config value, returning it as a plain ``int``.

    Degenerate configurations must fail loudly with the offending value —
    historically ``cf=2.5`` passed the range check and was then silently
    truncated to 2 by ``int()``, producing a different compression ratio
    than requested.  Accepts Python and NumPy integers; rejects bools,
    floats (even integral-valued ones, to keep behaviour predictable), and
    anything non-numeric.
    """
    if type(value) is int and value >= minimum:
        # Plain ints (never bools) skip the slow ABC check: this runs on
        # every make_compressor call, cache hits included.
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(
            f"{name} must be an integer, got {value!r} "
            f"(type {type(value).__name__})"
        )
    value = int(value)
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


class IntegrityError(ReproError):
    """A stored container failed validation (truncation, checksum mismatch).

    Raised instead of decoding garbage: a corrupted ``.dcz`` payload must
    never be silently reconstructed into wrong training data.
    """


class DeviceError(ReproError):
    """A device failed at run time (after successful compilation).

    ``transient`` distinguishes faults worth retrying (link timeouts,
    launch hiccups) from persistent ones (the device is gone).
    """

    transient = False

    def __init__(self, message: str, *, platform: str | None = None):
        super().__init__(message)
        self.platform = platform


class TransientDeviceError(DeviceError):
    """A retryable device fault; the next attempt may well succeed."""

    transient = True


class HostLinkTimeoutError(TransientDeviceError):
    """The host-device link (PCIe / exchange fabric) timed out mid-transfer."""


class LaunchFailureError(TransientDeviceError):
    """The device rejected a program launch (queue full, driver hiccup)."""


class DeviceLostError(DeviceError):
    """The device dropped off the bus; it will not come back this run."""


class IntegrityFault(TransientDeviceError):
    """An integrity guard caught silently corrupted data before it was served.

    Unlike :class:`IntegrityError` (a *stored* container failed validation),
    an ``IntegrityFault`` means a *live* result failed an ABFT checksum or a
    stage-boundary digest: the device answered, but wrongly.  It subclasses
    :class:`TransientDeviceError` deliberately — recomputing is the correct
    response to a bit-flip, so detection feeds the existing retry ladder and
    circuit breakers instead of needing a parallel recovery path.

    ``site`` names the guard that fired (``"gemm"``, ``"device_output"``,
    ``"snapshot"``).
    """

    def __init__(self, message: str, *, platform: str | None = None, site: str = "device_output"):
        super().__init__(message, platform=platform)
        self.site = site


class ContainerFormatError(IntegrityError, ConfigError):
    """Bytes handed to the container loader are not a DCZ container at all.

    Dual-typed on purpose: historically a bad magic was a :class:`ConfigError`
    (the caller passed the wrong file), but under the single-bit-flip fuzz
    contract any corrupted load must surface as :class:`IntegrityError`.
    Subclassing both keeps existing callers and the fuzz contract honest.
    """


class ShedError(ReproError):
    """The serving layer refused a request instead of serving it late.

    Raised (or attached to a :class:`~repro.serve.overload.ShedRequest`)
    by deadline-aware admission control, bounded-queue backpressure, and
    graceful drain.  Shedding is always explicit — a request is never
    silently dropped — and ``reason`` says which policy fired
    (``"deadline"``, ``"queue_full"``, ``"expired"``, ``"draining"``, or
    ``"tenant_quota"`` from the fleet router's weighted-fair admission).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "deadline",
        deadline: float | None = None,
        predicted_finish: float | None = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.deadline = deadline
        self.predicted_finish = predicted_finish
