"""Graceful-degradation ladder for compile failures.

When a platform's toolchain rejects a compressor program
(:class:`~repro.errors.OutOfMemoryError`,
:class:`~repro.errors.UnsupportedOperatorError`), the ladder walks a
fixed sequence of increasingly drastic recoveries, mirroring what the
paper's authors did by hand:

1. **``ps`` rung** — switch to partial serialization and escalate the
   subdivision factor ``s`` (2 → 4 → 8).  This is exactly how the paper
   gets 512x512 onto the SN30 (Section 3.5.1).
2. **``shard`` rung** — split the batch across one deployment node's
   devices (:data:`repro.accel.multichip.NODE_SIZES`); each device
   compiles the smaller per-shard program.  Recovers GroqChip's
   batch-size ceiling.
3. **``fallback`` rung** — recompile on an alternate platform, ending at
   the gate-free ``cpu`` host.

Every attempt — failed or successful — is recorded in a
:class:`~repro.resilience.log.RecoveryLog`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from repro.accel.compiler import CompiledProgram, compile_program, compressor_key
from repro.accel.multichip import shard_counts
from repro.core.api import Compressor, make_compressor
from repro.core.dct import DEFAULT_BLOCK
from repro.errors import CompileError, ConfigError
from repro.resilience.log import RecoveryLog

RUNGS = ("original", "ps", "shard", "fallback")


@dataclass(frozen=True)
class LadderPolicy:
    """Which rungs the ladder may take, and in what shape.

    Frozen and hashable, so the attempt list is built once per
    (platform, method, s, batch, policy).  Sequences are stored as
    tuples; ``exclude_platforms`` is a set in meaning, kept sorted so
    equal exclusions make equal policies.
    """

    allow_ps: bool = True
    ps_factors: tuple[int, ...] = (2, 4, 8)
    allow_shard: bool = True
    allow_fallback: bool = True
    fallback_platforms: tuple[str, ...] = ("ipu", "cs2", "sn30", "groq", "a100", "cpu")
    exclude_platforms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ps_factors", tuple(self.ps_factors))
        object.__setattr__(self, "fallback_platforms", tuple(self.fallback_platforms))
        object.__setattr__(
            self, "exclude_platforms", tuple(sorted(set(self.exclude_platforms)))
        )

    def excluding(self, platforms, *, ps: bool = False) -> "LadderPolicy":
        """This policy minus ``platforms`` (and the PS rung when ``ps``);
        ``self`` when nothing changes, so the attempt-list memo keeps hitting."""
        allow_ps = self.allow_ps and not ps
        if allow_ps == self.allow_ps and set(platforms).issubset(self.exclude_platforms):
            return self
        return replace(
            self, allow_ps=allow_ps, exclude_platforms=(*self.exclude_platforms, *platforms)
        )


@dataclass(frozen=True)
class Attempt:
    """One (rung, configuration) the ladder tries."""

    rung: str
    platform: str
    method: str
    s: int
    n_devices: int = 1

    def describe(self) -> str:
        bits = [f"{self.method}" + (f" s={self.s}" if self.method == "ps" else "")]
        if self.n_devices > 1:
            bits.append(f"x{self.n_devices} devices")
        return f"{self.rung}: {self.platform} " + ", ".join(bits)


@dataclass
class LadderResult:
    """A successfully compiled program plus how the ladder got there."""

    program: CompiledProgram
    comp: Compressor
    attempt: Attempt
    failures: list[tuple[Attempt, CompileError]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return self.attempt.rung != "original"


@functools.lru_cache(maxsize=256)
def _attempts(
    platform: str, method: str, s: int, batch: int, policy: LadderPolicy
) -> tuple[Attempt, ...]:
    out = [Attempt("original", platform, method, s)]
    if policy.allow_ps:
        floor = s if method == "ps" else 0
        for factor in policy.ps_factors:
            if factor > floor:
                out.append(Attempt("ps", platform, "ps", factor))
    if policy.allow_shard:
        counts = shard_counts(platform, batch)
        if counts:
            n = counts[0]  # largest even shard → smallest per-device program
            out.append(Attempt("shard", platform, method, s, n_devices=n))
            if policy.allow_ps:
                for factor in policy.ps_factors:
                    out.append(Attempt("shard", platform, "ps", factor, n_devices=n))
    if policy.allow_fallback:
        for alt in policy.fallback_platforms:
            if alt != platform and alt not in policy.exclude_platforms:
                out.append(Attempt("fallback", alt, method, s))
    return tuple(a for a in out if a.platform not in policy.exclude_platforms)


def compile_plan(
    compressor, shape, platform: str, *, method: str, cf: int, s: int, block: int,
    direction: str, cache=None,
) -> CompiledProgram:
    """Compile ``compressor()``'s ``direction`` program at example input ``shape``,
    through ``cache.get_or_compile`` when a cache is given (``compressor``
    is only called on a miss); a cached rejection raises a fresh error."""
    key = compressor_key(platform, tuple(shape), method, cf, s, block, direction)

    def build() -> CompiledProgram:
        fn = getattr(compressor(), direction)
        name = f"{method}-{direction}-{platform}"
        return compile_program(fn, np.zeros(shape, np.float32), platform, name=name, key=key)

    return build() if cache is None else cache.get_or_compile(key, build)


def compile_with_ladder(
    height: int,
    width: int | None = None,
    *,
    platform: str,
    method: str = "dc",
    cf: int = 4,
    s: int = 2,
    block: int = DEFAULT_BLOCK,
    batch: int = 100,
    channels: int = 3,
    direction: str = "compress",
    policy: LadderPolicy | None = None,
    log: RecoveryLog | None = None,
    cache=None,
) -> LadderResult:
    """Compile a compressor program, degrading until something fits.

    Returns a :class:`LadderResult` whose ``attempt`` records the rung
    that succeeded; raises the last :class:`CompileError` if every rung
    is exhausted.  A PS rung whose chunks are not multiples of ``block``
    cannot apply and is skipped.

    ``cache`` is an optional
    :class:`~repro.serve.plan_cache.CompiledPlanCache` that every attempt
    compiles through (:func:`compile_plan`): cached plans skip
    compilation, and cached *failures* skip the doomed re-trace — so a
    walk that already resolved once replays in O(attempts) lookups.
    """
    if direction not in ("compress", "decompress"):
        raise ConfigError(f"direction must be compress|decompress, got {direction!r}")
    width = width if width is not None else height
    policy = policy if policy is not None else LadderPolicy()
    # Explicit None check: an empty RecoveryLog is falsy (it has __len__).
    log = log if log is not None else RecoveryLog()
    failures: list[tuple[Attempt, CompileError]] = []

    for attempt in _attempts(platform, method, s, batch, policy):
        # Shard counts divide ``batch`` by construction (shard_counts); a
        # PS split the ladder picked must still cut block-multiple chunks.
        split = attempt.s * block if attempt.method == "ps" and attempt.rung != "original" else 1
        if height % split or width % split:
            continue
        comp = make_compressor(
            height, width, method=attempt.method, cf=cf, s=attempt.s, block=block
        )
        in_shape = (batch // attempt.n_devices, channels, height, width)
        try:
            program = compile_plan(
                lambda: comp,
                in_shape if direction == "compress" else comp.compressed_shape(in_shape),
                attempt.platform, method=attempt.method, cf=cf, s=attempt.s, block=block,
                direction=direction, cache=cache,
            )
        except CompileError as exc:
            # Only a rejection the cache served is chained to its stored entry.
            cached = ", cached" if exc.__cause__ is not None else ""
            failures.append((attempt, exc))
            log.record(
                "fault",
                f"compile failed{cached} ({attempt.describe()}): {exc}",
                rung=attempt.rung,
                platform=attempt.platform,
                reason=exc.reason or "",
            )
            continue
        if attempt.rung != "original":
            log.record(
                "rung",
                f"degraded to {attempt.describe()}",
                rung=attempt.rung,
                platform=attempt.platform,
                method=attempt.method,
                s=attempt.s,
                n_devices=attempt.n_devices,
            )
            log.record("recovered", f"compiled after {len(failures)} failed attempt(s)")
        return LadderResult(program=program, comp=comp, attempt=attempt, failures=failures)

    log.record("gave_up", f"all {len(failures)} ladder attempts failed")
    assert failures
    raise failures[-1][1]
