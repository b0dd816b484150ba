"""A compressor that survives device faults.

:class:`ResilientCompressor` binds one compressor configuration to one
platform at a fixed batch shape (every toolchain in the paper freezes
shapes at compile time) and layers the recovery machinery around it:

* compile failures walk the degradation ladder
  (:func:`~repro.resilience.ladder.compile_with_ladder`);
* transient run-time faults retry with backoff
  (:func:`~repro.resilience.retry.run_with_recovery`);
* a lost device is blacklisted and the program recompiles on the next
  platform down the fallback chain.

The decompress program is pinned to whatever configuration the compress
side resolved to, so the compressed representation always matches.
"""

from __future__ import annotations

import numpy as np

from repro.core.dct import DEFAULT_BLOCK
from repro.errors import DeviceLostError, ShapeError
from repro.resilience.ladder import LadderPolicy, LadderResult, compile_with_ladder
from repro.resilience.log import RecoveryLog
from repro.resilience.retry import RetryPolicy, run_with_recovery
from repro.tensor import Tensor


class ResilientCompressor:
    """Fault-tolerant compress/decompress at a fixed batch shape."""

    def __init__(
        self,
        height: int,
        width: int | None = None,
        *,
        platform: str = "ipu",
        method: str = "dc",
        cf: int = 4,
        s: int = 2,
        block: int = DEFAULT_BLOCK,
        batch: int = 100,
        channels: int = 3,
        retry: RetryPolicy | None = None,
        ladder: LadderPolicy | None = None,
        log: RecoveryLog | None = None,
        max_failovers: int = 3,
        plan_cache=None,
        retry_key: int = 0,
        retry_budget=None,
    ) -> None:
        """``plan_cache`` (a :class:`~repro.serve.plan_cache.CompiledPlanCache`)
        is threaded through every ladder walk, so a freshly constructed
        compressor whose configuration already resolved elsewhere replays
        the walk from cached plans instead of re-tracing.

        ``retry_key`` selects the jitter stream for retry backoff (the
        serving layer passes a per-request id so concurrent traces
        replay bit-identically).

        ``retry_budget`` (a :class:`~repro.resilience.budget.RetryBudget`)
        is shared across every compressor a service builds, bounding the
        aggregate retry amplification an integrity-fault or transient
        storm can produce.
        """
        self.height = height
        self.width = width if width is not None else height
        self.platform = platform
        self.method = method
        self.cf = cf
        self.s = s
        self.block = block
        self.batch = batch
        self.channels = channels
        self.retry = retry if retry is not None else RetryPolicy()
        self.ladder = ladder if ladder is not None else LadderPolicy()
        # Explicit None check: an empty RecoveryLog is falsy (it has __len__).
        self.log = log if log is not None else RecoveryLog()
        self.max_failovers = max_failovers
        self.plan_cache = plan_cache
        self.retry_key = retry_key
        self.retry_budget = retry_budget
        self._dead: set[str] = set()
        self._compiled: dict[str, LadderResult] = {}

    # ------------------------------------------------------------------
    @property
    def resolved(self):
        """The attempt the compress side resolved to (``None`` before compile)."""
        result = self._compiled.get("compress")
        return result.attempt if result else None

    def _ensure(self, direction: str) -> LadderResult:
        result = self._compiled.get(direction)
        if result is not None:
            return result
        resolved = self.resolved
        if direction == "decompress" and resolved is not None:
            # Pin the representation chosen by the compress side.
            platform, method, s = resolved.platform, resolved.method, resolved.s
            pinned = True
        else:
            platform, method, s = self.platform, self.method, self.s
            pinned = False
        if platform in self._dead:
            candidates = [
                p
                for p in self.ladder.fallback_platforms
                if p not in self._dead and p != platform
            ]
            if not candidates:
                raise DeviceLostError(
                    f"all platforms exhausted (dead: {sorted(self._dead)})", platform=platform
                )
            platform = candidates[0]
        result = compile_with_ladder(
            self.height,
            self.width,
            platform=platform,
            method=method,
            cf=self.cf,
            s=s,
            block=self.block,
            batch=self.batch,
            channels=self.channels,
            direction=direction,
            policy=self.ladder.excluding(self._dead, ps=pinned),
            log=self.log,
            cache=self.plan_cache,
        )
        self._compiled[direction] = result
        return result

    def compile(self, direction: str = "compress") -> LadderResult:
        """Compile (via the ladder) without running; idempotent."""
        return self._ensure(direction)

    @property
    def dead_platforms(self) -> frozenset[str]:
        """Platforms blacklisted by device-lost failover so far."""
        return frozenset(self._dead)

    # ------------------------------------------------------------------
    def _run(self, direction: str, x: np.ndarray) -> Tensor:
        failovers = 0
        while True:
            result = self._ensure(direction)
            try:
                return self._run_sharded(result, x)
            except DeviceLostError as exc:
                dead = exc.platform or result.attempt.platform
                self.log.record(
                    "fault",
                    f"device lost on {dead}; failing over",
                    kind="DeviceLostError",
                    platform=dead,
                )
                if failovers >= self.max_failovers:
                    self.log.record("gave_up", f"{failovers} failovers exhausted")
                    raise
                self._dead.add(dead)
                self._compiled.clear()
                failovers += 1

    def _run_sharded(self, result: LadderResult, x: np.ndarray) -> Tensor:
        """Run the live rows of ``x`` (1 up to ``batch``) on the resolved program.

        A shard rung's devices each own ``batch // n_devices`` rows of
        the compiled batch; the live rows are cut at those boundaries and
        a shard with no live rows is not run on the host.
        """
        n = result.attempt.n_devices
        arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)

        def run(rows: np.ndarray) -> Tensor:
            return run_with_recovery(
                result.program.run, rows,
                policy=self.retry, log=self.log, retry_key=self.retry_key,
                budget=self.retry_budget,
            ).output

        if n == 1:
            return run(arr)
        if not 0 < len(arr) <= self.batch:
            raise ShapeError(
                f"{len(arr)} rows for a {n}-device program of batch {self.batch}"
            )
        per = self.batch // n
        outputs = [run(arr[i:i + per]).numpy() for i in range(0, len(arr), per)]
        return Tensor(np.concatenate(outputs, axis=0))

    # ------------------------------------------------------------------
    def compress(self, x) -> Tensor:
        return self._run("compress", x)

    def decompress(self, y) -> Tensor:
        return self._run("decompress", y)

    def roundtrip(self, x) -> Tensor:
        return self.decompress(self.compress(x))

    @property
    def ratio(self) -> float:
        result = self._compiled.get("compress")
        if result is not None:
            return result.comp.ratio
        from repro.core.api import make_compressor

        return make_compressor(
            self.height, self.width, method=self.method, cf=self.cf, s=self.s, block=self.block
        ).ratio
