"""LRU cache of compiled plans keyed on :class:`~repro.accel.PlanKey`.

Every accelerator toolchain in the paper freezes shapes at compile time,
which makes a compiled program a pure function of its
(platform, shape, method, CF, s) key — the one property that lets a
serving layer amortize tracing and compilation across unbounded traffic.
The cache also remembers *failed* compiles (negative entries): the SN30's
512x512 OOM is just as deterministic as a success, and re-tracing it on
every request would burn the very cost the cache exists to avoid.

Hit/miss/eviction tallies live in the :mod:`repro.obs.metrics` registry
(``repro_plan_cache_*_total``, one labelled child per cache instance)
rather than in private ints, so the serving fleet's cache behaviour shows
up in the same Prometheus dump as everything else; the per-instance
``hits``/``misses``/``evictions`` properties read the same counters back.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from repro.accel.compiler import CompiledProgram, PlanKey
from repro.errors import CompileError, ConfigError
from repro.obs.metrics import get_registry

# Deterministic per-process instance labels for the registry children.
_INSTANCE_SEQ = itertools.count()


@dataclass(frozen=True)
class PlanCacheSnapshot:
    """Serialised contents of one :class:`CompiledPlanCache`.

    ``entries`` maps each :class:`~repro.accel.PlanKey` to its cached
    plan — a :class:`CompiledProgram` or a negative
    :class:`~repro.errors.CompileError` entry — plus the remaining
    negative-TTL re-probe budget (``None`` for positive entries and for
    deterministic rejections, which never expire).  Order is LRU-first,
    exactly as the source cache held them, so a restore reproduces both
    contents *and* eviction priority.  This is the handoff payload the
    fleet router ships to a replacement worker so it starts warm.
    """

    entries: tuple[tuple[PlanKey, "CompiledProgram | CompileError", int | None], ...]
    negative_ttl: int | None = None
    taken_at: float = 0.0              # modelled time of the snapshot (0 = unset)

    @property
    def size(self) -> int:
        return len(self.entries)

    def keys(self) -> list[PlanKey]:
        return [key for key, _, _ in self.entries]

    def describe(self) -> str:
        negative = sum(1 for _, v, _ in self.entries if isinstance(v, CompileError))
        return (
            f"{self.size} plan(s) ({negative} negative)"
            + (f" taken at {self.taken_at:.6f}s" if self.taken_at else "")
        )

    def to_manifest(self) -> list[dict]:
        """JSON-friendly audit listing (keys + entry kind + TTL budget)."""
        return [
            {
                "key": key.describe(),
                "kind": "negative" if isinstance(value, CompileError) else "plan",
                "negative_budget": budget,
            }
            for key, value, budget in self.entries
        ]


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`CompiledPlanCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without re-compiling (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


class CompiledPlanCache:
    """Bounded LRU of :class:`CompiledProgram` (or :class:`CompileError`) entries.

    ``get``/``put`` are the raw interface; :meth:`get_or_compile` wraps a
    compile callback so callers get one-line memoization.  Cached
    :class:`CompileError` entries re-raise on lookup — a deterministic
    toolchain rejects the same program every time.  Negative entries
    whose error is *not* deterministic (``exc.deterministic`` false, e.g.
    an injected flaky-toolchain fault) get a bounded re-probe budget of
    ``negative_ttl`` lookups, so a transiently failing compiler is not
    blacklisted forever.
    """

    def __init__(
        self, capacity: int = 64, *, negative_ttl: int | None = None, registry=None
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        if negative_ttl is not None and negative_ttl < 1:
            raise ConfigError(f"negative_ttl must be >= 1, got {negative_ttl}")
        self.capacity = capacity
        self.negative_ttl = negative_ttl
        self._entries: OrderedDict[PlanKey, CompiledProgram | CompileError] = OrderedDict()
        # Remaining lookups before a *transient* negative entry is dropped
        # and the toolchain re-probed.  Deterministic rejections (the
        # capability model's SN30 512x512 OOM) never appear here — they
        # stay cached forever, exactly as without a TTL.
        self._neg_budget: dict[PlanKey, int] = {}
        self._lock = threading.Lock()
        reg = registry if registry is not None else get_registry()
        self._label = f"c{next(_INSTANCE_SEQ)}"
        self._c_reprobes = (
            reg.counter(
                "repro_plan_cache_negative_reprobes_total",
                help="transient negative entries dropped after their lookup TTL",
            )
            if negative_ttl is not None
            else None
        )
        self._c_hits = reg.counter(
            "repro_plan_cache_hits_total", help="plan-cache lookups served from cache"
        )
        self._c_misses = reg.counter(
            "repro_plan_cache_misses_total", help="plan-cache lookups that missed"
        )
        self._c_evictions = reg.counter(
            "repro_plan_cache_evictions_total", help="plans evicted by LRU pressure"
        )
        self._g_size = reg.gauge("repro_plan_cache_size", help="plans currently cached")

    # Series handles of the per-lookup counters, bound on first use.
    @cached_property
    def _h_hits(self):
        return self._c_hits.labels(cache=self._label)

    @cached_property
    def _h_misses(self):
        return self._c_misses.labels(cache=self._label)

    @cached_property
    def _h_size(self):
        return self._g_size.labels(cache=self._label)

    # ------------------------------------------------------------------
    def get(self, key: PlanKey) -> CompiledProgram | CompileError | None:
        """Counted lookup; refreshes LRU order on hit.

        A *transient* negative entry (a :class:`CompileError` whose
        ``deterministic`` flag is false) is served at most ``negative_ttl``
        times; the next lookup drops it and misses, so the caller
        re-probes the toolchain instead of trusting a stale blacklist.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._h_misses.inc()
                return None
            if isinstance(entry, CompileError) and key in self._neg_budget:
                budget = self._neg_budget[key]
                if budget <= 0:
                    del self._entries[key]
                    del self._neg_budget[key]
                    self._h_misses.inc()
                    self._c_reprobes.inc(cache=self._label)
                    self._h_size.set(len(self._entries))
                    return None
                self._neg_budget[key] = budget - 1
            self._entries.move_to_end(key)
            self._h_hits.inc()
            return entry

    def put(self, key: PlanKey, value: CompiledProgram | CompileError) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._neg_budget.pop(key, None)
            if (
                self.negative_ttl is not None
                and isinstance(value, CompileError)
                and not getattr(value, "deterministic", True)
            ):
                self._neg_budget[key] = self.negative_ttl
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._neg_budget.pop(evicted, None)
                self._c_evictions.inc(cache=self._label)
            self._h_size.set(len(self._entries))

    def get_or_compile(
        self, key: PlanKey, factory: Callable[[], CompiledProgram]
    ) -> CompiledProgram:
        """Return the cached plan for ``key``, compiling via ``factory`` on miss.

        A cached (or fresh) :class:`CompileError` is raised, and remembered
        so the failing configuration is never re-traced.
        """
        entry = self.get(key)
        if entry is None:
            try:
                entry = factory()
            except CompileError as exc:
                self.put(key, exc)
                raise
            self.put(key, entry)
        if isinstance(entry, CompileError):
            # Raise a fresh instance chained to the cached one rather than
            # re-raising the cached object: re-raising mutates the stored
            # exception's traceback (it grows with every negative hit), and
            # flight-recorder dumps need ``__cause__`` to show *when* the
            # configuration originally failed, not the latest lookup stack.
            rejection = type(entry)(str(entry), platform=entry.platform, reason=entry.reason)
            rejection.deterministic = entry.deterministic
            raise rejection from entry
        return entry

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        """Uncounted membership probe (does not disturb LRU order)."""
        return key in self._entries

    def keys(self) -> list[PlanKey]:
        """Current keys, LRU first."""
        return list(self._entries)

    def clear(self) -> None:
        """Drop all entries; counters keep accumulating."""
        with self._lock:
            self._entries.clear()
            self._neg_budget.clear()
            self._h_size.set(0)

    def discard(self, key: PlanKey) -> bool:
        """Drop one entry (if present) without disturbing anything else.

        Used by the integrity scrub to evict a plan convicted of producing
        corrupt output; the key simply re-misses and recompiles on next
        use.  Not counted as an eviction — evictions are capacity events.
        """
        with self._lock:
            present = self._entries.pop(key, None) is not None
            self._neg_budget.pop(key, None)
            if present:
                self._h_size.set(len(self._entries))
            return present

    # ------------------------------------------------------------------
    def export_snapshot(self, *, taken_at: float = 0.0) -> PlanCacheSnapshot:
        """Freeze the current contents for handoff (LRU order preserved).

        The snapshot is uncounted — exporting disturbs neither the LRU
        order nor the hit/miss tallies — and shares the (immutable)
        compiled programs with this cache rather than copying them, the
        way a real handoff ships serialized plan blobs, not recompiles.
        """
        with self._lock:
            return PlanCacheSnapshot(
                entries=tuple(
                    (key, value, self._neg_budget.get(key))
                    for key, value in self._entries.items()
                ),
                negative_ttl=self.negative_ttl,
                taken_at=taken_at,
            )

    def restore(self, snapshot: PlanCacheSnapshot) -> int:
        """Replace this cache's contents from ``snapshot``; returns plans kept.

        Restoring preserves LRU order and the remaining negative-TTL
        budgets exactly.  If the snapshot holds more entries than this
        cache's capacity, the LRU-most overflow is dropped (counted as
        evictions).  Hit/miss counters are *not* reset — a restored cache
        keeps accounting from zero if it is a fresh instance, or keeps
        accumulating if it is being re-imaged in place.
        """
        with self._lock:
            self._entries.clear()
            self._neg_budget.clear()
            entries = snapshot.entries
            dropped = max(0, len(entries) - self.capacity)
            for key, value, budget in entries[dropped:]:
                self._entries[key] = value
                if budget is not None:
                    self._neg_budget[key] = budget
            for _ in range(dropped):
                self._c_evictions.inc(cache=self._label)
            self._h_size.set(len(self._entries))
            return len(self._entries)

    @property
    def hits(self) -> int:
        return int(self._h_hits.value())

    @property
    def misses(self) -> int:
        return int(self._h_misses.value())

    @property
    def evictions(self) -> int:
        return int(self._c_evictions.value(cache=self._label))

    @property
    def hit_rate(self) -> float:
        return self.snapshot().hit_rate

    def snapshot(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )
