"""Consistent-hash ring with bounded-load spill.

Requests are routed to workers by their plan identity (the
:class:`~repro.serve.batcher.ServiceKey`, which maps 1:1 onto the
:class:`~repro.accel.PlanKey` a worker compiles and caches) rather than
round-robin: all traffic for one compiled plan lands on one worker, so
each worker's :class:`~repro.serve.plan_cache.CompiledPlanCache` only
ever holds its own hash range and its hit rate stays as high as a
single-service deployment's.

Each worker owns ``vnodes`` points on a 64-bit ring (BLAKE2b of
``"name#i"``), which keeps ranges balanced and makes the reshuffle on a
crash proportional to the dead worker's share only — the classic
consistent-hashing property.  Routing is *bounded-load*: the primary
owner is skipped while it is at capacity, spilling to the next distinct
worker clockwise (Google's "consistent hashing with bounded loads"), so
a hot key range degrades into slightly worse cache affinity instead of
an unbounded queue.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import ConfigError

#: Memoised owner walks kept per ring (distinct plan identities).
_OWNERS_CAP = 4096


def stable_hash(text: str) -> int:
    """Deterministic 64-bit hash (never Python's seeded ``hash``)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring mapping keys to named workers."""

    def __init__(self, vnodes: int = 32) -> None:
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []   # sorted (hash, worker)
        self._members: set[str] = set()
        # key -> owners walk; valid until the next membership change and
        # bounded, since keys come from request shapes.
        self._owners: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    def add(self, worker: str) -> None:
        """Insert ``worker``'s vnodes (no-op if already present)."""
        if worker in self._members:
            return
        self._members.add(worker)
        self._owners.clear()
        for i in range(self.vnodes):
            point = (stable_hash(f"{worker}#{i}"), worker)
            bisect.insort(self._points, point)

    def remove(self, worker: str) -> None:
        """Drop ``worker``'s vnodes; its range flows to ring successors."""
        if worker not in self._members:
            return
        self._members.discard(worker)
        self._owners.clear()
        self._points = [p for p in self._points if p[1] != worker]

    def __contains__(self, worker: str) -> bool:
        return worker in self._members

    def __len__(self) -> int:
        return len(self._members)

    @property
    def members(self) -> list[str]:
        return sorted(self._members)

    # ------------------------------------------------------------------
    def owners(self, key: str) -> tuple[str, ...]:
        """Distinct workers in ring order starting at ``key``'s successor.

        The first element is the primary owner; the rest are the spill
        order a bounded-load router walks.  Memoised per key until the
        membership changes (hence a tuple: the entry is shared).
        """
        owners = self._owners.get(key)
        if owners is None:
            if len(self._owners) >= _OWNERS_CAP:
                self._owners.clear()
            owners = self._owners[key] = self._walk(key)
        return owners

    def _walk(self, key: str) -> tuple[str, ...]:
        if not self._points:
            return ()
        h = stable_hash(key)
        start = bisect.bisect_right(self._points, (h, "￿"))
        seen: list[str] = []
        n = len(self._points)
        for off in range(n):
            worker = self._points[(start + off) % n][1]
            if worker not in seen:
                seen.append(worker)
                if len(seen) == len(self._members):
                    break
        return tuple(seen)

    def primary(self, key: str) -> str | None:
        """The key's primary owner (``None`` on an empty ring)."""
        owners = self.owners(key)
        return owners[0] if owners else None

    def route(self, key: str, has_capacity=None) -> tuple[str | None, bool]:
        """Pick the worker for ``key``; returns ``(worker, spilled)``.

        ``has_capacity(worker) -> bool`` implements bounded load: owners
        are walked clockwise until one has room.  If every member is at
        capacity the primary owner is returned anyway — admission control
        downstream sheds explicitly; the ring never silently drops.
        """
        owners = self.owners(key)
        if not owners:
            return None, False
        if has_capacity is None:
            return owners[0], False
        for worker in owners:
            if has_capacity(worker):
                return worker, worker != owners[0]
        return owners[0], False
