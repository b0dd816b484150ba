"""Dynamic request batching.

Single-image requests that share a service key — same plane size,
channel count, and compressor configuration — are coalesced into one
batched run of the same compiled plan.  A group flushes when it reaches
``max_batch`` images or when its oldest request has waited ``max_wait``
modelled seconds, whichever comes first.  Every flush reuses the *same*
static-shape ``max_batch`` plan: the modelled device runs (and is
charged for) the padded shape, while the host computes only the live
rows (:meth:`Batch.stacked`).  Per-image outputs are bit-identical to
the unbatched path because the compressor treats batch entries
independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.dct import DEFAULT_BLOCK
from repro.errors import ConfigError, ShapeError


@dataclass(frozen=True)
class ServiceKey:
    """What must match for two requests to share one compiled plan."""

    height: int
    width: int
    channels: int
    method: str = "dc"
    cf: int = 4
    s: int = 2
    block: int = DEFAULT_BLOCK

    def describe(self) -> str:
        cfg = f"{self.method} cf={self.cf}" + (f" s={self.s}" if self.method == "ps" else "")
        return f"{self.channels}x{self.height}x{self.width} {cfg}"


@dataclass
class Request:
    """One single-image compression request in a trace.

    ``deadline`` is an *absolute* modelled time by which the caller needs
    the result (``None`` = no deadline).  The overload layer sheds — or
    degrades — requests the timing model predicts cannot finish by it;
    with no :class:`~repro.serve.overload.OverloadPolicy` attached the
    field is carried but never consulted.

    ``tenant`` names the traffic source for fleet-level quota accounting
    (:mod:`repro.fleet`); it never enters the :class:`ServiceKey`, so
    tenants share compiled plans and batch slots freely.
    """

    rid: int
    image: np.ndarray                  # (C, H, W) float32
    arrival: float = 0.0               # modelled arrival time (seconds)
    method: str = "dc"
    cf: int = 4
    s: int = 2
    block: int = DEFAULT_BLOCK
    deadline: float | None = None      # absolute modelled time, None = no deadline
    tenant: str = "default"            # fleet quota attribution (not part of the key)
    # Built once here; dataclasses.replace re-runs __post_init__, so a
    # degraded copy (replace(req, cf=...)) gets its own key.
    key: ServiceKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.image.ndim != 3:
            raise ShapeError(
                f"request {self.rid}: expected a (C, H, W) image, got shape {self.image.shape}"
            )
        c, h, w = self.image.shape
        self.key = ServiceKey(
            height=h, width=w, channels=c,
            method=self.method, cf=self.cf, s=self.s, block=self.block,
        )


@dataclass
class Batch:
    """A flushed group of same-key requests, ready to dispatch."""

    key: ServiceKey
    requests: list[Request]
    formed_at: float                   # modelled time the batch flushed

    def __len__(self) -> int:
        return len(self.requests)

    def stacked(self) -> np.ndarray:
        """The live images as one ``(len(batch), C, H, W)`` float32 array.

        No padding rows: the host computes live rows only, while the
        modelled device is charged for the padded plan shape.
        """
        k = self.key
        out = np.empty((len(self.requests), k.channels, k.height, k.width), np.float32)
        for i, req in enumerate(self.requests):
            out[i] = req.image
        return out

    def split_expired(self, now: float) -> tuple[list[Request], list[Request]]:
        """Partition members into (live, expired-by-``now``) lists.

        A member is expired when its deadline has already passed at batch
        formation — serving it would only deliver a result the caller has
        stopped waiting for.  The overload layer sheds the expired tail
        explicitly and dispatches the live head only.
        """
        live = [r for r in self.requests if r.deadline is None or r.deadline >= now]
        expired = [r for r in self.requests if not (r.deadline is None or r.deadline >= now)]
        return live, expired


class _Group:
    """One key's queued requests plus their oldest and newest arrival."""

    __slots__ = ("requests", "oldest", "newest")

    def __init__(self, request: Request) -> None:
        self.requests = [request]
        self.oldest = self.newest = request.arrival

    def add(self, request: Request) -> None:
        self.requests.append(request)
        # Strict comparisons keep the first of equal arrivals, as min/max do.
        arrival = request.arrival
        if arrival < self.oldest:
            self.oldest = arrival
        elif arrival > self.newest:
            self.newest = arrival

    def batch(self, key: ServiceKey, deadline: float) -> Batch:
        """Form at the flush deadline, clamped after every member arrival."""
        return Batch(key=key, requests=self.requests, formed_at=max(deadline, self.newest))


@dataclass
class DynamicBatcher:
    """Coalesce same-key requests under a max-batch / max-wait policy.

    ``max_depth`` optionally bounds the total queued requests across all
    groups; :attr:`at_capacity` is the backpressure signal the overload
    layer consults before admitting more work (``None`` = unbounded, the
    pre-overload behaviour).

    Each group keeps its oldest and newest arrival and the batcher keeps
    a running depth and the earliest group deadline, so :meth:`due`
    returns at once while nothing is due and :attr:`depth` is O(1).
    """

    max_batch: int = 8
    max_wait: float = 0.002            # modelled seconds the oldest request may wait
    max_depth: int | None = None       # bound on queued requests (backpressure)
    _pending: dict[ServiceKey, _Group] = field(default_factory=dict, repr=False)
    _depth: int = field(default=0, init=False, repr=False)
    # No group is due before this; may lag low after a full group leaves
    # (a later due() rescans and tightens it), never high.
    _next_due: float = field(default=math.inf, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 0:
            raise ConfigError(f"max_wait must be >= 0, got {self.max_wait}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")

    @property
    def next_due(self) -> float:
        """No group is due before this modelled time (``inf`` when idle).

        May lag low, never high, so ``now < next_due`` proves that
        :meth:`due` would return nothing.
        """
        return self._next_due

    # ------------------------------------------------------------------
    def add(self, request: Request) -> Batch | None:
        """Enqueue; returns a full batch the moment one forms.

        A full batch forms at its *latest* member arrival.  For in-order
        traffic that is the triggering request's arrival (the historical
        behaviour, bit-for-bit); under fleet replay a crashed worker's
        old requests re-enter out of arrival order, and a batch must not
        form before a member arrived.
        """
        key = request.key
        group = self._pending.get(key)
        if group is None:
            group = self._pending[key] = _Group(request)
        else:
            group.add(request)
        self._depth += 1
        if len(group.requests) >= self.max_batch:
            del self._pending[key]
            self._depth -= len(group.requests)
            return Batch(key=key, requests=group.requests, formed_at=group.newest)
        deadline = group.oldest + self.max_wait
        if deadline < self._next_due:
            self._next_due = deadline
        return None

    def due(self, now: float) -> list[Batch]:
        """Flush every group whose oldest request has waited ``max_wait``.

        Each batch's ``formed_at`` is its deadline (oldest arrival +
        ``max_wait``) — the moment the flush timer fired — so dispatch
        times stay deterministic regardless of when the caller polls.
        Replayed members may carry arrivals past the deadline of a group
        they joined late; formation is clamped after every arrival.
        """
        if now < self._next_due:
            return []
        out = []
        next_due = math.inf
        for key in list(self._pending):
            group = self._pending[key]
            deadline = group.oldest + self.max_wait
            if deadline <= now:
                del self._pending[key]
                self._depth -= len(group.requests)
                out.append(group.batch(key, deadline))
            elif deadline < next_due:
                next_due = deadline
        self._next_due = next_due
        out.sort(key=lambda b: (b.formed_at, b.key.describe()))
        return out

    def flush(self) -> list[Batch]:
        """Drain everything (end of trace); deadlines still apply."""
        out = [
            group.batch(key, group.oldest + self.max_wait)
            for key, group in self._pending.items()
        ]
        self._clear()
        out.sort(key=lambda b: (b.formed_at, b.key.describe()))
        return out

    def drain_pending(self) -> list[Request]:
        """Remove and return every queued request *without* forming batches.

        This is the crash path: when a fleet worker dies, its in-flight
        (queued, not yet dispatched) requests are pulled out raw so the
        router can replay them on surviving workers.  Order is arrival
        order (then rid), so replays are deterministic.
        """
        out = [r for group in self._pending.values() for r in group.requests]
        self._clear()
        out.sort(key=lambda r: (r.arrival, r.rid))
        return out

    def _clear(self) -> None:
        self._pending.clear()
        self._depth = 0
        self._next_due = math.inf

    @property
    def depth(self) -> int:
        """Requests currently queued across all groups."""
        return self._depth

    @property
    def at_capacity(self) -> bool:
        """Backpressure signal: the bounded queue is full."""
        return self.max_depth is not None and self._depth >= self.max_depth
