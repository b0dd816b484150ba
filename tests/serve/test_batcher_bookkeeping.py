"""DynamicBatcher's stored arrival bounds against a scan-based reference.

The batcher keeps each group's oldest and newest arrival, a running
depth and the earliest deadline instead of scanning every queued member
on each call.  :class:`ScanBatcher` is the scanning implementation it
replaced; random ``add``/``due``/``flush``/``drain_pending`` sequences,
out-of-order arrivals included, must produce the same batches (members,
``formed_at``, order), ``depth`` and ``at_capacity`` from both, and
the batcher's ``next_due`` may lag low but never high: the fleet router
skips polling a worker whose ``next_due`` is still ahead.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serve import DynamicBatcher, Request
from repro.serve.batcher import Batch


class ScanBatcher:
    """Reference: every question answered by scanning the queued members."""

    def __init__(self, max_batch: int, max_wait: float, max_depth: int | None) -> None:
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.max_depth = max_depth
        self._pending: dict = {}

    def add(self, request: Request) -> Batch | None:
        group = self._pending.setdefault(request.key, [])
        group.append(request)
        if len(group) >= self.max_batch:
            del self._pending[request.key]
            return Batch(request.key, group, max(r.arrival for r in group))
        return None

    def _form(self, key, group) -> Batch:
        deadline = min(r.arrival for r in group) + self.max_wait
        return Batch(key, group, max(deadline, max(r.arrival for r in group)))

    def due(self, now: float) -> list[Batch]:
        out = []
        for key in list(self._pending):
            group = self._pending[key]
            if min(r.arrival for r in group) + self.max_wait <= now:
                del self._pending[key]
                out.append(self._form(key, group))
        out.sort(key=lambda b: (b.formed_at, b.key.describe()))
        return out

    def flush(self) -> list[Batch]:
        out = [self._form(key, group) for key, group in self._pending.items()]
        self._pending.clear()
        out.sort(key=lambda b: (b.formed_at, b.key.describe()))
        return out

    def drain_pending(self) -> list[Request]:
        out = [r for group in self._pending.values() for r in group]
        self._pending.clear()
        out.sort(key=lambda r: (r.arrival, r.rid))
        return out

    @property
    def depth(self) -> int:
        return sum(len(g) for g in self._pending.values())

    @property
    def at_capacity(self) -> bool:
        return self.max_depth is not None and self.depth >= self.max_depth

    @property
    def next_due(self) -> float:
        return min(
            (min(r.arrival for r in g) + self.max_wait for g in self._pending.values()),
            default=math.inf,
        )


_KEYS = ((8, 2), (8, 4), (16, 2), (16, 4))      # (resolution, cf)
_IMAGES = {res: np.zeros((1, res, res), np.float32) for res, _ in _KEYS}

# A coarse grid makes equal arrivals (ties) common; floats fill between.
_times = st.one_of(
    st.sampled_from([0.0, 0.001, 0.002, 0.003, 0.004]),
    st.floats(0.0, 0.02, allow_nan=False),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, len(_KEYS) - 1), _times),
        st.tuples(st.just("due"), _times),
        st.tuples(st.just("flush")),
        st.tuples(st.just("drain")),
    ),
    max_size=60,
)


def _view(result):
    """Comparable form of a batch list, an optional batch or a request list."""
    if result is None:
        return None
    if isinstance(result, Batch):
        return (result.key, [r.rid for r in result.requests], result.formed_at)
    return [_view(x) if isinstance(x, Batch) else x.rid for x in result]


@settings(max_examples=300, deadline=None)
@given(
    ops=_ops,
    max_batch=st.integers(1, 4),
    max_wait=st.sampled_from([0.0, 0.001, 0.002, 0.0035]),
    max_depth=st.none() | st.integers(1, 6),
)
def test_matches_scan_reference(ops, max_batch, max_wait, max_depth):
    fast = DynamicBatcher(max_batch=max_batch, max_wait=max_wait, max_depth=max_depth)
    ref = ScanBatcher(max_batch, max_wait, max_depth)
    for rid, op in enumerate(ops):
        if op[0] == "add":
            res, cf = _KEYS[op[1]]
            request = Request(rid=rid, image=_IMAGES[res], arrival=op[2], cf=cf)
            got, want = fast.add(request), ref.add(request)
        elif op[0] == "due":
            got, want = fast.due(op[1]), ref.due(op[1])
        elif op[0] == "flush":
            got, want = fast.flush(), ref.flush()
        else:
            got, want = fast.drain_pending(), ref.drain_pending()
        assert _view(got) == _view(want), op
        assert fast.depth == ref.depth
        assert fast.at_capacity == ref.at_capacity
        assert fast.next_due <= ref.next_due
    assert _view(fast.flush()) == _view(ref.flush())
    assert fast.depth == 0


def test_out_of_order_replay_lowers_the_next_deadline():
    """An older replayed request makes its group due earlier than first seen."""
    b = DynamicBatcher(max_batch=8, max_wait=0.002)
    img = _IMAGES[8]
    b.add(Request(rid=0, image=img, arrival=0.010))
    assert b.due(0.0115) == []
    b.add(Request(rid=1, image=img, arrival=0.009))      # replayed, older
    (batch,) = b.due(0.0115)
    assert [r.rid for r in batch.requests] == [0, 1]
    assert batch.formed_at == max(0.009 + 0.002, 0.010)
    assert b.depth == 0 and b.due(1.0) == []
