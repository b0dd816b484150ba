"""DynamicBatcher: coalescing, flush policies, live-row stacking."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.serve import DynamicBatcher, Request


def req(
    rid: int,
    *,
    arrival: float = 0.0,
    res: int = 16,
    cf: int = 4,
    channels: int = 1,
    deadline: float | None = None,
):
    rng = np.random.default_rng(rid)
    return Request(
        rid=rid,
        image=rng.standard_normal((channels, res, res)).astype(np.float32),
        arrival=arrival,
        cf=cf,
        deadline=deadline,
    )


class TestCoalescing:
    def test_same_key_requests_share_a_group(self):
        b = DynamicBatcher(max_batch=4)
        assert b.add(req(0)) is None
        assert b.add(req(1)) is None
        assert b.depth == 2

    def test_different_keys_do_not_coalesce(self):
        b = DynamicBatcher(max_batch=2)
        b.add(req(0, cf=2))
        assert b.add(req(1, cf=4)) is None   # different cf -> different plan
        assert b.add(req(2, res=32)) is None  # different resolution
        assert b.depth == 3

    def test_full_group_flushes_immediately(self):
        b = DynamicBatcher(max_batch=2)
        b.add(req(0, arrival=1.0))
        batch = b.add(req(1, arrival=1.5))
        assert batch is not None
        assert [r.rid for r in batch.requests] == [0, 1]
        assert batch.formed_at == 1.5  # the arrival that completed it
        assert b.depth == 0


class TestDeadlines:
    def test_due_respects_max_wait(self):
        b = DynamicBatcher(max_batch=8, max_wait=0.01)
        b.add(req(0, arrival=0.0))
        assert b.due(0.005) == []
        (batch,) = b.due(0.011)
        assert batch.formed_at == pytest.approx(0.01)  # deadline, not poll time

    def test_due_only_flushes_expired_groups(self):
        b = DynamicBatcher(max_batch=8, max_wait=0.01)
        b.add(req(0, arrival=0.0, cf=2))
        b.add(req(1, arrival=0.008, cf=4))
        batches = b.due(0.012)
        assert len(batches) == 1 and batches[0].requests[0].rid == 0
        assert b.depth == 1

    def test_flush_drains_everything(self):
        b = DynamicBatcher(max_batch=8, max_wait=0.01)
        b.add(req(0, cf=2))
        b.add(req(1, cf=4))
        assert len(b.flush()) == 2
        assert b.depth == 0 and b.flush() == []


class TestStacking:
    def test_tail_batch_stacks_live_rows_only(self):
        b = DynamicBatcher(max_batch=4)
        b.add(req(0))
        b.add(req(1))
        (batch,) = b.flush()
        stacked = batch.stacked()
        assert stacked.shape == (2, 1, 16, 16)
        assert stacked.dtype == np.float32
        assert np.array_equal(stacked[0], batch.requests[0].image)
        assert np.array_equal(stacked[1], batch.requests[1].image)

    def test_stacking_casts_to_float32(self):
        image = np.arange(16 * 16, dtype=np.float64).reshape(1, 16, 16) / 7
        b = DynamicBatcher(max_batch=4)
        b.add(Request(rid=0, image=image))
        (batch,) = b.flush()
        assert np.array_equal(batch.stacked()[0], image.astype(np.float32))


class TestValidation:
    def test_bad_policy_knobs(self):
        with pytest.raises(ConfigError):
            DynamicBatcher(max_batch=0)
        with pytest.raises(ConfigError):
            DynamicBatcher(max_wait=-1.0)
        with pytest.raises(ConfigError):
            DynamicBatcher(max_depth=0)

    def test_request_must_be_chw(self):
        with pytest.raises(ShapeError):
            Request(rid=0, image=np.zeros((16, 16), np.float32))


class TestRequestKey:
    def test_key_is_built_once(self):
        r = req(0, channels=3, res=16, cf=4)
        assert r.key is r.key
        assert (r.key.channels, r.key.height, r.key.width, r.key.cf) == (3, 16, 16, 4)

    def test_replace_rebuilds_the_key(self):
        # The overload layer's degrade path re-admits replace(req, cf=...).
        r = req(0, cf=4)
        degraded = dataclasses.replace(r, cf=2)
        assert degraded.key.cf == 2
        assert r.key.cf == 4
        assert degraded.key == dataclasses.replace(r.key, cf=2)


class TestEdgeCases:
    def test_due_exactly_at_max_wait_deadline_flushes(self):
        # Boundary: the flush timer fires *at* the deadline, not after it.
        b = DynamicBatcher(max_batch=8, max_wait=0.01)
        b.add(req(0, arrival=0.0))
        (batch,) = b.due(0.01)
        assert batch.formed_at == 0.01
        assert b.depth == 0

    def test_stacking_after_expired_members_shed(self):
        # The overload layer rebuilds a batch from its live members only;
        # the stack holds exactly the survivors.
        from repro.serve import Batch

        b = DynamicBatcher(max_batch=4, max_wait=0.01)
        b.add(req(0, arrival=0.0, deadline=0.5))     # survives
        b.add(req(1, arrival=0.001, deadline=0.005))  # expires at formation
        b.add(req(2, arrival=0.002, deadline=0.5))   # survives
        (batch,) = b.due(0.02)
        live, expired = batch.split_expired(batch.formed_at)
        assert [r.rid for r in live] == [0, 2]
        assert [r.rid for r in expired] == [1]
        rebuilt = Batch(key=batch.key, requests=live, formed_at=batch.formed_at)
        stacked = rebuilt.stacked()
        assert stacked.shape == (2, 1, 16, 16)       # expired member never dispatched
        assert np.array_equal(stacked[0], live[0].image)
        assert np.array_equal(stacked[1], live[1].image)

    def test_group_whose_every_member_expires(self):
        b = DynamicBatcher(max_batch=8, max_wait=0.01)
        b.add(req(0, arrival=0.0, deadline=0.002))
        b.add(req(1, arrival=0.001, deadline=0.003))
        (batch,) = b.due(0.5)
        live, expired = batch.split_expired(batch.formed_at)
        assert live == []
        assert [r.rid for r in expired] == [0, 1]

    def test_deadline_none_never_expires(self):
        b = DynamicBatcher(max_batch=8, max_wait=0.01)
        b.add(req(0, arrival=0.0))
        (batch,) = b.due(1e9)
        live, expired = batch.split_expired(1e9)
        assert [r.rid for r in live] == [0] and expired == []

    def test_at_capacity_backpressure_signal(self):
        b = DynamicBatcher(max_batch=8, max_depth=2)
        assert not b.at_capacity
        b.add(req(0, cf=2))
        b.add(req(1, cf=4))                          # different groups still count
        assert b.at_capacity
        b.flush()
        assert not b.at_capacity

    def test_unbounded_batcher_never_at_capacity(self):
        b = DynamicBatcher(max_batch=2)
        for i in range(50):
            b.add(req(i, cf=2 if i % 2 else 4))
        assert not b.at_capacity
