"""Consistent-hash ring: stability, balance, and bounded-load spill."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fleet.ring import HashRing, stable_hash


def test_stable_hash_is_deterministic_and_64_bit():
    assert stable_hash("w0#3") == stable_hash("w0#3")
    assert stable_hash("a") != stable_hash("b")
    assert 0 <= stable_hash("anything") < 2**64


def test_vnodes_must_be_positive():
    with pytest.raises(ConfigError):
        HashRing(vnodes=0)


def _ring(n=8, vnodes=32):
    ring = HashRing(vnodes=vnodes)
    for i in range(n):
        ring.add(f"w{i}")
    return ring


def test_membership_and_idempotent_add():
    ring = _ring(4)
    assert len(ring) == 4
    assert "w2" in ring
    ring.add("w2")                     # no duplicate vnodes
    assert len(ring._points) == 4 * 32
    ring.remove("w2")
    assert "w2" not in ring
    ring.remove("w2")                  # idempotent
    assert ring.members == ["w0", "w1", "w3"]


def test_routing_is_deterministic_and_sticky():
    ring = _ring()
    keys = [f"plan-{i}" for i in range(100)]
    first = [ring.primary(k) for k in keys]
    assert first == [ring.primary(k) for k in keys]


def test_keys_spread_across_workers():
    ring = _ring(8)
    owners = {ring.primary(f"3x{res}x{res}/dc/cf{cf}/s2/b8") for res in
              (24, 32, 40, 48, 56, 64) for cf in (1, 2, 3, 4)}
    # 24 distinct plan keys should land on most of an 8-worker ring.
    assert len(owners) >= 5


def test_removal_only_moves_the_dead_workers_keys():
    ring = _ring(8)
    keys = [f"plan-{i}" for i in range(200)]
    before = {k: ring.primary(k) for k in keys}
    ring.remove("w3")
    after = {k: ring.primary(k) for k in keys}
    for k in keys:
        if before[k] != "w3":
            assert after[k] == before[k]   # unaffected ranges stay put
        else:
            assert after[k] != "w3"


def test_owners_walk_is_distinct_and_complete():
    ring = _ring(4)
    owners = ring.owners("some-key")
    assert sorted(owners) == ["w0", "w1", "w2", "w3"]
    assert len(set(owners)) == 4


def test_owners_memo_follows_membership_changes():
    ring = _ring(4)
    keys = [f"3x{32 + 8 * i}x{32 + 8 * i}/dc/cf{i % 7 + 1}/s2/b8" for i in range(50)]
    rng = np.random.default_rng(5)
    pool = [f"w{i}" for i in range(10)]
    for _ in range(40):
        worker = str(rng.choice(pool))
        if worker in ring and len(ring) > 1:
            ring.remove(worker)
        else:
            ring.add(worker)
        fresh = _ring(0)
        for member in ring.members:
            fresh.add(member)
        for k in keys:
            owners = ring.owners(k)
            assert isinstance(owners, tuple)   # the shared memo entry is immutable
            assert owners == fresh.owners(k)


def test_owners_memo_is_bounded(monkeypatch):
    monkeypatch.setattr("repro.fleet.ring._OWNERS_CAP", 4)
    ring = _ring(4)
    walks = {f"k{i}": ring._walk(f"k{i}") for i in range(10)}
    for k, owners in walks.items():
        assert ring.owners(k) == owners
        assert len(ring._owners) <= 4


def test_bounded_load_spills_to_next_owner():
    ring = _ring(4)
    key = "hot-key"
    primary = ring.primary(key)
    worker, spilled = ring.route(key, has_capacity=lambda w: w != primary)
    assert spilled
    assert worker == ring.owners(key)[1]


def test_all_at_capacity_returns_primary_without_spill():
    ring = _ring(4)
    worker, spilled = ring.route("k", has_capacity=lambda w: False)
    assert worker == ring.primary("k")
    assert not spilled


def test_empty_ring_routes_none():
    ring = HashRing()
    assert ring.primary("k") is None
    assert ring.route("k") == (None, False)
