"""Plan reuse across the resilience layer (the serving-path fix).

Before this existed, every `ResilientCompressor` construction re-ran the
full degradation ladder — re-tracing programs that an identical
configuration had already compiled.  With a shared `CompiledPlanCache`
the walk replays from cache.
"""

import traceback

import numpy as np
import pytest

from repro.errors import OutOfMemoryError
from repro.resilience import LadderPolicy, RecoveryLog, ResilientCompressor, compile_with_ladder
from repro.serve import CompiledPlanCache


class TestLadderCache:
    def test_second_walk_is_all_hits(self):
        cache = CompiledPlanCache()
        compile_with_ladder(32, platform="ipu", batch=4, channels=1, cache=cache)
        misses = cache.misses
        result = compile_with_ladder(32, platform="ipu", batch=4, channels=1, cache=cache)
        assert cache.misses == misses      # nothing re-traced
        assert cache.hits >= 1
        assert result.attempt.rung == "original"

    def test_failed_rungs_are_remembered(self):
        # SN30 at 512x512 OOMs on the original rung, then degrades to PS.
        cache = CompiledPlanCache()
        r1 = compile_with_ladder(512, platform="sn30", batch=4, channels=1, cache=cache)
        assert r1.attempt.rung == "ps"
        misses = cache.misses
        log = RecoveryLog()
        r2 = compile_with_ladder(
            512, platform="sn30", batch=4, channels=1, cache=cache, log=log
        )
        assert r2.attempt.rung == "ps"
        assert cache.misses == misses
        # The cached rejection still shows up in the audit trail.
        assert any("cached" in e.detail for e in log.by_action("fault"))

    def test_cached_rejection_reraises_a_fresh_error(self):
        # Re-raising the cached object itself would grow its traceback on
        # every replay and lose where the configuration first failed.
        cache = CompiledPlanCache()
        policy = LadderPolicy(allow_ps=False, allow_shard=False, allow_fallback=False)

        def walk() -> OutOfMemoryError:
            with pytest.raises(OutOfMemoryError) as info:
                compile_with_ladder(
                    512, platform="sn30", batch=4, channels=1, policy=policy, cache=cache
                )
            return info.value

        stored = walk()                      # the first rejection is what the cache keeps
        depth = len(traceback.extract_tb(stored.__traceback__))
        replays = [walk() for _ in range(3)]
        assert len({id(e) for e in (stored, *replays)}) == 4
        assert all(e.__cause__ is stored for e in replays)
        assert len(traceback.extract_tb(stored.__traceback__)) == depth

    def test_cached_and_fresh_walks_agree(self):
        cache = CompiledPlanCache()
        fresh = compile_with_ladder(512, platform="sn30", batch=4, channels=1)
        cached_setup = compile_with_ladder(
            512, platform="sn30", batch=4, channels=1, cache=cache
        )
        replay = compile_with_ladder(512, platform="sn30", batch=4, channels=1, cache=cache)
        assert fresh.attempt == cached_setup.attempt == replay.attempt
        x = np.random.default_rng(0).standard_normal((4, 1, 512, 512)).astype(np.float32)
        assert np.array_equal(
            fresh.program.run(x).output.numpy(), replay.program.run(x).output.numpy()
        )


class TestResilientCompressorReuse:
    def test_plan_cache_spans_constructions(self):
        cache = CompiledPlanCache()
        shape = (4, 1, 32, 32)
        x = np.zeros(shape, np.float32)
        rc1 = ResilientCompressor(32, platform="ipu", batch=4, channels=1, plan_cache=cache)
        rc1.compress(x)
        misses = cache.misses
        rc2 = ResilientCompressor(32, platform="ipu", batch=4, channels=1, plan_cache=cache)
        rc2.compress(x)
        assert cache.misses == misses
        # Same compiled plan object, not a recompile.
        assert rc1.compile("compress").program is rc2.compile("compress").program

    def test_decompress_pins_to_cached_compress(self):
        cache = CompiledPlanCache()
        resolved = ResilientCompressor(
            512, platform="sn30", batch=2, channels=1, plan_cache=cache
        ).compile("compress")
        assert resolved.attempt.rung == "ps"
        rc = ResilientCompressor(512, platform="sn30", batch=2, channels=1, plan_cache=cache)
        misses = cache.misses
        assert rc.compile("compress").program is resolved.program   # replayed from cache
        assert cache.misses == misses
        dec = rc.compile("decompress")
        # The decompress side adopts the representation compress chose.
        assert dec.attempt.method == resolved.attempt.method
        assert dec.attempt.s == resolved.attempt.s
