"""Degradation ladder vs the paper's compile-failure matrix.

The parametrized matrix pins the failures the paper reports — SN30 and
GroqChip OOM at 512x512 without partial serialization, GroqChip refusing
large batches — and asserts the ladder recovers each with the expected
rung recorded in the RecoveryLog.
"""

import numpy as np
import pytest

from repro.accel.compiler import CompiledProgram
from repro.core import make_compressor
from repro.errors import CompileError, OutOfMemoryError, ShapeError
from repro.harness.timing import measure
from repro.resilience import (
    Attempt,
    LadderPolicy,
    RecoveryLog,
    ResilientCompressor,
    compile_with_ladder,
)


class TestPaperFailureMatrix:
    @pytest.mark.parametrize("platform", ["sn30", "groq"])
    def test_512_fails_without_ps(self, platform):
        point = measure(platform, resolution=512, cf=4, batch=100)
        assert point.status == "compile_error"

    def test_512_ok_with_ps_on_sn30(self):
        point = measure("sn30", resolution=512, cf=4, batch=100, method="ps", s=2)
        assert point.status == "ok"

    def test_groq_batch_ceiling(self):
        assert measure("groq", resolution=64, cf=4, batch=1000).status == "ok"
        assert measure("groq", resolution=64, cf=4, batch=2000).status == "compile_error"


class TestLadderRecovery:
    def test_sn30_512_recovers_via_ps_rung(self):
        log = RecoveryLog()
        result = compile_with_ladder(512, platform="sn30", batch=4, channels=1, log=log)
        assert result.degraded
        assert result.attempt.rung == "ps"
        assert result.attempt.method == "ps" and result.attempt.s == 2
        assert log.rungs() == ["ps"]
        assert "recovered" in log.actions()

    def test_groq_batch_2000_recovers_via_shard_rung(self):
        log = RecoveryLog()
        result = compile_with_ladder(64, platform="groq", batch=2000, log=log)
        assert result.attempt.rung == "shard"
        # One GroqNode = 8 cards -> 250 samples per device.
        assert result.attempt.n_devices == 8
        assert log.rungs() == ["shard"]

    def test_groq_512_needs_shard_plus_ps(self):
        # 512 > the 320x320 MXM limit and the full batch blows SRAM:
        # only the combination of sharding and PS fits.
        log = RecoveryLog()
        result = compile_with_ladder(512, platform="groq", batch=100, log=log)
        assert result.attempt.rung == "shard"
        assert result.attempt.method == "ps"
        assert result.attempt.n_devices > 1

    def test_fallback_rung_when_degradation_disabled(self):
        log = RecoveryLog()
        policy = LadderPolicy(allow_ps=False, allow_shard=False)
        result = compile_with_ladder(
            512, platform="sn30", batch=4, channels=1, policy=policy, log=log
        )
        assert result.attempt.rung == "fallback"
        assert result.attempt.platform != "sn30"

    def test_sg_falls_back_to_ipu(self):
        # gather/scatter compiles only on the IPU; with PS conversion
        # disallowed the ladder must move the program there.
        policy = LadderPolicy(allow_ps=False, allow_shard=False)
        result = compile_with_ladder(
            64, platform="groq", method="sg", batch=4, policy=policy
        )
        assert result.attempt.rung == "fallback"
        assert result.attempt.platform == "ipu"

    def test_cpu_is_the_last_resort(self):
        policy = LadderPolicy(
            allow_ps=False, allow_shard=False, fallback_platforms=("cpu",)
        )
        result = compile_with_ladder(
            512, platform="sn30", batch=4, channels=1, policy=policy
        )
        assert result.attempt.platform == "cpu"

    def test_no_recovery_possible_raises_last_error(self):
        log = RecoveryLog()
        policy = LadderPolicy(allow_ps=False, allow_shard=False, allow_fallback=False)
        with pytest.raises(OutOfMemoryError):
            compile_with_ladder(
                512, platform="sn30", batch=4, channels=1, policy=policy, log=log
            )
        assert "gave_up" in log.actions()

    def test_inapplicable_ps_rung_is_skipped(self):
        # 16 / s=4 leaves 4x4 chunks, not a multiple of block 8: that PS
        # rung (and s=8) cannot apply, so the walk passes over it.
        result = compile_with_ladder(16, platform="groq", batch=3000, channels=1)
        no_ps = compile_with_ladder(
            16, platform="groq", batch=3000, channels=1, policy=LadderPolicy(allow_ps=False)
        )
        assert result.attempt == no_ps.attempt == Attempt("shard", "groq", "dc", 2, n_devices=8)
        assert all(a.s * 8 <= 16 for a, _ in result.failures if a.method == "ps")

    def test_clean_compile_takes_original_rung(self):
        log = RecoveryLog()
        result = compile_with_ladder(64, platform="ipu", batch=4, log=log)
        assert not result.degraded
        assert len(log) == 0


class TestResilientCompressorLadder:
    def test_roundtrip_through_degraded_config(self, rng):
        x = rng.standard_normal((4, 1, 512, 512)).astype(np.float32)
        log = RecoveryLog()
        rc = ResilientCompressor(512, platform="sn30", batch=4, channels=1, log=log)
        rec = rc.roundtrip(x)
        assert rec.shape == x.shape
        assert rc.resolved.rung == "ps"
        # The decompress side is pinned to the resolved representation.
        from repro.core import make_compressor, psnr

        ref = make_compressor(512, method="ps", cf=4, s=2).roundtrip(x)
        np.testing.assert_allclose(rec.numpy(), ref.numpy(), atol=1e-4)
        assert psnr(x, rec.numpy()) > 10

    def test_device_lost_fails_over_to_next_platform(self, rng):
        from repro.faults import FaultInjector, FaultPlan

        x = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)
        log = RecoveryLog()
        rc = ResilientCompressor(32, platform="ipu", batch=2, channels=1, log=log)
        plan = FaultPlan().add("run", "device_lost", platform="ipu")
        with FaultInjector(plan):
            y = rc.compress(x)
        assert y.shape[0] == 2
        assert rc.resolved.platform != "ipu"
        assert any(
            e.action == "fault" and e.context.get("kind") == "DeviceLostError" for e in log
        )

    def test_all_platforms_dead_raises(self):
        from repro.errors import DeviceLostError
        from repro.faults import FaultInjector, FaultPlan

        rc = ResilientCompressor(
            32,
            platform="cpu",
            batch=2,
            channels=1,
            ladder=LadderPolicy(fallback_platforms=("cpu",)),
        )
        plan = FaultPlan().add("run", "device_lost", times=10)
        with FaultInjector(plan):
            with pytest.raises(DeviceLostError):
                rc.compress(np.zeros((2, 1, 32, 32), np.float32))

    def test_inapplicable_ps_rung_is_skipped(self, rng):
        rc = ResilientCompressor(16, platform="groq", batch=3000, channels=1)
        x = rng.standard_normal((3000, 1, 16, 16)).astype(np.float32)
        y = rc.compress(x)
        assert rc.resolved == Attempt("shard", "groq", "dc", 2, n_devices=8)
        np.testing.assert_allclose(
            y.numpy(), make_compressor(16, cf=4).compress(x).numpy(), atol=1e-4
        )

    def test_sharded_execution_matches_unsharded(self, rng):
        x = rng.standard_normal((2000, 3, 64, 64)).astype(np.float32)
        rc = ResilientCompressor(64, platform="groq", batch=2000, channels=3)
        y = rc.compress(x)
        assert rc.resolved.n_devices == 8
        from repro.core import make_compressor

        ref = make_compressor(64, cf=4).compress(x)
        np.testing.assert_allclose(y.numpy(), ref.numpy(), atol=1e-4)


class TestShardLiveRows:
    """A shard rung runs only the shards that hold live rows."""

    # GroqChip at batch 3000 overflows its on-chip schedule; with PS and
    # fallback off only the shard rung (8 cards, 375 rows each) fits.
    POLICY = LadderPolicy(allow_ps=False, allow_fallback=False)

    def _compressor(self):
        return ResilientCompressor(
            16, platform="groq", batch=3000, channels=1, ladder=self.POLICY
        )

    def test_partial_batch_runs_only_live_shards(self, rng, monkeypatch):
        shapes = []
        run = CompiledProgram.run

        def spy(self, *inputs):
            shapes.append(inputs[0].shape)
            return run(self, *inputs)

        monkeypatch.setattr(CompiledProgram, "run", spy)
        x = rng.standard_normal((2 * 375 + 3, 1, 16, 16)).astype(np.float32)
        rc = self._compressor()
        y = rc.compress(x)
        assert (rc.resolved.rung, rc.resolved.n_devices) == ("shard", 8)
        # Cut at the compiled shard boundaries; shards 4..8 hold no live row.
        assert shapes == [(375, 1, 16, 16), (375, 1, 16, 16), (3, 1, 16, 16)]
        oracle = make_compressor(16, fast=False)
        for i in (0, 374, 375, 749, 750, 752):
            assert np.array_equal(y.numpy()[i], oracle.compress(x[i : i + 1]).numpy()[0])
        assert np.array_equal(y.numpy(), make_compressor(16).compress(x).numpy())

    @pytest.mark.parametrize("rows", [0, 3001])
    def test_shard_rung_rejects_zero_or_extra_rows(self, rows):
        rc = self._compressor()
        with pytest.raises(ShapeError):
            rc.compress(np.zeros((rows, 1, 16, 16), np.float32))
