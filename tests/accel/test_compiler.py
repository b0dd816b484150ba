"""Compiler checks: the paper's compile failures must reproduce exactly."""

import numpy as np
import pytest

from repro.accel import compile_program
from repro.core import (
    DCTChopCompressor,
    PartialSerializedCompressor,
    ScatterGatherCompressor,
)
from repro.errors import (
    CompileError,
    OutOfMemoryError,
    ShapeError,
    UnsupportedOperatorError,
)


def workload(n, batch=100, channels=3):
    return np.zeros((batch, channels, n, n), dtype=np.float32)


class TestCompileSuccess:
    @pytest.mark.parametrize("platform", ["cs2", "sn30", "groq", "ipu", "a100", "cpu"])
    def test_dc_256_compiles_everywhere(self, platform):
        comp = DCTChopCompressor(256, cf=4)
        prog = compile_program(comp.compress, workload(256), platform)
        assert prog.spec.name == platform
        assert prog.cost.in_bytes == 100 * 3 * 256 * 256 * 4

    @pytest.mark.parametrize("platform", ["cs2", "ipu"])
    def test_512_compiles_on_cs2_and_ipu(self, platform):
        """Paper: only SN30 and GroqChip fail at 512x512."""
        comp = DCTChopCompressor(512, cf=7)
        compile_program(comp.compress, workload(512), platform)

    def test_run_executes_numerically(self, rng):
        comp = DCTChopCompressor(32, cf=4)
        prog = compile_program(comp.compress, workload(32, batch=4), "cs2")
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        result = prog.run(x)
        np.testing.assert_allclose(result.output.numpy(), comp.compress(x).numpy())
        assert result.device_seconds > 0
        assert result.wall_seconds > 0
        assert prog.runs == 1


class TestResolutionFailures:
    def test_sn30_512_oom(self):
        """One 512x512 FP32 plane (1 MB) exceeds a 0.5 MB PMU."""
        comp = DCTChopCompressor(512, cf=4)
        with pytest.raises(OutOfMemoryError) as exc_info:
            compile_program(comp.compress, workload(512), "sn30")
        assert exc_info.value.platform == "sn30"

    def test_groq_512_fails(self):
        """512-wide operands exceed the 320x320 MXM module limit."""
        comp = DCTChopCompressor(512, cf=4)
        with pytest.raises(CompileError) as exc_info:
            compile_program(comp.compress, workload(512), "groq")
        assert exc_info.value.platform == "groq"

    def test_sn30_512_decompress_also_fails(self):
        comp = DCTChopCompressor(512, cf=4)
        y = np.zeros((100, 3, 256, 256), np.float32)
        with pytest.raises(OutOfMemoryError):
            compile_program(comp.decompress, y, "sn30")

    def test_partial_serialization_fixes_sn30(self):
        """Paper Section 4.2.3: PS s=2 enables 512x512 on SN30."""
        ps = PartialSerializedCompressor(512, cf=4, s=2)
        compile_program(ps.compress, workload(512), "sn30")
        compile_program(
            ps.decompress, np.zeros((100, 3, 256, 256), np.float32), "sn30"
        )

    def test_partial_serialization_on_ipu(self):
        ps = PartialSerializedCompressor(512, cf=4, s=2)
        compile_program(ps.compress, workload(512), "ipu")


class TestBatchFailures:
    def test_groq_batch_1000_ok(self):
        comp = DCTChopCompressor(64, cf=7)
        compile_program(comp.compress, workload(64, batch=1000), "groq")

    def test_groq_batch_2000_oom(self):
        """Paper: GroqChip fails to compile beyond batch size 1000 (64x64x3)."""
        comp = DCTChopCompressor(64, cf=7)
        with pytest.raises(OutOfMemoryError) as exc_info:
            compile_program(comp.compress, workload(64, batch=2000), "groq")
        assert exc_info.value.reason == "on-chip capacity"

    @pytest.mark.parametrize("platform", ["cs2", "sn30", "ipu"])
    def test_others_handle_batch_5000(self, platform):
        comp = DCTChopCompressor(64, cf=4)
        compile_program(comp.compress, workload(64, batch=5000), platform)


class TestOperatorFailures:
    def test_sg_compiles_on_ipu_only(self):
        """gather/scatter exist in PopTorch but not the other toolchains."""
        sg = ScatterGatherCompressor(32, cf=4)
        compile_program(sg.compress, workload(32), "ipu")
        for platform in ("cs2", "sn30", "groq"):
            with pytest.raises(UnsupportedOperatorError) as exc_info:
                compile_program(sg.compress, workload(32), platform)
            assert "gather" in str(exc_info.value)

    def test_sg_decompress_needs_scatter(self):
        sg = ScatterGatherCompressor(32, cf=4)
        z = np.zeros((100, 3, 16, 10), np.float32)
        with pytest.raises(UnsupportedOperatorError) as exc_info:
            compile_program(sg.decompress, z, "cs2")
        assert "scatter" in str(exc_info.value)

    def test_sg_on_gpu_and_cpu(self):
        sg = ScatterGatherCompressor(32, cf=4)
        compile_program(sg.compress, workload(32), "a100")
        compile_program(sg.compress, workload(32), "cpu")


class TestStaticShapes:
    def test_run_rejects_different_shape(self, rng):
        comp = DCTChopCompressor(32, cf=4)
        prog = compile_program(comp.compress, workload(32, batch=10), "cs2")
        with pytest.raises(ShapeError):
            prog.run(rng.standard_normal((20, 3, 32, 32)).astype(np.float32))

    def test_run_accepts_one_up_to_compiled_rows(self, rng):
        # The host computes only the live rows; the device is still
        # charged for the compiled batch.
        comp = DCTChopCompressor(32, cf=4)
        prog = compile_program(comp.compress, workload(32, batch=4), "cs2")
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        for rows in range(1, 5):
            result = prog.run(x[:rows])
            assert result.output.shape == (rows, 3, 16, 16)
            assert np.array_equal(result.output.numpy(), comp.compress(x[:rows]).numpy())
            assert result.timing.total == prog.estimated_time()

    @pytest.mark.parametrize(
        "shape",
        [
            (0, 3, 32, 32),       # zero rows
            (5, 3, 32, 32),       # more rows than compiled
            (2, 1, 32, 32),       # another channel count
            (2, 3, 32, 16),       # another plane shape
            (3, 32, 32),          # another rank
            (1, 2, 3, 32, 32),
        ],
    )
    def test_run_rejects_any_other_shape(self, shape):
        comp = DCTChopCompressor(32, cf=4)
        prog = compile_program(comp.compress, workload(32, batch=4), "cs2")
        with pytest.raises(ShapeError):
            prog.run(np.zeros(shape, np.float32))

    def test_estimated_time_positive(self):
        comp = DCTChopCompressor(32, cf=4)
        prog = compile_program(comp.compress, workload(32), "ipu")
        assert prog.estimated_time() > 0
