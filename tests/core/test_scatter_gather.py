"""Scatter/gather triangle compressor (Section 3.5.2, Fig. 6)."""

import numpy as np
import pytest

from repro.core import (
    DCTChopCompressor,
    ScatterGatherCompressor,
    dct_matrix,
    mse,
    sg_compression_ratio,
)
from repro.errors import ShapeError


def reference_sg_roundtrip(x: np.ndarray, cf: int) -> np.ndarray:
    """Blockwise DCT keeping only coefficients with i + j < cf."""
    t = dct_matrix(8)
    out = np.zeros_like(x)
    h, w = x.shape[-2:]
    for bi in range(0, h, 8):
        for bj in range(0, w, 8):
            d = t @ x[..., bi : bi + 8, bj : bj + 8] @ t.T
            d2 = np.zeros_like(d)
            for i in range(cf):
                for j in range(cf - i):
                    d2[..., i, j] = d[..., i, j]
            out[..., bi : bi + 8, bj : bj + 8] = t.T @ d2 @ t
    return out


class TestRoundtrip:
    @pytest.mark.parametrize("cf", range(2, 8))
    def test_matches_reference(self, rng, cf):
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        rec = ScatterGatherCompressor(32, cf=cf).roundtrip(x).numpy()
        np.testing.assert_allclose(rec, reference_sg_roundtrip(x, cf), atol=1e-4)

    def test_compressed_shape(self):
        sg = ScatterGatherCompressor(32, cf=4)
        # 16 blocks of 4*(4+1)/2 = 10 retained values.
        assert sg.compressed_shape((5, 3, 32, 32)) == (5, 3, 16, 10)
        assert sg.nblocks == 16 and sg.values_per_block == 10

    def test_ratio(self):
        sg = ScatterGatherCompressor(32, cf=2)
        assert sg.ratio == pytest.approx(64 / 3)
        assert sg.ratio == sg_compression_ratio(2)

    def test_ratio_exceeds_dc(self):
        for cf in range(2, 8):
            assert (
                ScatterGatherCompressor(32, cf=cf).ratio
                > DCTChopCompressor(32, cf=cf).ratio
            )

    def test_ratio_gain_formula(self):
        """SG gain over DC is 2CF/(CF+1) (Section 3.5.2)."""
        for cf in range(2, 8):
            gain = ScatterGatherCompressor(32, cf=cf).ratio / DCTChopCompressor(32, cf=cf).ratio
            assert gain == pytest.approx(2 * cf / (cf + 1))

    def test_error_at_least_dc(self, rng):
        """SG keeps a subset of the DC square, so error >= DC error."""
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        for cf in range(2, 8):
            err_sg = mse(x, ScatterGatherCompressor(32, cf=cf).roundtrip(x))
            err_dc = mse(x, DCTChopCompressor(32, cf=cf).roundtrip(x))
            assert err_sg >= err_dc - 1e-9

    def test_rectangular(self, rng):
        x = rng.standard_normal((1, 16, 24)).astype(np.float32)
        sg = ScatterGatherCompressor(16, 24, cf=3)
        np.testing.assert_allclose(
            sg.roundtrip(x).numpy(), reference_sg_roundtrip(x, 3), atol=1e-4
        )

    def test_decompress_shape_check(self, rng):
        sg = ScatterGatherCompressor(32, cf=4)
        with pytest.raises(ShapeError):
            sg.decompress(rng.standard_normal((1, 16, 9)).astype(np.float32))

    def test_2d_plane(self, rng):
        x = rng.standard_normal((16, 16)).astype(np.float32)
        sg = ScatterGatherCompressor(16, cf=5)
        assert sg.compress(x).shape == (4, 15)
        np.testing.assert_allclose(
            sg.roundtrip(x).numpy(), reference_sg_roundtrip(x, 5), atol=1e-4
        )

    def test_indices_are_a_readonly_view(self):
        sg = ScatterGatherCompressor(16, cf=3)
        idx = sg._indices_for((2, 3))
        assert idx.shape == (2, 3, 1, sg.nblocks * sg.values_per_block)
        assert not idx.flags.writeable
        assert np.shares_memory(idx, sg._flat)
        assert np.array_equal(idx[1, 2], sg._flat)

    def test_many_batch_shapes_retain_no_index_memory(self, rng):
        import tracemalloc

        sg = ScatterGatherCompressor(128, cf=4)
        sg.compress(rng.standard_normal((1, 3, 128, 128)).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for b in range(1, 41):
                x = np.zeros((b, 3, 128, 128), np.float32)
                sg.decompress(sg.compress(x))
            del x
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20

    def test_roundtrip_is_projection(self, rng):
        x = rng.standard_normal((1, 32, 32)).astype(np.float32)
        sg = ScatterGatherCompressor(32, cf=4)
        once = sg.roundtrip(x).numpy()
        np.testing.assert_allclose(sg.roundtrip(once).numpy(), once, atol=1e-4)
