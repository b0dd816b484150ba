"""Error-targeted chop-factor selection."""

import numpy as np
import pytest

from repro.core import DCTChopCompressor, build_for_target, psnr, select_cf
from repro.data.synthetic import correlated_field
from repro.errors import ConfigError


@pytest.fixture
def smooth(rng):
    return np.stack([correlated_field((32, 32), rng, beta=2.5) for _ in range(4)])


@pytest.fixture
def noisy(rng):
    return rng.standard_normal((4, 32, 32)).astype(np.float32)


class TestSelectCF:
    def test_meets_psnr_target(self, smooth):
        result = select_cf(smooth, min_psnr=30.0)
        assert result.satisfied
        assert result.achieved_psnr >= 30.0
        comp = DCTChopCompressor(32, cf=result.cf)
        assert psnr(smooth, comp.roundtrip(smooth)) >= 30.0

    def test_minimal_cf(self, smooth):
        """The returned CF is the smallest satisfying one (max ratio)."""
        result = select_cf(smooth, min_psnr=30.0)
        if result.cf > 1:
            below = DCTChopCompressor(32, cf=result.cf - 1)
            assert psnr(smooth, below.roundtrip(smooth)) < 30.0

    def test_smooth_data_gets_higher_ratio(self, smooth, noisy):
        r_smooth = select_cf(smooth, min_psnr=25.0)
        r_noisy = select_cf(noisy, min_psnr=25.0)
        assert r_smooth.ratio >= r_noisy.ratio

    def test_nrmse_target(self, smooth):
        result = select_cf(smooth, max_nrmse=0.02)
        assert result.satisfied
        assert result.achieved_nrmse <= 0.02

    def test_unreachable_target_flagged(self, noisy):
        result = select_cf(noisy, min_psnr=200.0)
        assert not result.satisfied
        assert result.cf == 8  # fell through to the largest CF

    def test_requires_exactly_one_target(self, smooth):
        with pytest.raises(ConfigError):
            select_cf(smooth)
        with pytest.raises(ConfigError):
            select_cf(smooth, min_psnr=30.0, max_nrmse=0.1)

    def test_rejects_1d(self):
        with pytest.raises(ConfigError):
            select_cf(np.zeros(8, np.float32), min_psnr=10.0)

    def test_sg_method_starts_at_cf2(self, smooth):
        result = select_cf(smooth, min_psnr=1.0, method="sg")
        assert result.cf >= 2


class TestBuildForTarget:
    def test_returns_usable_compressor(self, smooth):
        comp, result = build_for_target(smooth, min_psnr=28.0)
        assert comp.cf == result.cf
        rec = comp.roundtrip(smooth)
        assert psnr(smooth, rec) >= 28.0
