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


class TestExecutionPlanning:
    @pytest.fixture(autouse=True)
    def _fresh_plan_cache(self):
        from repro.core import autotune

        autotune.clear_plans()
        yield
        autotune.clear_plans()

    def test_plan_measures_every_candidate(self):
        from repro.core.autotune import plan_execution

        plan = plan_execution(32, batch=2, repeats=1)
        assert set(plan.samples) == {"dense", "fast"}
        assert all(v > 0 for v in plan.samples.values())
        assert plan.height == plan.width == 32
        assert plan.dtype == "<f4"

    def test_plan_picks_measured_minimum(self):
        from repro.core.autotune import plan_execution

        plan = plan_execution(32, batch=2, repeats=1)
        best = min(plan.samples, key=plan.samples.get)
        assert plan.label == best
        assert plan.fast is (best == "fast")

    def test_planned_caches_per_key(self):
        from repro.core import autotune

        a = autotune.planned(32, cf=4)
        b = autotune.planned(32, cf=4)
        assert a is b
        c = autotune.planned(32, cf=2)
        assert c is not a
        autotune.clear_plans()
        assert autotune.planned(32, cf=4) is not a

    def test_rejects_bad_config(self):
        from repro.core.autotune import plan_execution

        with pytest.raises(ConfigError, match="repeats"):
            plan_execution(32, repeats=0)

    def test_make_compressor_fast_auto_follows_plan(self):
        from repro.core import autotune, make_compressor

        comp = make_compressor(32, method="dc", cf=4, fast="auto")
        plan = autotune.planned(32, cf=4)
        assert comp._fast is plan.fast

    def test_make_compressor_rejects_unknown_fast_string(self):
        from repro.core import make_compressor

        with pytest.raises(ConfigError, match="fast"):
            make_compressor(32, fast="turbo")

    def test_fast_auto_ps_plans_at_plane_resolution(self):
        from repro.core import autotune, make_compressor

        autotune.clear_plans()
        make_compressor(64, method="ps", cf=4, s=2, fast="auto")
        # The PS fast path runs one whole-plane kernel; that is the planned key.
        assert [key[:2] for key in autotune._plans] == [(64, 64)]
