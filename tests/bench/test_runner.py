"""repro.bench: suite construction, determinism, JSON schema, regression gate."""

import json

import numpy as np
import pytest

from repro import bench
from repro.bench import BenchCase, compare, default_suite, run_case, run_suite


def tiny_suite():
    """A sub-second grid for tests (the real suite uses n up to 512)."""
    return [
        BenchCase(method, 16, 2, direction, batch=2)
        for method in ("dc", "ps", "sg")
        for direction in ("compress", "decompress")
    ]


@pytest.fixture(scope="module")
def tiny_report():
    # cf=7 for the speedup section: it has the widest margin over the 3x
    # floor, keeping this fixture robust under a loaded test runner.
    return run_suite(tiny_suite(), repeats=3, speedup_cfs=(7,))


class TestSuite:
    def test_default_suite_covers_grid(self):
        cases = default_suite()
        # methods x sizes x cfs x directions, plus the float64 rider.
        assert len(cases) == 3 * 3 * 3 * 2 + 1
        keys = {c.key for c in cases}
        assert len(keys) == len(cases)
        assert "sg-n512-cf7-decompress" in keys
        assert "dc-n256-cf4-compress-float64" in keys

    def test_rider_keys_leave_grid_keys_unchanged(self):
        # The dtype field must not perturb pre-existing keys or seeds:
        # default-valued cases keep their old identity.
        default = BenchCase("dc", 256, 4, "compress")
        assert default.key == "dc-n256-cf4-compress"
        assert bench.runner.hash_tag(default) == bench.runner.hash_tag(
            BenchCase("dc", 256, 4, "compress", dtype="float32")
        )
        rider = BenchCase("dc", 256, 4, "compress", dtype="float64")
        assert bench.runner.hash_tag(rider) != bench.runner.hash_tag(default)

    def test_run_case_deterministic_checksum(self):
        case = BenchCase("dc", 16, 4, "compress", batch=2)
        a = run_case(case, repeats=1)
        b = run_case(case, repeats=1)
        assert a.checksum == b.checksum
        assert a.median_s > 0 and a.p95_s >= a.median_s

    def test_seed_changes_checksum(self):
        case = BenchCase("dc", 16, 4, "compress", batch=2)
        a = run_case(case, seed=0, repeats=1)
        b = run_case(case, seed=1, repeats=1)
        assert a.checksum != b.checksum

    def test_calibration_positive(self):
        assert bench.calibrate(repeats=3, warmup=1) > 0

    def test_float64_case_runs(self):
        result = run_case(
            BenchCase("dc", 16, 4, "compress", batch=2, dtype="float64"), repeats=1
        )
        assert result.median_s > 0


class TestDegenerateConfigs:
    """Satellite: degenerate timing configs must raise ConfigError naming
    the offending value instead of crashing inside numpy."""

    def test_percentile_of_empty_samples(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="empty"):
            bench.runner._percentile([], 50)

    def test_zero_repeats(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="repeats must be >= 1, got 0"):
            bench.runner._time_fn(lambda _: None, None, repeats=0, warmup=0)

    def test_negative_warmup(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="warmup must be >= 0, got -1"):
            bench.runner._time_fn(lambda _: None, None, repeats=3, warmup=-1)

    def test_warmup_exceeding_repeats(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=r"warmup \(5\) exceeds repeats \(2\)"):
            bench.runner._time_fn(lambda _: None, None, repeats=2, warmup=5)

    def test_calibrate_validates_timing(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="repeats"):
            bench.calibrate(repeats=0)
        with pytest.raises(ConfigError, match="warmup"):
            bench.calibrate(repeats=2, warmup=3)

    def test_run_case_rejects_unknown_direction(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="direction"):
            run_case(BenchCase("dc", 16, 4, "sideways", batch=2), repeats=1)

class TestReport:
    def test_json_roundtrip(self, tiny_report, tmp_path):
        path = tmp_path / "bench.json"
        tiny_report.write(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == bench.SCHEMA
        assert len(loaded["cases"]) == len(tiny_report.cases)
        assert loaded["calibration_s"] > 0
        assert {"python", "numpy", "machine"} <= set(loaded["env"])
        for entry in loaded["cases"]:
            assert {"method", "n", "cf", "direction", "median_s", "p95_s", "checksum"} <= set(entry)
        assert loaded["speedups"][0]["identical"] is True

    def test_speedup_section(self, tiny_report):
        assert len(tiny_report.speedups) == 1
        s = tiny_report.speedups[0]
        assert s.n == 512
        assert s.identical
        assert tiny_report.median_speedup == pytest.approx(s.speedup)

    def test_precision_section(self, tiny_report):
        names = [row["name"] for row in tiny_report.precision]
        assert names == ["dct-float64", "dct-float32", "dct-int8", "quant-8bit"]
        by_name = {row["name"]: row for row in tiny_report.precision}
        # int8 stores 1 byte/coefficient instead of 4.
        assert by_name["dct-int8"]["ratio"] == pytest.approx(
            4 * by_name["dct-float32"]["ratio"]
        )
        # The float64 reference can only be at least as accurate as f32.
        assert by_name["dct-float64"]["nrmse"] <= by_name["dct-float32"]["nrmse"] + 1e-9
        for row in tiny_report.precision:
            assert row["median_s"] > 0

    def test_new_sections_serialize(self, tiny_report):
        loaded = json.loads(tiny_report.to_json())
        assert {"name", "ratio", "nrmse", "psnr", "median_s"} <= set(
            loaded["precision"][0]
        )


class TestCompare:
    def test_self_comparison_clean(self, tiny_report):
        result = compare(tiny_report, json.loads(tiny_report.to_json()))
        assert result.ok
        assert not result.regressions and not result.failures

    def test_flags_timing_regression(self, tiny_report):
        baseline = json.loads(tiny_report.to_json())
        for entry in baseline["cases"]:
            entry["median_s"] /= 1000.0
            entry["best_s"] /= 1000.0
        result = compare(tiny_report, baseline, min_delta_s=0.0)
        assert not result.ok
        assert result.regressions

    def test_tolerance_respected(self, tiny_report):
        baseline = json.loads(tiny_report.to_json())
        for entry in baseline["cases"]:
            entry["median_s"] /= 1.1  # 10% worse than baseline
            entry["best_s"] /= 1.1
        assert compare(tiny_report, baseline, tolerance=0.25, min_delta_s=0.0).ok

    def test_min_delta_guard_suppresses_noise(self, tiny_report):
        # Micro-cases drift far above tolerance in relative terms, but the
        # absolute drift is sub-noise; the guard must keep them quiet.
        baseline = json.loads(tiny_report.to_json())
        for entry in baseline["cases"]:
            entry["median_s"] /= 1000.0
            entry["best_s"] /= 1000.0
        assert compare(tiny_report, baseline, min_delta_s=10.0).ok

    def test_flags_speedup_floor_miss(self, tiny_report):
        baseline = json.loads(tiny_report.to_json())
        baseline["min_speedup"] = 1e9
        result = compare(tiny_report, baseline)
        assert not result.ok
        assert any("speedup" in r for r in result.regressions)

    def test_checksum_mismatch_advisory_without_env_match(self, tiny_report):
        baseline = json.loads(tiny_report.to_json())
        baseline["cases"][0]["checksum"] = "deadbeefdeadbeef"
        baseline["env"]["numpy"] = "0.0.0"
        result = compare(tiny_report, baseline)
        assert result.ok
        assert any("checksum" in w for w in result.warnings)

    def test_checksum_mismatch_fails_with_env_match(self, tiny_report):
        baseline = json.loads(tiny_report.to_json())
        baseline["cases"][0]["checksum"] = "deadbeefdeadbeef"
        baseline["env"]["numpy"] = np.__version__
        result = compare(tiny_report, baseline)
        assert not result.ok

    def test_schema_mismatch_fails(self, tiny_report):
        result = compare(tiny_report, {"schema": "other/v9"})
        assert not result.ok

    def test_new_case_is_warning(self, tiny_report):
        baseline = json.loads(tiny_report.to_json())
        baseline["cases"] = baseline["cases"][1:]
        result = compare(tiny_report, baseline)
        assert result.ok
        assert any("no baseline entry" in w for w in result.warnings)

    def test_precision_nrmse_drift_is_regression(self, tiny_report):
        baseline = json.loads(tiny_report.to_json())
        for entry in baseline["precision"]:
            entry["nrmse"] = entry["nrmse"] / 2.0  # report looks 2x worse
        result = compare(tiny_report, baseline)
        assert not result.ok
        assert any("NRMSE" in r for r in result.regressions)

    def test_precision_missing_baseline_is_warning(self, tiny_report):
        baseline = json.loads(tiny_report.to_json())
        baseline["precision"] = []
        result = compare(tiny_report, baseline)
        assert result.ok
        assert any("precision" in w for w in result.warnings)


class TestMergeReports:
    """Envelope merge across suite runs — how BENCH_compressor.json is made."""

    def test_single_report_preserves_cases(self, tiny_report):
        merged = bench.merge_reports([tiny_report])
        direct = json.loads(tiny_report.to_json())
        assert [c["checksum"] for c in merged["cases"]] == [
            c["checksum"] for c in direct["cases"]
        ]
        for got, want in zip(merged["cases"], direct["cases"]):
            assert got["best_s"] == pytest.approx(want["best_s"])

    def test_empty_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="at least one report"):
            bench.merge_reports([])

    def test_envelope_takes_worst_normalised_best(self, tiny_report):
        import copy

        slow = copy.deepcopy(tiny_report)
        slow.calibration_s *= 2.0  # the slow run's calibration slowed too
        for c in slow.cases:
            c.best_s *= 3.0  # ...but its cases slowed even more
        merged = bench.merge_reports([tiny_report, slow])
        # Envelope is taken in *normalised* space: worst best_s/cal is the
        # slow run's 3x/2x = 1.5x, re-expressed against the merged cal.
        cal = merged["calibration_s"]
        for got, orig in zip(merged["cases"], tiny_report.cases):
            worst_norm = max(
                orig.best_s / tiny_report.calibration_s,
                orig.best_s * 3.0 / slow.calibration_s,
            )
            assert got["best_s"] == pytest.approx(cal * worst_norm)

    def test_merged_baseline_accepts_its_source_runs(self, tiny_report):
        import copy

        slow = copy.deepcopy(tiny_report)
        slow.calibration_s *= 1.1
        for c in slow.cases:
            c.best_s *= 1.6
            c.median_s *= 1.6
        merged = bench.merge_reports([tiny_report, slow])
        # Either source run passes against the envelope even though they
        # differ from each other by more than the tolerance.
        assert compare(tiny_report, merged, min_delta_s=0.0).ok
        assert compare(slow, merged, min_delta_s=0.0).ok

    def test_checksum_divergence_rejected(self, tiny_report):
        import copy

        from repro.errors import ConfigError

        other = copy.deepcopy(tiny_report)
        other.cases[0].checksum = "deadbeefdeadbeef"
        with pytest.raises(ConfigError, match="checksum diverged"):
            bench.merge_reports([tiny_report, other])

    def test_identity_divergence_rejected(self, tiny_report):
        import copy
        import dataclasses

        from repro.errors import ConfigError

        other = copy.deepcopy(tiny_report)
        other.speedups = [
            dataclasses.replace(s, identical=False) for s in other.speedups
        ]
        with pytest.raises(ConfigError, match="diverged from dense"):
            bench.merge_reports([tiny_report, other])

    def test_nrmse_divergence_rejected(self, tiny_report):
        import copy

        from repro.errors import ConfigError

        other = copy.deepcopy(tiny_report)
        other.precision[0]["nrmse"] += 1e-3
        with pytest.raises(ConfigError, match="NRMSE diverged"):
            bench.merge_reports([tiny_report, other])


class TestCLI:
    def test_suite_flag_with_baseline_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        # Full CLI path is exercised with the real (fast) suite in CI; here
        # only the wiring: --suite --out writes a valid report.
        code = main(
            ["bench", "--suite", "--repeats", "1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == bench.SCHEMA
        captured = capsys.readouterr()
        assert "median fast-path speedup" in captured.out

    def test_exit_2_on_regression(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert main(["bench", "--suite", "--repeats", "1", "--out", str(out)]) == 0
        baseline = json.loads(out.read_text())
        baseline["min_speedup"] = 1e9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(baseline))
        code = main(
            ["bench", "--suite", "--repeats", "1", "--baseline", str(bad)]
        )
        assert code == 2

    def test_exit_1_on_missing_baseline(self, tmp_path):
        from repro.cli import main

        code = main(
            ["bench", "--suite", "--repeats", "1", "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 1

    def test_refresh_writes_merged_envelope(self, tmp_path, capsys):
        from repro.cli import main

        # The suite's default five repeats per case in every run: the gate
        # compares best-of-N times of ~1 ms cases, and one slow phase of a
        # single-repeat run can push such a time past the tolerance on a
        # loaded host.
        out = tmp_path / "baseline.json"
        code = main(
            ["bench", "--suite", "--repeats", "5", "--refresh", "2", "--out", str(out)]
        )
        assert code == 0
        merged = json.loads(out.read_text())
        assert merged["schema"] == bench.SCHEMA
        assert all(c["best_s"] > 0 for c in merged["cases"])
        assert "merged 2 suite runs" in capsys.readouterr().out
        # The file it wrote is a working baseline for the gate.
        assert main(
            ["bench", "--suite", "--repeats", "5", "--baseline", str(out)]
        ) == 0

    def test_refresh_requires_out(self, capsys):
        from repro.cli import main

        assert main(["bench", "--suite", "--refresh", "2"]) == 1
        assert "--refresh needs --out" in capsys.readouterr().err

    def test_timing_regression_confirmed_on_rerun(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert main(["bench", "--suite", "--repeats", "1", "--out", str(out)]) == 0
        baseline = json.loads(out.read_text())
        for entry in baseline["cases"]:
            entry["best_s"] /= 1000.0
            entry["median_s"] /= 1000.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(baseline))
        code = main(["bench", "--suite", "--repeats", "1", "--baseline", str(bad)])
        captured = capsys.readouterr()
        # A 1000x shift is real: the confirm pass re-runs the suite and
        # the regression survives it.
        assert "re-running suite once to confirm" in captured.out
        assert code == 2
