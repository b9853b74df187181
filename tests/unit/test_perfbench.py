"""Unit tests for the persistent benchmark trajectory (``repro bench``)."""

import json

import pytest

from repro import perfbench
from repro.errors import ConfigError


def fake_snapshot(throughputs: dict[str, float],
                  calibration: float = 1_000_000.0) -> dict:
    return {
        "schema_version": perfbench.SCHEMA_VERSION,
        "pr": 4,
        "quick": True,
        "python": "3.11.7",
        "implementation": "CPython",
        "machine": "x86_64",
        "calibration_ops_per_sec": calibration,
        "peak_rss_kb": 40_000,
        "datapoints": [
            {
                "label": label,
                "injection_rate": perfbench.RATES[label],
                "cycles": 1500,
                "repeats": 2,
                "cycles_per_sec_cpu": cps,
                "summary": {},
                "phase_profile": {},
            }
            for label, cps in throughputs.items()
        ],
    }


class TestCompare:
    def test_identical_snapshots_pass(self):
        snapshot = fake_snapshot({"light": 100_000.0, "moderate": 20_000.0})
        assert perfbench.compare(snapshot, snapshot) == []

    def test_regression_beyond_tolerance_is_reported(self):
        baseline = fake_snapshot({"light": 100_000.0, "moderate": 20_000.0})
        current = fake_snapshot({"light": 100_000.0, "moderate": 15_000.0})
        regressions = perfbench.compare(current, baseline, tolerance=0.15)
        assert len(regressions) == 1
        assert regressions[0].startswith("moderate:")

    def test_drop_within_tolerance_passes(self):
        baseline = fake_snapshot({"moderate": 20_000.0})
        current = fake_snapshot({"moderate": 18_000.0})
        assert perfbench.compare(current, baseline, tolerance=0.15) == []

    def test_calibration_normalisation_forgives_a_slower_machine(self):
        # Half the raw throughput on a machine scoring half the
        # calibration: identical code, no regression.
        baseline = fake_snapshot({"moderate": 20_000.0},
                                 calibration=2_000_000.0)
        current = fake_snapshot({"moderate": 10_000.0},
                                calibration=1_000_000.0)
        assert perfbench.compare(current, baseline) == []

    def test_calibration_normalisation_catches_a_masked_regression(self):
        # Same raw throughput on a machine twice as fast IS a regression.
        baseline = fake_snapshot({"moderate": 20_000.0},
                                 calibration=1_000_000.0)
        current = fake_snapshot({"moderate": 20_000.0},
                                calibration=2_000_000.0)
        assert perfbench.compare(current, baseline) != []

    def test_unshared_labels_are_ignored(self):
        baseline = fake_snapshot({"light": 100_000.0})
        current = fake_snapshot({"moderate": 1.0})
        assert perfbench.compare(current, baseline) == []

    def test_missing_calibration_rejected(self):
        good = fake_snapshot({"light": 1.0})
        bad = fake_snapshot({"light": 1.0})
        del bad["calibration_ops_per_sec"]
        with pytest.raises(ConfigError):
            perfbench.compare(good, bad)

    def test_bad_tolerance_rejected(self):
        snapshot = fake_snapshot({"light": 1.0})
        for tolerance in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                perfbench.compare(snapshot, snapshot, tolerance=tolerance)


class TestSnapshotIO:
    def test_write_load_round_trip(self, tmp_path):
        snapshot = fake_snapshot({"light": 100_000.0})
        path = tmp_path / "bench.json"
        perfbench.write_snapshot(snapshot, str(path))
        assert perfbench.load_snapshot(str(path)) == snapshot

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            perfbench.load_snapshot(str(tmp_path / "absent.json"))

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            perfbench.load_snapshot(str(path))

    def test_unknown_schema_rejected(self, tmp_path):
        snapshot = fake_snapshot({"light": 1.0})
        snapshot["schema_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(snapshot))
        with pytest.raises(ConfigError, match="schema"):
            perfbench.load_snapshot(str(path))


class TestMeasurement:
    def test_measure_rate_smoke(self):
        point = perfbench.measure_rate("light", 0.02, cycles=300,
                                       repeats=2, profile=False)
        assert point.cycles_per_sec_cpu > 0
        assert point.summary["cycles"] == 300
        assert point.phase_profile == {}
        json.dumps(point.to_json())  # must be serialisable as-is

    def test_phase_profile_shares_sum_to_one(self):
        profile = perfbench._phase_profile(0.02, cycles=300)
        assert set(profile) == {"deliver", "route", "inject", "generate",
                                "control"}
        assert sum(profile.values()) == pytest.approx(1.0, abs=0.01)

    def test_calibration_is_positive(self):
        assert perfbench.calibrate(rounds=1) > 0


class TestCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "--quick"])
        assert args.quick and args.tolerance == 0.15
        assert args.out is None and args.compare is None

    def test_bench_command_writes_and_gates(self, tmp_path, capsys,
                                            monkeypatch):
        from repro import cli

        snapshot = fake_snapshot({"light": 100_000.0})

        def fast_run(quick=False, pr=None, profile=True, topology="mesh"):
            return dict(snapshot, pr=pr, quick=quick)

        monkeypatch.setattr(perfbench, "run_benchmarks", fast_run)
        out = tmp_path / "BENCH_t.json"
        assert cli.main(["bench", "--quick", "--out", str(out)]) == 0
        assert perfbench.load_snapshot(str(out))["quick"] is True

        # Gate against itself: passes; against an inflated baseline: fails.
        assert cli.main(["bench", "--quick", "--compare", str(out)]) == 0
        inflated = fake_snapshot({"light": 1_000_000.0})
        baseline = tmp_path / "baseline.json"
        perfbench.write_snapshot(inflated, str(baseline))
        assert cli.main(["bench", "--quick",
                         "--compare", str(baseline)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err

    def test_pr_number_names_the_default_output(self, tmp_path, capsys,
                                                monkeypatch):
        from repro import cli

        monkeypatch.setattr(
            perfbench, "run_benchmarks",
            lambda quick=False, pr=None, profile=True, topology="mesh":
            dict(fake_snapshot({"light": 1.0}), pr=pr))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bench", "--quick", "--pr", "9"]) == 0
        assert perfbench.load_snapshot(str(tmp_path / "BENCH_9.json"))[
            "pr"] == 9


class TestCalibrationDrift:
    def with_probes(self, throughputs, calibration=1_000_000.0,
                    probe=None):
        snapshot = fake_snapshot(throughputs, calibration=calibration)
        for point in snapshot["datapoints"]:
            point["calibration_ops_per_sec"] = (
                probe if probe is not None else calibration)
        return snapshot

    def test_clean_snapshots_produce_no_warnings(self):
        snapshot = self.with_probes({"light": 1.0})
        assert perfbench.calibration_warnings(snapshot, snapshot) == []

    def test_intra_snapshot_probe_drift_is_flagged(self):
        # A probe 30% off its own snapshot's score: the machine moved
        # mid-session, so every ratio involving that point is suspect.
        drifted = self.with_probes({"light": 1.0}, calibration=1_000_000.0,
                                   probe=700_000.0)
        clean = self.with_probes({"light": 1.0})
        warnings = perfbench.calibration_warnings(drifted, clean)
        assert len(warnings) == 1
        assert "comparison unreliable" in warnings[0]
        assert "current" in warnings[0]

    def test_same_machine_cross_snapshot_shift_is_flagged(self):
        current = self.with_probes({"light": 1.0}, calibration=700_000.0,
                                   probe=700_000.0)
        baseline = self.with_probes({"light": 1.0},
                                    calibration=1_000_000.0)
        warnings = perfbench.calibration_warnings(current, baseline)
        assert len(warnings) == 1

    def test_different_machine_shift_is_not_flagged(self):
        # The snapshot-level normalisation exists exactly for honest
        # machine differences; only an identical machine drifting warns.
        current = self.with_probes({"light": 1.0}, calibration=700_000.0,
                                   probe=700_000.0)
        baseline = self.with_probes({"light": 1.0},
                                    calibration=1_000_000.0)
        baseline["machine"] = "aarch64"
        assert perfbench.calibration_warnings(current, baseline) == []

    def test_compare_prefers_per_point_probes(self):
        # Same raw throughput; the snapshot-level scores diverge but the
        # per-point probes agree — per-point normalisation must win and
        # report no regression.
        current = self.with_probes({"moderate": 20_000.0},
                                   calibration=2_000_000.0,
                                   probe=1_000_000.0)
        baseline = self.with_probes({"moderate": 20_000.0},
                                    calibration=1_000_000.0,
                                    probe=1_000_000.0)
        assert perfbench.compare(current, baseline) == []

    def test_compare_falls_back_to_snapshot_score(self):
        # A pre-probe baseline (no point-level probes) still gates via
        # the snapshot-level score.
        current = fake_snapshot({"moderate": 10_000.0},
                                calibration=1_000_000.0)
        baseline = fake_snapshot({"moderate": 20_000.0},
                                 calibration=1_000_000.0)
        assert perfbench.compare(current, baseline) != []


def fake_sweep_snapshot(points_per_sec: dict[str, float],
                        calibration: float = 1_000_000.0) -> dict:
    snapshot = fake_snapshot({}, calibration=calibration)
    snapshot["sweep_datapoints"] = [
        {
            "label": label,
            "variant": label.split("_")[1],
            "points": 24,
            "cycles_per_point": 200,
            "warm": label.endswith("warm"),
            "jobs": 1,
            "clock": "cpu",
            "points_per_sec": pps,
            "calibration_ops_per_sec": calibration,
        }
        for label, pps in points_per_sec.items()
    ]
    return snapshot


class TestCompareSweeps:
    def test_identical_snapshots_pass(self):
        snapshot = fake_sweep_snapshot({"sweep_short_cold": 60.0,
                                        "sweep_short_warm": 160.0})
        assert perfbench.compare_sweeps(snapshot, snapshot) == []

    def test_regression_beyond_tolerance_is_reported(self):
        baseline = fake_sweep_snapshot({"sweep_short_warm": 160.0})
        current = fake_sweep_snapshot({"sweep_short_warm": 100.0})
        regressions = perfbench.compare_sweeps(current, baseline)
        assert len(regressions) == 1
        assert regressions[0].startswith("sweep_short_warm:")

    def test_calibration_normalisation_applies(self):
        baseline = fake_sweep_snapshot({"sweep_short_warm": 160.0},
                                       calibration=2_000_000.0)
        current = fake_sweep_snapshot({"sweep_short_warm": 80.0},
                                      calibration=1_000_000.0)
        assert perfbench.compare_sweeps(current, baseline) == []

    def test_mismatched_geometry_is_skipped(self):
        # points/sec across different sweep shapes is meaningless; a
        # re-parameterised variant must not gate against the old shape.
        baseline = fake_sweep_snapshot({"sweep_short_warm": 160.0})
        current = fake_sweep_snapshot({"sweep_short_warm": 10.0})
        current["sweep_datapoints"][0]["cycles_per_point"] = 500
        assert perfbench.compare_sweeps(current, baseline) == []

    def test_snapshots_without_sweeps_compare_vacuously(self):
        plain = fake_snapshot({"light": 1.0})
        sweeping = fake_sweep_snapshot({"sweep_short_warm": 160.0})
        assert perfbench.compare_sweeps(plain, sweeping) == []
        assert perfbench.compare_sweeps(sweeping, plain) == []

    def test_bad_tolerance_rejected(self):
        snapshot = fake_sweep_snapshot({"sweep_short_warm": 1.0})
        with pytest.raises(ConfigError):
            perfbench.compare_sweeps(snapshot, snapshot, tolerance=1.0)


class TestSweepMeasurement:
    TINY_VARIANTS = {
        "short": {"points": 3, "cycles": 120, "warmup": 25,
                  "rates": (0.02,)},
    }

    def test_measure_sweep_smoke(self, monkeypatch):
        monkeypatch.setattr(perfbench, "SWEEP_VARIANTS", self.TINY_VARIANTS)
        cold = perfbench.measure_sweep("short", warm=False, repeats=1)
        warm = perfbench.measure_sweep("short", warm=True, repeats=1)
        assert warm.pop("results") == cold.pop("results")
        assert cold["label"] == "sweep_short_cold"
        assert warm["label"] == "sweep_short_warm"
        assert cold["points_per_sec"] > 0 and warm["points_per_sec"] > 0
        assert cold["clock"] == "cpu"
        json.dumps([cold, warm])  # must be serialisable as-is

    def test_run_sweep_benchmarks_quick(self, monkeypatch):
        monkeypatch.setattr(perfbench, "SWEEP_VARIANTS", self.TINY_VARIANTS)
        doc = perfbench.run_sweep_benchmarks(quick=True)
        labels = [p["label"] for p in doc["sweep_datapoints"]]
        assert labels == ["sweep_short_cold", "sweep_short_warm"]
        assert "short" in doc["sweep_speedups"]
        for point in doc["sweep_datapoints"]:
            assert "results" not in point

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep variant"):
            perfbench.sweep_bench_points("nope")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigError):
            perfbench.measure_sweep("short", warm=True, jobs=0)


class TestCommittedSnapshotsCarryProfiles:
    def test_post_pr9_datapoints_have_phase_profiles(self):
        # BENCH_8 shipped torus/numpy riders with an empty phase_profile
        # (the riders hardcoded profile=False); from PR 9 on, every
        # committed single-run datapoint must carry a non-empty profile.
        import glob
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        checked = 0
        for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
            stem = os.path.basename(path)
            number = int(stem[len("BENCH_"):-len(".json")])
            if number < 9:
                continue
            snapshot = perfbench.load_snapshot(path)
            for point in snapshot["datapoints"]:
                assert point["phase_profile"], (
                    f"{stem} datapoint {point['label']!r} has an empty "
                    "phase_profile"
                )
                checked += 1
        assert checked > 0, "no post-PR9 snapshot committed"
