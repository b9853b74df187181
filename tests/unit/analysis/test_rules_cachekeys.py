"""Flag / no-flag fixtures for the cache-key coverage rules (CK001-CK003).

Fixtures write to the spec'd module paths (``repro/experiments/...``,
``repro/core/manager.py``) so the SWEEP_CONSUMERS / MEMO_KEYS /
GUARD_PAIRS tables match.
"""

from __future__ import annotations


def rule_ids_of(result):
    return [finding.rule_id for finding in result.findings]


def runner_module(fields: str) -> str:
    return "class SweepPoint:\n" + fields


class TestSweepPointCoverage:
    def test_flags_field_missing_from_one_executor(self, check_tree):
        result = check_tree({
            "repro/experiments/runner.py": runner_module(
                "    label: str\n    seed: int\n"),
            "repro/experiments/warm.py": (
                "def run_point_warm(point):\n"
                "    return point.label\n"),
        }, rule_ids=["CK001"])
        assert rule_ids_of(result) == ["CK001"]
        finding = result.findings[0]
        assert "run_point_warm" in finding.message
        assert "SweepPoint.seed" in finding.message
        assert finding.path.endswith("warm.py")

    def test_every_field_reaching_both_executors_passes(self, check_tree):
        result = check_tree({
            "repro/experiments/runner.py": runner_module(
                "    label: str\n    seed: int\n"),
            "repro/experiments/warm.py": (
                "def run_point_warm(point):\n"
                "    return (point.label, point.seed)\n"),
        }, rule_ids=["CK001"])
        assert result.ok

    def test_absent_consumer_module_stays_quiet(self, check_tree):
        result = check_tree({
            "repro/experiments/runner.py": runner_module(
                "    label: str\n"),
        }, rule_ids=["CK001"])
        assert result.ok

    def test_tree_without_sweep_point_stays_quiet(self, check_tree):
        result = check_tree({
            "repro/experiments/warm.py": (
                "def run_point_warm(point):\n"
                "    return point.label\n"),
        }, rule_ids=["CK001"])
        assert result.ok


class TestMemoKeyCoverage:
    def test_flags_config_read_outside_the_key(self, check_tree):
        result = check_tree({
            "repro/core/manager.py": (
                "def _table_for_config(config):\n"
                "    key = (config.technology, config.num_levels)\n"
                "    return config.min_bit_rate\n"),
        }, rule_ids=["CK002"])
        assert rule_ids_of(result) == ["CK002"]
        assert "min_bit_rate" in result.findings[0].message

    def test_flags_missing_key_assignment(self, check_tree):
        result = check_tree({
            "repro/core/manager.py": (
                "def _table_for_config(config):\n"
                "    return config.technology\n"),
        }, rule_ids=["CK002"])
        assert rule_ids_of(result) == ["CK002"]
        assert "key" in result.findings[0].message

    def test_key_covering_every_read_passes(self, check_tree):
        result = check_tree({
            "repro/core/manager.py": (
                "def _table_for_config(config):\n"
                "    key = (config.technology, config.num_levels)\n"
                "    return (key, config.technology, config.num_levels)\n"),
        }, rule_ids=["CK002"])
        assert result.ok


GUARDED_MANAGER = (
    "def _table_for_config(config):\n"
    "    key = (config.technology, config.num_levels)\n"
    "    return key\n"
    "\n"
    "def structurally_compatible(config, current):\n"
    "    return (config.technology == current.technology\n"
    "            and config.num_levels == current.num_levels)\n"
)


class TestGuardKeyAgreement:
    def test_agreeing_field_sets_pass(self, check_tree):
        result = check_tree({
            "repro/core/manager.py": GUARDED_MANAGER,
        }, rule_ids=["CK003"])
        assert result.ok

    def test_flags_field_only_in_the_guard(self, check_tree):
        widened = GUARDED_MANAGER.replace(
            "    key = (config.technology, config.num_levels)\n",
            "    key = (config.technology,)\n")
        result = check_tree({
            "repro/core/manager.py": widened,
        }, rule_ids=["CK003"])
        assert rule_ids_of(result) == ["CK003"]
        assert "guard but not the memo key" in result.findings[0].message

    def test_flags_field_only_in_the_key(self, check_tree):
        narrowed = GUARDED_MANAGER.replace(
            "            and config.num_levels == current.num_levels", "")
        result = check_tree({
            "repro/core/manager.py": narrowed,
        }, rule_ids=["CK003"])
        assert rule_ids_of(result) == ["CK003"]
        assert "memo key but not the" in result.findings[0].message

    def test_absent_guard_stays_quiet(self, check_tree):
        result = check_tree({
            "repro/core/manager.py": (
                "def _table_for_config(config):\n"
                "    key = (config.technology,)\n"
                "    return key\n"),
        }, rule_ids=["CK003"])
        assert result.ok
