"""Meta-tests: the checker's verdict on this repository, and the CLI.

``test_repository_is_clean`` is the contract the CI ``check`` job
enforces: the shipped tree has zero non-suppressed findings.  The seeded
regression test demonstrates the failure mode that the job exists to
catch — drop a violation in, and the exit code flips to 1.
"""

import json

from repro.analysis.cli import main as check_main
from repro.analysis.framework import run_check
from repro.analysis.rules import all_rules
from repro.cli import main as repro_main

#: The stateful-invariant families added over the warm engine.
STATEFUL_FAMILIES = {
    "RC001", "RC002", "RC003",
    "CK001", "CK002", "CK003",
    "SP001", "SP002", "SP003",
    "SU001",
}


class TestRuleRegistry:
    def test_rule_ids_are_unique(self):
        rules = all_rules()
        ids = [rule.rule_id for rule in rules]
        assert len(ids) == len(set(ids))

    def test_stateful_invariant_families_are_registered(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert STATEFUL_FAMILIES <= ids
        assert len(ids) >= 27

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.description, rule.rule_id
            assert rule.hint, rule.rule_id


class TestRepositoryIsClean:
    def test_repository_is_clean(self):
        result = run_check()
        assert result.ok, "\n" + result.format_text()

    def test_repository_is_clean_under_stateful_families_alone(self):
        # The stateful families (plus the suppression meta-rule) hold on
        # their own: no pre-existing violation is being masked by rule
        # ordering or by another family's suppression comment.
        result = run_check(rule_ids=sorted(STATEFUL_FAMILIES))
        assert result.ok, "\n" + result.format_text()

    def test_repository_suppressions_stay_few(self):
        # Suppressions are individually justified; a creeping count means
        # the rules are being routed around instead of satisfied.
        result = run_check()
        assert result.suppressed <= 10

    def test_cli_exit_zero_on_repository(self, capsys):
        assert repro_main(["check"]) == 0
        assert "clean: 0 findings" in capsys.readouterr().out


class TestSeededRegression:
    def test_seeded_violation_fails_the_check(self, tmp_path, capsys):
        target = tmp_path / "repro" / "network" / "seeded.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n",
            encoding="utf-8",
        )
        code = check_main([str(tmp_path), "--root", str(tmp_path),
                           "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"DT001": 1}
        assert payload["findings"][0]["rule"] == "DT001"

    def test_json_artifact_written_for_ci(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = check_main(["--format", "json", "--output", str(report)])
        assert code == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["findings"] == []

    def test_unknown_rule_id_is_usage_error(self, capsys):
        assert check_main(["--rules", "ZZ123"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err
