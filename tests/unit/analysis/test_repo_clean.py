"""Meta-tests: the checker's verdict on this repository, and the CLI.

``test_repository_is_clean`` is the contract tier-1 enforces on every
supported Python: the shipped tree has zero findings.  The seeded
regression test demonstrates the failure mode the contract exists to
catch — drop a violation in, and the check fails.
"""

from repro.analysis.__main__ import main as check_main
from repro.analysis.framework import default_source_tree, run_check
from repro.analysis.rules import all_rules

#: The stateful-invariant family over the warm engine.
STATEFUL_FAMILIES = {"RC001", "RC002", "RC003"}

#: Every registered rule id: determinism, units, reset completeness.
RULE_IDS = {
    "DT001", "DT002", "DT003", "DT004",
    "UN001", "UN002", "UN003", "UN004",
    *STATEFUL_FAMILIES,
}


class TestRuleRegistry:
    def test_rule_ids_are_unique(self):
        rules = all_rules()
        ids = [rule.rule_id for rule in rules]
        assert len(ids) == len(set(ids))

    def test_stateful_invariant_families_are_registered(self):
        assert {rule.rule_id for rule in all_rules()} == RULE_IDS

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.description, rule.rule_id
            assert rule.hint, rule.rule_id


class TestRepositoryIsClean:
    def test_repository_is_clean(self):
        result = run_check()
        assert result.ok, "\n" + result.format_text()

    def test_repository_is_clean_under_stateful_families_alone(self):
        # The stateful family holds on its own: no pre-existing violation
        # is being masked by rule ordering.
        result = run_check(rule_ids=sorted(STATEFUL_FAMILIES))
        assert result.ok, "\n" + result.format_text()

    def test_repository_suppressions_stay_few(self):
        # The checker honours no suppression comment, so a leftover
        # ``repro: noqa`` would only mislead a reader into thinking a
        # finding is being silenced.
        carriers = [
            str(path) for path in sorted(default_source_tree().rglob("*.py"))
            if "repro: noqa" in path.read_text(encoding="utf-8")
        ]
        assert carriers == []

    def test_cli_exit_zero_on_repository(self, capsys):
        assert check_main([]) == 0
        assert "clean: 0 findings" in capsys.readouterr().out


class TestSeededRegression:
    def test_seeded_violation_fails_the_check(self, tmp_path):
        target = tmp_path / "repro" / "network" / "seeded.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n",
            encoding="utf-8",
        )
        result = run_check(paths=[tmp_path], root=tmp_path)
        assert not result.ok
        assert result.counts_by_rule() == {"DT001": 1}
        assert result.findings[0].path == "repro/network/seeded.py"

    def test_cli_exit_one_on_findings(self, tmp_path, capsys):
        target = tmp_path / "repro" / "network" / "seeded.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nx = random.random()\n",
                          encoding="utf-8")
        assert check_main([str(tmp_path)]) == 1
        assert "DT001 x1" in capsys.readouterr().out
