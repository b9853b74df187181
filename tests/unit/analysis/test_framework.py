"""Framework-level tests: the text report and the rule registry."""

import pytest

from repro.analysis.framework import run_check
from repro.analysis.rules import all_rules

FLAGGED = "import random\nx = random.random()\n"


def rule_ids_of(result):
    return [finding.rule_id for finding in result.findings]


class TestTextReport:
    def test_clean_report(self, check_tree):
        result = check_tree({"repro/a.py": "x = 1\n"})
        assert result.ok
        assert "clean: 0 findings" in result.format_text()

    def test_text_report_lists_path_line_rule(self, check_tree):
        result = check_tree({"repro/a.py": FLAGGED})
        text = result.format_text()
        assert "repro/a.py:2:4: DT001" in text
        assert "hint:" in text

    def test_comments_do_not_silence_findings(self, check_tree):
        # There is no suppression syntax: a finding fails the check
        # whatever comment sits on its line.
        result = check_tree({"repro/a.py": (
            "import random\n"
            "x = random.random()  # repro: noqa[DT001]\n"
        )})
        assert rule_ids_of(result) == ["DT001"]


class TestRuleRegistry:
    def test_rule_ids_unique(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert len(ids) == len(set(ids))

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.description, rule.rule_id
            assert rule.hint, rule.rule_id

    def test_rule_ids_filter(self, check_tree):
        result = check_tree(
            {"repro/a.py": "import random, time\n"
                           "x = random.random()\n"
                           "t = time.time()\n"},
            rule_ids=["DT001"],
        )
        assert rule_ids_of(result) == ["DT001"]

    def test_unknown_rule_id_raises(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        with pytest.raises(ValueError, match="XX999"):
            run_check(paths=[tmp_path], root=tmp_path, rule_ids=["XX999"])
