"""Flag / no-flag fixtures for the reset-completeness rules (RC001-RC003).

RC001/RC002 fixtures use neutral module paths; the exemption-driven
cases write to the real spec paths (``repro/network/buffers.py``,
``repro/network/arbiters.py``) so the ``RESET_EXEMPT`` entries apply.
"""

from __future__ import annotations


def rule_ids_of(result):
    return [finding.rule_id for finding in result.findings]


class TestResetCompleteness:
    def test_flags_attribute_reset_forgets(self, check_tree):
        result = check_tree({
            "repro/network/gadget.py": (
                "class Gadget:\n"
                "    def __init__(self):\n"
                "        self.a = 1\n"
                "        self.b = []\n"
                "    def reset(self):\n"
                "        self.a = 0\n"
            ),
        }, rule_ids=["RC001"])
        assert rule_ids_of(result) == ["RC001"]
        assert "Gadget.b" in result.findings[0].message
        # The finding anchors at the __init__ store of the leaked attr.
        assert result.findings[0].line == 4

    def test_complete_reset_passes(self, check_tree):
        result = check_tree({
            "repro/network/gadget.py": (
                "class Gadget:\n"
                "    def __init__(self):\n"
                "        self.a = 1\n"
                "        self.b = []\n"
                "    def reset(self):\n"
                "        self.a = 0\n"
                "        self.b.clear()\n"
            ),
        }, rule_ids=["RC001"])
        assert result.ok

    def test_class_without_reset_is_not_checked(self, check_tree):
        result = check_tree({
            "repro/network/gadget.py": (
                "class Gadget:\n"
                "    def __init__(self):\n"
                "        self.a = 1\n"
            ),
        }, rule_ids=["RC001"])
        assert result.ok

    def test_delegated_init_helper_passes(self, check_tree):
        result = check_tree({
            "repro/network/gadget.py": (
                "class Sim:\n"
                "    def __init__(self):\n"
                "        self._init_run_state()\n"
                "    def _init_run_state(self):\n"
                "        self.cycle = 0\n"
                "        self.queue = []\n"
                "    def reset(self):\n"
                "        self._init_run_state()\n"
            ),
        }, rule_ids=["RC001"])
        assert result.ok

    def test_inherited_init_attrs_are_owed(self, check_tree):
        result = check_tree({
            "repro/network/gadget.py": (
                "class Base:\n"
                "    def __init__(self):\n"
                "        self.x = 1\n"
                "class Child(Base):\n"
                "    def reset(self):\n"
                "        pass\n"
            ),
        }, rule_ids=["RC001"])
        assert rule_ids_of(result) == ["RC001"]
        assert "Child.x" in result.findings[0].message

    def test_alias_subscript_restore_passes(self, check_tree):
        # In-place restoration of a nested table through aliases.
        result = check_tree({
            "repro/a.py": (
                "class Priorities:\n"
                "    def __init__(self):\n"
                "        self._beats = [[False] * 4 for _ in range(4)]\n"
                "    def reset(self):\n"
                "        beats = self._beats\n"
                "        for i in range(4):\n"
                "            row = beats[i]\n"
                "            for j in range(4):\n"
                "                row[j] = i < j\n"
            ),
        }, rule_ids=["RC001"])
        assert result.ok

    def test_exempt_structural_attr_passes(self, check_tree):
        # `capacity` is exempted for InputBuffer in RESET_EXEMPT.
        result = check_tree({
            "repro/network/buffers.py": (
                "class InputBuffer:\n"
                "    def __init__(self, capacity):\n"
                "        self.capacity = capacity\n"
                "        self._fifo = []\n"
                "    def reset(self):\n"
                "        self._fifo = []\n"
            ),
        }, rule_ids=["RC001"])
        assert result.ok

    def test_exemption_does_not_travel_to_other_modules(self, check_tree):
        result = check_tree({
            "repro/network/gadget.py": (
                "class InputBuffer:\n"
                "    def __init__(self, capacity):\n"
                "        self.capacity = capacity\n"
                "    def reset(self):\n"
                "        pass\n"
            ),
        }, rule_ids=["RC001"])
        assert rule_ids_of(result) == ["RC001"]


class TestResetDrift:
    def test_flags_reset_of_unknown_attribute(self, check_tree):
        result = check_tree({
            "repro/network/gadget.py": (
                "class Gadget:\n"
                "    def __init__(self):\n"
                "        self.count = 0\n"
                "    def reset(self):\n"
                "        self.count = 0\n"
                "        self.cout = 0\n"
            ),
        }, rule_ids=["RC002"])
        assert rule_ids_of(result) == ["RC002"]
        assert "cout" in result.findings[0].message

    def test_matching_attribute_sets_pass(self, check_tree):
        result = check_tree({
            "repro/network/gadget.py": (
                "class Gadget:\n"
                "    def __init__(self):\n"
                "        self.count = 0\n"
                "    def reset(self):\n"
                "        self.count = 0\n"
            ),
        }, rule_ids=["RC002"])
        assert result.ok


ARBITERS_OK = (
    "class RoundRobinArbiter:\n"
    "    def __init__(self, size):\n"
    "        self.size = size\n"
    "        self._next = 0\n"
    "    def reset(self):\n"
    "        self._next = 0\n"
)


class TestResetExemptionStaleness:
    def test_live_exemptions_pass(self, check_tree):
        result = check_tree({
            "repro/network/arbiters.py": ARBITERS_OK,
        }, rule_ids=["RC003"])
        assert result.ok, "\n" + result.format_text()

    def test_flags_exemption_for_vanished_class(self, check_tree):
        renamed = ARBITERS_OK.replace("class RoundRobinArbiter:",
                                      "class RotatingArbiter:")
        result = check_tree({
            "repro/network/arbiters.py": renamed,
        }, rule_ids=["RC003"])
        assert rule_ids_of(result) == ["RC003"]
        assert "RoundRobinArbiter" in result.findings[0].message

    def test_flags_exemption_for_vanished_attribute(self, check_tree):
        renamed = ARBITERS_OK.replace(
            "        self.size = size\n        self._next = 0\n",
            "        self.width = size\n        self._next = 0\n")
        result = check_tree({
            "repro/network/arbiters.py": renamed,
        }, rule_ids=["RC003"])
        assert rule_ids_of(result) == ["RC003"]
        assert "RoundRobinArbiter.size" in result.findings[0].message

    def test_flags_exemption_now_restored(self, check_tree):
        restored = ARBITERS_OK.replace(
            "    def reset(self):\n        self._next = 0\n",
            "    def reset(self):\n        self._next = 0\n"
            "        self.size = 0\n")
        result = check_tree({
            "repro/network/arbiters.py": restored,
        }, rule_ids=["RC003"])
        assert rule_ids_of(result) == ["RC003"]
        assert "stale" in result.findings[0].message

    def test_rule_gates_on_spec_module_presence(self, check_tree):
        result = check_tree({
            "repro/network/gadget.py": "class Gadget:\n    pass\n",
        }, rule_ids=["RC003"])
        assert result.ok
