"""Flag / no-flag fixtures for the hot-path purity rules (HP001-HP004).

The hot set is the explicit ``HOT_FUNCTIONS`` map; fixtures are written
to the same module paths (``repro/network/router.py``) so the scope
matches, with violations inside ``Router.step`` (hot) and the same
constructs inside a non-hot method as the negative control.
"""


def rule_ids_of(result):
    return [finding.rule_id for finding in result.findings]


def router_module(step_body: str, other_body: str = "        pass\n") -> str:
    return (
        "class Router:\n"
        "    def step(self, now):\n"
        f"{step_body}"
        "\n"
        "    def build_route_table(self, num_routers):\n"
        f"{other_body}"
    )


class TestLocalImport:
    def test_flags_import_in_hot_body(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        import heapq\n        return heapq\n"),
        }, rule_ids=["HP001"])
        assert rule_ids_of(result) == ["HP001"]

    def test_import_in_cold_method_passes(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        return None\n",
                "        import heapq\n        return heapq\n"),
        }, rule_ids=["HP001"])
        assert result.ok


class TestLoggingInHotPath:
    def test_flags_print(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        print(now)\n"),
        }, rule_ids=["HP002"])
        assert rule_ids_of(result) == ["HP002"]

    def test_flags_logger_call(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        logger.debug('tick %s', now)\n"),
        }, rule_ids=["HP002"])
        assert rule_ids_of(result) == ["HP002"]

    def test_print_elsewhere_passes(self, check_tree):
        result = check_tree({
            "repro/metrics/report_helpers.py": "def f(x):\n    print(x)\n",
        }, rule_ids=["HP002"])
        assert result.ok


class TestClosureInHotPath:
    def test_flags_lambda(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        key = lambda flit: flit.age\n        return key\n"),
        }, rule_ids=["HP003"])
        assert rule_ids_of(result) == ["HP003"]

    def test_flags_nested_def(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        def helper():\n            return 1\n"
                "        return helper()\n"),
        }, rule_ids=["HP003"])
        assert rule_ids_of(result) == ["HP003"]


class TestComprehensionInHotPath:
    def test_flags_list_comprehension(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        return [f for f in self.pending]\n"),
        }, rule_ids=["HP004"])
        assert rule_ids_of(result) == ["HP004"]

    def test_comprehension_severity_is_warning(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        return [f for f in self.pending]\n"),
        }, rule_ids=["HP004"])
        assert result.findings[0].severity == "warning"

    def test_suppressed_comprehension_passes(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        return [f for f in self.pending]"
                "  # repro: noqa[HP004] cold branch fixture\n"),
        }, rule_ids=["HP004"])
        assert result.ok
        assert result.suppressed == 1

    def test_cold_method_comprehension_passes(self, check_tree):
        result = check_tree({
            "repro/network/router.py": router_module(
                "        return None\n",
                "        return [i for i in range(num_routers)]\n"),
        }, rule_ids=["HP004"])
        assert result.ok


class TestTopologyCoverage:
    """The mesh topology sits under the same static-analysis contract."""

    def test_topology_route_relations_are_in_the_hot_set(self):
        from repro.analysis.rules.hotpath import HOT_FUNCTIONS

        assert "MeshTopology.route_direction" in \
            HOT_FUNCTIONS["repro/network/mesh.py"]

    def test_determinism_rules_scope_covers_topologies(self):
        from repro.analysis.rules.determinism import DETERMINISTIC_LAYERS

        rel = "repro/network/mesh.py"
        assert rel.startswith(DETERMINISTIC_LAYERS)

    def test_flags_comprehension_in_topology_hot_body(self, check_tree):
        result = check_tree({
            "repro/network/mesh.py": (
                "class MeshTopology:\n"
                "    def route_direction(self, router_id, dst_router):\n"
                "        return sum(c for c in self._coords)\n"
            ),
        }, rule_ids=["HP004"])
        assert rule_ids_of(result) == ["HP004"]


class TestStaleHotEntries:
    """HP005: every HOT_FUNCTIONS entry must name code that exists."""

    def test_deleted_hot_method_is_reported(self, check_tree):
        result = check_tree({
            "repro/engine/schedule.py": (
                "class DeliverySchedule:\n"
                "    def pending(self):\n"
                "        return False\n"
            ),
        }, rule_ids=["HP005"])
        assert rule_ids_of(result) == ["HP005"]
        (finding,) = result.findings
        assert finding.path == "repro/engine/schedule.py"
        assert "DeliverySchedule.pop_due" in finding.message

    def test_resolving_entries_pass(self, check_tree):
        result = check_tree({
            "repro/engine/schedule.py": (
                "class DeliverySchedule:\n"
                "    def pop_due(self, now):\n"
                "        return []\n"
            ),
        }, rule_ids=["HP005"])
        assert result.ok

    def test_missing_module_needs_map_in_tree(self, check_tree):
        partial = check_tree({
            "repro/engine/wheel.py": "class EventWheel:\n    pass\n",
        }, rule_ids=["HP005"])
        assert len(partial.findings) == 2  # EventWheel.schedule, .service
        assert all("repro/engine/wheel.py" in finding.message
                   for finding in partial.findings)
        whole = check_tree({
            "repro/analysis/rules/hotpath.py": "HOT_FUNCTIONS = {}\n",
        }, rule_ids=["HP005"])
        missing = [finding for finding in whole.findings
                   if "not in the tree" in finding.message]
        assert any("repro/engine/schedule.py" in finding.message
                   for finding in missing)
        assert all(finding.path == "repro/analysis/rules/hotpath.py"
                   for finding in missing)

    def test_the_shipped_map_resolves(self):
        from repro.analysis.framework import run_check

        assert run_check(rule_ids=["HP005"]).ok
