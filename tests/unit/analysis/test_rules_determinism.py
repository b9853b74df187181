"""Flag / no-flag fixtures for the determinism rules (DT001-DT004)."""


def rule_ids_of(result):
    return [finding.rule_id for finding in result.findings]


class TestUnseededRandom:
    def test_flags_global_random_call(self, check_tree):
        result = check_tree({
            "repro/core/x.py": "import random\nv = random.uniform(0, 1)\n",
        })
        assert rule_ids_of(result) == ["DT001"]

    def test_flags_legacy_numpy_random(self, check_tree):
        result = check_tree({
            "repro/core/x.py": "import numpy as np\nv = np.random.rand(4)\n",
        })
        assert rule_ids_of(result) == ["DT001"]

    def test_seeded_instance_passes(self, check_tree):
        result = check_tree({
            "repro/core/x.py": (
                "import random\n"
                "rng = random.Random(42)\n"
                "v = rng.uniform(0, 1)\n"
            ),
        })
        assert result.ok


class TestUnsortedSetIteration:
    def test_flags_for_over_set_attribute(self, check_tree):
        result = check_tree({
            "repro/network/x.py": (
                "class Pool:\n"
                "    def __init__(self):\n"
                "        self.members: set[int] = set()\n"
                "    def drain(self):\n"
                "        for m in self.members:\n"
                "            print(m)\n"
            ),
        }, rule_ids=["DT002"])
        assert rule_ids_of(result) == ["DT002"]

    def test_flags_comprehension_over_local_set(self, check_tree):
        result = check_tree({
            "repro/engine/x.py": (
                "def f(xs):\n"
                "    pending = set(xs)\n"
                "    return [x + 1 for x in pending]\n"
            ),
        })
        assert rule_ids_of(result) == ["DT002"]

    def test_sorted_iteration_passes(self, check_tree):
        result = check_tree({
            "repro/network/x.py": (
                "def f(xs):\n"
                "    pending = set(xs)\n"
                "    return [x for x in sorted(pending)]\n"
            ),
        })
        assert result.ok

    def test_out_of_scope_layer_not_flagged(self, check_tree):
        result = check_tree({
            "repro/experiments/x.py": (
                "def f(xs):\n"
                "    pending = set(xs)\n"
                "    return [x + 1 for x in pending]\n"
            ),
        })
        assert result.ok

    def test_determinism_rules_scope_covers_topologies(self):
        from repro.analysis.rules.determinism import DETERMINISTIC_LAYERS

        assert "repro/network/mesh.py".startswith(DETERMINISTIC_LAYERS)


class TestIdOrdering:
    def test_flags_sorted_key_id(self, check_tree):
        result = check_tree({
            "repro/core/x.py": "def f(xs):\n    return sorted(xs, key=id)\n",
        })
        assert rule_ids_of(result) == ["DT003"]

    def test_flags_lambda_id_key(self, check_tree):
        result = check_tree({
            "repro/core/x.py": (
                "def f(xs):\n"
                "    xs.sort(key=lambda v: id(v))\n"
            ),
        })
        assert rule_ids_of(result) == ["DT003"]

    def test_domain_key_passes(self, check_tree):
        result = check_tree({
            "repro/core/x.py": (
                "def f(xs):\n"
                "    return sorted(xs, key=lambda v: v.link_id)\n"
            ),
        })
        assert result.ok


class TestWallClock:
    def test_flags_time_call_in_engine(self, check_tree):
        result = check_tree({
            "repro/engine/x.py": "import time\nt0 = time.perf_counter()\n",
        })
        assert rule_ids_of(result) == ["DT004"]

    def test_flags_datetime_now(self, check_tree):
        result = check_tree({
            "repro/metrics/x.py": (
                "from datetime import datetime\n"
                "stamp = datetime.now()\n"
            ),
        })
        assert rule_ids_of(result) == ["DT004"]

    def test_cli_layer_allowed(self, check_tree):
        result = check_tree({
            "repro/cli.py": "import time\nt0 = time.perf_counter()\n",
        })
        assert result.ok

    def test_clock_reference_passes(self, check_tree):
        # Injectable default argument: a reference, not a read.
        result = check_tree({
            "repro/engine/x.py": (
                "import time\n"
                "def f(clock=time.perf_counter):\n"
                "    return clock()\n"
            ),
        })
        assert result.ok
