"""The class-model layer behind the RC reset-completeness rules.

Each test parses a miniature source tree and asserts on the
:class:`~repro.analysis.project.ClassModelIndex` directly — the package
idioms the models must understand (inherited ``__init__``, the frozen
``object.__setattr__`` hash cache, conditional assignment, ``reset()``
delegation, in-place restoration through local aliases) each get a
fixture here so a model regression is named before it surfaces as a
false RC finding.
"""

from __future__ import annotations

import pytest

from repro.analysis.framework import Project, SourceFile
from repro.analysis.project import build_class_models


@pytest.fixture
def model_tree(tmp_path):
    """Write ``{rel: source}`` files and build their class-model index."""

    def _build(files: dict[str, str]):
        sources = []
        for rel, source in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")
            sources.append(SourceFile.parse(target, rel))
        return build_class_models(Project(sources))

    return _build


class TestBasicWrites:
    def test_init_and_reset_attrs(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Gadget:\n"
            "    def __init__(self):\n"
            "        self.a = 1\n"
            "        self.b = []\n"
            "    def reset(self):\n"
            "        self.a = 0\n"
        )})
        model = index.get("repro/a.py", "Gadget")
        assert index.init_attrs(model) == {"a", "b"}
        rebound, restored = index.reset_coverage(model)
        assert rebound == {"a"}
        assert restored == set()

    def test_conditional_assignment_counts_once(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Gadget:\n"
            "    def __init__(self, fast):\n"
            "        if fast:\n"
            "            self.mode = 'fast'\n"
            "        else:\n"
            "            self.mode = 'slow'\n"
        )})
        model = index.get("repro/a.py", "Gadget")
        assert index.init_attrs(model) == {"mode"}
        # First write wins for the report line (the if-branch store).
        assert index.init_write_line(model, "mode") == 4

    def test_augassign_and_tuple_targets(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Gadget:\n"
            "    def __init__(self):\n"
            "        self.a, self.b = 1, 2\n"
            "    def tick(self):\n"
            "        self.a += 1\n"
        )})
        model = index.get("repro/a.py", "Gadget")
        assert model.bound_attrs("__init__") == {"a", "b"}
        # AugAssign touches but does not (re)bind.
        assert model.bound_attrs("tick") == set()
        assert [(w.attr, w.kind) for w in model.writes["tick"]] == [
            ("a", "augassign")]

    def test_clear_call_is_a_restore(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Gadget:\n"
            "    def __init__(self):\n"
            "        self.history = []\n"
            "    def reset(self):\n"
            "        self.history.clear()\n"
        )})
        model = index.get("repro/a.py", "Gadget")
        _, restored = index.reset_coverage(model)
        assert restored == {"history"}


class TestSetattrIdiom:
    def test_object_setattr_binds(self, model_tree):
        # The frozen-dataclass hash-cache idiom (journal.point_key).
        index = model_tree({"repro/a.py": (
            "class Point:\n"
            "    def __init__(self):\n"
            "        object.__setattr__(self, '_key', None)\n"
        )})
        model = index.get("repro/a.py", "Point")
        assert model.bound_attrs("__init__") == {"_key"}
        write = model.first_write("__init__", "_key")
        assert write.kind == "setattr" and write.binds

    def test_dynamic_setattr_name_is_ignored(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Point:\n"
            "    def __init__(self, name):\n"
            "        object.__setattr__(self, name, None)\n"
        )})
        model = index.get("repro/a.py", "Point")
        assert model.bound_attrs("__init__") == set()


class TestDelegationAndInheritance:
    def test_reset_delegates_to_shared_init_helper(self, model_tree):
        # The Simulator idiom: __init__ and reset() share _init_run_state.
        index = model_tree({"repro/a.py": (
            "class Sim:\n"
            "    def __init__(self):\n"
            "        self.config = {}\n"
            "        self._init_run_state()\n"
            "    def _init_run_state(self):\n"
            "        self.cycle = 0\n"
            "        self.queue = []\n"
            "    def reset(self):\n"
            "        self._init_run_state()\n"
        )})
        model = index.get("repro/a.py", "Sim")
        assert index.init_attrs(model) == {"config", "cycle", "queue"}
        rebound, _ = index.reset_coverage(model)
        assert rebound == {"cycle", "queue"}

    def test_delegation_cycles_terminate(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Sim:\n"
            "    def __init__(self):\n"
            "        self.a = 1\n"
            "    def reset(self):\n"
            "        self.other()\n"
            "    def other(self):\n"
            "        self.a = 0\n"
            "        self.reset()\n"
        )})
        model = index.get("repro/a.py", "Sim")
        rebound, _ = index.reset_coverage(model)
        assert rebound == {"a"}

    def test_inherited_init_is_resolved(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Base:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "class Child(Base):\n"
            "    def reset(self):\n"
            "        self.x = 0\n"
        )})
        child = index.get("repro/a.py", "Child")
        assert index.has_method(child, "__init__")
        assert index.init_attrs(child) == {"x"}

    def test_super_init_expands_base_attrs(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Base:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "class Child(Base):\n"
            "    def __init__(self):\n"
            "        super().__init__()\n"
            "        self.y = 2\n"
        )})
        child = index.get("repro/a.py", "Child")
        assert index.init_attrs(child) == {"x", "y"}

    def test_own_init_without_super_hides_base_attrs(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Base:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "class Child(Base):\n"
            "    def __init__(self):\n"
            "        self.y = 2\n"
        )})
        child = index.get("repro/a.py", "Child")
        assert index.init_attrs(child) == {"y"}

    def test_cross_file_base_resolution(self, model_tree):
        index = model_tree({
            "repro/base.py": (
                "class Base:\n"
                "    def __init__(self):\n"
                "        self.x = 1\n"
            ),
            "repro/child.py": (
                "class Child(Base):\n"
                "    def reset(self):\n"
                "        self.x = 0\n"
            ),
        })
        child = index.get("repro/child.py", "Child")
        assert index.init_attrs(child) == {"x"}

    def test_ambiguous_base_name_resolves_to_nothing(self, model_tree):
        index = model_tree({
            "repro/one.py": "class Base:\n    def __init__(self):\n"
                            "        self.x = 1\n",
            "repro/two.py": "class Base:\n    def __init__(self):\n"
                            "        self.y = 1\n",
            "repro/child.py": "class Child(Base):\n"
                              "    def reset(self):\n        pass\n",
        })
        child = index.get("repro/child.py", "Child")
        # Guessing wrong would poison the chain; ambiguity gives up.
        assert index.find("Base", near="repro/child.py") is None
        assert index.init_attrs(child) == set()


class TestAliasedRestores:
    def test_matrix_arbiter_alias_loop(self, model_tree):
        # reset() restores the matrix in place through two local aliases.
        index = model_tree({"repro/a.py": (
            "class MatrixArbiter:\n"
            "    def __init__(self, size):\n"
            "        self._beats = [[False] * size for _ in range(size)]\n"
            "    def reset(self):\n"
            "        beats = self._beats\n"
            "        for i in range(3):\n"
            "            row = beats[i]\n"
            "            for j in range(3):\n"
            "                row[j] = i < j\n"
        )})
        model = index.get("repro/a.py", "MatrixArbiter")
        _, restored = index.reset_coverage(model)
        assert restored == {"_beats"}

    def test_direct_subscript_store_restores(self, model_tree):
        index = model_tree({"repro/a.py": (
            "class Table:\n"
            "    def __init__(self):\n"
            "        self.slots = [0, 0]\n"
            "    def reset(self):\n"
            "        self.slots[0] = 0\n"
        )})
        model = index.get("repro/a.py", "Table")
        _, restored = index.reset_coverage(model)
        assert restored == {"slots"}

    def test_sub_object_attribute_is_not_credited(self, model_tree):
        # self.stats.in_flight = 0 restores stats' state, not .stats —
        # sub-object state is that object's own reset obligation.
        index = model_tree({"repro/a.py": (
            "class Sim:\n"
            "    def __init__(self):\n"
            "        self.stats = object()\n"
            "    def reset(self):\n"
            "        self.stats.in_flight = 0\n"
        )})
        model = index.get("repro/a.py", "Sim")
        rebound, restored = index.reset_coverage(model)
        assert "stats" not in rebound and "stats" not in restored
