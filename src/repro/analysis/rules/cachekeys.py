"""CK: cache/hash-key coverage rules for memoised construction.

The warm execution stack leans on three content keys:

* the per-process operating-point-table memo
  (``core/manager.py::_table_for_config``), keyed by a tuple of
  ``PowerAwareConfig`` fields;
* the ``structurally_compatible`` guard deciding whether a warm
  ``NetworkPowerManager.reset`` may absorb a new config — it must
  compare exactly the fields the memo key is built from, or a warm
  rerun reuses a table built for a different config;
* the ``SweepPoint`` dataclass consumed by both the cold
  (``runner.run_point``) and warm (``warm.run_point_warm``) executors —
  a field one path reads and the other ignores silently forks results
  between execution modes (the journal's content hash itself iterates
  ``dataclasses.fields`` and needs no rule).

* **CK001** — a ``SweepPoint`` field is not read by every declared
  consumer (cold/warm divergence).
* **CK002** — a memoised builder reads a config field its memo key
  does not cover (stale-table aliasing).
* **CK003** — the structural-compatibility guard and the memo key
  disagree on the field set.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.framework import Finding, Project, Rule, SourceFile

#: The dataclass whose fields must reach both executors.
SWEEP_MODULE = "repro/experiments/runner.py"
SWEEP_CLASS = "SweepPoint"

#: module (without ``src/``) -> {consumer function -> dataclass param}.
SWEEP_CONSUMERS: dict[str, dict[str, str]] = {
    "repro/experiments/runner.py": {"run_point": "point"},
    "repro/experiments/warm.py": {"run_point_warm": "point"},
}

#: module -> {memo function -> (key variable, config param)}: every
#: ``<param>.<field>`` the function reads must appear in the key tuple.
MEMO_KEYS: dict[str, dict[str, tuple[str, str]]] = {
    "repro/core/manager.py": {"_table_for_config": ("key", "config")},
}

#: (guard module, guard function, compared params) vs.
#: (memo module, memo function, key variable, key param).
GUARD_PAIRS: tuple[tuple[str, str, tuple[str, ...], str, str, str, str], ...] = (
    ("repro/core/manager.py", "structurally_compatible",
     ("config", "current"),
     "repro/core/manager.py", "_table_for_config", "key", "config"),
)


def _plain(rel: str) -> str:
    return rel.removeprefix("src/")


def _functions(src: SourceFile) -> Iterator[ast.FunctionDef]:
    """Top-level functions and methods, flattened."""
    for node in src.tree.body:  # type: ignore[attr-defined]
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item


def _find_function(project: Project, module: str,
                   name: str) -> tuple[SourceFile, ast.FunctionDef] | None:
    for src in project:
        if _plain(src.rel) != module:
            continue
        for fn in _functions(src):
            if fn.name == name:
                return src, fn
    return None


def _attr_reads(body: ast.AST, base: str) -> set[str]:
    """Attribute names loaded off the name ``base`` anywhere in ``body``."""
    reads: set[str] = set()
    for node in ast.walk(body):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == base):
            reads.add(node.attr)
    return reads


def _key_fields(fn: ast.FunctionDef, key_var: str,
                param: str) -> tuple[set[str], int] | None:
    """Config attrs inside the ``key = (...)`` assignment, with its line."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        if any(isinstance(t, ast.Name) and t.id == key_var
               for t in node.targets):
            return _attr_reads(node.value, param), node.lineno
    return None


def _sweep_fields(project: Project) -> tuple[str, set[str], int] | None:
    """(rel, declared field names, class line) of the SweepPoint dataclass."""
    for src in project:
        if _plain(src.rel) != SWEEP_MODULE:
            continue
        for node in src.tree.body:  # type: ignore[attr-defined]
            if isinstance(node, ast.ClassDef) and node.name == SWEEP_CLASS:
                fields = {
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                }
                return src.rel, fields, node.lineno
    return None


class SweepPointCoverageRule(Rule):
    rule_id = "CK001"
    name = "sweep-point-fields-reach-every-executor"
    description = ("a SweepPoint field is not read by every declared "
                   "executor (cold/warm results would diverge)")
    hint = ("thread the new field through run_point AND run_point_warm "
            "(or drop it from the dataclass); the journal hash covers "
            "fields automatically, the executors do not")

    def check_project(self, project: Project) -> Iterable[Finding]:
        sweep = _sweep_fields(project)
        if sweep is None:
            return  # dataclass not part of this run's tree
        _, fields, _ = sweep
        for module, consumers in SWEEP_CONSUMERS.items():
            for fn_name, param in consumers.items():
                found = _find_function(project, module, fn_name)
                if found is None:
                    continue  # consumer module absent: CK rules stay quiet
                src, fn = found
                missing = fields - _attr_reads(fn, param)
                for attr in sorted(missing):
                    yield self.finding(
                        src.rel, fn,
                        f"{fn_name}() never reads {SWEEP_CLASS}.{attr} — "
                        f"the field does not reach this executor",
                    )


class MemoKeyCoverageRule(Rule):
    rule_id = "CK002"
    name = "memo-keys-cover-config-reads"
    description = ("a memoised builder reads a config field its memo key "
                   "does not cover (two configs could alias one entry)")
    hint = "add the field to the memo key tuple (and to the reset guard)"

    def check_project(self, project: Project) -> Iterable[Finding]:
        for module, memos in MEMO_KEYS.items():
            for fn_name, (key_var, param) in memos.items():
                found = _find_function(project, module, fn_name)
                if found is None:
                    continue
                src, fn = found
                key = _key_fields(fn, key_var, param)
                if key is None:
                    yield self.finding(
                        src.rel, fn,
                        f"{fn_name}() has no `{key_var} = (...)` "
                        f"assignment to check the memo key against",
                    )
                    continue
                covered, _ = key
                for attr in sorted(_attr_reads(fn, param) - covered):
                    yield self.finding(
                        src.rel, fn,
                        f"{fn_name}() reads {param}.{attr}, which the "
                        f"memo key does not cover",
                    )


class GuardKeyAgreementRule(Rule):
    rule_id = "CK003"
    name = "reset-guard-matches-memo-key"
    description = ("the structural-compatibility guard and the memo key "
                   "disagree on which config fields are structural")
    hint = ("compare exactly the memo-key fields in the guard: a field "
            "in one set but not the other lets a warm reset reuse "
            "structures built for a different config")

    def check_project(self, project: Project) -> Iterable[Finding]:
        for (guard_mod, guard_fn, params,
             memo_mod, memo_fn, key_var, key_param) in GUARD_PAIRS:
            guard = _find_function(project, guard_mod, guard_fn)
            memo = _find_function(project, memo_mod, memo_fn)
            if guard is None or memo is None:
                continue
            guard_src, guard_body = guard
            _, memo_body = memo
            key = _key_fields(memo_body, key_var, key_param)
            if key is None:
                continue  # CK002 reports the missing key assignment
            key_set, _ = key
            compared: set[str] = set()
            for param in params:
                compared |= _attr_reads(guard_body, param)
            for attr in sorted(compared ^ key_set):
                where = ("guard but not the memo key"
                         if attr in compared else "memo key but not the "
                         "guard")
                yield self.finding(
                    guard_src.rel, guard_body,
                    f"{guard_fn}() and {memo_fn}()'s key disagree: "
                    f"field {attr!r} is in the {where}",
                )
