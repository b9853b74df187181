"""SP: serialization-purity rules for the process-pool boundary.

Sweep points cross a :class:`~concurrent.futures.ProcessPoolExecutor`
boundary by pickling, and their identity enters the resume journal as a
canonical-JSON content hash.  Both break silently:

* a lambda or nested function handed to ``submit``/``map`` (or stored
  in a ``SweepPoint`` field) pickles on some platforms never and on
  none portably — the figure harnesses use frozen-dataclass callables
  instead;
* a hashing path serialising through an unsorted ``json.dumps`` or a
  ``set`` iteration produces hashes that vary between runs, so a
  resumed sweep re-runs (or worse, wrongly skips) completed points.

* **SP001** — a lambda/nested function is submitted to an executor.
* **SP002** — a declared hashing function serialises non-canonically
  (``json.dumps`` without ``sort_keys=True``, or iteration over a
  ``set``).
* **SP003** — a ``SweepPoint`` is constructed with a lambda/nested
  function field (it would cross the pool boundary unpicklable, and
  the journal rejects it only at run time).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.framework import Finding, Project, Rule, SourceFile

#: module (without ``src/``) -> functions whose output feeds a content
#: hash and must therefore serialise canonically.
HASHING_FUNCTIONS: dict[str, frozenset[str]] = {
    "repro/experiments/journal.py": frozenset({"point_key", "_canonical"}),
    "repro/experiments/runner.py": frozenset({"derive_seed"}),
}

#: Executor methods whose first argument crosses the pickle boundary.
_POOL_METHODS = frozenset({"submit", "map"})

#: Callables treated as pool-crossing dataclass constructors.
_BOUNDARY_CLASSES = frozenset({"SweepPoint"})


def _plain(rel: str) -> str:
    return rel.removeprefix("src/")


def _scoped(rel: str) -> bool:
    plain = _plain(rel)
    return plain.startswith("repro/") and \
        not plain.startswith("repro/analysis/")


def _enclosing_scopes(src: SourceFile) -> Iterator[ast.AST]:
    """Module, then every function/method body (for nested-def maps)."""
    yield src.tree
    for node in ast.walk(src.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scoped_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes belonging to ``scope``, pruned at nested function bodies.

    Each nested function is its own entry in :func:`_enclosing_scopes`
    (with its own nested-name set), so descending into it here would
    report every violation twice.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _nested_defs(scope: ast.AST) -> set[str]:
    """Names of functions defined strictly inside a function body."""
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    names: set[str] = set()
    for node in ast.walk(scope):
        if node is scope:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


def _unpicklable_reason(arg: ast.expr, nested: set[str]) -> str | None:
    if isinstance(arg, ast.Lambda):
        return "a lambda"
    if isinstance(arg, ast.Name) and arg.id in nested:
        return f"nested function {arg.id}()"
    return None


class PoolSubmissionRule(Rule):
    rule_id = "SP001"
    name = "pool-submissions-are-picklable"
    description = ("a lambda or nested function is submitted to an "
                   "executor (it cannot cross the pickle boundary)")
    hint = ("submit a module-level function; thread per-call state "
            "through its arguments (see executor._run_point)")

    def scope(self, rel: str) -> bool:
        return _scoped(rel)

    def check_file(self, src: SourceFile,
                   project: Project) -> Iterable[Finding]:
        for scope in _enclosing_scopes(src):
            nested = _nested_defs(scope)
            for node in _scoped_walk(scope):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _POOL_METHODS
                        and node.args):
                    continue
                reason = _unpicklable_reason(node.args[0], nested)
                if reason is not None:
                    yield self.finding(
                        src.rel, node,
                        f".{node.func.attr}() is given {reason}, which "
                        f"cannot be pickled to a worker process",
                    )


class CanonicalHashingRule(Rule):
    rule_id = "SP002"
    name = "hashing-paths-serialise-canonically"
    description = ("a declared hashing function serialises "
                   "non-canonically (unsorted json.dumps or set "
                   "iteration)")
    hint = ("pass sort_keys=True / iterate sorted(...): journal hashes "
            "must be identical across runs and platforms")

    def scope(self, rel: str) -> bool:
        return _plain(rel) in HASHING_FUNCTIONS

    def check_file(self, src: SourceFile,
                   project: Project) -> Iterable[Finding]:
        wanted = HASHING_FUNCTIONS[_plain(src.rel)]
        for node in ast.walk(src.tree):
            if not (isinstance(node, ast.FunctionDef)
                    and node.name in wanted):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call):
                    func = inner.func
                    if (isinstance(func, ast.Attribute)
                            and func.attr == "dumps"
                            and not any(
                                kw.arg == "sort_keys"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True
                                for kw in inner.keywords)):
                        yield self.finding(
                            src.rel, inner,
                            f"{node.name}() calls json.dumps without "
                            f"sort_keys=True",
                        )
                elif isinstance(inner, (ast.For, ast.comprehension)):
                    iterable = inner.iter
                    if isinstance(iterable, ast.Set) or (
                            isinstance(iterable, ast.Call)
                            and isinstance(iterable.func, ast.Name)
                            and iterable.func.id in ("set", "frozenset")):
                        line: int = getattr(inner, "lineno",
                                            iterable.lineno)
                        yield self.finding(
                            src.rel, iterable,
                            f"{node.name}() iterates over a set — "
                            f"ordering is not stable across runs",
                            line=line,
                        )


class BoundaryFieldRule(Rule):
    rule_id = "SP003"
    name = "boundary-dataclasses-carry-picklable-fields"
    description = ("a SweepPoint is built with a lambda/nested-function "
                   "field, which cannot cross the pool boundary")
    hint = ("use a frozen-dataclass callable (see the figure harnesses) "
            "or a module-level factory function")

    def scope(self, rel: str) -> bool:
        return _scoped(rel)

    def check_file(self, src: SourceFile,
                   project: Project) -> Iterable[Finding]:
        for scope in _enclosing_scopes(src):
            nested = _nested_defs(scope)
            for node in _scoped_walk(scope):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, (ast.Name, ast.Attribute))):
                    continue
                callee = node.func.id if isinstance(node.func, ast.Name) \
                    else node.func.attr
                if callee not in _BOUNDARY_CLASSES:
                    continue
                args = list(node.args) + [kw.value for kw in node.keywords]
                for arg in args:
                    reason = _unpicklable_reason(arg, nested)
                    if reason is not None:
                        yield self.finding(
                            src.rel, arg,
                            f"{callee}(...) is built with {reason} as a "
                            f"field value; it cannot cross the process-"
                            f"pool boundary",
                        )
