"""Hot-path purity rules (HP).

The hot loop (``Simulator.run``'s inlined phases, the router
work-list scan, the delivery schedule and event wheel) runs hundreds of
millions of iterations per benchmark.  The perf pass that built it (see
``docs/performance.md``) relies on a handful of disciplines that decay
silently under maintenance; these rules pin them:

* ``HP001`` — no function-local imports: import-lock and module-dict
  lookups per iteration.
* ``HP002`` — no logging/print/warnings calls: even a disabled logger
  call costs an attribute lookup, an arg tuple and a level check per
  event; telemetry belongs in hooks.
* ``HP003`` — no lambdas or nested ``def``: building a closure object
  per call defeats the method-alias prebinding the fast path uses.
* ``HP004`` — no comprehensions/generator expressions: each one
  allocates a list/iterator per iteration; the hot loop indexes into
  preallocated work lists instead.
* ``HP005`` — every ``HOT_FUNCTIONS`` entry resolves: an entry whose
  function was deleted or renamed silently drops out of HP001-HP004.

The hot set is named explicitly (``HOT_FUNCTIONS``) rather than guessed
from profiles, so a reviewer can see exactly which bodies are under the
stricter contract.  Code outside the set is untouched.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.framework import Finding, Project, Rule, SourceFile

#: repo-relative module path (without the ``src/`` prefix) -> set of
#: ``Class.method`` / function names whose bodies are hot.
HOT_FUNCTIONS: dict[str, frozenset[str]] = {
    "repro/network/simulator.py": frozenset({
        "Simulator.run",
        "Simulator.step",
        "Simulator._phase_deliver",
    }),
    # Worm streams: settled at the end of most busy cycles, written back
    # before every wheel event, and consulted by the deliver phase and
    # the node inject step; their bodies replace per-flit work.
    "repro/network/stream.py": frozenset({
        "WormStream.compute",
        "WormStream._compute_runs",
        "WormStream.write_back",
        "WormStream._write_router",
        "WormStreams.settle",
        "WormStreams.contend",
        "WormStreams.node_selects",
        "WormStreams._try",
        "_chain",
        "_bounded",
        "_contested",
    }),
    "repro/network/router.py": frozenset({
        "Router.step",
        "Router._forward",
        "Router._route",
        "Router.receive_flit",
        "Router.reset",
    }),
    # The warm-worker reset path (Simulator.reset -> fabric/link/stats
    # resets) runs once per sweep point; at bench sweep rates that is
    # thousands of invocations per second, and the whole point of
    # reset-in-place is to stay cheaper than reconstruction — keep the
    # bodies allocation-light and import-free.  Link.push runs per
    # flit-hop (it files into the delivery calendar).
    "repro/network/links.py": frozenset({
        "Link.push",
        "Link.reset",
        "Link.take_counters",
    }),
    # The policy's Bu read, once per evaluated link-window.
    "repro/network/buffers.py": frozenset({
        "mean_utilisation",
    }),
    # The routing relation runs once per (router, destination) when
    # route tables build, but it is also the `_route_slow` fallback
    # after link failures — keep it allocation-free.
    "repro/network/mesh.py": frozenset({
        "MeshTopology.route_direction",
    }),
    # The arrival calendar: popped once per cycle, filed into once per
    # filed flit-hop (Link.push, Node.step, Router._forward) and once per
    # retransmission.
    "repro/engine/schedule.py": frozenset({
        "DeliverySchedule.pop_due",
    }),
    "repro/reliability/faults.py": frozenset({
        "LinkFaultState.filter_arrivals",
        "LinkFaultState._schedule_retry",
    }),
    "repro/engine/wheel.py": frozenset({
        "EventWheel.schedule",
        "EventWheel.service",
    }),
    "repro/engine/active.py": frozenset({
        "ActiveSet.add",
        "ActiveSet.discard",
        "ActiveSet.snapshot",
    }),
    "repro/network/stats.py": frozenset({
        "StatsCollector.packet_created",
        "StatsCollector.packet_delivered",
        "StatsCollector.reset",
    }),
    "repro/network/topology.py": frozenset({
        "NetworkFabric.reset",
        "Node.step",
        "Node.reset",
    }),
    # Power control: one on_window call per evaluated link-window (and
    # the decision and step it calls), the catch-up every reader of a
    # billed level runs first, and the per-link control stack's
    # reset-in-place on every warm point.
    "repro/core/manager.py": frozenset({
        "NetworkPowerManager._run_window",
        "NetworkPowerManager.catch_up",
        "NetworkPowerManager.reset",
    }),
    "repro/core/power_link.py": frozenset({
        "PowerAwareLink.on_window",
        "PowerAwareLink.advance",
        "PowerAwareLink.reset",
    }),
    "repro/core/transitions.py": frozenset({
        "LinkTransitionEngine.request_step",
        "LinkTransitionEngine._begin_relock",
        "LinkTransitionEngine.advance",
        "LinkTransitionEngine.reset",
    }),
    "repro/core/policy.py": frozenset({
        "LinkPolicyController.observe",
        "LinkPolicyController.reset",
    }),
}

#: Where ``HOT_FUNCTIONS`` lives: a module missing from the tree is only
#: reported when this file is part of the run (a partial-tree run, such
#: as a test fixture, legitimately holds only some hot modules).
HOTPATH_MODULE = "repro/analysis/rules/hotpath.py"

#: Call names that mean "this line produces log/console output".
_LOGGING_CALLS = frozenset({
    "print", "debug", "info", "warning", "warn", "error", "exception",
    "critical", "log",
})
_LOGGING_BASES = frozenset({"logging", "logger", "log", "warnings"})


def _functions(src: SourceFile) -> Iterable[tuple[str, ast.FunctionDef]]:
    """Yield ``(qualified_name, node)`` for every method and function."""
    for node in ast.walk(src.tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def _hot_bodies(src: SourceFile) -> Iterable[tuple[str, ast.FunctionDef]]:
    """Yield ``(qualified_name, node)`` for this file's hot functions."""
    wanted = HOT_FUNCTIONS.get(src.rel.removeprefix("src/"))
    if not wanted:
        return
    for qualified, node in _functions(src):
        if qualified in wanted:
            yield qualified, node


class _HotPathRule(Rule):
    """Per-file rule that only looks inside ``HOT_FUNCTIONS`` bodies."""

    def scope(self, rel: str) -> bool:
        return rel.removeprefix("src/") in HOT_FUNCTIONS

    def check_file(self, src: SourceFile,
                   project: Project) -> Iterable[Finding]:
        for qualified, fn in _hot_bodies(src):
            yield from self.check_hot_function(src, qualified, fn)

    def check_hot_function(self, src: SourceFile, qualified: str,
                           fn: ast.FunctionDef) -> Iterable[Finding]:
        raise NotImplementedError


class LocalImportRule(_HotPathRule):
    """HP001: an import statement inside a hot function body."""

    rule_id = "HP001"
    name = "hot-path-local-import"
    description = ("imports inside the hot loop pay the import lock and "
                   "sys.modules lookup on every call")
    hint = "move the import to module scope"

    def check_hot_function(self, src: SourceFile, qualified: str,
                           fn: ast.FunctionDef) -> Iterable[Finding]:
        for node in ast.walk(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield self.finding(
                    src.rel, node,
                    f"function-local import inside hot path {qualified}",
                )


class LoggingInHotPathRule(_HotPathRule):
    """HP002: logging/print/warnings calls inside a hot function body."""

    rule_id = "HP002"
    name = "hot-path-logging"
    description = ("print/logging/warnings calls in the hot loop cost an "
                   "allocation and a level check per event even when "
                   "disabled; observe through hooks instead")
    hint = "emit through a hook, or log outside the loop"

    def check_hot_function(self, src: SourceFile, qualified: str,
                           fn: ast.FunctionDef) -> Iterable[Finding]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield self.finding(
                    src.rel, node,
                    f"print() inside hot path {qualified}",
                )
            elif (isinstance(func, ast.Attribute)
                    and func.attr in _LOGGING_CALLS
                    and isinstance(func.value, ast.Name)
                    and func.value.id.lower() in _LOGGING_BASES):
                yield self.finding(
                    src.rel, node,
                    f"{func.value.id}.{func.attr}() inside hot path "
                    f"{qualified}",
                )


class ClosureInHotPathRule(_HotPathRule):
    """HP003: lambda or nested def inside a hot function body."""

    rule_id = "HP003"
    name = "hot-path-closure"
    description = ("lambdas and nested defs in the hot loop build a "
                   "closure object per call; prebind a method alias "
                   "outside the loop instead")
    hint = "hoist to a module-level function or a prebound method"

    def check_hot_function(self, src: SourceFile, qualified: str,
                           fn: ast.FunctionDef) -> Iterable[Finding]:
        for node in ast.walk(fn):
            if isinstance(node, ast.Lambda):
                yield self.finding(
                    src.rel, node,
                    f"lambda inside hot path {qualified}",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not fn:
                yield self.finding(
                    src.rel, node,
                    f"nested function {node.name!r} inside hot path "
                    f"{qualified}",
                )


class ComprehensionInHotPathRule(_HotPathRule):
    """HP004: comprehension or generator expression in a hot body."""

    rule_id = "HP004"
    name = "hot-path-comprehension"
    severity = "warning"
    description = ("each comprehension in the hot loop allocates a fresh "
                   "container per call; the fast path reuses preallocated "
                   "work lists")
    hint = ("reuse a preallocated list, or suppress with a justification "
            "if the branch is demonstrably cold")

    def check_hot_function(self, src: SourceFile, qualified: str,
                           fn: ast.FunctionDef) -> Iterable[Finding]:
        for node in ast.walk(fn):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                kind = type(node).__name__
                yield self.finding(
                    src.rel, node,
                    f"{kind} inside hot path {qualified}",
                )


class StaleHotEntryRule(Rule):
    """HP005: a ``HOT_FUNCTIONS`` entry that names nothing in the code."""

    rule_id = "HP005"
    name = "hot-set-entries-resolve"
    description = ("a HOT_FUNCTIONS entry names a module or function that "
                   "no longer exists, so HP001-HP004 silently stop "
                   "checking it")
    hint = "delete or update the stale entry in analysis/rules/hotpath.py"

    def check_project(self, project: Project) -> Iterable[Finding]:
        by_module = {src.rel.removeprefix("src/"): src for src in project}
        anchor = by_module.get(HOTPATH_MODULE)
        for module, wanted in sorted(HOT_FUNCTIONS.items()):
            src = by_module.get(module)
            if src is None:
                if anchor is not None:
                    yield self.finding(
                        anchor.rel, None,
                        f"HOT_FUNCTIONS names module {module}, which is "
                        f"not in the tree",
                    )
                continue
            defined = {qualified for qualified, _ in _functions(src)}
            for qualified in sorted(wanted - defined):
                yield self.finding(
                    src.rel, None,
                    f"HOT_FUNCTIONS names {qualified} in {module}, which "
                    f"no longer exists",
                )
