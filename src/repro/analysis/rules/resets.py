"""RC: reset-completeness rules for the warm-worker contract.

The warm-worker cache (:mod:`repro.experiments.warm`) reruns sweep
points on reused object graphs; correctness rests on ``reset()``
restoring *every* attribute ``__init__`` creates — a missed attribute
silently leaks one run's state into the next and breaks the
warm == cold bit-identity contract (hypothesis-tested, but only over
the states the property test happens to dirty).

These rules check the contract structurally, over the
:mod:`~repro.analysis.project` class models: for every class defining
both ``__init__`` and ``reset``, each ``__init__``-assigned attribute
must be rebound in ``reset()``, restored in place
(``self.attr.clear()`` / ``self.attr.reset(...)``), covered by a
delegated helper (``self._init_run_state(...)``,
``super().__init__`` chains), or declared *structural* in
:data:`RESET_EXEMPT` with a justification.

* **RC001** — ``__init__``-assigned attribute not restored by
  ``reset()`` and not exempted.
* **RC002** — ``reset()`` rebinds an attribute ``__init__`` never
  creates (drift: the attribute was renamed or removed on one side).
* **RC003** — a stale :data:`RESET_EXEMPT` entry (unknown class,
  unknown attribute, or an attribute ``reset()`` meanwhile restores),
  so the exemption table cannot rot silently.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.framework import Finding, Project, Rule
from repro.analysis.project import ClassModel, ClassModelIndex, class_models

#: Structural attributes ``reset()`` deliberately leaves alone, keyed by
#: repo-relative module (without the ``src/`` prefix) then class name.
#: Every entry needs a justification comment; RC003 flags entries that
#: stop matching the code.
RESET_EXEMPT: dict[str, dict[str, frozenset[str]]] = {
    "repro/network/stats.py": {
        # packet_hooks is an alias the simulator re-points at its own
        # registry list immediately after every reset (see
        # Simulator._init_run_state); clearing it here would sever the
        # alias instead of restoring it.
        "StatsCollector": frozenset({"packet_hooks"}),
    },
    "repro/network/router.py": {
        # Geometry and port wiring survive a warm reset by design: the
        # whole point of the cache is reusing the constructed fabric.
        "Router": frozenset({
            "router_id", "topology", "x", "y", "num_local", "num_ports",
            "num_vcs", "inputs", "outputs", "head_delay",
        }),
    },
    "repro/network/links.py": {
        # Identity and timing constants baked in by the topology builder.
        "Link": frozenset({"link_id", "kind", "propagation_cycles",
                           "deliver"}),
    },
    "repro/network/topology.py": {
        # Node wiring (its injection link, credit pool and stats sink)
        # is structural; the stats object itself is reset by the
        # simulator, not per node.
        "Node": frozenset({"node_id", "link", "credits", "stats"}),
        # The fabric owns only structure; reset() is pure delegation to
        # the routers/links/nodes it wired at construction.
        "NetworkFabric": frozenset({
            "config", "stats", "topology", "routers", "nodes", "links",
            "downstream_buffers",
        }),
    },
    "repro/network/arbiters.py": {
        # Arbiter width is geometry.
        "RoundRobinArbiter": frozenset({"size"}),
        "MatrixArbiter": frozenset({"size"}),
    },
    "repro/network/buffers.py": {
        # Buffer capacity is geometry.
        "InputBuffer": frozenset({"capacity"}),
        "CreditCounter": frozenset({"capacity"}),
    },
    "repro/core/manager.py": {
        # The manager's reset(config) swaps policy scalars on the warm
        # fabric; the fabric binding, ladder, billing table and the
        # service-time plumbing are the structural pieces whose
        # compatibility the structurally_compatible() guard checks
        # before reset is allowed at all.
        "NetworkPowerManager": frozenset({
            "network", "ladder", "power_model", "multi_optical", "bands",
            "table", "_service_time_fn", "links", "_fabric_topology",
            "_baseline_power",
        }),
    },
    "repro/core/power_link.py": {
        # Transport link, ladder and the shared per-level billing row
        # survive; policy/engine/optical are rebuilt fresh by reset().
        "PowerAwareLink": frozenset({
            "link", "ladder", "level_powers", "downstream_buffer",
        }),
    },
    "repro/core/policy.py": {
        # The threshold configuration is what the controller *is*;
        # PowerAwareLink.reset rebuilds controllers to change it.
        "LinkPolicyController": frozenset({"config"}),
    },
}


def _exempt_for(rel: str, name: str) -> frozenset[str]:
    return RESET_EXEMPT.get(rel.removeprefix("src/"), {}).get(
        name, frozenset())


def _reset_classes(project: Project
                   ) -> Iterable[tuple[ClassModelIndex, ClassModel]]:
    """Every modelled class defining both ``__init__`` and ``reset``."""
    index = class_models(project)
    for model in index.by_key.values():
        if model.rel.removeprefix("src/").startswith("repro/analysis/"):
            continue
        if "reset" in model.methods and \
                index.has_method(model, "__init__"):
            yield index, model


class ResetCompletenessRule(Rule):
    rule_id = "RC001"
    name = "reset-restores-every-attribute"
    description = ("an attribute assigned in __init__ is not restored by "
                   "reset() and not exempted as structural")
    hint = ("restore the attribute in reset() (assignment, .clear(), or a "
            "delegated init helper), or add it to RESET_EXEMPT in "
            "analysis/rules/resets.py with a justification")

    def check_project(self, project: Project) -> Iterable[Finding]:
        for index, model in _reset_classes(project):
            rebound, restored = index.reset_coverage(model)
            covered = rebound | restored | _exempt_for(model.rel, model.name)
            for attr in sorted(index.init_attrs(model) - covered):
                yield self.finding(
                    model.rel, None,
                    f"{model.name}.{attr} is assigned in __init__ but "
                    f"never restored by reset()",
                    line=index.init_write_line(model, attr),
                )


class ResetDriftRule(Rule):
    rule_id = "RC002"
    name = "reset-writes-known-attributes"
    description = ("reset() rebinds an attribute that __init__ never "
                   "creates (rename/removal drift)")
    hint = ("rename the reset() assignment to match __init__, or create "
            "the attribute in __init__ so cold and warm graphs agree")

    def check_project(self, project: Project) -> Iterable[Finding]:
        for index, model in _reset_classes(project):
            rebound, _ = index.reset_coverage(model)
            init_attrs = index.init_attrs(model)
            owner = index._method_owner(model, "reset")
            line = owner.methods["reset"] if owner is not None \
                else model.line
            for attr in sorted(rebound - init_attrs):
                yield self.finding(
                    model.rel, None,
                    f"{model.name}.reset() assigns self.{attr}, which "
                    f"__init__ never creates",
                    line=line,
                )


class ResetExemptionStalenessRule(Rule):
    rule_id = "RC003"
    name = "reset-exemptions-stay-live"
    description = ("a RESET_EXEMPT entry no longer matches the code "
                   "(unknown class/attribute, or the attribute is now "
                   "restored by reset())")
    hint = "delete or update the stale entry in analysis/rules/resets.py"

    def check_project(self, project: Project) -> Iterable[Finding]:
        index = class_models(project)
        for spec_rel, classes in RESET_EXEMPT.items():
            rels = [rel for rel in (spec_rel, f"src/{spec_rel}")
                    if rel in {m.rel for m in index.by_key.values()}]
            if not rels:
                continue  # module not part of this run's tree
            rel = rels[0]
            for cls_name, attrs in classes.items():
                model = index.get(rel, cls_name)
                if model is None or "reset" not in model.methods:
                    yield self.finding(
                        rel, None,
                        f"RESET_EXEMPT names {cls_name} in {spec_rel}, "
                        f"but no such class with a reset() exists",
                    )
                    continue
                init_attrs = index.init_attrs(model)
                rebound, restored = index.reset_coverage(model)
                for attr in sorted(attrs):
                    if attr not in init_attrs:
                        yield self.finding(
                            rel, None,
                            f"RESET_EXEMPT lists {cls_name}.{attr}, but "
                            f"__init__ assigns no such attribute",
                            line=model.line,
                        )
                    elif attr in rebound or attr in restored:
                        yield self.finding(
                            rel, None,
                            f"RESET_EXEMPT lists {cls_name}.{attr}, but "
                            f"reset() now restores it — the exemption is "
                            f"stale",
                            line=model.line,
                        )
