"""Warm-worker construction cache for sweep execution.

Building a simulator is the dominant fixed cost of a short sweep point:
geometry, routers, links, credit wiring, route tables and the power
manager's operating-point table are all constructed from scratch even
though consecutive points in a sweep almost always share them and only
vary seed, rates and policy scalars.

This module keeps a small per-process cache of fully built
:class:`~repro.network.simulator.Simulator` instances keyed by the
*structural* part of a sweep point — the :class:`~repro.config.NetworkConfig`
(a frozen dataclass, so the key is exact content equality, not identity).
Everything else a point varies is handled by
:meth:`~repro.network.simulator.Simulator.reset`, whose hard contract is
bit-identity with fresh construction (hypothesis-tested over mesh
shapes, with and without faults): power policy scalars are swapped
into the reused power manager, a structurally different power config
rebuilds just the manager on the warm fabric, and fault configs rebuild
the reliability layer per run.

The cache composes with the deeper per-process memos — topology
instances (:func:`repro.network.mesh.get_topology`), per-router route tables
(``Router.build_route_table``'s copy-on-write cache) and
:class:`~repro.core.tables.OperatingPointTable` — so even a *cold*
simulator construction after the first reuses the expensive immutable
artifacts.

Fault tolerance: a worker respawned by the resilient executor simply
starts with a cold cache, and a point that raises mid-run evicts its
simulator (a half-run fabric is never reused).
"""

from __future__ import annotations

from repro.config import NetworkConfig, SimulationConfig
from repro.experiments.runner import SweepPoint, collect_result
from repro.metrics.summary import RunResult
from repro.network.simulator import Simulator
from repro.traffic.base import TrafficSource

#: Structural key -> warm simulator.  Insertion order doubles as LRU
#: order (hits re-insert); bounded because a worker interleaving many
#: distinct geometries gains little from reuse anyway.
_CACHE: dict[NetworkConfig, Simulator] = {}
_CACHE_MAX = 4

_HITS = 0
_MISSES = 0


def structural_key(point: SweepPoint) -> NetworkConfig:
    """The part of ``point`` that demands a fresh object graph.

    Only the network structure: seed, rates, cycles, drain, power policy
    scalars and fault configs are all absorbed by ``Simulator.reset``
    (a structurally different power config rebuilds just the manager on
    the warm fabric).
    """
    return point.scale.network


def cache_info() -> dict[str, int]:
    """Warm-cache counters (for benches and tests)."""
    return {"hits": _HITS, "misses": _MISSES, "size": len(_CACHE)}


def clear_cache() -> None:
    """Drop every cached simulator and zero the counters (tests)."""
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0


def _acquire(config: SimulationConfig, traffic: TrafficSource) -> Simulator:
    """A simulator ready to run ``config``: warm-reset or freshly built."""
    global _HITS, _MISSES
    key = config.network
    sim = _CACHE.pop(key, None)
    if sim is not None:
        try:
            sim.reset(config, traffic)
            _HITS += 1
        except Exception:
            # Safe fallback: anything a reset cannot absorb (or a fabric
            # corrupted by a previous failure) falls back to cold
            # construction, which re-raises genuine config errors itself.
            sim = None
    if sim is None:
        _MISSES += 1
        sim = Simulator(config, traffic)
    _CACHE[key] = sim
    if len(_CACHE) > _CACHE_MAX:
        _CACHE.pop(next(iter(_CACHE)))
    return sim


def run_point_warm(point: SweepPoint) -> RunResult:
    """Execute one sweep point on a warm (cached) simulator.

    The sweep executor's one point runner: module-level so process pools
    can map it.  With an empty cache it builds cold; either way the
    result is bit-identical to
    :func:`~repro.experiments.runner.run_simulation` on a fresh
    simulator.
    """
    scale = point.scale
    config = SimulationConfig(
        network=scale.network,
        power=point.power,
        seed=point.seed,
        warmup_cycles=scale.warmup_cycles,
        sample_interval=scale.sample_interval,
        faults=point.faults,
    )
    traffic = point.traffic_factory(scale.network.num_nodes, point.seed)
    sim = _acquire(config, traffic)
    budget = point.cycles if point.cycles is not None else scale.run_cycles
    try:
        if point.drain:
            sim.run_until_drained(budget)
        else:
            sim.run(budget)
        return collect_result(sim, point.label)
    except BaseException:
        # The simulator may be mid-run; never hand a dirty fabric to the
        # next point.
        _CACHE.pop(config.network, None)
        raise
