"""Recorded engine behaviour: a committed corpus of SHA-256 digests.

The simulator has one step loop, so no second implementation can check
its output; this corpus is the oracle instead.  It has three parts:

* **grid** — three uniform loads x faults off/on: 6 short runs on a 4x4
  mesh with 2 nodes per rack and the smoke-scale power configuration;
* **regimes** — longer runs, two loads each, of the regimes the grid
  does not reach: the non-power-aware baseline, transitions longer than
  the policy window, a modulator with three optical levels (laser
  epochs fire), ideal transitions and a phased hot spot of 48-flit
  packets (contention at the hot node keeps interrupting long worms);
* **faults** — drained fault scenarios (retransmission, a hard link
  failure, a degradation window that opens mid-run on a link with flits
  in flight), each also pinning the stream of
  flit hand-overs a ``delivery`` hook sees.  A scenario runs cold
  (traced, hooked) and warm (reset after the scenario sharing its
  fabric, untraced); both must give its pinned run digest;
* **traces** — drained SPLASH-2-like trace replays (Fig. 7 / Table 3)
  with the paper's 48-flit mean packets, the long worms the grid's
  5-flit uniform packets barely form.  A trace cell runs cold (traced,
  stepped) and warm (reset after another benchmark, untraced,
  512-cycle ``run`` chunks); both must give its pinned state digest.

Each grid and regime cell runs twice.  The *cold* run is a fresh
simulator with telemetry recording into a ring sink that holds every
event; its policy/transition hooks also switch quiet-link parking off.
It advances one :meth:`Simulator.step` at a time.  It pins a state
digest (``summary()``, power series, level histogram, reliability
report) and an event-stream digest.  The *warm* run resets a simulator
that has just run the same fabric at another load and runs untraced,
with parking on, in one :meth:`Simulator.run` call; its state digest
must equal the cold run's.
One digest therefore covers warm == cold, traced == untraced, parked ==
full-path and stepped == batched.

A deliberate behaviour change re-pins the corpus in the same change and
says why.  Regenerate it from the repo root with::

    PYTHONPATH=src python -m tests.integration.test_golden_corpus
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import pytest

from repro.config import MODULATOR, NetworkConfig, SimulationConfig
from repro.experiments.configs import get_scale, power_config
from repro.experiments.fig7 import splash_factory
from repro.network.simulator import Simulator
from repro.reliability import FaultConfig, LinkDegradation, LinkFailure
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import event_to_dict
from repro.traffic.hotspot import HotspotTraffic, Phase
from repro.traffic.uniform import UniformRandomTraffic
from tests.integration.test_reliability import FiniteUniformSource

CORPUS_PATH = Path(__file__).with_name("golden_corpus.json")

SCALE = get_scale("smoke")

#: Low received power: BER is high enough that retransmissions fire
#: throughout every faulted run (see tests/integration/test_reliability.py).
LOW_RX_W = 13e-6

GRID_LOADS = (0.05, 0.25, 0.6)
GRID_CYCLES = 1_500
REGIME_LOADS = (0.1, 0.5)
REGIME_CYCLES = 3_000
#: Packets per cycle of the hot-spot regime's middle phase: 48-flit
#: packets, so its loads sit far below the uniform regimes' 5-flit ones.
HOTSPOT_LOADS = (0.04, 0.1)
HOTSPOT_PACKET = 48

#: Large enough that the ring sink never evicts an event.
TRACE_CAPACITY = 1 << 20


@dataclass(frozen=True)
class Cell:
    """One corpus run: load, power regime and fault switch."""

    load: float
    cycles: int
    #: ``smoke`` (grid), ``baseline``, ``slow``, ``modulator``, ``ideal``
    #: or ``hotspot``.
    regime: str = "smoke"
    faults: bool = False

    @property
    def name(self) -> str:
        if self.regime == "smoke":
            return (f"mesh-{self.load}"
                    f"-{'faults' if self.faults else 'clean'}")
        return f"{self.regime}-mesh-{self.load}"


def _cells() -> dict[str, Cell]:
    cells = [
        Cell(load, GRID_CYCLES, faults=faults)
        for load in GRID_LOADS
        for faults in (False, True)
    ]
    for regime in ("baseline", "slow", "modulator", "ideal"):
        cells.extend(Cell(load, REGIME_CYCLES, regime=regime)
                     for load in REGIME_LOADS)
    cells.extend(Cell(load, REGIME_CYCLES, regime="hotspot")
                 for load in HOTSPOT_LOADS)
    return {cell.name: cell for cell in cells}


CELLS = _cells()


def partner(cell: Cell) -> Cell:
    """The same regime at the next load: the warm run's point."""
    loads = {"smoke": GRID_LOADS,
             "hotspot": HOTSPOT_LOADS}.get(cell.regime, REGIME_LOADS)
    load = loads[(loads.index(cell.load) + 1) % len(loads)]
    return replace(cell, load=load)


def _power(cell: Cell):
    if cell.regime == "baseline":
        return None
    if cell.regime == "modulator":
        power = power_config(SCALE, technology=MODULATOR, optical_levels=3)
        # Epochs and VOA settles short enough to fire inside the run.
        return replace(power, transitions=replace(
            power.transitions, laser_epoch_cycles=500,
            optical_transition_cycles=150))
    if cell.regime == "slow":
        power = power_config(SCALE)
        # Voltage ramps outlast the 200-cycle policy window.
        return replace(power, transitions=replace(
            power.transitions, voltage_transition_cycles=300))
    return power_config(SCALE, ideal_transitions=cell.regime == "ideal")


def fabric() -> NetworkConfig:
    return NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=2)


def cell_config(cell: Cell, *, traced: bool) -> SimulationConfig:
    return SimulationConfig(
        network=fabric(),
        power=_power(cell),
        faults=(FaultConfig(seed=3, received_power_w=LOW_RX_W,
                            margin_guard=False) if cell.faults else None),
        warmup_cycles=200,
        sample_interval=100,
        stall_limit_cycles=0 if cell.regime == "smoke" else 4000,
        telemetry=(TelemetryConfig(buffer_events=TRACE_CAPACITY)
                   if traced else None),
    )


def cell_traffic(cell: Cell) -> UniformRandomTraffic | HotspotTraffic:
    num_nodes = fabric().num_nodes
    if cell.regime == "hotspot":
        # Half load, full load, then a quarter: the policy sees the
        # rate move both ways while the hot node's ejection link stays
        # contended.
        phases = (Phase(0, cell.load / 2), Phase(1_000, cell.load),
                  Phase(2_000, cell.load / 4))
        return HotspotTraffic(num_nodes, phases, hotspot_node=num_nodes - 3,
                              packet_size=HOTSPOT_PACKET, seed=5)
    return UniformRandomTraffic(num_nodes, cell.load, seed=5)


def state_digest(sim: Simulator) -> str:
    record: dict[str, Any] = {
        "summary": sim.summary(),
        "power_series": sim.power.power_series if sim.power else [],
        "levels": sim.power.level_histogram() if sim.power else [],
        "reliability": (sim.reliability.report().as_dict()
                        if sim.reliability else None),
    }
    payload = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def events_digest(sim: Simulator) -> str:
    sink = sim.telemetry.sink
    assert sink.dropped == 0
    digest = hashlib.sha256()
    for event in sink.events():
        digest.update(json.dumps(event_to_dict(event), sort_keys=True,
                                 default=repr).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def run_cold(cell: Cell) -> tuple[Simulator, int]:
    """Fresh, traced, stepped run of ``cell`` (parking off).

    Also returns the most links seen, at one window boundary, still in
    the transition they were in at the previous boundary.
    """
    sim = Simulator(cell_config(cell, traced=True), cell_traffic(cell))
    spanning = 0
    power = sim.power
    if power is not None:
        # link id -> transitions begun, for links mid-transition after
        # the last window; an unchanged count one window later means the
        # same transition spans the boundary.
        previous: dict[int, int] = {}

        def on_window(start, now):
            nonlocal spanning
            current = {
                pal.link.link_id: pal.engine.steps_up + pal.engine.steps_down
                for pal in power.links
                if pal.engine.in_transition
            }
            spanning = max(spanning, sum(
                1 for link_id, begun in current.items()
                if previous.get(link_id) == begun))
            previous.clear()
            previous.update(current)

        sim.hooks.add("window", on_window)
    step = sim.step
    for _ in range(cell.cycles):
        step()
    return sim, spanning


def run_warm(sim: Simulator, cell: Cell) -> None:
    """Reset ``sim`` (which just ran another load), run ``cell`` in one
    :meth:`Simulator.run` call."""
    sim.reset(cell_config(cell, traced=False), cell_traffic(cell))
    sim.run(cell.cycles)


def check_regime(cell: Cell, sim: Simulator, spanning: int) -> None:
    """Fail if the cell no longer exercises the regime it was built for."""
    if cell.faults:
        assert sim.reliability.report().flits_retransmitted > 0
    if cell.regime == "modulator":
        assert sum(pal.optical.decreases for pal in sim.power.links) > 0
    if cell.regime == "slow":
        assert spanning >= 2
    if cell.regime == "baseline":
        assert sim.power is None
    if cell.regime == "hotspot":
        ejection = sim.network.links_of_kind("ejection")
        hot = ejection.pop(sim.traffic.hotspot_node)
        assert hot.flits_carried > max(link.flits_carried
                                       for link in ejection)


# -- fault scenarios -----------------------------------------------------------

#: name -> (power-aware, FaultConfig)
FAULT_SCENARIOS: dict[str, tuple[bool, FaultConfig]] = {
    # Unguarded ladder at low margin: links step down into high-BER
    # levels, so retries pile up behind head flits.
    "mesh-retry-aware": (
        True,
        FaultConfig(seed=3, received_power_w=LOW_RX_W, margin_guard=False),
    ),
    # Hard failure of a mesh link mid-run (ids 0-63 are the node-facing
    # links on this fabric), on the non-power-aware baseline.
    "mesh-failure-baseline": (
        False,
        FaultConfig(seed=11, received_power_w=LOW_RX_W,
                    failures=(LinkFailure(70, at_cycle=600),)),
    ),
    # No background BER: only the degraded link carries fault state
    # (attached at construction), and its degradation window opens
    # mid-run while flits are in flight on it.
    "mesh-degradation-aware": (
        True,
        FaultConfig(seed=6, received_power_w=LOW_RX_W, ber_injection=False,
                    margin_guard=False,
                    degradations=(LinkDegradation(75, at_cycle=500,
                                                  duration_cycles=800,
                                                  ber_multiplier=1e4),)),
    ),
}

#: Each scenario's warm run resets a simulator that ran its partner.
FAULT_PARTNERS = {
    "mesh-retry-aware": "mesh-failure-baseline",
    "mesh-failure-baseline": "mesh-degradation-aware",
    "mesh-degradation-aware": "mesh-retry-aware",
}


def fault_config(name: str, *, traced: bool) -> SimulationConfig:
    aware, faults = FAULT_SCENARIOS[name]
    return SimulationConfig(
        network=fabric(),
        power=power_config(SCALE) if aware else None,
        faults=faults,
        warmup_cycles=200,
        sample_interval=100,
        stall_limit_cycles=4000,
        telemetry=(TelemetryConfig(buffer_events=TRACE_CAPACITY)
                   if traced else None),
    )


def fault_traffic(name: str) -> FiniteUniformSource:
    return FiniteUniformSource(fabric().num_nodes, seed=2, rate=0.5,
                               until=1500)


def fault_run_digest(sim: Simulator) -> str:
    """The fault scenarios' digest: summary, reliability, power series."""
    record: dict[str, Any] = {
        "summary": sim.summary(),
        "reliability": sim.reliability.report().as_dict(),
        "power_series": sim.power.power_series if sim.power else [],
    }
    payload = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_fault_cold(name: str) -> tuple[Simulator, str]:
    """Fresh, traced, drained run with a hook hashing every hand-over."""
    sim = Simulator(fault_config(name, traced=True), fault_traffic(name))
    stream = hashlib.sha256()

    def on_delivery(link, flit, now):
        stream.update(f"{now},{link.link_id},{flit.packet.packet_id},"
                      f"{flit.index};".encode("ascii"))

    sim.hooks.add("delivery", on_delivery)
    assert sim.run_until_drained(60_000)
    return sim, stream.hexdigest()


def run_fault_warm(sim: Simulator, name: str) -> None:
    sim.reset(fault_config(name, traced=False), fault_traffic(name))
    assert sim.run_until_drained(60_000)


def check_fault_scenario(name: str, sim: Simulator) -> None:
    report = sim.reliability.report()
    assert report.flits_retransmitted > 0
    assert sim.stats.packets_delivered == sim.stats.packets_created
    if name == "mesh-failure-baseline":
        assert report.failed_links == 1
        assert report.reroutes > 0


# -- trace replays -------------------------------------------------------------

#: Benchmarks replayed by the trace cells, each warm run resetting a
#: simulator that replayed the previous one.
TRACE_BENCHMARKS = ("fft", "lu", "radix")
#: Cycles the synthesised trace spans, and the drained run's cycle budget.
TRACE_SPAN = 6_000
TRACE_MAX_CYCLES = 16_000
#: Drain-check cadence of :meth:`Simulator.run_until_drained`, which the
#: stepped cold run reproduces so both runs stop on the same cycle.
DRAIN_POLL = 512


def trace_config(*, traced: bool) -> SimulationConfig:
    return SimulationConfig(
        network=fabric(),
        power=power_config(SCALE, technology=MODULATOR),
        warmup_cycles=200,
        sample_interval=100,
        stall_limit_cycles=0,
        telemetry=(TelemetryConfig(buffer_events=TRACE_CAPACITY)
                   if traced else None),
    )


def trace_traffic(benchmark: str):
    network = fabric()
    factory = splash_factory(benchmark, replace(SCALE, network=network),
                             duration=TRACE_SPAN)
    return factory(network.num_nodes, 1)


def trace_partner(benchmark: str) -> str:
    index = TRACE_BENCHMARKS.index(benchmark)
    return TRACE_BENCHMARKS[(index + 1) % len(TRACE_BENCHMARKS)]


def run_trace_cold(benchmark: str) -> Simulator:
    """Fresh, traced replay, one :meth:`Simulator.step` at a time."""
    sim = Simulator(trace_config(traced=True), trace_traffic(benchmark))
    step = sim.step
    for _ in range(TRACE_MAX_CYCLES // DRAIN_POLL):
        for _ in range(DRAIN_POLL):
            step()
        if sim._is_drained():
            break
    return sim


def run_trace_warm(sim: Simulator, benchmark: str) -> None:
    sim.reset(trace_config(traced=False), trace_traffic(benchmark))
    assert sim.run_until_drained(TRACE_MAX_CYCLES, DRAIN_POLL)


def check_trace(sim: Simulator) -> None:
    stats = sim.stats
    assert sim._is_drained()
    assert stats.packets_delivered == stats.packets_created > 0


# -- the corpus ----------------------------------------------------------------

def load_corpus() -> dict[str, Any]:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def corpus() -> dict[str, Any]:
    return load_corpus()


def test_corpus_pins_exactly_the_generated_entries(corpus):
    # A pin whose cell, scenario or trace is gone would never be read.
    assert set(corpus) == {"cells", "faults", "traces"}
    assert set(corpus["cells"]) == set(CELLS)
    assert set(corpus["faults"]) == set(FAULT_SCENARIOS)
    assert set(corpus["traces"]) == set(TRACE_BENCHMARKS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_corpus(name, corpus):
    cell = CELLS[name]
    sim, spanning = run_cold(cell)
    check_regime(cell, sim, spanning)
    assert state_digest(sim) == corpus["cells"][name]["state"]
    assert events_digest(sim) == corpus["cells"][name]["events"]
    warm = partner(cell)
    run_warm(sim, warm)
    assert state_digest(sim) == corpus["cells"][warm.name]["state"]


@pytest.mark.parametrize("name", sorted(FAULT_SCENARIOS))
def test_fault_scenario_matches_corpus(name, corpus):
    sim, stream = run_fault_cold(name)
    check_fault_scenario(name, sim)
    expected = corpus["faults"][name]
    assert fault_run_digest(sim) == expected["run"]
    assert stream == expected["stream"]
    assert events_digest(sim) == expected["events"]
    warm = FAULT_PARTNERS[name]
    run_fault_warm(sim, warm)
    assert fault_run_digest(sim) == corpus["faults"][warm]["run"]


@pytest.mark.parametrize("trace", TRACE_BENCHMARKS)
def test_trace_cell_matches_corpus(trace, corpus):
    sim = run_trace_cold(trace)
    check_trace(sim)
    expected = corpus["traces"][trace]
    assert state_digest(sim) == expected["state"]
    assert events_digest(sim) == expected["events"]
    warm = trace_partner(trace)
    run_trace_warm(sim, warm)
    check_trace(sim)
    assert state_digest(sim) == corpus["traces"][warm]["state"]


def generate_traces() -> dict[str, dict[str, str]]:
    """Replay every trace cell cold and warm; refuse a mismatch."""
    traces: dict[str, dict[str, str]] = {}
    warm: dict[str, str] = {}
    for benchmark in TRACE_BENCHMARKS:
        sim = run_trace_cold(benchmark)
        check_trace(sim)
        traces[benchmark] = {"state": state_digest(sim),
                             "events": events_digest(sim)}
        other = trace_partner(benchmark)
        run_trace_warm(sim, other)
        check_trace(sim)
        warm[other] = state_digest(sim)
    for name, digest in warm.items():
        assert digest == traces[name]["state"], f"warm != cold for {name}"
    return traces


def generate() -> dict[str, Any]:
    """Run every cell cold and warm; refuse to pin a warm/cold mismatch."""
    cells: dict[str, dict[str, str]] = {}
    warm: dict[str, str] = {}
    for name, cell in CELLS.items():
        sim, spanning = run_cold(cell)
        check_regime(cell, sim, spanning)
        cells[name] = {"state": state_digest(sim),
                       "events": events_digest(sim)}
        other = partner(cell)
        run_warm(sim, other)
        warm[other.name] = state_digest(sim)
    for name, digest in warm.items():
        assert digest == cells[name]["state"], f"warm != cold for {name}"
    faults: dict[str, dict[str, str]] = {}
    fault_warm: dict[str, str] = {}
    for name in FAULT_SCENARIOS:
        sim, stream = run_fault_cold(name)
        check_fault_scenario(name, sim)
        faults[name] = {"run": fault_run_digest(sim), "stream": stream,
                        "events": events_digest(sim)}
        run_fault_warm(sim, FAULT_PARTNERS[name])
        fault_warm[FAULT_PARTNERS[name]] = fault_run_digest(sim)
    for name, digest in fault_warm.items():
        assert digest == faults[name]["run"], f"warm != cold for {name}"
    return {"cells": dict(sorted(cells.items())),
            "faults": dict(sorted(faults.items())),
            "traces": generate_traces()}


if __name__ == "__main__":
    CORPUS_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {CORPUS_PATH}")
