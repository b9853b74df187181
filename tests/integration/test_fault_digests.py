"""Recorded behaviour of fault-injected runs: committed SHA-256 digests.

``step_all`` refuses fault injection, so no second engine can check a
fault run's output; these digests are the oracle instead.  Each grid
point runs a small drained simulation with link-level retransmission
(low received power), and the digest covers ``summary()``, the
reliability report and the power series.  Runs with a ``delivery`` hook
attached must give the same run digest (hooks only observe), and their
delivery stream — cycle, link id, packet id and flit index of every
hand-over, in order — is pinned too, which fixes the within-cycle
delivery order the summary alone cannot see.

A deliberate behaviour change re-pins the table in the same change and
says why.  Regenerate it from the repo root with::

    PYTHONPATH=src python -m tests.integration.test_fault_digests
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import pytest

from repro.config import NetworkConfig, SimulationConfig
from repro.experiments.configs import get_scale, power_config
from repro.network.simulator import Simulator
from repro.reliability import FaultConfig, LinkDegradation, LinkFailure
from tests.integration.test_reliability import FiniteUniformSource

SCALE = get_scale("smoke")

#: Low received power: BER is high enough that retransmissions fire
#: throughout every run (see tests/integration/test_reliability.py).
LOW_RX_W = 13e-6

#: name -> (topology, power-aware, FaultConfig)
GRID: dict[str, tuple[str, bool, FaultConfig]] = {
    # Unguarded ladder at low margin: links step down into high-BER
    # levels, so retries pile up behind head flits.
    "mesh-retry-aware": (
        "mesh", True,
        FaultConfig(seed=3, received_power_w=LOW_RX_W, margin_guard=False),
    ),
    "torus-retry-aware": (
        "torus", True,
        FaultConfig(seed=4, received_power_w=LOW_RX_W, margin_guard=False),
    ),
    # Hard failure of a mesh link mid-run (ids 0-63 are the node-facing
    # links on this fabric), on the non-power-aware baseline.
    "mesh-failure-baseline": (
        "mesh", False,
        FaultConfig(seed=11, received_power_w=LOW_RX_W,
                    failures=(LinkFailure(70, at_cycle=600),)),
    ),
    # No background BER: a degradation window attaches fault state to a
    # link mid-run, with flits already in flight on it.
    "torus-degradation-aware": (
        "torus", True,
        FaultConfig(seed=6, received_power_w=LOW_RX_W, ber_injection=False,
                    margin_guard=False,
                    degradations=(LinkDegradation(75, at_cycle=500,
                                                  duration_cycles=800,
                                                  ber_multiplier=1e4),)),
    ),
}

#: name -> (run digest, delivery-stream digest).  Recorded while fault
#: runs still delivered through a per-cycle scan of in-flight links; the
#: arrival calendar reproduces them unchanged.
EXPECTED: dict[str, tuple[str, str]] = {
    "mesh-failure-baseline": (
        "867b53dadc42cfe6acea9360c53be803958fe9d578a3be244a4755ddcc9bf716",
        "fe736b114a0c99d61ecf025e4a86d3386e740bf9757369b7f01e54010dcdd360",
    ),
    "mesh-retry-aware": (
        "16c41ecef00ac8ca3d14fb5d6d4bc49feaf867230aa8a20954a3efbdfb870ea0",
        "f0d51227d69d6957211f9cbd6b5578f8f5276c67397c81b6afa8ca72fe6aeb13",
    ),
    "torus-degradation-aware": (
        "cad3dce5cec4c42e1f88b9e75b89444b654142a174999a71e3e78101cb416cfe",
        "1adb56bb3a0c4b586b8522c7ff1068e8bcd564959b32f0b4f8937809b03e8b79",
    ),
    "torus-retry-aware": (
        "635ee4533b6c7f966c3a86318829d25823ca75bb7dcc5bad9ecdcd8e3c64323f",
        "a6e3493ad61eef39e72465e5a6848c93690ea64cf34dc4602c6e8e037183a7ef",
    ),
}


def build(name: str) -> Simulator:
    topology, aware, faults = GRID[name]
    network = NetworkConfig(mesh_width=4, mesh_height=4, nodes_per_cluster=2,
                            topology=topology)
    config = SimulationConfig(
        network=network,
        power=power_config(SCALE) if aware else None,
        faults=faults,
        warmup_cycles=200,
        sample_interval=100,
        stall_limit_cycles=4000,
    )
    traffic = FiniteUniformSource(network.num_nodes, seed=2, rate=0.5,
                                  until=1500)
    return Simulator(config, traffic)


def run_digest(sim: Simulator) -> str:
    assert sim.reliability is not None
    record: dict[str, Any] = {
        "summary": sim.summary(),
        "reliability": sim.reliability.report().as_dict(),
        "power_series": sim.power.power_series if sim.power else [],
    }
    payload = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run(name: str, *, hooked: bool) -> tuple[Simulator, str | None]:
    sim = build(name)
    stream = hashlib.sha256() if hooked else None
    if stream is not None:
        def on_delivery(link, flit, now):
            stream.update(f"{now},{link.link_id},{flit.packet.packet_id},"
                          f"{flit.index};".encode("ascii"))

        sim.hooks.add("delivery", on_delivery)
    assert sim.run_until_drained(60_000)
    return sim, stream.hexdigest() if stream is not None else None


@pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
@pytest.mark.parametrize("name", sorted(GRID))
def test_fault_run_matches_recorded_digest(name, hooked):
    sim, stream = run(name, hooked=hooked)
    report = sim.reliability.report()
    assert report.flits_retransmitted > 0
    assert sim.stats.packets_delivered == sim.stats.packets_created
    expected_run, expected_stream = EXPECTED[name]
    assert run_digest(sim) == expected_run
    if hooked:
        assert stream == expected_stream


def test_grid_covers_a_hard_failure_with_reroutes():
    sim, _ = run("mesh-failure-baseline", hooked=False)
    report = sim.reliability.report()
    assert report.failed_links == 1
    assert report.reroutes > 0


if __name__ == "__main__":
    for grid_name in sorted(GRID):
        plain, _ = run(grid_name, hooked=False)
        _, stream_digest = run(grid_name, hooked=True)
        print(f'    "{grid_name}": (\n        "{run_digest(plain)}",\n'
              f'        "{stream_digest}",\n    ),')
