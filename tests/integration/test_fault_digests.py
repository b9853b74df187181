"""Fault scenarios run fresh and untraced, against the golden corpus.

The four drained fault scenarios live in the golden corpus
(``tests/integration/test_golden_corpus.py``), which runs each one cold
(traced, hooked) and warm (reset after another scenario).  This module
runs them the way a plain ``repro run`` would — a fresh simulator with
no telemetry — once without hooks and once with a ``delivery`` hook,
and checks both against the corpus: the run digest must match either
way (hooks only observe), and the hooked run's delivery stream must
match the pinned one.  The digests come from ``golden_corpus.json``;
re-pin them there.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.network.simulator import Simulator
from tests.integration.test_golden_corpus import (
    FAULT_SCENARIOS,
    check_fault_scenario,
    fault_config,
    fault_run_digest,
    fault_traffic,
    load_corpus,
)


@pytest.fixture(scope="module")
def corpus_faults() -> dict[str, dict[str, str]]:
    return load_corpus()["faults"]


def run(name: str, *, hooked: bool) -> tuple[Simulator, str | None]:
    sim = Simulator(fault_config(name, traced=False), fault_traffic(name))
    stream = hashlib.sha256() if hooked else None
    if stream is not None:
        def on_delivery(link, flit, now):
            stream.update(f"{now},{link.link_id},{flit.packet.packet_id},"
                          f"{flit.index};".encode("ascii"))

        sim.hooks.add("delivery", on_delivery)
    assert sim.run_until_drained(60_000)
    return sim, stream.hexdigest() if stream is not None else None


@pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
@pytest.mark.parametrize("name", sorted(FAULT_SCENARIOS))
def test_fault_run_matches_recorded_digest(name, hooked, corpus_faults):
    sim, stream = run(name, hooked=hooked)
    report = sim.reliability.report()
    assert report.flits_retransmitted > 0
    assert sim.stats.packets_delivered == sim.stats.packets_created
    assert fault_run_digest(sim) == corpus_faults[name]["run"]
    if hooked:
        assert stream == corpus_faults[name]["stream"]


def test_grid_covers_a_hard_failure_with_reroutes():
    sim, _ = run("mesh-failure-baseline", hooked=False)
    check_fault_scenario("mesh-failure-baseline", sim)
    report = sim.reliability.report()
    assert report.failed_links == 1
    assert report.reroutes > 0
