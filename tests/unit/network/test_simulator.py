"""Unit tests for the cycle-driven simulator core."""

from math import ceil

import pytest

from repro.errors import ConfigError
from repro.network.links import EJECTION
from repro.network.simulator import Simulator
from repro.traffic.base import TrafficSource
from repro.traffic.trace import TraceRecord, TraceReplaySource
from repro.traffic.uniform import UniformRandomTraffic


class SilentTraffic(TrafficSource):
    """A source that never generates."""

    def generate(self, now):
        return []

    def exhausted(self, now):
        return True


class OneShotTraffic(TrafficSource):
    """Injects one configurable packet at cycle 0."""

    def __init__(self, num_nodes, src, dst, size):
        super().__init__(num_nodes)
        self._pending = [(src, dst, size)]

    def generate(self, now):
        if not self._pending:
            return []
        src, dst, size = self._pending.pop()
        return [self._make_packet(src, dst, size, now)]

    def exhausted(self, now):
        return not self._pending


class TestConstruction:
    def test_traffic_node_count_must_match(self, tiny_sim_config):
        wrong = UniformRandomTraffic(999, 0.1)
        with pytest.raises(ConfigError):
            Simulator(tiny_sim_config, wrong)

    def test_baseline_has_no_power_manager(self, tiny_baseline_config):
        sim = Simulator(tiny_baseline_config,
                        SilentTraffic(tiny_baseline_config.network.num_nodes))
        assert sim.power is None
        assert sim.relative_power() == 1.0

    def test_power_aware_has_manager(self, tiny_sim_config):
        sim = Simulator(tiny_sim_config,
                        SilentTraffic(tiny_sim_config.network.num_nodes))
        assert sim.power is not None


class TestDelivery:
    def test_single_packet_delivered(self, tiny_baseline_config):
        nodes = tiny_baseline_config.network.num_nodes
        sim = Simulator(tiny_baseline_config,
                        OneShotTraffic(nodes, src=0, dst=nodes - 1, size=3))
        sim.run(200)
        assert sim.stats.packets_delivered == 1

    def test_zero_load_latency_close_to_model(self, tiny_baseline_config):
        # One packet crossing the full diagonal of the 2x2 mesh.
        nodes = tiny_baseline_config.network.num_nodes
        sim = Simulator(tiny_baseline_config,
                        OneShotTraffic(nodes, src=0, dst=nodes - 1, size=1))
        sim.run(100)
        # 2 mesh hops: 3 routers x 3 pipeline + 4 links x 2 = 17 cycles.
        assert sim.stats.mean_latency == pytest.approx(17.0, abs=2.0)

    def test_idle_step_is_cheap_and_safe(self, tiny_baseline_config):
        sim = Simulator(tiny_baseline_config,
                        SilentTraffic(tiny_baseline_config.network.num_nodes))
        sim.run(100)
        assert sim.cycle == 100
        assert sim.stats.packets_created == 0

    def test_negative_cycles_rejected(self, tiny_baseline_config):
        sim = Simulator(tiny_baseline_config,
                        SilentTraffic(tiny_baseline_config.network.num_nodes))
        with pytest.raises(ConfigError):
            sim.run(-1)


class TestDeterminism:
    def test_identical_seeds_identical_runs(self, tiny_sim_config):
        def run():
            traffic = UniformRandomTraffic(
                tiny_sim_config.network.num_nodes, 0.3, seed=42)
            sim = Simulator(tiny_sim_config, traffic)
            sim.run(2000)
            return sim.summary()

        assert run() == run()

    def test_different_seeds_differ(self, tiny_sim_config):
        def run(seed):
            traffic = UniformRandomTraffic(
                tiny_sim_config.network.num_nodes, 0.3, seed=seed)
            sim = Simulator(tiny_sim_config, traffic)
            sim.run(2000)
            return sim.summary()

        assert run(1) != run(2)


class TestDrain:
    def test_run_until_drained(self, tiny_baseline_config):
        nodes = tiny_baseline_config.network.num_nodes
        records = [TraceRecord(0, 0, 1, 4), TraceRecord(10, 2, 5, 4)]
        sim = Simulator(tiny_baseline_config,
                        TraceReplaySource(nodes, records))
        assert sim.run_until_drained(5000, poll_interval=16)
        assert sim.stats.packets_delivered == 2
        assert sim.stats.in_flight == 0

    def test_drain_timeout_returns_false(self, tiny_baseline_config):
        nodes = tiny_baseline_config.network.num_nodes
        records = [TraceRecord(0, 0, nodes - 1, 8)]
        sim = Simulator(tiny_baseline_config,
                        TraceReplaySource(nodes, records))
        assert not sim.run_until_drained(3)

    def test_poll_interval_relative_to_start(self, tiny_baseline_config):
        # Resuming from a cycle that is not a multiple of poll_interval
        # must still poll on schedule: with the old absolute
        # ``cycle % poll_interval`` check this run would only test for
        # drain at its max_cycles deadline.
        nodes = tiny_baseline_config.network.num_nodes
        records = [TraceRecord(0, 0, 1, 4)]
        sim = Simulator(tiny_baseline_config,
                        TraceReplaySource(nodes, records))
        sim.run(37)  # arbitrary offset, coprime with the poll interval
        start = sim.cycle
        assert sim.run_until_drained(10_000, poll_interval=100)
        # Early exit happened at a poll, i.e. a multiple of poll_interval
        # cycles after the start, far before the deadline.
        assert (sim.cycle - start) % 100 == 0
        assert sim.cycle - start < 10_000

    def test_poll_interval_validated(self, tiny_baseline_config):
        nodes = tiny_baseline_config.network.num_nodes
        sim = Simulator(tiny_baseline_config, SilentTraffic(nodes))
        with pytest.raises(ConfigError):
            sim.run_until_drained(100, poll_interval=0)
        with pytest.raises(ConfigError):
            sim.run_until_drained(0)


class TestHooks:
    def test_delivery_hook_sees_every_flit(self, tiny_baseline_config):
        nodes = tiny_baseline_config.network.num_nodes
        sim = Simulator(tiny_baseline_config,
                        OneShotTraffic(nodes, src=0, dst=1, size=4))
        seen = []
        sim.hooks.add("delivery", lambda link, flit, now: seen.append(
            (link.link_id, flit.packet.packet_id, now)))
        sim.run_until_drained(5000, poll_interval=16)
        # 4 flits over injection + ejection links at least (same-rack pair
        # may still route through the router): every hop is observed.
        assert len(seen) >= 8
        assert all(now <= sim.cycle for _, _, now in seen)

    def test_delivery_hook_sees_each_ejection_flit_on_arrival(
            self, tiny_sim_config):
        # Unhooked, ejection body flits travel as runs and are never
        # handed over.  A delivery hook restores per-flit filing: it sees
        # every ejection hand-over, each at the cycle its flit arrives,
        # and the run's results do not change.
        nodes = tiny_sim_config.network.num_nodes
        records = [TraceRecord(cycle, cycle % nodes, (cycle * 7 + 3) % nodes,
                               12)
                   for cycle in range(0, 120, 3)
                   if cycle % nodes != (cycle * 7 + 3) % nodes]

        def build():
            return Simulator(tiny_sim_config,
                             TraceReplaySource(nodes, list(records)))

        hooked = build()
        ejection = [link for link in hooked.network.links
                    if link.kind == EJECTION]
        seen = []
        hooked.hooks.add("delivery", lambda link, flit, now: seen.append(
            (link.link_id, flit.packet.packet_id, flit.index, now)))
        due = {}
        for _ in range(3000):
            for link in ejection:
                for arrival, flit in link._in_flight:
                    due[(link.link_id, flit.packet.packet_id,
                         flit.index)] = ceil(arrival)
            hooked.step()
        assert hooked._is_drained()
        ejected = [event for event in seen if event[:3] in due]
        assert len(ejected) == len(due) == sum(
            link.flits_carried for link in ejection) == 12 * len(records)
        assert all(event[3] == due[event[:3]] for event in ejected)
        assert all(link.last_arrival == 0.0 for link in ejection)

        plain = build()
        plain.run(3000)
        assert max(link.last_arrival for link in plain.network.links) > 0.0
        assert plain.summary() == hooked.summary()

    def test_phase_profiler_times_real_run(self, tiny_baseline_config):
        from repro.engine import PhaseProfiler
        from repro.network.simulator import PHASES

        nodes = tiny_baseline_config.network.num_nodes

        def build():
            return Simulator(tiny_baseline_config,
                             UniformRandomTraffic(nodes, 0.2, seed=2))

        sim = build()
        profiler = PhaseProfiler().attach(sim.hooks)
        sim.run(500)
        assert set(profiler.calls) == set(PHASES)
        assert all(count == 500 for count in profiler.calls.values())
        # Stepping cycle by cycle times every phase as often as run(N).
        stepped = build()
        stepped_profiler = PhaseProfiler().attach(stepped.hooks)
        for _ in range(500):
            stepped.step()
        assert stepped_profiler.calls == profiler.calls
        # Profiling only observes: the run ends where an unprofiled one does.
        plain = build()
        plain.run(500)
        assert sim.summary() == plain.summary() == stepped.summary()
        profiler.detach()
        sim.run(100)
        assert profiler.calls["route"] == 500  # detached: no more timing


class TestSummary:
    def test_summary_includes_power(self, tiny_sim_config):
        traffic = UniformRandomTraffic(
            tiny_sim_config.network.num_nodes, 0.2, seed=1)
        sim = Simulator(tiny_sim_config, traffic)
        sim.run(1000)
        summary = sim.summary()
        assert 0.0 < summary["relative_power"] <= 1.0
        assert summary["cycles"] == 1000.0


class DelayedOneShot(TrafficSource):
    """Injects one packet at a configurable (late) cycle."""

    def __init__(self, num_nodes, at, src=0, dst=None, size=4):
        super().__init__(num_nodes)
        self.at = at
        self.src = src
        self.dst = num_nodes - 1 if dst is None else dst
        self.size = size
        self._sent = False

    def generate(self, now):
        if now == self.at and not self._sent:
            self._sent = True
            return [self._make_packet(self.src, self.dst, self.size, now)]
        return []

    def exhausted(self, now):
        return self._sent


class TestStallWatchdogLateAttach:
    """Regression: StallWatchdog initialised ``_last_progress_cycle`` to 0,
    so one attached to a simulator that had already run reported a bogus
    stall spanning the whole pre-attach history.  It must start from the
    simulator's current cycle."""

    def test_no_bogus_stall_after_late_attach(self, tiny_network):
        from repro.config import SimulationConfig
        from repro.network.simulator import StallWatchdog

        config = SimulationConfig(network=tiny_network, power=None,
                                  sample_interval=100,
                                  stall_limit_cycles=0)
        nodes = tiny_network.num_nodes
        sim = Simulator(config, DelayedOneShot(nodes, at=1000))
        sim.run(1000)  # a silent kilocycle before the watchdog exists
        watchdog = StallWatchdog(sim, limit=256).attach()
        assert watchdog._last_progress_cycle == 1000
        # The packet injected at cycle 1000 is in flight when the first
        # check fires; with the old zero init this raised SimulationError
        # ("no flit delivered for 1000 cycles").
        sim.run(300)
        assert sim.stats.packets_delivered == 1


class TestStallWatchdogKeepsEjectionRuns:
    """The watchdog reads progress from the links' flit counters and
    registers no ``delivery`` hook, so a watched run moves ejection body
    flits as runs, exactly like an unwatched one."""

    def test_watched_run_moves_runs_and_matches_unwatched(
            self, tiny_sim_config):
        from dataclasses import replace

        nodes = tiny_sim_config.network.num_nodes

        def run(stall_limit_cycles):
            config = replace(tiny_sim_config,
                             stall_limit_cycles=stall_limit_cycles)
            sim = Simulator(config, UniformRandomTraffic(nodes, 0.3, seed=6))
            sim.run(3000)
            return sim

        watched, plain = run(4000), run(0)
        assert not watched.hooks.delivery
        ejection = [link for link in watched.network.links
                    if link.kind == EJECTION]
        assert any(link.last_arrival > 0 for link in ejection)
        assert watched.summary() == plain.summary()


class TestDrainBatching:
    """Regression: run_until_drained must stay bit-identical to the
    stepped reference loop it replaced (one step() per cycle, drain check
    on poll-interval boundaries relative to the start)."""

    def _stepped_reference(self, sim, max_cycles, poll_interval):
        start = sim.cycle
        while sim.cycle - start < max_cycles:
            sim.step()
            if (sim.cycle - start) % poll_interval == 0 \
                    and sim._is_drained():
                return True
        return sim._is_drained()

    def test_batched_matches_stepped_reference(self, tiny_sim_config):
        nodes = tiny_sim_config.network.num_nodes

        def make():
            return Simulator(tiny_sim_config,
                             OneShotTraffic(nodes, 0, nodes - 1, 4))

        batched = make()
        reference = make()
        poll = 7  # deliberately not a divisor of anything interesting
        drained_a = batched.run_until_drained(2000, poll_interval=poll)
        drained_b = self._stepped_reference(reference, 2000, poll)
        assert drained_a is True and drained_b is True
        assert batched.cycle == reference.cycle
        assert batched.summary() == reference.summary()

    def test_batched_matches_reference_when_never_draining(
            self, tiny_sim_config):
        nodes = tiny_sim_config.network.num_nodes

        def make():
            traffic = UniformRandomTraffic(nodes, 0.1, seed=5)
            return Simulator(tiny_sim_config, traffic)

        batched = make()
        reference = make()
        drained_a = batched.run_until_drained(500, poll_interval=64)
        drained_b = self._stepped_reference(reference, 500, 64)
        assert drained_a is False and drained_b is False
        assert batched.cycle == reference.cycle == 500
        assert batched.summary() == reference.summary()


class TestStallDiagnosticsStayLazy:
    """The congestion report (``repro.metrics.inspect``) walks the whole
    network and is only worth building when a stall is actually being
    diagnosed.  Its import must therefore stay out of the watchdog's
    healthy path: a progressing run must never load the module, while
    raising the stall error must."""

    def _run_progressing(self, tiny_network):
        from repro.config import SimulationConfig

        config = SimulationConfig(network=tiny_network, power=None,
                                  sample_interval=100,
                                  stall_limit_cycles=256)
        nodes = tiny_network.num_nodes
        sim = Simulator(config, UniformRandomTraffic(nodes, 0.1, seed=4))
        sim.run(2000)
        assert sim.stats.packets_delivered > 0
        return sim

    def test_healthy_watchdog_never_imports_inspect(
            self, tiny_network, monkeypatch):
        import sys

        monkeypatch.delitem(sys.modules, "repro.metrics.inspect",
                            raising=False)
        self._run_progressing(tiny_network)
        assert "repro.metrics.inspect" not in sys.modules

    def test_stall_error_imports_and_embeds_report(self, tiny_network,
                                                   monkeypatch):
        import sys

        from repro.network.simulator import _stall_error

        sim = self._run_progressing(tiny_network)
        monkeypatch.delitem(sys.modules, "repro.metrics.inspect",
                            raising=False)
        err = _stall_error(sim, "synthetic stall for the test.")
        assert "repro.metrics.inspect" in sys.modules
        assert "synthetic stall for the test." in str(err)
