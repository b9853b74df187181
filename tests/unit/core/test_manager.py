"""Unit tests for the network-wide power manager."""

from collections import defaultdict
from dataclasses import replace

import pytest

from repro.config import (
    MODULATOR,
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    TransitionConfig,
    VCSEL,
)
from repro.core.manager import (
    NetworkPowerManager,
    ladder_from_config,
    power_model_from_config,
)
from repro.core.policy import HOLD
from repro.core.transitions import TransitionState
from repro.engine.wheel import EventWheel
from repro.errors import ConfigError
from repro.network.packet import Packet
from repro.network.stats import StatsCollector
from repro.network.topology import ClusteredMesh


def make_manager(technology=VCSEL, optical_levels=1, window=100, history=1):
    network = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                            buffer_depth=8, num_vcs=2)
    topology = ClusteredMesh(network, StatsCollector())
    power = PowerAwareConfig(
        technology=technology,
        optical_levels=optical_levels,
        policy=PolicyConfig(window_cycles=window, history_windows=history),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=2, voltage_transition_cycles=10,
            optical_transition_cycles=300, laser_epoch_cycles=400,
        ),
    )
    return NetworkPowerManager(topology, power, network), topology


def drive(manager, until):
    """Run the manager's wheel events due before cycle ``until``.

    The first call schedules the manager's periodic work on a fresh
    :class:`EventWheel`; later calls continue on it.  Each due cycle is
    serviced at its own ``now``, as the simulator's control phase does.
    """
    wheel = manager._wheel
    if wheel is None:
        wheel = EventWheel()
        manager.schedule_events(wheel)
    while wheel.next_cycle < until:
        wheel.service(int(wheel.next_cycle))


class TestConfigHelpers:
    def test_ladder_from_config(self):
        ladder = ladder_from_config(PowerAwareConfig())
        assert ladder.num_levels == 6
        assert ladder.max_rate == 10e9

    def test_power_model_selection(self):
        assert power_model_from_config(
            PowerAwareConfig(technology=VCSEL)).technology == "vcsel"
        assert power_model_from_config(
            PowerAwareConfig(technology=MODULATOR)).technology == "modulator"


class TestConstruction:
    def test_one_power_link_per_fiber(self):
        manager, topology = make_manager()
        assert len(manager.links) == len(topology.links)

    def test_vcsel_never_gets_optical_controller(self):
        manager, _ = make_manager(technology=VCSEL)
        assert all(pal.optical is None for pal in manager.links)

    def test_modulator_three_levels_gets_controllers(self):
        manager, _ = make_manager(technology=MODULATOR, optical_levels=3)
        assert all(pal.optical is not None for pal in manager.links)

    def test_modulator_single_level_has_no_controllers(self):
        manager, _ = make_manager(technology=MODULATOR, optical_levels=1)
        assert all(pal.optical is None for pal in manager.links)

    def test_unsupported_optical_level_count(self):
        with pytest.raises(ConfigError):
            make_manager(technology=MODULATOR, optical_levels=2)


class TestDriving:
    def test_idle_network_scales_down_over_windows(self):
        manager, _ = make_manager(window=50)
        drive(manager, 2000)
        histogram = manager.level_histogram()
        assert histogram[0] == len(manager.links)

    def test_power_decreases_from_baseline(self):
        manager, _ = make_manager(window=50)
        drive(manager, 2000)
        manager.finalize(2000)
        assert manager.relative_power(2000) < 1.0

    def test_relative_power_one_when_pinned(self):
        # A manager whose window never fires keeps all links at max.
        manager, _ = make_manager(window=10_000)
        drive(manager, 100)
        manager.finalize(100)
        assert manager.relative_power(100) == pytest.approx(1.0)

    def test_minimum_relative_power_matches_model(self):
        manager, _ = make_manager(window=50)
        drive(manager, 4000)
        manager.finalize(4000)
        floor = manager.power_model.power(5e9) / manager.power_model.max_power
        # Long idle run converges to the 5 Gb/s floor (plus the descent
        # transient at the start).
        assert manager.relative_power(4000) == pytest.approx(floor, abs=0.05)

    def test_power_series_sampling(self):
        manager, _ = make_manager()
        manager.sample_power(0)
        manager.sample_power(100)
        assert len(manager.power_series) == 2
        assert manager.power_series[0][1] == pytest.approx(
            manager.baseline_power()
        )

    def test_transition_totals_accumulate(self):
        manager, _ = make_manager(window=50)
        drive(manager, 1000)
        totals = manager.transition_totals()
        assert totals["down"] > 0
        assert totals["up"] == 0  # idle network never climbs

    def test_average_power_requires_positive_cycles(self):
        manager, _ = make_manager()
        with pytest.raises(ConfigError):
            manager.average_power(0)


class TestFinalizeIdempotence:
    def test_repeated_finalize_accrues_no_energy(self):
        manager, _ = make_manager(window=50)
        drive(manager, 2000)
        manager.finalize(2000)
        first = manager.total_energy_watt_cycles()
        manager.finalize(2000)
        manager.finalize(1500)  # at/before the last finalize: a no-op
        assert manager.total_energy_watt_cycles() == first
        assert manager.relative_power(2000) == manager.relative_power(2000)

    def test_later_finalize_extends_the_integral(self):
        manager, _ = make_manager(window=50)
        drive(manager, 1000)
        manager.finalize(1000)
        first = manager.total_energy_watt_cycles()
        drive(manager, 2000)
        manager.finalize(2000)
        assert manager.total_energy_watt_cycles() > first

    class _PoisonLinks:
        """Raises if the summary path walks the per-link list again."""

        def __iter__(self):
            raise AssertionError("post-finalize summary walked the links")

        def __len__(self):  # pragma: no cover - shape compatibility only
            return 0

    def test_post_finalize_summary_is_o1(self):
        # baseline_power is cached at construction and the energy total at
        # finalize; repeated summary-path queries must not touch the links.
        manager, _ = make_manager(window=50)
        drive(manager, 1000)
        manager.finalize(1000)
        expected_energy = manager.total_energy_watt_cycles()
        expected_baseline = manager.baseline_power()
        manager.links = self._PoisonLinks()
        assert manager.total_energy_watt_cycles() == expected_energy
        assert manager.baseline_power() == expected_baseline
        assert manager.relative_power(1000) == \
            expected_energy / 1000 / expected_baseline
        manager.finalize(1000)  # idempotent re-finalize must not walk either
        manager.finalize(800)

    def test_baseline_power_cached_at_construction(self):
        manager, topology = make_manager()
        expected = len(topology.links) * manager.table.max_power
        manager.links = self._PoisonLinks()
        assert manager.baseline_power() == pytest.approx(expected)

    def test_simulator_summary_is_repeatable(self, tiny_sim_config):
        from repro.network.simulator import Simulator
        from repro.traffic.uniform import UniformRandomTraffic

        traffic = UniformRandomTraffic(
            tiny_sim_config.network.num_nodes, 0.2, seed=5)
        sim = Simulator(tiny_sim_config, traffic)
        sim.run(1500)
        first = sim.summary()
        second = sim.summary()
        assert first == second
        assert sim.power.total_energy_watt_cycles() == \
            sim.power.total_energy_watt_cycles()


class TestReporting:
    def test_link_report_rows(self):
        manager, topology = make_manager(window=50)
        drive(manager, 500)
        manager.finalize(500)
        rows = manager.link_report(500)
        assert len(rows) == len(topology.links)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"injection", "ejection", "mesh"}
        for row in rows:
            assert row["avg_power_w"] > 0.0
            assert 0 <= row["level"] <= manager.ladder.top_level

    def test_energy_by_kind_sums_to_total(self):
        manager, _ = make_manager(window=50)
        drive(manager, 500)
        manager.finalize(500)
        by_kind = manager.energy_by_kind(500)
        assert sum(by_kind.values()) == pytest.approx(
            manager.average_power(500)
        )

    def test_report_requires_positive_cycles(self):
        manager, _ = make_manager()
        with pytest.raises(ConfigError):
            manager.link_report(0)
        with pytest.raises(ConfigError):
            manager.energy_by_kind(-1)


class TestModelReplacement:
    def test_replace_before_run(self):
        from repro.photonics.measured import MeasuredLinkPowerModel

        manager, _ = make_manager()
        measured = MeasuredLinkPowerModel(samples=(
            (5e9, 0.055), (10e9, 0.280),
        ))
        manager.replace_power_model(measured)
        assert manager.power_model is measured
        for pal in manager.links:
            assert pal.level_powers[-1] == pytest.approx(0.280)
            assert pal.level_powers[0] == pytest.approx(0.055)

    def test_replace_after_energy_accrued_refused(self):
        from repro.photonics.electrical import ElectricalLinkModel

        manager, _ = make_manager(window=50)
        drive(manager, 200)
        manager.finalize(200)
        with pytest.raises(ConfigError):
            manager.replace_power_model(
                ElectricalLinkModel().as_power_model())

    def test_baseline_power_follows_replacement(self):
        from repro.photonics.electrical import ElectricalLinkModel

        manager, _ = make_manager()
        model = ElectricalLinkModel().as_power_model()
        manager.replace_power_model(model)
        assert manager.baseline_power() == pytest.approx(
            len(manager.links) * model.max_power
        )


class TestCompletionsOnRead:
    """Only the end of an up-step's voltage ramp is a wheel event; every
    other transition phase end waits for a reader (catch_up) and is
    billed at its own timestamp.  (window 50, relock 2, ramp 10: an
    idle first window steps every link down at cycle 50; its relock
    ends at 52 and its voltage ramp at 62.)"""

    def test_down_steps_wait_in_acceptance_order_without_events(self):
        manager, _ = make_manager(window=50)
        drive(manager, 51)
        pending = manager._transitioning
        assert isinstance(pending, list)
        assert [pal.link.link_id for pal in pending] == \
            [pal.link.link_id for pal in manager.links]
        assert manager.transition_events == 0
        # Nothing applies them until a reader catches up.
        drive(manager, 70)
        assert all(pal.engine.state is TransitionState.RELOCK
                   for pal in manager.links)
        manager.catch_up(52)
        assert all(pal.engine.state is TransitionState.VOLTAGE_RAMP_DOWN
                   for pal in manager.links)
        assert len(manager._transitioning) == len(manager.links)
        manager.catch_up(69)
        assert not manager._transitioning
        assert all(pal.level == 4 and pal.completions_on_read == 2
                   for pal in manager.links)

    def test_late_completions_bill_at_their_own_timestamps(self):
        manager, _ = make_manager(window=50)
        drive(manager, 70)
        manager.finalize(70)
        high, low = manager.table.level_powers[5], \
            manager.table.level_powers[4]
        for pal in manager.links:
            assert pal.energy_watt_cycles == high * 62 + low * 8

    def test_window_catches_up_before_it_decides(self):
        # The next window (cycle 100) applies the pending ramp ends
        # first, so every link steps down again from level 4.
        manager, _ = make_manager(window=50)
        drive(manager, 101)
        assert all(pal.engine.steps_down == 2 and pal.engine.target == 3
                   for pal in manager.links)
        assert all(pal.completions_on_read == 2 for pal in manager.links)

    def test_up_step_ramp_end_is_the_only_wheel_event(self):
        manager, _ = make_manager(window=50)
        drive(manager, 1)
        pal = manager.links[0]
        pal.link.pressure_accum = 50.0  # a saturated window: step up
        pal.engine.level = pal.engine.target = 4
        drive(manager, 51)
        assert pal.engine.state is TransitionState.VOLTAGE_RAMP_UP
        assert manager.transition_events == 1
        # The ramp ends on the wheel at 60: the link is disabled for the
        # relock and retuned to the new rate then, not at the next read.
        drive(manager, 61)
        assert pal.engine.state is TransitionState.RELOCK
        assert pal.link.disabled_until == 62
        assert pal.link.service_time == manager.service_times[5]
        assert pal.completions_on_read == 0
        manager.catch_up(62)
        assert pal.level == 5 and pal.completions_on_read == 1

    def test_counters_report_events_reads_and_windows(self):
        manager, _ = make_manager(window=50)
        drive(manager, 101)
        counters = manager.control_counters()
        assert counters == {
            "transition_events": 0,
            "completions_on_read": 2 * len(manager.links),
            "link_windows_evaluated": 2 * len(manager.links),
            "link_windows_parked": 0,
        }


class TestWindowCallBudget:
    """A policy window calls each canonical piece once per evaluated
    link-window: the Lu read, the Bu read (links with a downstream port),
    the decision and, when it asks for one, the step.  A parked
    link-window makes no call at all, and nothing else is called: no
    per-buffer Bu reads, no properties, no closures."""

    #: Every function a window may call: the readers, the decision, the
    #: transition engine's step and completion path, the parking check's
    #: buffer lengths and the wheel for up-step ramp ends.
    ALLOWED = {
        "on_window", "take_counters", "mean_utilisation", "observe",
        "request_step", "_charge", "_begin_relock", "disable_for",
        "set_service_time", "advance", "catch_up", "schedule", "__len__",
    }

    def test_evaluated_link_window_calls_each_piece_once(self):
        import sys
        from collections import Counter

        manager, _ = make_manager(window=50)
        names = Counter()
        original = manager._run_window

        def count(frame, event, arg):
            if event == "call":
                names[frame.f_code.co_name] += 1

        def counted(now):
            sys.setprofile(count)
            try:
                original(now)
            finally:
                sys.setprofile(None)

        manager._run_window = counted
        for until in range(1, 601, 50):
            # Every link steps down while idle; after the fifth window
            # half of them are saturated and step back up, while the
            # idle half reaches the floor and parks.
            if until > 250:
                for pal in manager.links[::2]:
                    pal.link.pressure_accum = 50.0
            drive(manager, until)
        evaluated = manager.link_windows_evaluated
        assert evaluated > 0 and manager.transition_events > 0
        assert manager.link_windows_parked > 0
        assert set(names) <= self.ALLOWED | {"_run_window"}
        assert names["on_window"] == evaluated
        assert names["take_counters"] == evaluated
        assert names["observe"] == evaluated
        # Ejection links have no downstream port to read.
        assert 0 < names["mean_utilisation"] < evaluated
        # At most one step request per evaluated link-window.  A down-step
        # relocks when it is accepted; an up-step relocks at its ramp end,
        # a wheel event outside the window.
        totals = manager.transition_totals()
        assert totals["up"] > 0 and totals["down"] > 0
        assert names["request_step"] <= evaluated
        assert totals["down"] <= names["_begin_relock"] <= \
            totals["up"] + totals["down"]


class TestFinalBoundary:
    """A completion due exactly at a run's final boundary is one whose
    control phase has not run: neither the end of run() nor finalize
    may bill it at the new level."""

    @staticmethod
    def _idle_sim(tiny_sim_config, ramp=10):
        from repro.network.simulator import Simulator
        from repro.traffic.uniform import UniformRandomTraffic

        config = replace(tiny_sim_config, power=replace(
            tiny_sim_config.power,
            policy=PolicyConfig(window_cycles=50, history_windows=1),
            transitions=replace(tiny_sim_config.power.transitions,
                                voltage_transition_cycles=ramp)))
        traffic = UniformRandomTraffic(config.network.num_nodes, 0.0,
                                       seed=5)
        return Simulator(config, traffic)

    @pytest.mark.parametrize("ramp", [10, 9.5])
    def test_completion_due_at_the_final_boundary_is_not_billed(
            self, tiny_sim_config, ramp):
        sim = self._idle_sim(tiny_sim_config, ramp)
        # Window at 50 steps every link down; the ramp ends at
        # e = 50 + 2 + ramp, and ceil(e) == 62 == sim.cycle, whose
        # control phase is next.
        sim.run(62)
        assert sim.cycle == 62
        high, low = (sim.power.table.level_powers[5],
                     sim.power.table.level_powers[4])

        def still_ramping():
            for pal in sim.power.links:
                assert pal.engine.state is TransitionState.VOLTAGE_RAMP_DOWN
                assert pal.level == 5 and pal.current_power() == high

        still_ramping()
        sim.finalize()
        still_ramping()
        for pal in sim.power.links:
            assert pal.energy_watt_cycles == high * 62
        # Billed up to 62 by the first finalize; the ramp end applies
        # in cycle 62's control phase and bills the new level after.
        sim.run(1)
        sim.finalize()
        for pal in sim.power.links:
            assert pal.level == 4 and pal.current_power() == low
            assert pal.energy_watt_cycles == high * 62 + low * 1

    def test_state_is_exact_between_run_calls(self, tiny_sim_config):
        sim = self._idle_sim(tiny_sim_config)
        sim.run(53)
        # The relock ended at 52, inside the run: applied on the way out.
        assert all(pal.engine.state is TransitionState.VOLTAGE_RAMP_DOWN
                   for pal in sim.power.links)


def _full_path_twin(**kwargs):
    """A manager whose no-op policy hook forces every window's full
    evaluation: the oracle a parking manager must match."""
    from repro.engine.hooks import HookRegistry

    manager, topology = make_manager(**kwargs)
    manager.hooks = HookRegistry()
    manager.hooks.add("policy", lambda pal, lu, bu, decision, now: None)
    return manager, topology


def _link_states(manager):
    return [
        (pal.windows_observed, dict(pal.policy.decisions),
         tuple(pal.policy._history), pal.last_lu, pal.last_bu,
         pal.last_step_accepted, pal.level, pal.engine.state)
        for pal in manager.links
    ]


class TestQuietLinkParking:
    """Windows of a parked link are closed in O(1) and must match the
    full evaluation exactly; anything that gives the link activity
    un-parks it.  (window 50, history 1: every idle link reaches the
    ladder floor by cycle 250 and parks at the window after.)"""

    PARKED_BY = 350

    @staticmethod
    def _twins(**kwargs):
        return (make_manager(window=50, **kwargs),
                _full_path_twin(window=50, **kwargs))

    @staticmethod
    def _mesh_link(manager):
        return next(pal for pal in manager.links if pal.link.kind == "mesh")

    @staticmethod
    def _hand_over(pal, now):
        """The deliver phase for one link: each flit the link's calendar
        files under ``now`` moves into its downstream buffer."""
        link = pal.link
        for _ in link.calendar.pop(now, ()):
            pal.downstream_buffer[0].push(link._in_flight.popleft()[1], now)

    def _drive(self, twins, start, stop, stimulus=None):
        """Step both managers over [start, stop), applying ``stimulus``
        (manager, topology, now) to each first; assert they agree."""
        for now in range(start, stop):
            for manager, topology in twins:
                if stimulus is not None:
                    stimulus(manager, topology, now)
                drive(manager, now + 1)
        (plain, _), (full, _) = twins
        assert _link_states(plain) == _link_states(full)

    def _parked_twins(self):
        twins = self._twins()
        for manager, _ in twins:
            self._mesh_link(manager).link.calendar = defaultdict(list)
        self._drive(twins, 1, self.PARKED_BY + 1)
        plain = twins[0][0]
        assert all(pal.parked_flits == 0 for pal in plain.links)
        assert twins[1][0].link_windows_parked == 0
        return twins

    def test_idle_links_park_and_match_full_path(self):
        twins = self._parked_twins()
        plain = twins[0][0]
        before = plain.link_windows_evaluated
        self._drive(twins, self.PARKED_BY + 1, 600)
        # Five more windows, none of them evaluated in full.
        assert plain.link_windows_evaluated == before
        assert plain.link_windows_parked >= 5 * len(plain.links)

    def test_credit_blocked_demand_unparks(self):
        # A node holding a packet with no credit left pushes nothing but
        # records demand pressure on its injection link every cycle.
        twins = self._parked_twins()
        pals = []
        for manager, topology in twins:
            node = topology.nodes[0]
            for counter in node.credits:
                while counter.available:
                    counter.consume()
            node.enqueue_packet(Packet(1, 0, 1, 4, self.PARKED_BY))
            pals.append(next(p for p in manager.links
                             if p.link is node.link))

        def blocked(manager, topology, now):
            topology.nodes[0].step(now)

        plain = twins[0][0]
        before = plain.link_windows_evaluated
        self._drive(twins, self.PARKED_BY + 1, 401, blocked)
        pal = pals[0]
        assert pal.link.flits_carried == 0
        assert pal.last_lu == 1.0  # pressure-aware Lu saw the demand
        assert plain.link_windows_evaluated == before + 1
        assert pal.parked_flits == -1

    def test_push_straddling_a_boundary_unparks(self):
        # Pushed one cycle before the boundary at the 2-cycle floor
        # service time: half the flit's busy time lands in the next
        # window, and the flit arrives after the boundary.
        twins = self._parked_twins()

        def straddle(manager, topology, now):
            pal = self._mesh_link(manager)
            if now == 399:
                pal.link.push(Packet(1, 0, 1, 1, 0).make_flits()[0], now)
            self._hand_over(pal, now)
            buffer = pal.downstream_buffer[0]
            if now == 410 and not buffer.is_empty:
                buffer.pop(now)

        self._drive(twins, self.PARKED_BY + 1, 401, straddle)
        pal = self._mesh_link(twins[0][0])
        assert pal.last_lu == 1.0 / 50  # only the part before 400
        assert pal.parked_flits == -1
        self._drive(twins, 401, 451, straddle)
        assert pal.last_lu == 1.0 / 50  # the carried part
        assert pal.last_bu > 0.0
        self._drive(twins, 451, 501, straddle)
        assert pal.parked_flits == 1  # re-parked once quiet again

    def test_downstream_flit_in_and_out_within_a_window(self):
        # The flit arrives and leaves between two boundaries, so the
        # buffer is empty at both; its occupancy still reaches Bu even
        # though the parked windows left the buffer's integral clock
        # behind.
        twins = self._parked_twins()

        def visit(manager, topology, now):
            pal = self._mesh_link(manager)
            if now == 410:
                pal.link.push(Packet(1, 0, 1, 1, 0).make_flits()[0], now)
            self._hand_over(pal, now)
            if now == 420:
                pal.downstream_buffer[0].pop(now)

        self._drive(twins, self.PARKED_BY + 1, 451, visit)
        pal = self._mesh_link(twins[0][0])
        buffers = pal.downstream_buffer
        # Arrived at 413 (2-cycle service + 1 propagation), left at 420.
        assert pal.last_bu == pytest.approx(
            7 / 50 / buffers[0].capacity / len(buffers))

    def test_flit_in_flight_at_an_idle_boundary_blocks_parking(self):
        # A long pipeline: the flit's busy time falls in the first window,
        # the next window is idle, and the flit lands in the third.
        twins = self._parked_twins()
        for manager, _ in twins:
            self._mesh_link(manager).link.propagation_cycles = 120

        def slow(manager, topology, now):
            pal = self._mesh_link(manager)
            if now == 351:
                pal.link.push(Packet(1, 0, 1, 1, 0).make_flits()[0], now)
            self._hand_over(pal, now)
            if now == 520:
                pal.downstream_buffer[0].pop(now)

        self._drive(twins, self.PARKED_BY + 1, 451, slow)
        pal = self._mesh_link(twins[0][0])
        assert pal.last_lu == 0.0 and pal.last_bu == 0.0
        assert pal.parked_flits == -1  # idle window, but a flit in flight
        self._drive(twins, 451, 501, slow)
        assert pal.last_bu > 0.0

    def test_run_body_flit_in_flight_blocks_parking(self):
        # A router moves an ejection body flit as a run (never filed in
        # the link's deque) during the route phase of a boundary cycle:
        # the window reads Lu = 0 (its busy time is carried), but the
        # flit is still in flight, so the link must not park; the full
        # path bills that carried busy time to the next window.
        twins = self._parked_twins()

        def run_flit(manager, topology, now):
            if now != 450:
                return
            router = topology.routers[0]
            eject = router.outputs[0].link
            eject.body_runs = True  # as the simulator arms it
            flit = Packet(1, 1, 0, 3, 0).make_flits()[1]
            flit.vc = 0
            router.inputs[1].upstream_credits[0].consume()
            router.receive_flit(1, flit, now)
            vc = router.inputs[1].vcs[0]
            vc.route_out = vc.out_vc = 0  # latched by the worm's head
            router._forward(0, 1, 0, now)
            assert not eject.has_in_flight
            assert eject.last_arrival > now

        self._drive(twins, self.PARKED_BY + 1, 451, run_flit)
        plain = twins[0][0]
        eject = next(pal for pal in plain.links
                     if pal.link is twins[0][1].routers[0].outputs[0].link)
        assert eject.last_lu == 0.0 and eject.last_bu == 0.0
        assert eject.parked_flits == -1
        self._drive(twins, 451, 501, run_flit)
        assert eject.last_lu > 0.0

    def test_arrival_on_the_boundary_blocks_parking(self):
        # The flit lands exactly at the boundary: zero occupancy time in
        # the closing window, but the buffer is not empty.
        twins = self._parked_twins()
        for manager, _ in twins:
            self._mesh_link(manager).link.propagation_cycles = 97

        def on_boundary(manager, topology, now):
            pal = self._mesh_link(manager)
            if now == 351:
                pal.link.push(Packet(1, 0, 1, 1, 0).make_flits()[0], now)
            self._hand_over(pal, now)
            if now == 470:
                pal.downstream_buffer[0].pop(now)

        self._drive(twins, self.PARKED_BY + 1, 451, on_boundary)
        pal = self._mesh_link(twins[0][0])
        assert pal.last_lu == 0.0 and pal.last_bu == 0.0
        assert pal.parked_flits == -1
        self._drive(twins, 451, 501, on_boundary)
        assert pal.last_bu > 0.0

    def test_hold_at_the_floor_does_not_park(self):
        # History 4, two demand windows at Lu 0.92, then silence: the
        # average sits at 0.46, between TL and TH, for two all-zero
        # windows (HOLD), and only then drops below TL (STEP_DOWN).
        twins = self._twins(history=4)
        self._drive(twins, 1, self.PARKED_BY + 1)

        def demand(manager, topology, now):
            if 350 < now <= 450 and now % 50 <= 45:
                for pal in manager.links:
                    pal.link.pressure_accum += 1.0

        self._drive(twins, self.PARKED_BY + 1, 501, demand)
        plain = twins[0][0]
        assert all(pal.policy.decisions[HOLD] == 2 and pal.last_lu == 0.0
                   for pal in plain.links)
        self._drive(twins, 501, 601, demand)
        assert all(pal.policy.decisions[HOLD] == 3 for pal in plain.links)

    def test_power_link_reset_clears_the_stamp(self):
        manager, _ = make_manager(window=50)
        drive(manager, self.PARKED_BY + 1)
        pal = manager.links[0]
        assert pal.parked_flits == 0
        pal.reset(manager.config.policy, manager.config.transitions, None)
        assert pal.parked_flits == -1

    def test_policy_hook_turns_parking_off(self):
        manager, _ = _full_path_twin(window=50)
        calls = []
        manager.hooks.add("policy", lambda *args: calls.append(args))
        drive(manager, 601)
        assert manager.link_windows_parked == 0
        assert len(calls) == 12 * len(manager.links)


class TestWindowCounters:
    def test_counters_cover_every_link_window(self):
        manager, _ = make_manager(window=50)
        drive(manager, 1001)
        windows = 1000 // 50
        assert manager.link_windows_parked > 0
        assert manager.link_windows_evaluated > 0
        assert manager.link_windows_evaluated + manager.link_windows_parked \
            == len(manager.links) * windows

    def test_reset_clears_counters(self):
        manager, _ = make_manager(window=50)
        drive(manager, 1001)
        manager.reset(manager.config)
        assert manager.link_windows_evaluated == 0
        assert manager.link_windows_parked == 0
        assert all(pal.parked_flits == -1 for pal in manager.links)

    def test_counters_stay_out_of_the_summary(self, tiny_sim_config):
        from repro.network.simulator import Simulator
        from repro.traffic.uniform import UniformRandomTraffic

        traffic = UniformRandomTraffic(
            tiny_sim_config.network.num_nodes, 0.0, seed=5)
        sim = Simulator(tiny_sim_config, traffic)
        sim.run(1500)
        assert sim.power.link_windows_parked > 0
        assert not any("link_windows" in key for key in sim.summary())
