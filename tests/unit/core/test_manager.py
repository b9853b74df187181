"""Unit tests for the network-wide power manager."""

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
from repro.engine.wheel import EventWheel
from repro.errors import ConfigError
from repro.network.packet import Packet
from repro.network.stats import StatsCollector
from repro.network.topology import ClusteredMesh


def make_manager(technology=VCSEL, optical_levels=1, window=100,
                 link_off=False, pressure_aware=True, history=1):
    network = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                            buffer_depth=8, num_vcs=2)
    topology = ClusteredMesh(network, StatsCollector())
    power = PowerAwareConfig(
        technology=technology,
        optical_levels=optical_levels,
        link_off=link_off,
        policy=PolicyConfig(window_cycles=window, history_windows=history,
                            pressure_aware_utilisation=pressure_aware),
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


class TestTransitionIterationDeterminism:
    """Transition completions are wheel events; those falling due in the
    same cycle must fire in link-id order, whatever order the links
    entered ``_transitioning`` (a set of identity-hashed links, so its
    iteration order varies between processes)."""

    def test_same_cycle_transition_wakes_fire_in_link_id_order(
            self, monkeypatch):
        from repro.core.power_link import PowerAwareLink

        manager, _ = make_manager(window=50)
        order: list[int] = []
        original = PowerAwareLink.advance

        def spy(self, now):
            order.append(self.link.link_id)
            original(self, now)

        monkeypatch.setattr(PowerAwareLink, "advance", spy)
        # An idle first window makes every link request a down-step at the
        # same boundary: all of them enter _transitioning together, and
        # every 2-cycle relock falls due at cycle 52.
        drive(manager, 51)
        assert len(manager._transitioning) == len(manager.links)
        order.clear()
        drive(manager, 53)
        assert len(order) == len(manager.links)
        assert order == sorted(order)

    def test_completed_transitions_discarded_during_iteration(self):
        manager, _ = make_manager(window=50)
        drive(manager, 51)
        assert manager._transitioning
        # The 12-cycle down transitions (2 relock + 10 ramp) all finish
        # well before the next window; each wake must discard its link.
        drive(manager, 70)
        assert not manager._transitioning
        assert all(pal.engine.steps_down == 1 for pal in manager.links)


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
            for flit in pal.link.pop_arrivals(now):
                pal.downstream_buffer[0].push(flit, now)
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
            for flit in pal.link.pop_arrivals(now):
                pal.downstream_buffer[0].push(flit, now)
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
            for flit in pal.link.pop_arrivals(now):
                pal.downstream_buffer[0].push(flit, now)
            if now == 520:
                pal.downstream_buffer[0].pop(now)

        self._drive(twins, self.PARKED_BY + 1, 451, slow)
        pal = self._mesh_link(twins[0][0])
        assert pal.last_lu == 0.0 and pal.last_bu == 0.0
        assert pal.parked_flits == -1  # idle window, but a flit in flight
        self._drive(twins, 451, 501, slow)
        assert pal.last_bu > 0.0

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
            for flit in pal.link.pop_arrivals(now):
                pal.downstream_buffer[0].push(flit, now)
            if now == 470:
                pal.downstream_buffer[0].pop(now)

        self._drive(twins, self.PARKED_BY + 1, 451, on_boundary)
        pal = self._mesh_link(twins[0][0])
        assert pal.last_lu == 0.0 and pal.last_bu == 0.0
        assert pal.parked_flits == -1
        self._drive(twins, 451, 501, on_boundary)
        assert pal.last_bu > 0.0

    def test_sleep_blocked_by_ignored_pressure_does_not_park(self):
        # With pressure left out of Lu, demand with no push reads Lu = 0
        # but still keeps a sleep-armed floor link awake (a rejected
        # STEP_DOWN); once the demand stops, the next window sleeps.
        twins = self._twins(link_off=True, pressure_aware=False)

        def demand(manager, topology, now):
            if 250 < now <= 300:
                for pal in manager.links:
                    pal.link.pressure_accum += 1.0

        self._drive(twins, 1, 301, demand)
        plain = twins[0][0]
        assert plain.level_histogram()[0] == len(plain.links)
        assert plain.asleep_count() == 0
        self._drive(twins, 301, 351, demand)
        sleepers = sum(pal.can_sleep for pal in plain.links)
        assert sleepers > 0
        assert plain.asleep_count() == sleepers

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
