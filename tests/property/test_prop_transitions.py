"""Property tests: the transition engine under random request schedules.

Drives the state machine with arbitrary (direction, gap) request sequences
and asserts the invariants the energy accounting and the simulator rely
on: levels stay on the ladder, the link's configured service time always
corresponds to the engine's operating level, billing never drops below
both endpoint levels mid-transition, and disabled windows appear only
around frequency hops.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TransitionConfig
from repro.core.levels import BitRateLadder
from repro.core.transitions import LinkTransitionEngine, TransitionState
from repro.network.links import MESH, Link

LADDER = BitRateLadder.paper_default()


def service_time(level: int) -> float:
    return LADDER.max_rate / LADDER.rate(level)


SERVICE_TIMES = tuple(service_time(level)
                      for level in range(LADDER.num_levels))


@st.composite
def schedules(draw):
    tv = draw(st.integers(min_value=0, max_value=40))
    tbr = draw(st.integers(min_value=0, max_value=10))
    initial = draw(st.integers(min_value=0, max_value=LADDER.top_level))
    events = draw(st.lists(
        st.tuples(st.sampled_from([-1, 1]),
                  st.integers(min_value=1, max_value=120)),
        min_size=0, max_size=30,
    ))
    return tv, tbr, initial, events


class TestEngineProperties:
    @given(schedules())
    @settings(max_examples=200)
    def test_level_and_service_time_invariants(self, schedule):
        tv, tbr, initial, events = schedule
        link = Link(0, MESH)
        config = TransitionConfig(bit_rate_transition_cycles=tbr,
                                  voltage_transition_cycles=tv)
        engine = LinkTransitionEngine(link, LADDER, config, SERVICE_TIMES,
                                      initial)
        now = 0.0
        for direction, gap in events:
            now += gap
            engine.advance(now)
            engine.request_step(direction, now)
            # Invariants after every action:
            assert 0 <= engine.level <= LADDER.top_level
            assert 0 <= engine.target <= LADDER.top_level
            assert abs(engine.target - engine.level) <= 1
            assert link.service_time == service_time(
                LADDER.level_for_rate(engine.operating_rate)
            )
            assert engine.billing_level == max(engine.level, engine.target)
        # Let everything settle; the engine must reach STABLE.
        now += tv + tbr + 1
        engine.advance(now)
        assert engine.state is TransitionState.STABLE
        assert engine.level == engine.target

    @given(schedules())
    @settings(max_examples=200)
    def test_accepted_steps_match_counters(self, schedule):
        tv, tbr, initial, events = schedule
        link = Link(0, MESH)
        config = TransitionConfig(bit_rate_transition_cycles=tbr,
                                  voltage_transition_cycles=tv)
        engine = LinkTransitionEngine(link, LADDER, config, SERVICE_TIMES,
                                      initial)
        now = 0.0
        accepted_up = accepted_down = 0
        for direction, gap in events:
            now += gap
            engine.advance(now)
            if engine.request_step(direction, now):
                if direction > 0:
                    accepted_up += 1
                else:
                    accepted_down += 1
        assert engine.steps_up == accepted_up
        assert engine.steps_down == accepted_down
        # Net level change must match accepted steps once settled.
        engine.advance(now + tv + tbr + 1)
        assert engine.level == initial + accepted_up - accepted_down

    @given(schedules())
    @settings(max_examples=100)
    def test_disabled_time_bounded_by_transitions(self, schedule):
        tv, tbr, initial, events = schedule
        link = Link(0, MESH)
        config = TransitionConfig(bit_rate_transition_cycles=tbr,
                                  voltage_transition_cycles=tv)
        engine = LinkTransitionEngine(link, LADDER, config, SERVICE_TIMES,
                                      initial)
        now = 0.0
        for direction, gap in events:
            now += gap
            engine.advance(now)
            engine.request_step(direction, now)
        engine.advance(now + tv + tbr + 1)
        total_steps = engine.steps_up + engine.steps_down
        assert engine.disabled_cycles == total_steps * tbr
