"""Property tests: the full power-aware link under random window samples.

Feeds a real :class:`PowerAwareLink` random per-window (busy, pressure,
buffer-occupancy) observations — bypassing the network but exercising the
policy -> transition -> energy pipeline end to end — and asserts the
system-level invariants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PolicyConfig, TransitionConfig
from repro.core.levels import BitRateLadder
from repro.core.power_link import PowerAwareLink
from repro.network.buffers import InputBuffer
from repro.network.links import MESH, Link
from repro.photonics.power_model import LinkPowerModel

WINDOW = 100.0
LADDER = BitRateLadder.paper_default()


@st.composite
def window_samples(draw):
    """Per-window (busy fraction, pressure fraction) observations."""
    count = draw(st.integers(min_value=1, max_value=40))
    return [
        (
            draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
            draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        )
        for _ in range(count)
    ]


def make_pal() -> tuple[PowerAwareLink, Link]:
    link = Link(0, MESH)
    pal = PowerAwareLink(
        link=link,
        ladder=LADDER,
        power_model=LinkPowerModel.vcsel_link(),
        policy_config=PolicyConfig(window_cycles=int(WINDOW),
                                   history_windows=2),
        transition_config=TransitionConfig(
            bit_rate_transition_cycles=3, voltage_transition_cycles=12,
        ),
        service_times=tuple(LADDER.max_rate / rate for rate in LADDER.rates),
        downstream_buffer=(InputBuffer(8),),
    )
    return pal, link


def drive(pal: PowerAwareLink, link: Link, samples) -> float:
    """Run the window loop; returns the final simulation time."""
    start = 0.0
    for busy, pressure in samples:
        end = start + WINDOW
        link.busy_accum = busy * WINDOW
        link.pressure_accum = pressure * WINDOW
        pal.on_window(start, end)
        for t in range(int(end), int(end) + 20):
            pal.advance(float(t))
        start = end
    settle = start + 20.0
    pal.advance(settle)
    return settle


class TestPowerLinkProperties:
    @given(window_samples())
    @settings(max_examples=150)
    def test_level_always_on_ladder(self, samples):
        pal, link = make_pal()
        drive(pal, link, samples)
        assert 0 <= pal.level <= LADDER.top_level

    @given(window_samples())
    @settings(max_examples=150)
    def test_energy_bounded_by_power_envelope(self, samples):
        pal, link = make_pal()
        end = drive(pal, link, samples)
        pal.finalize(end)
        energy = pal.energy_watt_cycles
        assert pal.level_powers[0] * end <= energy + 1e-9
        assert energy <= pal.level_powers[-1] * end + 1e-9

    @given(window_samples())
    @settings(max_examples=150)
    def test_sustained_saturation_reaches_top(self, samples):
        pal, link = make_pal()
        drive(pal, link, samples)
        # Append a long saturated run: the link must climb to the top.
        start = (len(samples) + 1) * WINDOW
        for i in range(20):
            end = start + WINDOW
            link.busy_accum = WINDOW
            link.pressure_accum = WINDOW
            pal.on_window(start, end)
            for t in range(int(end), int(end) + 20):
                pal.advance(float(t))
            start = end
        assert pal.level == LADDER.top_level

    @given(window_samples())
    @settings(max_examples=150)
    def test_sustained_idle_reaches_bottom(self, samples):
        pal, link = make_pal()
        drive(pal, link, samples)
        start = (len(samples) + 1) * WINDOW
        for i in range(20):
            end = start + WINDOW
            link.busy_accum = 0.0
            link.pressure_accum = 0.0
            pal.on_window(start, end)
            for t in range(int(end), int(end) + 20):
                pal.advance(float(t))
            start = end
        assert pal.level == 0

    @given(window_samples())
    @settings(max_examples=100)
    def test_transitions_bounded_by_windows(self, samples):
        pal, link = make_pal()
        drive(pal, link, samples)
        counts = pal.transition_counts()
        # At most one step per window observation.
        assert counts["up"] + counts["down"] <= len(samples)
        assert pal.windows_observed == len(samples)

    @given(window_samples())
    @settings(max_examples=100)
    def test_average_power_is_fraction_of_max(self, samples):
        pal, link = make_pal()
        end = drive(pal, link, samples)
        pal.finalize(end)
        relative = pal.average_power(end) / pal.level_powers[-1]
        floor = pal.level_powers[0] / pal.level_powers[-1]
        assert floor - 1e-9 <= relative <= 1.0 + 1e-9
