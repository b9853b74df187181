"""Unit tests for the typed trace events and their dict round-trip."""

import pytest

from repro.errors import ConfigError
from repro.telemetry.events import (
    EVENT_TYPES,
    ExecCrashEvent,
    ExecPointEvent,
    FaultEvent,
    LinkFailureEvent,
    PacketEvent,
    PolicyEvent,
    PowerEvent,
    RetransmitEvent,
    TransitionEvent,
    event_from_dict,
    event_to_dict,
)

SAMPLES = (
    TransitionEvent(cycle=120, link_id=3, link_kind="mesh", direction="down",
                    from_level=5, to_level=4, duration=12.0, accepted=True),
    PolicyEvent(cycle=120, window_start=60, link_id=3, link_kind="mesh",
                lu=0.25, bu=0.1, decision="hold", level=4, band=None),
    PowerEvent(cycle=100, watts=12.5),
    PacketEvent(cycle=90, packet_id=7, src=0, dst=5, size=4, latency=18.0),
    FaultEvent(cycle=77, link_id=2, packet_id=9),
    RetransmitEvent(cycle=80, link_id=2, packet_id=9, attempt=1),
    LinkFailureEvent(cycle=500, link_id=11),
    ExecPointEvent(seq=0, label="Tw=100/light", key="ab" * 32,
                   status="done", attempt=1, elapsed=3.5),
    ExecCrashEvent(seq=1, label="Tw=100/light", key="ab" * 32,
                   attempt=1, cause="crash"),
)


class TestRoundTrip:
    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
    def test_to_dict_and_back(self, event):
        data = event_to_dict(event)
        assert data["kind"] == event.kind
        assert next(iter(data)) == "kind"  # kind leads the JSON object
        assert event_from_dict(data) == event

    def test_every_kind_registered(self):
        assert set(EVENT_TYPES) == {e.kind for e in SAMPLES}


class TestErrors:
    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigError):
            event_from_dict({"cycle": 1})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            event_from_dict({"kind": "teleport", "cycle": 1})

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigError):
            event_from_dict({"kind": "power", "cycle": 1})  # watts missing
        with pytest.raises(ConfigError):
            event_from_dict({"kind": "power", "cycle": 1, "watts": 2.0,
                             "bogus": True})
