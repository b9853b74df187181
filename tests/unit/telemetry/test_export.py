"""Unit tests for the trace exporters (Perfetto JSON, CSV, summaries)."""

import json

import pytest

from repro.errors import ConfigError
from repro.telemetry.export import (
    iter_trace,
    power_series_from_trace,
    read_trace,
    summarize_trace,
    to_chrome_trace,
    to_csv,
    write_chrome_trace,
)

RECORDS = [
    {"kind": "power", "cycle": 0, "watts": 10.0},
    {"kind": "power", "cycle": 100, "watts": 6.0},
    {"kind": "power", "cycle": 200, "watts": 8.0},
    {"kind": "transition", "cycle": 60, "link_id": 2, "link_kind": "mesh",
     "direction": "down", "from_level": 5, "to_level": 4, "duration": 12.0,
     "accepted": True},
    {"kind": "policy", "cycle": 60, "window_start": 0, "link_id": 2,
     "link_kind": "mesh", "lu": 0.1, "bu": 0.0, "decision": "down",
     "level": 5, "band": None},
    {"kind": "packet", "cycle": 90, "packet_id": 4, "src": 1, "dst": 6,
     "size": 4, "latency": 20.0},
    {"kind": "fault", "cycle": 95, "link_id": 3, "packet_id": 4},
]

EXEC_RECORDS = [
    {"kind": "exec_crash", "seq": 1, "label": "p0", "key": "k0",
     "attempt": 1, "cause": "crash"},
    {"kind": "exec_point", "seq": 2, "label": "p0", "key": "k0",
     "status": "done", "attempt": 1, "elapsed": 3.25},
]


class TestSeriesAndSummary:
    def test_power_series_from_trace(self):
        assert power_series_from_trace(RECORDS) == [
            (0, 10.0), (100, 6.0), (200, 8.0),
        ]

    def test_summarize_trace(self):
        summary = summarize_trace(RECORDS)
        assert summary["events"] == len(RECORDS)
        assert summary["counts"]["power"] == 3
        assert summary["first_cycle"] == 0
        assert summary["last_cycle"] == 200
        assert summary["links_seen"] == 2
        assert summary["power_min_w"] == 6.0
        assert summary["power_max_w"] == 10.0
        assert summary["power_mean_w"] == pytest.approx(8.0)
        assert summary["packet_mean_latency"] == pytest.approx(20.0)

    def test_summarize_empty(self):
        summary = summarize_trace([])
        assert summary["events"] == 0
        assert summary["first_cycle"] is None
        assert "power_mean_w" not in summary


class TestChromeTrace:
    def test_structure_and_timestamps(self):
        trace = to_chrome_trace(RECORDS)
        events = trace["traceEvents"]
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        # Metadata names the five synthetic processes.
        assert {e["args"]["name"] for e in by_ph["M"]} == {
            "network power", "links", "packets", "reliability",
            "sweep executor"}
        assert len(by_ph["C"]) == 3  # power counter samples
        # Packet slices span creation -> ejection.
        packet = next(e for e in by_ph["X"] if e["cat"] == "packet")
        assert packet["ts"] == 70.0 and packet["dur"] == 20.0
        transition = next(e for e in by_ph["X"] if e["cat"] == "transition")
        assert transition["ts"] == 60 and transition["dur"] == 12.0
        assert transition["tid"] == 2
        # Policy + fault become instants.
        assert {e["cat"] for e in by_ph["i"]} == {"policy", "reliability"}

    def test_executor_events_sequence_ordered_instants(self):
        trace = to_chrome_trace(EXEC_RECORDS)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert [e["cat"] for e in instants] == ["executor", "executor"]
        assert [e["ts"] for e in instants] == [1, 2]
        assert instants[0]["name"] == "exec_crash"
        assert instants[1]["name"] == "done:p0"
        assert instants[1]["args"]["elapsed"] == 3.25

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(RECORDS, str(path))
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count
        assert data["otherData"]["time_unit"] == "router cycles"


class TestCsv:
    def test_single_kind_rows(self, tmp_path):
        path = tmp_path / "power.csv"
        rows = to_csv(RECORDS, "power", str(path))
        lines = path.read_text().splitlines()
        assert rows == 3
        assert lines[0] == "cycle,watts"
        assert lines[1] == "0,10.0"
        assert len(lines) == 4

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            to_csv(RECORDS, "teleport", str(tmp_path / "x.csv"))


class TestJsonlParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        return str(path)

    def test_round_trip_with_blank_lines(self, tmp_path):
        text = "\n".join(json.dumps(r) for r in RECORDS[:2]) + "\n\n"
        path = self.write(tmp_path, text)
        assert read_trace(path) == RECORDS[:2]

    def test_invalid_json_line_reported_with_number(self, tmp_path):
        path = self.write(tmp_path, '{"kind": "power"}\nnot json\n')
        with pytest.raises(ConfigError, match=":2:"):
            list(iter_trace(path))

    def test_records_must_be_objects_with_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            list(iter_trace(self.write(tmp_path, "[1, 2]\n")))
        with pytest.raises(ConfigError):
            list(iter_trace(self.write(tmp_path, '{"cycle": 3}\n')))
