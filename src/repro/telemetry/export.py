"""Trace export: JSONL in, Perfetto/CSV/series out.

A recorded JSONL trace is self-sufficient: every exporter here works from
the file alone, with no simulator state.  Three consumers are supported:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format, loadable in Perfetto (https://ui.perfetto.dev):
  power samples become a counter track, transitions become duration slices
  on one track per link, policy/fault records become instant events, and
  packet samples become slices spanning creation to ejection.  Timestamps
  are router cycles, mapped 1:1 onto the format's microsecond field —
  durations read in "cycles" directly.
* :func:`to_csv` — flat per-kind CSV time series for pandas/gnuplot.
* :func:`power_series_from_trace` — rebuilds the ``(cycle, watts)`` power
  series, which is all a Fig. 6(d)-style power-over-time plot needs (see
  :func:`repro.experiments.fig6.relative_power_from_trace`).
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Iterator
from typing import Any

from repro.errors import ConfigError
from repro.telemetry.config import (
    KIND_EXEC_CRASH,
    KIND_EXEC_POINT,
    KIND_FAULT,
    KIND_LINK_FAILURE,
    KIND_PACKET,
    KIND_POLICY,
    KIND_POWER,
    KIND_RETRANSMIT,
    KIND_TRANSITION,
)

#: CSV column order per event kind (matches the event dataclasses).
#: Simulation kinds lead with ``cycle``; the executor kinds lead with
#: ``seq`` (the executor has no simulator clock).
CSV_COLUMNS = {
    KIND_TRANSITION: ("cycle", "link_id", "link_kind", "direction",
                      "from_level", "to_level", "duration", "accepted"),
    KIND_POLICY: ("cycle", "window_start", "link_id", "link_kind", "lu",
                  "bu", "decision", "level", "band"),
    KIND_POWER: ("cycle", "watts"),
    KIND_PACKET: ("cycle", "packet_id", "src", "dst", "size", "latency"),
    KIND_FAULT: ("cycle", "link_id", "packet_id"),
    KIND_RETRANSMIT: ("cycle", "link_id", "packet_id", "attempt"),
    KIND_LINK_FAILURE: ("cycle", "link_id"),
    KIND_EXEC_POINT: ("seq", "label", "key", "status", "attempt",
                      "elapsed"),
    KIND_EXEC_CRASH: ("seq", "label", "key", "attempt", "cause"),
}


def iter_trace(path: str) -> Iterator[dict[str, Any]]:
    """Yield every record of a JSONL trace file, in file order."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}:{number}: not valid JSON ({exc.msg})"
                ) from None
            if not isinstance(record, dict) or "kind" not in record:
                raise ConfigError(
                    f"{path}:{number}: trace records must be JSON objects "
                    f"with a 'kind' field"
                )
            yield record


def read_trace(path: str) -> list[dict[str, Any]]:
    """Read a whole JSONL trace file into memory."""
    return list(iter_trace(path))


def power_series_from_trace(records: Iterable[dict[str, Any]]
                            ) -> list[tuple[int, float]]:
    """Rebuild the ``(cycle, watts)`` power series from trace records.

    This is exactly ``NetworkPowerManager.power_series`` when the trace
    recorded the ``power`` kind — the Fig. 6(d) power-over-time series
    falls out of the trace file alone.
    """
    return [
        (int(record["cycle"]), float(record["watts"]))
        for record in records
        if record.get("kind") == KIND_POWER
    ]


def summarize_trace(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate counts and spans for ``repro trace summarize``."""
    counts: dict[str, int] = {}
    first_cycle: int | None = None
    last_cycle: int | None = None
    links: set[int] = set()
    watts_min = math.inf
    watts_max = -math.inf
    watts_sum = 0.0
    watts_n = 0
    latency_sum = 0.0
    latency_n = 0
    for record in records:
        kind = record.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
        cycle = record.get("cycle")
        if cycle is not None:
            if first_cycle is None or cycle < first_cycle:
                first_cycle = cycle
            if last_cycle is None or cycle > last_cycle:
                last_cycle = cycle
        link_id = record.get("link_id")
        if link_id is not None:
            links.add(link_id)
        if kind == KIND_POWER:
            watts = float(record["watts"])
            watts_min = min(watts_min, watts)
            watts_max = max(watts_max, watts)
            watts_sum += watts
            watts_n += 1
        elif kind == KIND_PACKET:
            latency_sum += float(record["latency"])
            latency_n += 1
    summary: dict[str, Any] = {
        "events": sum(counts.values()),
        "counts": counts,
        "first_cycle": first_cycle,
        "last_cycle": last_cycle,
        "links_seen": len(links),
    }
    if watts_n:
        summary["power_min_w"] = watts_min
        summary["power_mean_w"] = watts_sum / watts_n
        summary["power_max_w"] = watts_max
    if latency_n:
        summary["packet_mean_latency"] = latency_sum / latency_n
    return summary


# -- Chrome trace-event JSON (Perfetto) ---------------------------------------

#: Synthetic process ids grouping the Perfetto tracks.
_PID_POWER = 1
_PID_LINKS = 2
_PID_PACKETS = 3
_PID_RELIABILITY = 4
_PID_EXECUTOR = 5

_PROCESS_NAMES = {
    _PID_POWER: "network power",
    _PID_LINKS: "links",
    _PID_PACKETS: "packets",
    _PID_RELIABILITY: "reliability",
    _PID_EXECUTOR: "sweep executor",
}


def to_chrome_trace(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Convert trace records to a Chrome trace-event JSON object."""
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": name}}
        for pid, name in _PROCESS_NAMES.items()
    ]
    for record in records:
        kind = record.get("kind")
        cycle = record.get("cycle", 0)
        if kind == KIND_POWER:
            events.append({
                "name": "link power (W)", "ph": "C", "ts": cycle,
                "pid": _PID_POWER, "tid": 0,
                "args": {"watts": record["watts"]},
            })
        elif kind == KIND_TRANSITION:
            events.append({
                "name": (f"level {record['from_level']}->"
                         f"{record['to_level']}"),
                "cat": "transition", "ph": "X", "ts": cycle,
                "dur": max(float(record.get("duration", 0.0)), 1.0),
                "pid": _PID_LINKS, "tid": record["link_id"],
                "args": {
                    "direction": record.get("direction"),
                    "accepted": record.get("accepted"),
                    "link_kind": record.get("link_kind"),
                },
            })
        elif kind == KIND_POLICY:
            events.append({
                "name": f"window:{record.get('decision', '?')}",
                "cat": "policy", "ph": "i", "ts": cycle, "s": "t",
                "pid": _PID_LINKS, "tid": record["link_id"],
                "args": {
                    "lu": record.get("lu"),
                    "bu": record.get("bu"),
                    "level": record.get("level"),
                    "band": record.get("band"),
                },
            })
        elif kind == KIND_PACKET:
            latency = float(record.get("latency", 0.0))
            events.append({
                "name": f"pkt {record.get('packet_id', '?')}",
                "cat": "packet", "ph": "X",
                "ts": cycle - latency, "dur": max(latency, 1.0),
                "pid": _PID_PACKETS, "tid": record.get("src", 0),
                "args": {
                    "dst": record.get("dst"),
                    "size": record.get("size"),
                    "latency": latency,
                },
            })
        elif kind in (KIND_FAULT, KIND_RETRANSMIT, KIND_LINK_FAILURE):
            events.append({
                "name": kind, "cat": "reliability", "ph": "i",
                "ts": cycle, "s": "t",
                "pid": _PID_RELIABILITY, "tid": record.get("link_id", 0),
                "args": {k: v for k, v in record.items()
                         if k not in ("kind", "cycle")},
            })
        elif kind in (KIND_EXEC_POINT, KIND_EXEC_CRASH):
            # Executor events carry no cycle; order by their sequence
            # number so the timeline reads as sweep progress.
            name = kind
            if kind == KIND_EXEC_POINT:
                name = f"{record.get('status', '?')}:{record.get('label')}"
            events.append({
                "name": name, "cat": "executor", "ph": "i",
                "ts": record.get("seq", 0), "s": "t",
                "pid": _PID_EXECUTOR, "tid": 0,
                "args": {k: v for k, v in record.items()
                         if k not in ("kind", "seq")},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"time_unit": "router cycles"}}


def write_chrome_trace(records: Iterable[dict[str, Any]],
                       path: str) -> int:
    """Write Chrome trace-event JSON; returns the event count."""
    trace = to_chrome_trace(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return len(trace["traceEvents"])


def to_csv(records: Iterable[dict[str, Any]], kind: str, path: str) -> int:
    """Write one kind's records as a CSV time series; returns row count."""
    columns = CSV_COLUMNS.get(kind)
    if columns is None:
        raise ConfigError(
            f"unknown trace kind {kind!r}; known: {tuple(CSV_COLUMNS)}"
        )
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for record in records:
            if record.get("kind") != kind:
                continue
            writer.writerow([record.get(column) for column in columns])
            rows += 1
    return rows
