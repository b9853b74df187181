"""Traffic trace file format, reader, writer and replay source.

The paper's realistic workloads are traces of SPLASH2 applications captured
on the RSIM multiprocessor simulator.  We define a plain-text trace format
(one record per line, comments with ``#``)::

    <cycle> <src_node> <dst_node> <size_flits>

sorted by cycle.  :class:`TraceReplaySource` replays a trace (from file or
memory) into the simulator; :func:`write_trace`/:func:`read_trace` round-trip
the format.  The synthetic SPLASH2-like generators in
:mod:`repro.traffic.splash` emit these records, so generated workloads can
be archived and replayed byte-identically.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import Iterable, TextIO

from repro.errors import ConfigError, TraceFormatError
from repro.network.packet import Packet
from repro.traffic.base import TrafficSource


@dataclass(frozen=True, order=True)
class TraceRecord:
    """One packet injection event of a trace."""

    cycle: int
    src: int
    dst: int
    size: int

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise TraceFormatError(f"cycle must be >= 0, got {self.cycle!r}")
        if self.src < 0 or self.dst < 0:
            raise TraceFormatError("node ids must be >= 0")
        if self.src == self.dst:
            raise TraceFormatError(f"src == dst == {self.src!r}")
        if self.size < 1:
            raise TraceFormatError(f"size must be >= 1 flit, got {self.size!r}")


def write_trace(records: Iterable[TraceRecord], stream: TextIO) -> int:
    """Write records to ``stream``; returns the number written."""
    count = 0
    stream.write("# repro traffic trace v1: cycle src dst size_flits\n")
    for record in records:
        stream.write(f"{record.cycle} {record.src} {record.dst} {record.size}\n")
        count += 1
    return count


def write_trace_file(records: Iterable[TraceRecord], path: str | Path) -> int:
    """Write records to a file; returns the number written."""
    with open(path, "w", encoding="ascii") as stream:
        return write_trace(records, stream)


def read_trace(stream: TextIO) -> list[TraceRecord]:
    """Parse a trace stream, validating ordering and field syntax."""
    records: list[TraceRecord] = []
    last_cycle = -1
    for line_no, line in enumerate(stream, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) != 4:
            raise TraceFormatError(
                f"line {line_no}: expected 4 fields, got {len(fields)}: {body!r}"
            )
        try:
            cycle, src, dst, size = (int(f) for f in fields)
        except ValueError as exc:
            raise TraceFormatError(
                f"line {line_no}: non-integer field in {body!r}"
            ) from exc
        if cycle < last_cycle:
            raise TraceFormatError(
                f"line {line_no}: cycles must be non-decreasing "
                f"({cycle} after {last_cycle})"
            )
        last_cycle = cycle
        records.append(TraceRecord(cycle, src, dst, size))
    return records


def read_trace_file(path: str | Path) -> list[TraceRecord]:
    """Parse a trace file."""
    with open(path, "r", encoding="ascii") as stream:
        return read_trace(stream)


def trace_from_string(text: str) -> list[TraceRecord]:
    """Parse a trace from an in-memory string (tests and docs)."""
    return read_trace(io.StringIO(text))


class TraceReplaySource(TrafficSource):
    """Replays a sorted list of :class:`TraceRecord` into the simulator."""

    def __init__(self, num_nodes: int, records: list[TraceRecord]):
        super().__init__(num_nodes, seed=0)
        cycles = [r.cycle for r in records]
        if cycles != sorted(cycles):
            raise TraceFormatError("trace records must be sorted by cycle")
        for record in records:
            if record.src >= num_nodes or record.dst >= num_nodes:
                raise ConfigError(
                    f"trace references node >= num_nodes={num_nodes}: {record!r}"
                )
        self.records = records
        self._cursor = 0

    @classmethod
    def from_file(cls, num_nodes: int, path: str | Path) -> "TraceReplaySource":
        return cls(num_nodes, read_trace_file(path))

    def generate(self, now: int) -> list[Packet]:
        packets = []
        records = self.records
        cursor = self._cursor
        while cursor < len(records) and records[cursor].cycle <= now:
            record = records[cursor]
            packets.append(
                self._make_packet(record.src, record.dst, record.size, now)
            )
            cursor += 1
        self._cursor = cursor
        return packets

    def exhausted(self, now: int) -> bool:
        return self._cursor >= len(self.records)

    def next_arrival(self, now: int) -> float:
        records = self.records
        cursor = self._cursor
        return records[cursor].cycle if cursor < len(records) else inf

    @property
    def remaining(self) -> int:
        """Records not yet injected."""
        return len(self.records) - self._cursor
