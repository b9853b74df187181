"""Telemetry configuration.

A :class:`TelemetryConfig` describes *what* a run records (event kinds, an
optional link subset, a packet sampling stride) and *where* the events go
(a bounded in-memory ring buffer by default, a JSONL file with optional
size-based rotation when ``path`` is set).  ``SimulationConfig.telemetry``
is ``None`` by default — no recorder is built, no hooks are registered,
and the run is bit-identical to a build without the telemetry subsystem.

Bounding is a design requirement, not an option: every sink is O(config)
memory however long the run is — the ring buffer drops the oldest events
past ``buffer_events``, the file sink rotates past ``rotate_bytes`` and
keeps at most ``max_rotated_files`` old segments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Per-link ladder transition requests (direction, levels, duration).
KIND_TRANSITION = "transition"
#: Per-link per-window policy records: (Lu, Bu, decision, level, band).
KIND_POLICY = "policy"
#: Instantaneous network power samples (the Fig. 6(d) series).
KIND_POWER = "power"
#: Packet lifecycle samples (delivery with latency), every Nth packet.
KIND_PACKET = "packet"
#: CRC-corruption fault trials (fault-injected runs only).
KIND_FAULT = "fault"
#: Scheduled link-level retransmissions (fault-injected runs only).
KIND_RETRANSMIT = "retransmit"
#: Hard link failures taking effect (fault-injected runs only).
KIND_LINK_FAILURE = "link_failure"
#: Sweep points reaching a terminal state (executor traces only).
KIND_EXEC_POINT = "exec_point"
#: Worker-process deaths detected under a point (executor traces only).
KIND_EXEC_CRASH = "exec_crash"

#: Every *simulation* event kind, in a stable presentation order.  This
#: is what :class:`TelemetryConfig.kinds` selects from; the executor
#: kinds live in their own namespace because they describe the sweep
#: harness around runs, not any single run, and are recorded by
#: :class:`~repro.telemetry.recorder.ExecutorRecorder` unconditionally.
ALL_KINDS = (
    KIND_TRANSITION, KIND_POLICY, KIND_POWER, KIND_PACKET,
    KIND_FAULT, KIND_RETRANSMIT, KIND_LINK_FAILURE,
)

#: The sweep-executor lifecycle kinds (see docs/execution.md).
EXECUTOR_KINDS = (KIND_EXEC_POINT, KIND_EXEC_CRASH)


@dataclass(frozen=True)
class TelemetryConfig:
    """What one run's trace records and where it streams to."""

    #: Event kinds to record (subset of :data:`ALL_KINDS`).
    kinds: tuple[str, ...] = ALL_KINDS
    #: Record only these link ids (``None`` = every link).  Applies to the
    #: link-scoped kinds (transition, policy, fault, retransmit,
    #: link_failure); power samples are network-wide and packet lifecycle
    #: records are node-scoped, so both are unaffected.
    link_ids: tuple[int, ...] | None = None
    #: Record every Nth delivered packet (1 = all packets).
    packet_sample_every: int = 1
    #: Ring-buffer capacity, events (memory sink only).
    buffer_events: int = 65_536
    #: JSONL output path; ``None`` keeps events in the ring buffer.
    path: str | None = None
    #: Rotate the JSONL file when it would exceed this many bytes
    #: (``None`` = never rotate).
    rotate_bytes: int | None = None
    #: Rotated segments kept (``trace.jsonl.1`` ... ``.N``); older ones
    #: are deleted.
    max_rotated_files: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if self.link_ids is not None:
            object.__setattr__(self, "link_ids", tuple(self.link_ids))
        if not self.kinds:
            raise ConfigError("telemetry needs at least one event kind")
        for kind in self.kinds:
            if kind not in ALL_KINDS:
                raise ConfigError(
                    f"unknown telemetry kind {kind!r}; known: {ALL_KINDS}"
                )
        if self.link_ids is not None:
            for link_id in self.link_ids:
                if link_id < 0:
                    raise ConfigError(
                        f"link ids must be >= 0, got {link_id!r}"
                    )
        if self.packet_sample_every < 1:
            raise ConfigError("packet_sample_every must be >= 1")
        if self.buffer_events < 1:
            raise ConfigError("buffer_events must be >= 1")
        if self.rotate_bytes is not None and self.rotate_bytes < 1:
            raise ConfigError("rotate_bytes must be >= 1 or None")
        if self.max_rotated_files < 1:
            raise ConfigError("max_rotated_files must be >= 1")


def parse_kinds(spec: str) -> tuple[str, ...]:
    """Parse a CLI ``kind,kind,...`` list (``all`` = every kind)."""
    spec = spec.strip()
    if spec == "all":
        return ALL_KINDS
    kinds = tuple(part.strip() for part in spec.split(",") if part.strip())
    if not kinds:
        raise ConfigError(f"empty telemetry kind list {spec!r}")
    return kinds
