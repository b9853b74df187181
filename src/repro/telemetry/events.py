"""Typed, timestamped trace events.

Every event is a frozen slotted dataclass with a class-level ``kind`` tag.
:func:`event_to_dict` flattens one into a plain JSON-ready dict (``kind``
first, then the fields in declaration order) and :func:`event_from_dict`
round-trips it back, so sinks and exporters can work on either
representation.  All timestamps are router cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar

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

#: Decision integers (:mod:`repro.core.policy`) to trace spelling.
DECISION_NAMES = {1: "up", 0: "hold", -1: "down"}


@dataclass(frozen=True, slots=True)
class TransitionEvent:
    """A ladder step that started, committed instantly, or was deferred.

    No-op step requests (at a ladder end, or swallowed while another
    transition was in flight) produce no event — the per-window policy
    record carries every decision including those.
    """

    kind: ClassVar[str] = KIND_TRANSITION

    cycle: int
    link_id: int
    link_kind: str
    direction: str
    from_level: int
    to_level: int
    #: Expected cycles until the step commits (voltage ramp + CDR relock);
    #: 0.0 when the step completed instantly or is still deferred.
    duration: float
    #: Whether the transition engine actually started (or instantly
    #: completed) the step; False when it was deferred pending external
    #: optical light (``to_level`` is then the level it is waiting for).
    accepted: bool


@dataclass(frozen=True, slots=True)
class PolicyEvent:
    """One link's window-boundary policy evaluation record."""

    kind: ClassVar[str] = KIND_POLICY

    cycle: int
    window_start: int
    link_id: int
    link_kind: str
    lu: float
    bu: float
    decision: str
    level: int
    #: Optical band (multi-optical modulator systems), else ``None``.
    band: int | None


@dataclass(frozen=True, slots=True)
class PowerEvent:
    """An instantaneous network link power sample."""

    kind: ClassVar[str] = KIND_POWER

    cycle: int
    watts: float


@dataclass(frozen=True, slots=True)
class PacketEvent:
    """A delivered packet's lifecycle sample (creation through ejection)."""

    kind: ClassVar[str] = KIND_PACKET

    cycle: int
    packet_id: int
    src: int
    dst: int
    size: int
    latency: float


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """A flit failing its CRC check at a link's receiving end."""

    kind: ClassVar[str] = KIND_FAULT

    cycle: int
    link_id: int
    packet_id: int


@dataclass(frozen=True, slots=True)
class RetransmitEvent:
    """A corrupted flit's scheduled link-level retransmission."""

    kind: ClassVar[str] = KIND_RETRANSMIT

    cycle: int
    link_id: int
    packet_id: int
    attempt: int


@dataclass(frozen=True, slots=True)
class LinkFailureEvent:
    """A scheduled hard link failure taking effect."""

    kind: ClassVar[str] = KIND_LINK_FAILURE

    cycle: int
    link_id: int


@dataclass(frozen=True, slots=True)
class ExecPointEvent:
    """A sweep point reaching a terminal state in the executor.

    Executor events are stamped with a monotonically increasing ``seq``
    instead of a simulator cycle: the executor sits *outside* any run,
    and wall-clock timestamps would break trace determinism.  ``elapsed``
    (wall seconds of the point's attempt) is the only wall quantity, and it
    is data, not ordering.
    """

    kind: ClassVar[str] = KIND_EXEC_POINT

    seq: int
    label: str
    key: str
    #: ``done`` (executed), ``cached`` (journal hit) or ``failed``.
    status: str
    attempt: int
    elapsed: float


@dataclass(frozen=True, slots=True)
class ExecCrashEvent:
    """A worker-process death detected under a sweep point."""

    kind: ClassVar[str] = KIND_EXEC_CRASH

    seq: int
    label: str
    key: str
    attempt: int
    cause: str


#: kind tag -> event class, for deserialisation.
EVENT_TYPES = {
    cls.kind: cls
    for cls in (TransitionEvent, PolicyEvent, PowerEvent, PacketEvent,
                FaultEvent, RetransmitEvent, LinkFailureEvent,
                ExecPointEvent, ExecCrashEvent)
}


def event_to_dict(event: Any) -> dict[str, Any]:
    """Flatten an event into a JSON-ready dict (``kind`` key first)."""
    out: dict[str, Any] = {"kind": event.kind}
    for field in fields(event):
        out[field.name] = getattr(event, field.name)
    return out


def event_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a typed event from :func:`event_to_dict` output."""
    try:
        kind = data["kind"]
    except KeyError:
        raise ConfigError(f"trace record without a 'kind' field: {data!r}") \
            from None
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown trace event kind {kind!r}; known: "
            f"{tuple(EVENT_TYPES)}"
        )
    payload = {k: v for k, v in data.items() if k != "kind"}
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigError(f"malformed {kind!r} trace record: {exc}") from None
