"""The sweep journal: a persistent, crash-safe record of sweep points.

A sweep at paper scale is thousands of multi-minute points; losing the
lot to one killed worker (or one Ctrl-C) is unacceptable.  The journal
makes sweep execution *resumable*: every completed point is committed to
SQLite the moment its result arrives, keyed by a **content hash** of the
point itself, so

* an interrupted sweep picks up exactly where it stopped — completed
  points load from the journal and are never re-run;
* identical points *across* sweeps (the Fig. 5 harnesses share baseline
  points between window and threshold sweeps, for example) hit the
  journal as a cache;
* results served from the journal are bit-identical to fresh runs: the
  JSON round-trip is exact (Python float repr survives JSON) and is
  regression-tested.

Hashing contract
----------------
:func:`point_key` canonicalises the frozen :class:`~repro.experiments.
runner.SweepPoint` dataclass recursively — every field, including the
label, the full nested config tree and the explicit per-point seed —
into a deterministic JSON document and hashes it with SHA-256.  Only
dataclasses, primitives, tuples/lists and string-keyed dicts are
hashable; anything else (a lambda traffic factory, say) raises
:class:`~repro.errors.ConfigError` naming the offending point, because a
value the journal cannot canonicalise is also a value whose identity it
cannot trust across processes.

Two tables: ``points`` is the materialised view (one row per key, upserted
on completion), ``attempts`` is the append-only audit log (one row per
execution attempt, including failed ones and the ones a point lost to a
sibling's worker crash).  Writes commit immediately — a SIGKILL between
points loses nothing, a SIGKILL *during* a write loses at most that
write to SQLite's rollback journal.  A
finished point's last attempt row and its ``points`` row commit in one
transaction, so a crash leaves both or neither, and the point re-runs.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.metrics.io import result_from_dict, result_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.experiments.runner import SweepPoint
    from repro.metrics.summary import RunResult

#: Bump when the journal layout or the hashing contract changes; a
#: mismatching journal is rejected rather than silently misread.
JOURNAL_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS points (
    key TEXT PRIMARY KEY,
    label TEXT NOT NULL,
    status TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    elapsed REAL NOT NULL,
    result TEXT,
    error TEXT
);
CREATE TABLE IF NOT EXISTS attempts (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    key TEXT NOT NULL,
    label TEXT NOT NULL,
    attempt INTEGER NOT NULL,
    outcome TEXT NOT NULL,
    cause TEXT,
    elapsed REAL NOT NULL
);
"""


def _canonical(value: Any, *, context: str) -> Any:
    """A JSON-ready, deterministic projection of a sweep-point value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item, context=context) for item in value]
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigError(
                    f"{context}: journal hashing needs string dict keys, "
                    f"got {key!r}"
                )
            out[key] = _canonical(item, context=context)
        return out
    if is_dataclass(value) and not isinstance(value, type):
        record: dict[str, Any] = {
            "__type__": f"{type(value).__module__}."
                        f"{type(value).__qualname__}",
        }
        for field in fields(value):
            record[field.name] = _canonical(getattr(value, field.name),
                                            context=context)
        return record
    raise ConfigError(
        f"{context}: cannot content-hash a {type(value).__qualname__} for "
        "the sweep journal — points must be built from dataclasses, "
        "primitives and tuples (use a frozen-dataclass traffic factory, "
        "not a closure)"
    )


def point_key(point: "SweepPoint") -> str:
    """The content hash identifying ``point`` in the journal.

    Covers every field of the point — config tree, traffic factory,
    seed, cycle budget, label — so within one build two points collide
    only when they would produce the same :class:`RunResult`.  The key
    does not cover the simulator's code: across a commit that changes
    behaviour, a reused journal serves the old build's result for an
    equal point.  Folding a behaviour epoch into the key is an open
    ROADMAP item.

    The hash is cached on the point after the first call (the executor
    and the journal both key by it).  A ``SweepPoint`` is a frozen
    dataclass without slots, so the cache slips into ``__dict__`` via
    ``object.__setattr__`` — invisible to
    ``dataclasses.fields()`` and therefore to the hash payload and to
    dataclass equality.  The hash is pure content, so a cached value
    travelling to a worker via pickle equals what the worker would
    re-derive (unit-tested across processes).
    """
    cached: str | None = getattr(point, "_point_key", None)
    if cached is not None:
        return cached
    payload = _canonical(point, context=f"sweep point {point.label!r}")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(text.encode("utf-8")).hexdigest()
    object.__setattr__(point, "_point_key", key)
    return key


class SweepJournal:
    """One sweep journal file; the supervisor process is the only writer."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.executescript(_SCHEMA)
        row = self._conn.execute(
            "SELECT v FROM meta WHERE k = 'schema_version'").fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (k, v) VALUES ('schema_version', ?)",
                (str(JOURNAL_SCHEMA_VERSION),))
            self._conn.commit()
        elif int(row[0]) != JOURNAL_SCHEMA_VERSION:
            self._conn.close()
            raise ConfigError(
                f"journal {self.path} has schema version {row[0]}, "
                f"this build writes {JOURNAL_SCHEMA_VERSION}"
            )

    # -- reads -----------------------------------------------------------------

    def get(self, key: str) -> "RunResult | None":
        """The completed result stored under ``key``, if any.

        Failed entries return ``None`` — a resumed sweep re-runs them
        from scratch rather than trusting a stale failure.
        """
        row = self._conn.execute(
            "SELECT result FROM points WHERE key = ? AND status = 'done'",
            (key,)).fetchone()
        if row is None or row[0] is None:
            return None
        return result_from_dict(json.loads(row[0]))

    def counts(self) -> dict[str, int]:
        """Point rows per status (``done`` / ``failed``)."""
        return dict(self._conn.execute(
            "SELECT status, COUNT(*) FROM points GROUP BY status"))

    def failures(self) -> list[dict[str, Any]]:
        """Failed points: label, attempts, last error, elapsed seconds."""
        rows = self._conn.execute(
            "SELECT key, label, attempts, error, elapsed FROM points "
            "WHERE status = 'failed' ORDER BY label").fetchall()
        return [
            {"key": key, "label": label, "attempts": attempts,
             "error": error, "elapsed": elapsed}
            for key, label, attempts, error, elapsed in rows
        ]

    def attempt_log(self, key: str | None = None) -> list[dict[str, Any]]:
        """The append-only attempt audit trail (optionally one point's)."""
        query = ("SELECT key, label, attempt, outcome, cause, elapsed "
                 "FROM attempts")
        args: tuple[Any, ...] = ()
        if key is not None:
            query += " WHERE key = ?"
            args = (key,)
        rows = self._conn.execute(query + " ORDER BY id", args).fetchall()
        return [
            {"key": k, "label": label, "attempt": attempt,
             "outcome": outcome, "cause": cause, "elapsed": elapsed}
            for k, label, attempt, outcome, cause, elapsed in rows
        ]

    # -- writes ----------------------------------------------------------------

    def _insert_attempt(self, key: str, label: str, attempt: int,
                        outcome: str, cause: str | None,
                        elapsed: float) -> None:
        self._conn.execute(
            "INSERT INTO attempts (key, label, attempt, outcome, cause, "
            "elapsed) VALUES (?, ?, ?, ?, ?, ?)",
            (key, label, attempt, outcome, cause, elapsed))

    def record_attempt(self, key: str, label: str, attempt: int,
                       outcome: str, cause: str | None,
                       elapsed: float) -> None:
        """Append one attempt to the audit log (committed immediately)."""
        with self._conn:
            self._insert_attempt(key, label, attempt, outcome, cause,
                                 elapsed)

    def record_done(self, key: str, label: str, result: "RunResult",
                    attempts: int, elapsed: float, *,
                    attempt_elapsed: float) -> None:
        """Commit a completed point and its final attempt's audit row.

        ``attempts`` and ``elapsed`` are the point's totals;
        ``attempt_elapsed`` is the final (``done``) attempt's own time.
        Idempotent on re-runs of equal work.
        """
        payload = json.dumps(result_to_dict(result))
        self._record_point(key, label, "done", attempts, elapsed, payload,
                           None, None, attempt_elapsed)

    def record_failed(self, key: str, label: str, attempts: int,
                      error: str, elapsed: float, *, cause: str,
                      attempt_elapsed: float) -> None:
        """Commit a point whose attempt failed, with the audit row of
        that (``failed``) attempt and its ``cause``."""
        self._record_point(key, label, "failed", attempts, elapsed, None,
                           error, cause, attempt_elapsed)

    def _record_point(self, key: str, label: str, status: str,
                      attempts: int, elapsed: float, result: str | None,
                      error: str | None, cause: str | None,
                      attempt_elapsed: float) -> None:
        # One transaction: a crash leaves both rows or neither.
        with self._conn:
            self._insert_attempt(key, label, attempts, status, cause,
                                 attempt_elapsed)
            self._conn.execute(
                "INSERT OR REPLACE INTO points "
                "(key, label, status, attempts, elapsed, result, error) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (key, label, status, attempts, elapsed, result, error))

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
