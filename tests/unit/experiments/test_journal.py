"""Unit tests for the sweep journal: hashing contract and persistence."""

import json
import sqlite3
from dataclasses import dataclass, replace

import pytest

from repro.errors import ConfigError
from repro.experiments.fig5 import uniform_factory
from repro.experiments.journal import SweepJournal, point_key

from tests.sweeputil import run_fresh, tiny_point


class TestPointKey:
    def test_stable_and_hex(self):
        point = tiny_point()
        key = point_key(point)
        assert key == point_key(tiny_point())
        assert len(key) == 64
        int(key, 16)  # hex digest

    @pytest.mark.parametrize("change", [
        {"label": "other"},
        {"seed": 2},
        {"cycles": 999},
        {"drain": True},
        {"traffic_factory": uniform_factory(0.06)},
    ], ids=lambda change: next(iter(change)))
    def test_every_field_participates(self, change):
        assert point_key(replace(tiny_point(), **change)) != \
            point_key(tiny_point())

    def test_unhashable_factory_names_the_point(self):
        point = replace(tiny_point(label="lambda-point"),
                        traffic_factory=lambda n, s: None)
        with pytest.raises(ConfigError, match="lambda-point"):
            point_key(point)

    def test_non_string_dict_keys_rejected(self):
        @dataclass(frozen=True)
        class BadFactory:
            table: dict

            def __call__(self, num_nodes, seed):  # pragma: no cover
                raise AssertionError

        point = replace(tiny_point(label="bad-dict"),
                        traffic_factory=BadFactory(table={1: "x"}))
        with pytest.raises(ConfigError, match="bad-dict"):
            point_key(point)


class TestJournalPersistence:
    def test_done_round_trip_is_bit_identical(self, tmp_path):
        point = tiny_point()
        result = run_fresh(point)
        key = point_key(point)
        path = tmp_path / "j.sqlite"
        with SweepJournal(path) as journal:
            journal.record_done(key, point.label, result, attempts=1,
                                elapsed=0.5, attempt_elapsed=0.5)
        with SweepJournal(path) as journal:
            assert journal.get(key) == result
            assert journal.counts() == {"done": 1}
            # The final attempt's audit row is written with the point.
            assert journal.attempt_log() == [
                {"key": key, "label": point.label, "attempt": 1,
                 "outcome": "done", "cause": None, "elapsed": 0.5}]

    def test_missing_and_failed_keys_return_none(self, tmp_path):
        with SweepJournal(tmp_path / "j.sqlite") as journal:
            assert journal.get("0" * 64) is None
            journal.record_failed("0" * 64, "p", attempts=2,
                                  error="RuntimeError: boom", elapsed=1.0,
                                  cause="error", attempt_elapsed=0.4)
            # A stale failure is never served as a result: resume retries.
            assert journal.get("0" * 64) is None
            assert journal.counts() == {"failed": 1}
            [failure] = journal.failures()
            assert failure["label"] == "p"
            assert failure["attempts"] == 2
            assert "boom" in failure["error"]
            [attempt] = journal.attempt_log()
            assert (attempt["attempt"], attempt["outcome"], attempt["cause"],
                    attempt["elapsed"]) == (2, "failed", "error", 0.4)

    def test_attempt_log_is_append_only(self, tmp_path):
        with SweepJournal(tmp_path / "j.sqlite") as journal:
            journal.record_attempt("k1", "p1", 1, "retry", "timeout", 1.5)
            journal.record_attempt("k1", "p1", 2, "done", None, 0.7)
            journal.record_attempt("k2", "p2", 1, "failed", "error", 0.1)
            log = journal.attempt_log()
            assert [(e["key"], e["attempt"], e["outcome"]) for e in log] == \
                [("k1", 1, "retry"), ("k1", 2, "done"), ("k2", 1, "failed")]
            assert [e["attempt"] for e in journal.attempt_log("k1")] == [1, 2]

    def test_done_overwrites_failed(self, tmp_path):
        point = tiny_point()
        result = run_fresh(point)
        key = point_key(point)
        with SweepJournal(tmp_path / "j.sqlite") as journal:
            journal.record_failed(key, point.label, 1, "boom", 0.1,
                                  cause="error", attempt_elapsed=0.1)
            journal.record_done(key, point.label, result, 2, 0.9,
                                attempt_elapsed=0.8)
            assert journal.get(key) == result
            assert journal.counts() == {"done": 1}

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j.sqlite"
        SweepJournal(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET v = '99' WHERE k = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ConfigError, match="schema version 99"):
            SweepJournal(path)

    def test_commits_survive_connection_loss(self, tmp_path):
        # Simulate a crash: write through one connection, never close it,
        # and read through a brand-new one.
        path = tmp_path / "j.sqlite"
        point = tiny_point()
        result = run_fresh(point)
        journal = SweepJournal(path)
        journal.record_done(point_key(point), point.label, result, 1, 0.1,
                            attempt_elapsed=0.1)
        with SweepJournal(path) as fresh:
            assert fresh.get(point_key(point)) == result

    def test_float_payload_round_trips_exactly(self, tmp_path):
        # The resume bit-identity claim rests on JSON float exactness.
        values = [0.1, 1 / 3, 2.0 ** -52, 1e308, -0.0]
        assert [json.loads(json.dumps(v)) for v in values] == values
