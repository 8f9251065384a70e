"""Tests for the flight recorder: ring semantics, dumps, crash hooks."""

import json
import sys
import threading

import pytest

from repro.obs.flight import FORMAT, FlightRecorder
from repro.obs.metrics import MetricsRegistry


class TestRing:
    def test_keeps_only_the_newest_events(self):
        flight = FlightRecorder(capacity=8)
        for i in range(20):
            flight.record("state", f"event-{i}")
        events = flight.events()
        assert len(events) == 8
        assert [e["name"] for e in events] == [
            f"event-{i}" for i in range(12, 20)
        ]
        report = flight.report()
        assert report["dropped"] == 12
        assert report["kinds"] == {"state": 8}

    def test_sequence_numbers_are_gapless(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight.record("flow", str(i))
        sequences = [e["seq"] for e in flight.events()]
        assert sequences == [7, 8, 9, 10]

    def test_fields_are_coerced_json_safe(self):
        flight = FlightRecorder(capacity=4)
        flight.record(
            "state", "odd-fields",
            ok=True, n=3, nested={"a": (1, 2)}, weird=object(),
        )
        (event,) = flight.events()
        json.dumps(event)   # must not raise
        assert event["nested"] == {"a": [1, 2]}
        assert event["weird"].startswith("<object object")

    def test_record_never_raises(self):
        flight = FlightRecorder(capacity=4)
        # A pathological field that explodes in repr must be swallowed.
        class Bomb:
            def __repr__(self):
                raise RuntimeError("boom")

        flight.record("state", "bomb", payload=Bomb())
        # The event was dropped, not the process.
        assert all(e["name"] != "bomb" for e in flight.events())

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_events_counter_exported(self):
        registry = MetricsRegistry()
        flight = FlightRecorder(capacity=4, registry=registry)
        flight.record("flow", "a")
        flight.record("slo", "b")
        family = registry.counter(
            "flight_events_total", labelnames=("kind",)
        )
        assert family.value_of(kind="flow") == 1
        assert family.value_of(kind="slo") == 1


class TestObservers:
    def test_slo_observer_matches_engine_hook(self):
        flight = FlightRecorder(capacity=4)
        flight.slo_observer(
            "lat-p99", True, {"burn_fast": 20.0, "burn_slow": 2.0}
        )
        flight.slo_observer("lat-p99", False, {})
        fire, clear = flight.events()
        assert fire["direction"] == "fire" and fire["burn_fast"] == 20.0
        assert clear["direction"] == "clear"


class TestDump:
    def test_dump_is_valid_json_with_format_marker(self, tmp_path):
        registry = MetricsRegistry()
        flight = FlightRecorder(capacity=4, registry=registry)
        flight.record("state", "checkpoint")
        path = flight.dump(tmp_path / "flight.json", reason="test")
        saved = json.loads(path.read_text())
        assert saved["format"] == FORMAT
        assert saved["reason"] == "test"
        assert saved["events"][0]["name"] == "checkpoint"
        dumps = registry.counter(
            "flight_dumps_total", labelnames=("trigger",)
        )
        assert dumps.value_of(trigger="test") == 1

    def test_dump_creates_parent_directories(self, tmp_path):
        flight = FlightRecorder(capacity=4)
        path = flight.dump(tmp_path / "deep" / "dir" / "flight.json")
        assert path.is_file()

    def test_dump_during_concurrent_writes_is_coherent(self, tmp_path):
        # Writers hammer the ring while dumps race them: every dump must
        # be parseable JSON with internally consistent events.
        flight = FlightRecorder(capacity=64)
        stop = threading.Event()
        errors: list[Exception] = []

        def writer(worker: int) -> None:
            i = 0
            while not stop.is_set():
                flight.record("flow", f"w{worker}-{i}", worker=worker)
                i += 1

        def dumper(n: int) -> None:
            try:
                for i in range(10):
                    path = tmp_path / f"dump-{n}-{i}.json"
                    saved = json.loads(
                        flight.dump(path, reason="race").read_text()
                    )
                    assert saved["format"] == FORMAT
                    assert len(saved["events"]) <= 64
                    sequences = [e["seq"] for e in saved["events"]]
                    assert sequences == sorted(sequences)
            except Exception as error:   # surfaced after join
                errors.append(error)

        writers = [
            threading.Thread(target=writer, args=(w,), daemon=True)
            for w in range(3)
        ]
        dumpers = [
            threading.Thread(target=dumper, args=(n,)) for n in range(2)
        ]
        for thread in writers + dumpers:
            thread.start()
        for thread in dumpers:
            thread.join()
        stop.set()
        for thread in writers:
            thread.join()
        assert errors == []


class TestCrashHooks:
    def test_excepthook_dumps_and_chains(self, tmp_path, monkeypatch):
        flight = FlightRecorder(capacity=8)
        flight.record("state", "pre-crash")
        seen = []
        monkeypatch.setattr(
            sys, "excepthook", lambda *a: seen.append(a)
        )
        path = tmp_path / "crash.json"
        flight.install_crash_hooks(path)
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            sys.excepthook(*sys.exc_info())
        saved = json.loads(path.read_text())
        assert saved["reason"] == "unhandled-exception"
        names = [e["name"] for e in saved["events"]]
        assert names == ["pre-crash", "unhandled-exception"]
        crash = saved["events"][-1]
        assert crash["exc_type"] == "RuntimeError"
        assert crash["message"] == "boom"
        # The previous hook still ran (tracebacks must keep printing).
        assert len(seen) == 1

    def test_install_from_worker_thread_skips_signal_handler(
        self, tmp_path, monkeypatch
    ):
        # Signal handlers can only be installed on the main thread; the
        # excepthook half must still work and nothing may raise.
        monkeypatch.setattr(sys, "excepthook", sys.excepthook)
        flight = FlightRecorder(capacity=4)
        errors: list[Exception] = []

        def install():
            try:
                flight.install_crash_hooks(tmp_path / "flight.json")
            except Exception as error:
                errors.append(error)

        thread = threading.Thread(target=install)
        thread.start()
        thread.join()
        assert errors == []
