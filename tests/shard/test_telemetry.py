"""Fleet observability: live telemetry, heartbeats, straggler alerts.

Workers ship ``repro-shard-telemetry-v1`` frames on a dedicated queue;
the coordinator caches the latest per shard, derives each shard's
heartbeat age, rate and lag from one record into both the ``/shards``
rows and the ``fleet_*`` gauges, and :func:`repro.obs.slo.fleet_slos`
turns a silent worker into a firing — and, on resume, clearing —
``/alerts`` entry.
These tests run the real spawn fleet but no model: telemetry must not
depend on profiles being emitted.
"""

from __future__ import annotations

import os
import signal
import time

from repro.obs import FlightRecorder, MetricsRegistry, SLOEngine, fleet_slos
from repro.shard import SHARD_TELEMETRY_FORMAT, ShardCoordinator

from tests.shard.conftest import STREAM_CONFIG


def _events(count: int = 240, users: int = 6) -> list[tuple]:
    return [
        (f"10.9.0.{u}", 1000.0 + i * 5, f"site{i % 5}.example.com",
         "tls-sni")
        for u in range(users) for i in range(count // users)
    ]


def _coordinator(tmp_path, registry=None, **kwargs) -> ShardCoordinator:
    kwargs.setdefault("telemetry_interval_seconds", 0.1)
    return ShardCoordinator(
        2,
        checkpoint_dir=tmp_path / "ckpt",
        stream_config=STREAM_CONFIG,
        registry=registry if registry is not None else MetricsRegistry(),
        **kwargs,
    )


def _wait(predicate, timeout: float = 30.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _fleet_events_total(coordinator) -> float:
    flat = MetricsRegistry.flatten(coordinator.fleet_metrics_snapshot())
    return sum(
        value for key, value in flat.items()
        if key.startswith("stream_events_total{")
    )


class TestTelemetryFrames:
    def test_frames_cached_and_status_enriched(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        coordinator.start()
        try:
            coordinator.dispatch(_events())
            assert _wait(lambda: all(
                (entry["events_seen"] or 0) > 0
                for entry in coordinator.status()["shards"]
            )), "telemetry frames never arrived"
            status = coordinator.status()
            assert status["workers"] == 2
            assert status["telemetry_interval_seconds"] == 0.1
            for entry in status["shards"]:
                frame = coordinator._shards[entry["shard_id"]].telemetry
                assert frame["format"] == SHARD_TELEMETRY_FORMAT
                assert frame["shard_id"] == entry["shard_id"]
                assert entry["heartbeat_age_seconds"] is not None
                assert entry["last_heartbeat_wall"] is not None
                assert entry["lag_batches"] >= 0
            summary = status["fleet"]
            assert set(summary) == {
                "max_heartbeat_age_seconds", "max_lag_batches",
                "lag_skew_batches", "throughput_skew",
            }
        finally:
            coordinator.terminate()

    def test_idle_workers_keep_heartbeating(self, tmp_path):
        # Zero dispatches: heartbeat age must stay near the telemetry
        # interval, because silence has to mean stuck — never idle.
        coordinator = _coordinator(tmp_path)
        coordinator.start()
        try:
            time.sleep(0.8)   # several idle intervals
            assert _wait(
                lambda: coordinator.status()["fleet"][
                    "max_heartbeat_age_seconds"
                ] < 1.0,
                timeout=10.0,
            )
        finally:
            coordinator.terminate()

    def test_rows_and_gauges_share_heartbeat_age(self, tmp_path):
        registry = MetricsRegistry()
        # A slow cadence keeps the heartbeat thread from re-setting the
        # gauges between the status() call and the registry read.
        coordinator = _coordinator(
            tmp_path, registry=registry, telemetry_interval_seconds=30.0
        )
        coordinator.start()
        try:
            coordinator.dispatch(_events())
            assert _wait(lambda: all(   # each worker's frame sent on ready
                entry["last_heartbeat_wall"] is not None
                for entry in coordinator.status()["shards"]
            ))
            time.sleep(0.3)
            status = coordinator.status()
            flat = MetricsRegistry.flatten(registry.snapshot())
            for entry in status["shards"]:
                gauge = flat[
                    "fleet_shard_heartbeat_age_seconds"
                    f'{{shard="{entry["shard_id"]}"}}'
                ]
                assert entry["heartbeat_age_seconds"] > 0.2
                assert abs(entry["heartbeat_age_seconds"] - gauge) <= 0.01
        finally:
            coordinator.terminate()

    def test_fleet_snapshot_labels_every_shard(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        coordinator.start()
        try:
            events = _events()
            coordinator.dispatch(events)
            assert _wait(
                lambda: _fleet_events_total(coordinator) == len(events)
            )
            flat = MetricsRegistry.flatten(
                coordinator.fleet_metrics_snapshot()
            )
            shard_keys = [
                key for key in flat
                if key.startswith("stream_events_total{")
            ]
            assert 'stream_events_total{shard="0"}' in shard_keys
            assert 'stream_events_total{shard="1"}' in shard_keys
            # The coordinator's own series merge in unlabelled.
            assert "shard_batches_dispatched_total" in str(flat)
        finally:
            coordinator.terminate()

    def test_mid_run_scrapes_are_monotone(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        coordinator.start()
        try:
            events = _events()
            half = len(events) // 2
            coordinator.dispatch(events[:half])
            assert _wait(
                lambda: _fleet_events_total(coordinator) >= half
            )
            first = _fleet_events_total(coordinator)
            coordinator.dispatch(events[half:])
            assert _wait(
                lambda: _fleet_events_total(coordinator) == len(events)
            )
            assert _fleet_events_total(coordinator) >= first
            result = coordinator.finish()
            # After finish the merged view comes from final results.
            assert _fleet_events_total(coordinator) == len(events)
            assert result.events_seen == len(events)
        finally:
            coordinator.terminate()


class TestStragglerDetection:
    def test_sigstop_fires_alert_and_sigcont_clears_it(self, tmp_path):
        registry = MetricsRegistry()
        coordinator = _coordinator(tmp_path, registry=registry)
        engine = SLOEngine(
            registry,
            slos=fleet_slos(max_heartbeat_age_seconds=1.0),
        )
        coordinator.start()
        try:
            coordinator.dispatch(_events())

            def firing():
                engine.evaluate()
                return {
                    alert["name"]
                    for alert in engine.alerts_report()["firing"]
                }

            assert _wait(lambda: "fleet-straggler" not in firing())
            victim = coordinator._shards[0].process.pid
            os.kill(victim, signal.SIGSTOP)
            try:
                assert _wait(
                    lambda: "fleet-straggler" in firing()
                ), "straggler alert never fired under SIGSTOP"
            finally:
                os.kill(victim, signal.SIGCONT)
            # No dispatch needed: the resumed worker's idle heartbeats
            # alone must bring the age back under threshold.
            assert _wait(
                lambda: "fleet-straggler" not in firing()
            ), "straggler alert never cleared after SIGCONT"
        finally:
            coordinator.terminate()

    def test_finish_freezes_healthy_gauges(self, tmp_path):
        registry = MetricsRegistry()
        coordinator = _coordinator(tmp_path, registry=registry)
        engine = SLOEngine(
            registry, slos=fleet_slos(max_heartbeat_age_seconds=1.0)
        )
        coordinator.start()
        try:
            coordinator.dispatch(_events())
            coordinator.finish()
        finally:
            coordinator.terminate()
        # Done shards are excluded from the aggregates, and the monitor
        # stopped after a final update: a lingering admin server must
        # keep serving cleared alerts, not a climbing heartbeat age.
        time.sleep(1.2)
        engine.evaluate()
        names = {
            alert["name"] for alert in engine.alerts_report()["firing"]
        }
        assert "fleet-straggler" not in names
        flat = MetricsRegistry.flatten(registry.snapshot())
        assert flat["fleet_max_heartbeat_age_seconds"] < 1.0

    def test_finished_shards_report_no_heartbeat_age(self, tmp_path):
        # A finished worker is silent by design: its /shards row must
        # agree with the gauges that leave it out, not show a growing age.
        coordinator = _coordinator(tmp_path)
        coordinator.start()
        try:
            coordinator.dispatch(_events())
            coordinator.finish()
            time.sleep(0.3)
            status = coordinator.status()
        finally:
            coordinator.terminate()
        assert all(
            entry["heartbeat_age_seconds"] is None
            for entry in status["shards"]
        ), status["shards"]
        assert status["fleet"]["max_heartbeat_age_seconds"] == 0


class TestWorkerLifecycleEvents:
    def test_spawn_crash_respawn_replay_recorded(self, tmp_path):
        registry = MetricsRegistry()
        flight = FlightRecorder(registry=registry)
        # checkpoint_every_batches=2 guarantees the first batch is never
        # acked before the kill, so the respawn must replay it.
        coordinator = _coordinator(
            tmp_path, registry=registry, flight=flight,
            checkpoint_every_batches=2,
        )
        coordinator.start()
        try:
            events = _events()
            coordinator.dispatch(events[:120])
            process = coordinator._shards[0].process
            os.kill(process.pid, signal.SIGKILL)
            assert _wait(lambda: not process.is_alive())
            coordinator.poll()
            coordinator.dispatch(events[120:])
            coordinator.finish()
        finally:
            coordinator.terminate()
        names = [
            event["name"]
            for event in flight.report(reason="test")["events"]
            if event["kind"] == "worker"
        ]
        assert "shard.spawn" in names
        assert "shard.crash" in names
        assert "shard.respawn" in names
        assert "shard.replay" in names
        assert "shard.done" in names
        # The respawned worker dumped its flight ring next to its
        # checkpoint, where ``repro doctor --shard-dir`` collects it.
        assert coordinator.shard_flight_path(0).is_file()
        assert coordinator.shard_flight_path(1).is_file()
