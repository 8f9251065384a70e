"""Tests for the ``repro doctor`` debug-bundle collector."""

import json
from pathlib import Path

from repro.obs.doctor import _LIVE_ONLY, _LIVE_ROUTES, collect_bundle
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, label_snapshot
from repro.obs.server import AdminServer, _lookup, _parse_query
from repro.obs.slo import SLOEngine
from repro.store import DRIFT_REPORT_COMPONENT, ArtifactStore
from repro.utils.serialization import atomic_write_json


def _publish(store, drift_report=None):
    components = {"model.bin": lambda path: path.write_bytes(b"weights")}
    if drift_report is not None:
        components[DRIFT_REPORT_COMPONENT] = (
            lambda path: atomic_write_json(path, drift_report)
        )
    return store.publish(components)


class TestLiveBundle:
    def test_collects_every_reachable_route(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("events_total", "Events.").inc(5)
        store = ArtifactStore(tmp_path / "store")
        _publish(store, drift_report={"format": "repro-drift-v1", "ok": True})
        flight = FlightRecorder(capacity=16)
        flight.record("state", "test-start")
        with AdminServer(registry, run_id="doctor-test") as admin:
            admin.attach(
                store=store,
                slo_engine=SLOEngine(registry),
                flight=flight,
            )
            manifest = collect_bundle(
                tmp_path / "bundle", admin_url=admin.url(),
                profile_seconds=0.2,
            )
        out = tmp_path / "bundle"
        assert manifest["format"] == "repro-doctor-v3"
        assert "events_total 5" in (out / "metrics.prom").read_text()
        assert json.loads((out / "healthz.json").read_text()) == {"ok": True}
        generations = json.loads((out / "generations.json").read_text())
        assert generations["serving"] == "g000001"
        assert json.loads((out / "drift.json").read_text())["ok"] is True
        varz = json.loads((out / "varz.json").read_text())
        assert varz["run_id"] == "doctor-test"
        slo = json.loads((out / "slo.json").read_text())
        assert slo["format"] == "repro-slo-v1"
        alerts = json.loads((out / "alerts.json").read_text())
        assert alerts["format"] == "repro-alerts-v1"
        captured = json.loads((out / "flight.json").read_text())
        assert captured["format"] == "repro-flight-v1"
        assert captured["events"][0]["name"] == "test-start"
        assert "profile.collapsed" in manifest["collected"]
        # /trace always answers (empty index without a tracer) ...
        traces = json.loads((out / "traces.json").read_text())
        assert traces["count"] == 0
        saved = json.loads((out / "bundle.json").read_text())
        assert saved["collected"] == manifest["collected"]
        # ... while the fleet routes 404 on a coordinator-less process
        # and are recorded explicitly absent, never as scrape failures.
        assert sorted(manifest["errors"]) == [
            "/metrics?scope=fleet", "/shards",
        ]
        for reason in manifest["errors"].values():
            assert reason.startswith("absent:")

    def test_not_ready_readyz_is_captured_not_an_error(self, tmp_path):
        with AdminServer(MetricsRegistry()) as admin:
            manifest = collect_bundle(
                tmp_path / "bundle", admin_url=admin.url(),
                profile_seconds=0,
            )
        readyz = json.loads((tmp_path / "bundle" / "readyz.json").read_text())
        assert readyz["status"] == 503
        assert readyz["body"]["ready"] is False
        assert "readyz.json" in manifest["collected"]
        # Routes that legitimately 404 on a bare server are errors...
        assert "/generations" in manifest["errors"]
        # ...but never abort the rest of the collection.
        assert "metrics.prom" in manifest["collected"]

    def test_unreachable_admin_still_writes_a_manifest(self, tmp_path):
        manifest = collect_bundle(
            tmp_path / "bundle",
            admin_url="http://127.0.0.1:9",   # discard port: nothing listens
            timeout=0.5,
        )
        assert manifest["collected"] == {}
        assert "/metrics" in manifest["errors"]
        assert (tmp_path / "bundle" / "bundle.json").is_file()


class TestOfflineBundle:
    def test_reads_store_and_copies_files(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        _publish(store)
        _publish(store, drift_report={
            "format": "repro-drift-v1", "breaches": ["category_jsd"],
        })
        metrics = tmp_path / "final.prom"
        metrics.write_text("events_total 9\n")
        manifest = collect_bundle(
            tmp_path / "bundle",
            store=store,
            metrics_path=metrics,
            config={"seed": 42, "store": Path("/somewhere/models")},
        )
        out = tmp_path / "bundle"
        generations = json.loads((out / "generations.json").read_text())
        assert [g["generation_id"] for g in generations["generations"]] == [
            "g000001", "g000002"
        ]
        # drift.json comes from the newest generation that has one
        assert manifest["collected"]["drift.json"] == "g000002"
        drift = json.loads((out / "drift.json").read_text())
        assert drift["breaches"] == ["category_jsd"]
        assert (out / "metrics.prom").read_text() == "events_total 9\n"
        config = json.loads((out / "config.json").read_text())
        assert config["seed"] == 42
        assert config["store"] == "/somewhere/models"   # Path stringified

    def test_rolled_back_store_reports_retracted_drift(self, tmp_path):
        # After a gate trip the rejected generation is retracted: the
        # bundle falls back to the newest surviving report.
        store = ArtifactStore(tmp_path / "store")
        _publish(store, drift_report={"format": "repro-drift-v1", "n": 1})
        _publish(store, drift_report={"format": "repro-drift-v1", "n": 2})
        store.rollback()
        store.retract("g000002")
        manifest = collect_bundle(tmp_path / "bundle", store=store)
        assert manifest["collected"]["drift.json"] == "g000001"

    def test_missing_file_sources_are_recorded(self, tmp_path):
        manifest = collect_bundle(
            tmp_path / "bundle",
            metrics_path=tmp_path / "nope.prom",
            trace_path=tmp_path / "nope.json",
        )
        assert manifest["collected"] == {}
        assert manifest["errors"][str(tmp_path / "nope.prom")] == (
            "file not found"
        )
        assert manifest["errors"][str(tmp_path / "nope.json")] == (
            "file not found"
        )

    def test_empty_bundle_is_valid(self, tmp_path):
        manifest = collect_bundle(tmp_path / "bundle")
        assert manifest["collected"] == {}
        # Live-only captures are explicitly noted absent, not silently
        # missing: an offline bundle says why there is no SLO state.
        for route in (
            "/slo", "/alerts", "/flight", "/profile",
            "/shards", "/metrics?scope=fleet", "/trace",
        ):
            assert "no live admin endpoint" in manifest["errors"][route]
        assert json.loads(
            (tmp_path / "bundle" / "bundle.json").read_text()
        )["format"] == "repro-doctor-v3"

    def test_copies_flight_dump_file(self, tmp_path):
        flight = FlightRecorder(capacity=4)
        flight.record("crash", "sigterm")
        dump = tmp_path / "flight.json"
        flight.dump(dump, reason="sigterm")
        manifest = collect_bundle(tmp_path / "bundle", flight_path=dump)
        saved = json.loads(
            (tmp_path / "bundle" / "flight.json").read_text()
        )
        assert saved["reason"] == "sigterm"
        assert manifest["collected"]["flight.json"] == str(dump)


class TestServerParity:
    """The doctor asks the admin server's questions, never its own."""

    def test_every_doctor_route_is_in_the_server_table(self):
        targets = [route for route, _ in _LIVE_ROUTES] + list(_LIVE_ONLY)
        for target in targets:
            path, _, query = target.partition("?")
            _, entry, _ = _lookup(path)
            assert entry is not None, f"{target} is not a server route"
            _parse_query(query, entry.params)   # its query is accepted

    def test_offline_generations_match_the_live_route(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        _publish(store)
        with AdminServer(MetricsRegistry()) as admin:
            admin.attach(store=store)
            collect_bundle(
                tmp_path / "live", admin_url=admin.url(), profile_seconds=0
            )
        collect_bundle(tmp_path / "offline", store=store)
        live, offline = (
            (tmp_path / name / "generations.json").read_text()
            for name in ("live", "offline")
        )
        assert offline == live
        assert "index_backend" in json.loads(offline)["generations"][0]


class TestFleetBundle:
    def test_scrapes_fleet_routes_when_coordinator_attached(self, tmp_path):
        registry = MetricsRegistry()

        class _Coordinator:
            @staticmethod
            def status():
                return {"num_shards": 2, "workers": 2, "shards": []}

            @staticmethod
            def fleet_metrics_snapshot():
                shard = MetricsRegistry()
                shard.counter("stream_events_total", "Events.").inc(7)
                return MetricsRegistry.merge_snapshots(
                    [label_snapshot(shard.snapshot(), shard="0")]
                )

        with AdminServer(registry) as admin:
            admin.attach(coordinator=_Coordinator())
            manifest = collect_bundle(
                tmp_path / "bundle", admin_url=admin.url(),
                profile_seconds=0,
            )
        out = tmp_path / "bundle"
        shards = json.loads((out / "shards.json").read_text())
        assert shards["num_shards"] == 2
        fleet = (out / "metrics_fleet.prom").read_text()
        assert 'stream_events_total{shard="0"}' in fleet
        assert "shards.json" in manifest["collected"]
        assert "metrics_fleet.prom" in manifest["collected"]
        assert "/shards" not in manifest["errors"]
        assert "/metrics?scope=fleet" not in manifest["errors"]

    def test_shard_dir_checkpoints_and_flight_dumps_copied(self, tmp_path):
        shard_dir = tmp_path / "ckpt"
        shard_dir.mkdir()
        (shard_dir / "shard-000.json").write_text(
            '{"format": "repro-shard-checkpoint-v1"}'
        )
        (shard_dir / "shard-000-flight.json").write_text(
            '{"format": "repro-flight-v1"}'
        )
        (shard_dir / "shard-000.json.tmp").write_text("{}")   # scratch
        manifest = collect_bundle(tmp_path / "bundle", shard_dir=shard_dir)
        copied = sorted(
            p.name for p in (tmp_path / "bundle" / "shards").iterdir()
        )
        assert copied == ["shard-000-flight.json", "shard-000.json"]
        assert manifest["collected"]["shards/shard-000.json"] == str(
            shard_dir / "shard-000.json"
        )

    def test_missing_shard_dir_recorded(self, tmp_path):
        manifest = collect_bundle(
            tmp_path / "bundle", shard_dir=tmp_path / "nope"
        )
        assert manifest["errors"][str(tmp_path / "nope")] == (
            "directory not found"
        )

    def test_empty_shard_dir_recorded(self, tmp_path):
        (tmp_path / "ckpt").mkdir()
        manifest = collect_bundle(
            tmp_path / "bundle", shard_dir=tmp_path / "ckpt"
        )
        assert "no shard-*.json files" in (
            manifest["errors"][str(tmp_path / "ckpt")]
        )


class TestDriftReportFlow:
    def test_live_drift_route_wins_over_store(self, tmp_path):
        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store")
        _publish(store, drift_report={"format": "repro-drift-v1", "n": 1})

        class _Supervisor:
            validating = False
            is_degraded = False
            consecutive_failures = 0

            class last_drift_report:   # duck: only to_dict is called
                @staticmethod
                def to_dict():
                    return {"format": "repro-drift-v1", "n": 99}

        with AdminServer(registry) as admin:
            admin.attach(store=store, supervisor=_Supervisor())
            collect_bundle(
                tmp_path / "bundle", admin_url=admin.url(),
                profile_seconds=0,
            )
        drift = json.loads((tmp_path / "bundle" / "drift.json").read_text())
        assert drift["n"] == 99
