"""Tests for the admin HTTP endpoint (the live operations plane)."""

import json
import re
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.core.streaming import StreamingConfig, StreamingProfiler
from repro.netobs.flows import HostnameEvent
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, label_snapshot
from repro.obs.profile import SamplingProfiler
from repro.obs.tracing import TraceContext, Tracer, use_trace
from repro.obs.server import (
    _ROUTES,
    MAX_QUERY_LENGTH,
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    AdminServer,
)
from repro.obs.slo import SLOEngine

_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
    r"(?:[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)


def parse_prometheus(text):
    """name{labels} -> float for every sample; asserts each line parses."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _PROM_LINE.match(line), f"unparseable exposition line: {line!r}"
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


def _get(url):
    """(status, content_type, body) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read().decode(),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), (
            error.read().decode()
        )


def _fake_supervisor(**overrides):
    state = dict(
        validating=False, is_degraded=False, consecutive_failures=0,
        successes=1, failed_days=[], last_success_day=0,
        last_drift_report=None,
    )
    state.update(overrides)
    return SimpleNamespace(**state)


def _event(host, t, client="10.0.0.1"):
    return HostnameEvent(
        client_ip=client, timestamp=t, hostname=host, source="tls-sni"
    )


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def server(registry):
    with AdminServer(registry, run_id="test-run") as admin:
        yield admin


class TestRoutes:
    def test_metrics_serves_prometheus(self, server, registry):
        registry.counter("events_total", "Events.").inc(3)
        status, content_type, body = _get(server.url("/metrics"))
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert parse_prometheus(body)["events_total"] == 3.0

    def test_healthz_is_always_ok(self, server):
        status, _, body = _get(server.url("/healthz"))
        assert status == 200
        assert json.loads(body) == {"ok": True}

    def test_unknown_route_is_404_with_bounded_label(self, server, registry):
        status, _, body = _get(server.url("/secrets"))
        assert status == 404
        assert "unknown route" in json.loads(body)["error"]
        requests = registry.counter(
            "admin_requests_total", labelnames=("route", "status")
        )
        assert requests.value_of(route="<other>", status="404") == 1

    def test_trailing_slash_is_normalised(self, server):
        status, _, _ = _get(server.url("/healthz/"))
        assert status == 200

    def test_generations_404_without_store(self, server):
        status, _, body = _get(server.url("/generations"))
        assert status == 404
        assert "store" in json.loads(body)["error"]

    def test_drift_latest_404_without_reports(self, server):
        status, _, _ = _get(server.url("/drift/latest"))
        assert status == 404

    def test_drift_latest_serves_supervisor_report(self, server):
        report = SimpleNamespace(to_dict=lambda: {"ok": False, "breaches": []})
        server.attach(supervisor=_fake_supervisor(last_drift_report=report))
        status, _, body = _get(server.url("/drift/latest"))
        assert status == 200
        assert json.loads(body)["ok"] is False

    def test_broken_route_returns_500_and_keeps_serving(self, server):
        class _Exploding:
            @property
            def validating(self):
                raise RuntimeError("boom")

            is_degraded = False
            consecutive_failures = 0

        server.attach(supervisor=_Exploding())
        status, _, body = _get(server.url("/readyz"))
        assert status == 500
        assert "boom" in json.loads(body)["error"]
        status, _, _ = _get(server.url("/healthz"))   # still alive
        assert status == 200

    def test_ephemeral_port_is_resolved(self, registry):
        admin = AdminServer(registry)
        assert admin.port == 0
        with admin:
            assert admin.port != 0


class TestReadyz:
    def test_not_ready_without_a_model(self, server):
        server.attach(stream=StreamingProfiler(StreamingConfig()))
        status, _, body = _get(server.url("/readyz"))
        assert status == 503
        payload = json.loads(body)
        assert payload["ready"] is False
        assert payload["model_loaded"] is False

    def test_ready_once_a_model_serves(self, server):
        stream = StreamingProfiler(StreamingConfig())
        stream.swap_model(SimpleNamespace(), generation="g000007")
        server.attach(stream=stream)
        status, _, body = _get(server.url("/readyz"))
        assert status == 200
        payload = json.loads(body)
        assert payload["ready"] is True
        assert payload["serving_generation"] == "g000007"

    def test_validation_window_flips_readiness(self, server):
        stream = StreamingProfiler(StreamingConfig())
        stream.swap_model(SimpleNamespace())
        supervisor = _fake_supervisor(validating=True)
        server.attach(stream=stream, supervisor=supervisor)
        status, _, body = _get(server.url("/readyz"))
        assert status == 503
        assert json.loads(body)["validating"] is True
        # ... and recovers the moment the check window closes.
        supervisor.validating = False
        status, _, body = _get(server.url("/readyz"))
        assert status == 200
        assert json.loads(body)["validating"] is False

    def test_degraded_supervisor_stays_ready(self, server):
        # Serving stale is the designed failure mode, not an outage:
        # degradation is reported in the body but never flips readiness.
        stream = StreamingProfiler(StreamingConfig())
        stream.swap_model(SimpleNamespace())
        server.attach(
            stream=stream,
            supervisor=_fake_supervisor(
                is_degraded=True, consecutive_failures=2
            ),
        )
        status, _, body = _get(server.url("/readyz"))
        assert status == 200
        payload = json.loads(body)
        assert payload["degraded"] is True
        assert payload["consecutive_failures"] == 2

    def test_thunk_attachment_resolves_late(self, server):
        holder = {"supervisor": None}
        stream = StreamingProfiler(StreamingConfig())
        stream.swap_model(SimpleNamespace())
        server.attach(
            stream=stream, supervisor=lambda: holder["supervisor"]
        )
        status, _, _ = _get(server.url("/readyz"))
        assert status == 200
        holder["supervisor"] = _fake_supervisor(validating=True)
        status, _, _ = _get(server.url("/readyz"))
        assert status == 503


class TestVarz:
    def test_reports_process_and_stream_state(self, server, tmp_path):
        stream = StreamingProfiler(StreamingConfig())
        stream.swap_model(SimpleNamespace(), generation="g000001")
        stream.ingest(_event("a.com", 0.0))
        stream.checkpoint(tmp_path / "state.json")
        server.attach(stream=stream, supervisor=_fake_supervisor())
        status, _, body = _get(server.url("/varz"))
        assert status == 200
        payload = json.loads(body)
        assert payload["run_id"] == "test-run"
        assert payload["uptime_seconds"] >= 0
        assert payload["serving_generation"] == "g000001"
        # One vector index exists, so /varz names no backend.
        assert "index_backend" not in payload
        assert payload["model_loaded"] is True
        assert payload["stream"]["events_seen"] == 1
        assert payload["stream"]["model_swaps"] == 1
        assert payload["stream"]["checkpoint_age_seconds"] >= 0
        assert payload["supervisor"]["successes"] == 1
        assert payload["supervisor"]["degraded"] is False

    def test_minimal_varz_without_attachments(self, server):
        status, _, body = _get(server.url("/varz"))
        assert status == 200
        payload = json.loads(body)
        assert payload["serving_generation"] is None
        assert payload["model_loaded"] is False
        assert "stream" not in payload
        assert "supervisor" not in payload


class TestConcurrentScrapes:
    def test_metrics_parse_and_stay_monotonic_during_ingest(self, registry):
        """Hammer /metrics from threads while the stream ingests.

        Every scrape must be a parseable exposition and the event counter
        must never go backwards — the registry's locking is what makes a
        scrape mid-ingest safe.
        """
        stream = StreamingProfiler(StreamingConfig(), registry=registry)
        with AdminServer(registry) as admin:
            url = admin.url("/metrics")
            failures = []
            seen = {i: [] for i in range(4)}

            def scrape(worker):
                try:
                    for _ in range(25):
                        status, _, body = _get(url)
                        assert status == 200
                        samples = parse_prometheus(body)
                        seen[worker].append(
                            samples.get("stream_events_total", 0.0)
                        )
                except Exception as error:   # surfaces in the main thread
                    failures.append(f"{type(error).__name__}: {error}")

            threads = [
                threading.Thread(target=scrape, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for step in range(600):
                stream.ingest(
                    _event(f"host{step % 40}.com", float(step),
                           client=f"10.0.0.{step % 8}")
                )
            for thread in threads:
                thread.join(timeout=30)
            assert not failures, failures
            for worker, values in seen.items():
                assert len(values) == 25
                assert values == sorted(values), (
                    f"counter went backwards in worker {worker}"
                )
            assert stream.events_seen == 600


class TestIntrospectionRoutes:
    def test_slo_and_alerts_404_without_engine(self, server):
        assert _get(server.url("/slo"))[0] == 404
        assert _get(server.url("/alerts"))[0] == 404

    def test_slo_and_alerts_serve_engine_reports(self, server, registry):
        registry.counter("stream_events_total", "E.").inc(100)
        engine = SLOEngine(registry)
        engine.evaluate()
        server.attach(slo_engine=engine)
        status, _, body = _get(server.url("/slo"))
        assert status == 200
        assert json.loads(body)["format"] == "repro-slo-v1"
        status, _, body = _get(server.url("/alerts"))
        assert status == 200
        payload = json.loads(body)
        assert payload["format"] == "repro-alerts-v1"
        assert payload["count"] == 0

    def test_profile_404_without_profiler_and_no_burst(self, server):
        status, _, body = _get(server.url("/profile"))
        assert status == 404
        assert "burst" in json.loads(body)["error"]

    def test_profile_burst_returns_fresh_report(self, server):
        status, _, body = _get(
            server.url("/profile?seconds=0.1&hz=50")
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["format"] == "repro-profile-v1"
        assert payload["wall_seconds"] >= 0.1

    def test_profile_serves_attached_continuous_profiler(self, server):
        profiler = SamplingProfiler(hz=200.0)
        profiler.run_for(0.05)
        server.attach(profiler=profiler)
        status, _, body = _get(server.url("/profile"))
        assert status == 200
        assert json.loads(body)["samples"] == profiler.samples
        status, _, body = _get(server.url("/profile?format=speedscope"))
        assert status == 200
        assert "$schema" in json.loads(body)

    def test_flight_route_reports_and_dumps(self, server, tmp_path):
        flight = FlightRecorder(capacity=16)
        flight.record("state", "hello")
        dump_path = tmp_path / "flight.json"
        server.attach(flight=flight, flight_path=dump_path)
        status, _, body = _get(server.url("/flight"))
        assert status == 200
        assert json.loads(body)["kinds"] == {"state": 1}
        assert not dump_path.exists()
        status, _, body = _get(server.url("/flight?dump=1"))
        assert status == 200
        assert json.loads(body)["dump_path"] == str(dump_path)
        saved = json.loads(dump_path.read_text())
        assert saved["events"][0]["name"] == "hello"

    def test_shards_404_without_coordinator(self, server):
        status, _, body = _get(server.url("/shards"))
        assert status == 404
        assert "coordinator" in json.loads(body)["error"]

    def test_shards_serves_coordinator_status(self, server):
        class _FakeFleet:
            def status(self):
                return {
                    "num_shards": 2,
                    "started": True,
                    "finished": False,
                    "shards": [
                        {"shard_id": 0, "alive": True},
                        {"shard_id": 1, "alive": True},
                    ],
                }

        server.attach(coordinator=_FakeFleet())
        status, _, body = _get(server.url("/shards"))
        assert status == 200
        payload = json.loads(body)
        assert payload["num_shards"] == 2
        assert [s["shard_id"] for s in payload["shards"]] == [0, 1]

    def test_shards_thunk_resolves_late(self, server):
        fleet = {}
        server.attach(coordinator=lambda: fleet.get("coordinator"))
        assert _get(server.url("/shards"))[0] == 404

        class _FakeFleet:
            def status(self):
                return {"num_shards": 4, "shards": []}

        fleet["coordinator"] = _FakeFleet()
        status, _, body = _get(server.url("/shards"))
        assert status == 200
        assert json.loads(body)["num_shards"] == 4


def _fake_coordinator():
    """Duck-typed shard coordinator: status + merged fleet snapshot."""

    class _Fleet:
        @staticmethod
        def status():
            return {
                "num_shards": 2, "workers": 2, "salt": "s3",
                "restarts": 1, "started": True, "finished": False,
                "shards": [],
            }

        @staticmethod
        def fleet_metrics_snapshot():
            first, second = MetricsRegistry(), MetricsRegistry()
            first.counter("stream_events_total", "E.").inc(3)
            second.counter("stream_events_total", "E.").inc(4)
            first.histogram(
                "profile_latency_seconds", "L.", buckets=(0.1,)
            ).observe(0.05, exemplar="abc123")
            return MetricsRegistry.merge_snapshots([
                label_snapshot(first.snapshot(), shard="0"),
                label_snapshot(second.snapshot(), shard="1"),
            ])

    return _Fleet()


class TestFleetRoutes:
    def test_fleet_scope_404_without_coordinator(self, server):
        status, _, body = _get(server.url("/metrics?scope=fleet"))
        assert status == 404
        assert "coordinator" in json.loads(body)["error"]

    def test_fleet_scope_serves_shard_labelled_series(self, server):
        server.attach(coordinator=_fake_coordinator())
        status, content_type, body = _get(
            server.url("/metrics?scope=fleet")
        )
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        samples = parse_prometheus(body)
        assert samples['stream_events_total{shard="0"}'] == 3.0
        assert samples['stream_events_total{shard="1"}'] == 4.0
        # The 0.0.4 content type promises no exemplar syntax, whichever
        # snapshot the scope picked.
        assert "# {" not in body and "# EOF" not in body

    def test_scope_process_is_the_default(self, server, registry):
        # (Compare one inert sample: the scrape counter itself moves
        # between the two requests.)
        registry.counter("x_total", "X.").inc()
        explicit = parse_prometheus(
            _get(server.url("/metrics?scope=process"))[2]
        )
        default = parse_prometheus(_get(server.url("/metrics"))[2])
        assert explicit["x_total"] == default["x_total"] == 1.0

    def test_bogus_scope_rejected(self, server):
        status, _, body = _get(server.url("/metrics?scope=galaxy"))
        assert status == 400
        assert "scope" in json.loads(body)["error"]

    def test_fleet_scope_serves_openmetrics(self, server):
        server.attach(coordinator=_fake_coordinator())
        status, content_type, body = _get(
            server.url("/metrics?scope=fleet&format=openmetrics")
        )
        assert status == 200
        assert content_type == OPENMETRICS_CONTENT_TYPE
        assert (
            'profile_latency_seconds_bucket{le="0.1",shard="0"} 1 '
            '# {trace_id="abc123"} 0.05 '
        ) in body
        assert body.endswith("# EOF\n")

    def test_varz_reports_fleet_facts(self, server):
        server.attach(coordinator=_fake_coordinator())
        status, _, body = _get(server.url("/varz"))
        assert status == 200
        assert json.loads(body)["fleet"] == {
            "workers": 2, "num_shards": 2, "salt": "s3",
            "restarts": 1, "started": True, "finished": False,
        }

    def test_varz_has_no_fleet_block_without_coordinator(self, server):
        assert "fleet" not in json.loads(_get(server.url("/varz"))[2])


class TestTraceRoutes:
    @staticmethod
    def _traced_registry():
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_trace(TraceContext(trace_id="cafe01")):
            with tracer.span("stream.ingest", shard="0"):
                with tracer.span("profile.session"):
                    pass
        return registry, tracer

    def test_trace_index_empty_without_spans(self, server):
        status, _, body = _get(server.url("/trace"))
        assert status == 200
        assert json.loads(body) == {"count": 0, "traces": []}

    def test_trace_index_lists_completed_traces(self):
        registry, tracer = self._traced_registry()
        with AdminServer(registry, tracer=tracer) as admin:
            status, _, body = _get(admin.url("/trace"))
        assert status == 200
        index = json.loads(body)
        assert index["count"] == 1
        (entry,) = index["traces"]
        assert entry["trace_id"] == "cafe01"
        assert entry["spans"] == 2

    def test_trace_by_id_reassembles_the_tree(self):
        registry, tracer = self._traced_registry()
        with AdminServer(registry, tracer=tracer) as admin:
            status, _, body = _get(admin.url("/trace/cafe01"))
        assert status == 200
        tree = json.loads(body)
        assert tree["trace_id"] == "cafe01"
        assert tree["span_count"] == 2
        (root,) = tree["roots"]
        assert root["name"] == "stream.ingest"
        assert root["tags"]["shard"] == "0"
        (child,) = root["children"]
        assert child["name"] == "profile.session"
        assert child["parent_span_id"] == root["span_id"]

    def test_unknown_trace_id_is_404(self):
        registry, tracer = self._traced_registry()
        with AdminServer(registry, tracer=tracer) as admin:
            status, _, body = _get(admin.url("/trace/feedface"))
        assert status == 404
        assert "feedface" in json.loads(body)["error"]

    def test_malformed_trace_id_rejected(self, server):
        status, _, _ = _get(server.url("/trace/a/b"))
        assert status == 400

    def test_trace_ids_never_explode_the_route_label(self, registry):
        # Every /trace/<id> fetch lands on one bounded "/trace" label,
        # rejected ones included.
        with AdminServer(registry) as admin:
            for trace_id in ("x1", "x2", "x3"):
                _get(admin.url(f"/trace/{trace_id}"))
            _get(admin.url("/trace/x4?bogus=1"))
        requests = registry.counter(
            "admin_requests_total", labelnames=("route", "status")
        )
        assert requests.value_of(route="/trace", status="404") == 3
        assert requests.value_of(route="/trace", status="400") == 1
        assert [
            labels["route"] for labels, _ in requests.samples()
        ] == ["/trace", "/trace"]


class TestAdversarialParams:
    """Garbage in must mean 4xx out — a scrape can never 500 a route."""

    ROUTES = (
        "/metrics", "/healthz", "/readyz", "/varz", "/generations",
        "/drift/latest", "/slo", "/alerts", "/profile", "/flight",
        "/shards", "/trace",
    )

    def test_covers_every_route_in_the_table(self):
        assert sorted(self.ROUTES) == sorted(_ROUTES)

    def _assert_client_error(self, server, target):
        status, _, body = _get(server.url(target))
        assert 400 <= status < 500, (
            f"{target} returned {status}: {body[:200]}"
        )

    def test_unknown_params_rejected_on_every_route(self, server):
        for route in self.ROUTES:
            self._assert_client_error(server, f"{route}?bogus=1")

    def test_oversized_query_rejected_on_every_route(self, server):
        huge = "x" * (MAX_QUERY_LENGTH + 1)
        for route in self.ROUTES:
            self._assert_client_error(server, f"{route}?{huge}")

    def test_garbage_values_are_4xx_never_500(self, server):
        for target in (
            "/metrics?format=yaml",
            "/metrics?format=prometheus&format=prometheus",
            "/profile?seconds=abc",
            "/profile?seconds=-1",
            "/profile?seconds=nan",
            "/profile?seconds=1e308",
            "/profile?seconds=0.2&hz=999999",
            "/profile?hz=100",               # hz without seconds
            "/profile?seconds=0.2&format=pprof",
            "/flight?dump=yes",
            "/flight?dump=1&dump=1",
            "/readyz?verbose=1",
            "/slo?window=fast",
        ):
            self._assert_client_error(server, target)

    def test_server_still_healthy_after_abuse(self, server):
        for route in self.ROUTES:
            _get(server.url(f"{route}?bogus=1"))
        status, _, _ = _get(server.url("/healthz"))
        assert status == 200


class TestConcurrentIntrospection:
    def test_profile_metrics_slo_race_live_ingest(self, registry):
        """/profile bursts, /metrics and /slo scrapes race live ingest.

        Every response must be well-formed with a 2xx status — the
        introspection plane reads shared state while the stream mutates
        it, and the locking has to hold under that pressure.
        """
        stream = StreamingProfiler(StreamingConfig(), registry=registry)
        engine = SLOEngine(registry)
        profiler = SamplingProfiler(hz=100.0, registry=registry)
        profiler.start()
        try:
            with AdminServer(registry) as admin:
                admin.attach(slo_engine=engine, profiler=profiler)
                failures = []

                def hit(path, checker):
                    try:
                        for _ in range(10):
                            status, _, body = _get(admin.url(path))
                            assert status == 200, f"{path}: {status}"
                            checker(body)
                    except Exception as error:
                        failures.append(
                            f"{path}: {type(error).__name__}: {error}"
                        )

                threads = [
                    threading.Thread(
                        target=hit,
                        args=("/metrics", parse_prometheus),
                    ),
                    threading.Thread(
                        target=hit,
                        args=(
                            "/slo",
                            lambda b: json.loads(b)["objectives"],
                        ),
                    ),
                    threading.Thread(
                        target=hit,
                        args=(
                            "/profile",
                            lambda b: json.loads(b)["format"],
                        ),
                    ),
                    threading.Thread(
                        target=hit,
                        args=(
                            "/profile?seconds=0.1&hz=50",
                            lambda b: json.loads(b)["samples"],
                        ),
                    ),
                ]
                for thread in threads:
                    thread.start()
                for step in range(400):
                    stream.ingest(
                        _event(f"h{step % 20}.com", float(step),
                               client=f"10.0.0.{step % 4}")
                    )
                for thread in threads:
                    thread.join(timeout=60)
                assert not failures, failures
        finally:
            profiler.stop()

    def test_flight_dump_races_concurrent_writes(self, registry, tmp_path):
        """Admin-triggered dumps while writers hammer the ring.

        Each dump response must be 200 and the file it names must parse
        as coherent JSON — the dump snapshots the ring under its lock.
        """
        flight = FlightRecorder(capacity=64, registry=registry)
        dump_path = tmp_path / "flight.json"
        stop = threading.Event()

        def writer(worker):
            i = 0
            while not stop.is_set():
                flight.record("flow", f"w{worker}-{i}", worker=worker)
                i += 1

        writers = [
            threading.Thread(target=writer, args=(w,), daemon=True)
            for w in range(3)
        ]
        for thread in writers:
            thread.start()
        try:
            with AdminServer(registry) as admin:
                admin.attach(flight=flight, flight_path=dump_path)
                for _ in range(10):
                    status, _, body = _get(admin.url("/flight?dump=1"))
                    assert status == 200
                    assert json.loads(body)["dump_path"] == str(dump_path)
                    saved = json.loads(dump_path.read_text())
                    assert len(saved["events"]) <= 64
                    sequences = [e["seq"] for e in saved["events"]]
                    assert sequences == sorted(sequences)
        finally:
            stop.set()
            for thread in writers:
                thread.join()


class TestLifecycle:
    def test_double_start_rejected(self, registry):
        with AdminServer(registry) as admin:
            with pytest.raises(RuntimeError):
                admin.start()

    def test_stop_is_idempotent(self, registry):
        admin = AdminServer(registry).start()
        admin.stop()
        admin.stop()

    def test_request_counter_by_route(self, server, registry):
        _get(server.url("/metrics"))
        _get(server.url("/healthz"))
        _get(server.url("/healthz"))
        requests = registry.counter(
            "admin_requests_total", labelnames=("route", "status")
        )
        assert requests.value_of(route="/healthz", status="200") == 2
        assert requests.value_of(route="/metrics", status="200") >= 1
