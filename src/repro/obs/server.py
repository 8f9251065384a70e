"""Admin HTTP endpoint: the live operations plane of a running observer.

A deployed eavesdropper is a long-running process (continuous ingest,
daily retrains, generation rollovers) whose interesting state — what is
serving, how stale it is, whether the last retrain drifted — lives in
memory.  :class:`AdminServer` exposes that state over plain HTTP on a
loopback port, stdlib only:

=================  =========================================================
route              serves
=================  =========================================================
``/metrics``       text exposition of the live registry;
                   ``?scope=fleet`` renders the coordinator's merged
                   snapshot instead (the shard workers' latest telemetry,
                   ``shard``-labelled); both scopes honour ``?format=``:
                   ``prometheus`` (0.0.4, the default, no exemplars) or
                   ``openmetrics`` (bucket exemplars, ``# EOF``)
``/healthz``       process liveness (200 as long as the thread answers)
``/readyz``        200 iff a model generation is loaded **and** the
                   supervisor is not mid-validation; 503 otherwise, with
                   a JSON body explaining which condition failed
``/varz``          JSON snapshot: run_id, serving generation, uptime,
                   checkpoint age, stream/supervisor counters
``/generations``   the artifact store's manifest list
``/drift/latest``  the most recent :class:`~repro.obs.drift.DriftReport`
``/slo``           every declared objective with burn rates and budgets
``/alerts``        only the objectives whose multi-window alert is firing
``/profile``       the continuous profiler's report, or an on-demand
                   bounded burst (``?seconds=N``, collapsed/speedscope
                   via ``?format=...``)
``/flight``        the flight recorder's ring (``?dump=1`` also writes
                   the configured dump file atomically)
``/shards``        the shard coordinator's fleet state: per-worker pid,
                   liveness, sequence cursors, restarts, checkpoints,
                   plus live telemetry (events/s, lag, heartbeat age)
``/trace``         index of reassembled traces the tracer has seen
``/trace/<id>``    one trace as a span tree — coordinator-side and
                   adopted worker-side spans reassembled by parent ids
=================  =========================================================

In code the table is :data:`_ROUTES`: each route names the query
parameters it accepts and one handler, and :meth:`AdminServer._handle`
dispatches every request through it.  Query parameters are validated
before any work happens: unknown parameters, non-numeric numbers,
out-of-range values, and oversized query strings are client errors
(4xx) — a garbage request can never 500 or tie up the process
(``/profile`` bursts are bounded to ``MAX_PROFILE_SECONDS``).

Readiness semantics (also documented in README "Operations"): the gate
window is *validation*, not degradation.  While the supervisor runs its
post-train checks (``supervisor.validating``), a rollback may be about
to replace the serving pointer, so load balancers should hold traffic —
``/readyz`` returns 503.  A *degraded* supervisor (consecutive lost
days) keeps serving the last good generation by design; that is exactly
the failure mode this system exists to survive, so ``/readyz`` stays 200
and reports ``degraded: true`` in the body for alerting.

The server threads only ever *read* shared state (the registry locks
internally; generations are immutable; model swaps are single
assignments), so attaching it to a live stream is safe without any
cooperation from the hot path.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qsl

from repro.obs.logging import get_logger, get_run_id
from repro.obs.metrics import MetricsRegistry, snapshot_to_prometheus
from repro.obs.tracing import NULL_TRACER, Tracer, span_to_wire

log = get_logger("obs.server")

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

MAX_QUERY_LENGTH = 1024
MAX_PROFILE_SECONDS = 60.0


class _ParamError(ValueError):
    """A client sent a query string we refuse to act on (HTTP 400)."""


def _parse_query(raw: str, allowed: tuple[str, ...]) -> dict[str, str]:
    """Validated query parameters; raises :class:`_ParamError` on junk."""
    if not raw:
        return {}
    if len(raw) > MAX_QUERY_LENGTH:
        raise _ParamError(
            f"query string too long ({len(raw)} > {MAX_QUERY_LENGTH})"
        )
    params: dict[str, str] = {}
    for key, value in parse_qsl(raw, keep_blank_values=True):
        if key not in allowed:
            raise _ParamError(
                f"unknown parameter {key!r}; allowed: {sorted(allowed)}"
            )
        if key in params:
            raise _ParamError(f"duplicate parameter {key!r}")
        params[key] = value
    return params


def _parse_number(
    params: dict[str, str],
    key: str,
    default: float,
    minimum: float,
    maximum: float,
) -> float:
    raw = params.get(key)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise _ParamError(f"{key} must be a number, got {raw!r}") from None
    if value != value or not minimum <= value <= maximum:
        raise _ParamError(
            f"{key} must be in [{minimum:g}, {maximum:g}], got {raw!r}"
        )
    return value


def _resolve(target):
    """Attachment targets may be objects or zero-arg callables.

    Callables let a caller attach state that does not exist yet — e.g.
    the experiment runner's supervisor, which is created mid-run — and
    have the server see it the moment it appears.
    """
    return target() if callable(target) else target


class AdminServer:
    """Loopback HTTP admin plane over a live metrics registry.

    Construct with the registry, :meth:`attach` whatever operational
    state exists (stream, store, supervisor, pipeline), then
    :meth:`start`.  ``port=0`` binds an ephemeral port (read it back
    from :attr:`port` after start); the routes' answers are also plain
    methods (:meth:`ready`, :meth:`varz`, ...) so tests can ask the same
    questions without HTTP, and the store answers are module functions
    (:func:`store_generations`, :func:`latest_drift_report`) that the
    offline ``doctor`` bundle shares.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer: Tracer | None = None,
        run_id: str | None = None,
    ):
        self.registry = registry
        self.host = host
        self._requested_port = port
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.run_id = run_id
        self._stream = None
        self._store = None
        self._supervisor = None
        self._pipeline = None
        self._checkpoint_path = None
        self._slo_engine = None
        self._profiler = None
        self._flight = None
        self._flight_path = None
        self._coordinator = None
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._requests_total = registry.counter(
            "admin_requests_total",
            "Admin-endpoint requests served, by route and status.",
            labelnames=("route", "status"),
        )

    def attach(
        self,
        stream=None,
        store=None,
        supervisor=None,
        pipeline=None,
        checkpoint_path=None,
        slo_engine=None,
        profiler=None,
        flight=None,
        flight_path=None,
        coordinator=None,
    ) -> "AdminServer":
        """Attach live state; each argument may be the object or a thunk.

        Only non-None arguments are updated, so components can attach
        themselves as they come up.  Returns self for chaining.
        """
        if stream is not None:
            self._stream = stream
        if store is not None:
            self._store = store
        if supervisor is not None:
            self._supervisor = supervisor
        if pipeline is not None:
            self._pipeline = pipeline
        if checkpoint_path is not None:
            self._checkpoint_path = checkpoint_path
        if slo_engine is not None:
            self._slo_engine = slo_engine
        if profiler is not None:
            self._profiler = profiler
        if flight is not None:
            self._flight = flight
        if flight_path is not None:
            self._flight_path = flight_path
        if coordinator is not None:
            self._coordinator = coordinator
        return self

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AdminServer":
        if self._httpd is not None:
            raise RuntimeError("admin server already started")
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib handler contract)
                server._handle(self)

            def log_message(self, format, *args):
                pass   # requests go to admin_requests_total, not stderr

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), _Handler
        )
        self._httpd.daemon_threads = True
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="admin-server",
            daemon=True,
        )
        self._thread.start()
        log.info("admin server listening", host=self.host, port=self.port)
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    def url(self, path: str = "") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def __enter__(self) -> "AdminServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- state questions (HTTP-free, reused by tests and doctor) -------------

    def model_loaded(self) -> bool:
        stream = _resolve(self._stream)
        if stream is not None:
            return bool(stream.has_model)
        pipeline = _resolve(self._pipeline)
        if pipeline is not None:
            return bool(getattr(pipeline, "is_trained", False))
        return False

    def ready(self) -> tuple[bool, dict]:
        """(ready?, explanatory body) — the ``/readyz`` contract."""
        supervisor = _resolve(self._supervisor)
        loaded = self.model_loaded()
        validating = bool(supervisor.validating) if supervisor else False
        ready = loaded and not validating
        body = {
            "ready": ready,
            "model_loaded": loaded,
            "validating": validating,
            "serving_generation": self._serving_generation(),
        }
        if supervisor is not None:
            body["degraded"] = bool(supervisor.is_degraded)
            body["consecutive_failures"] = supervisor.consecutive_failures
        return ready, body

    def _serving_generation(self) -> str | None:
        stream = _resolve(self._stream)
        if stream is not None:
            generation = getattr(stream, "serving_generation", None)
            if generation is not None:
                return generation
        store = _resolve(self._store)
        if store is not None:
            return store.latest_id()
        return None

    def varz(self) -> dict:
        """The ``/varz`` JSON: one glance at what this process is doing."""
        now = time.time()
        stream = _resolve(self._stream)
        supervisor = _resolve(self._supervisor)
        body: dict = {
            "run_id": self.run_id or get_run_id(),
            "uptime_seconds": (
                None if self._started_at is None
                else round(now - self._started_at, 3)
            ),
            "serving_generation": self._serving_generation(),
            "model_loaded": self.model_loaded(),
        }
        if stream is not None:
            checkpoint_time = stream.last_checkpoint_time
            body["stream"] = {
                "events_seen": stream.events_seen,
                "profiles_emitted": stream.profiles_emitted,
                "model_swaps": stream.model_swaps,
                "active_clients": stream.active_clients,
                "checkpoint_age_seconds": (
                    None if checkpoint_time is None
                    else round(now - checkpoint_time, 3)
                ),
            }
        if supervisor is not None:
            body["supervisor"] = {
                "successes": supervisor.successes,
                "failed_days": len(supervisor.failed_days),
                "consecutive_failures": supervisor.consecutive_failures,
                "degraded": bool(supervisor.is_degraded),
                "validating": bool(supervisor.validating),
                "last_success_day": supervisor.last_success_day,
            }
        coordinator = _resolve(self._coordinator)
        if coordinator is not None:
            fleet = coordinator.status()
            body["fleet"] = {
                "workers": fleet["num_shards"],
                "num_shards": fleet["num_shards"],
                "salt": fleet["salt"],
                "restarts": fleet["restarts"],
                "started": fleet["started"],
                "finished": fleet["finished"],
            }
        return body

    def generations(self) -> dict | None:
        """The ``/generations`` JSON; None without an attached store."""
        store = _resolve(self._store)
        return None if store is None else store_generations(store)

    def drift_latest(self) -> dict | None:
        """Most recent drift report: live supervisor first, then store."""
        supervisor = _resolve(self._supervisor)
        if supervisor is not None:
            report = getattr(supervisor, "last_drift_report", None)
            if report is not None:
                return report.to_dict()
        store = _resolve(self._store)
        found = None if store is None else latest_drift_report(store)
        if found is None:
            return None
        return json.loads(found[1].read_text())

    def slo_report(self) -> dict | None:
        """The ``/slo`` JSON; None without an attached engine."""
        engine = _resolve(self._slo_engine)
        if engine is None:
            return None
        return engine.slo_report()

    def alerts_report(self) -> dict | None:
        """The ``/alerts`` JSON; None without an attached engine."""
        engine = _resolve(self._slo_engine)
        if engine is None:
            return None
        return engine.alerts_report()

    def profile_burst(self, seconds: float, hz: float):
        """A bounded on-demand burst on a *fresh* profiler instance.

        Each request gets its own sampler, so concurrent bursts (or a
        burst alongside the continuous profiler) never contend on state.
        """
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler(hz=hz, registry=self.registry)
        profiler.run_for(seconds)
        return profiler

    def flight_report(self, dump: bool = False) -> dict | None:
        """The ``/flight`` JSON; None without an attached recorder."""
        flight = _resolve(self._flight)
        if flight is None:
            return None
        body = flight.report(reason="admin-route")
        if dump and self._flight_path is not None:
            body["dump_path"] = str(
                flight.dump(self._flight_path, reason="admin-route")
            )
        return body

    def shards_report(self) -> dict | None:
        """The ``/shards`` JSON; None without an attached coordinator."""
        coordinator = _resolve(self._coordinator)
        if coordinator is None:
            return None
        return coordinator.status()

    def traces_report(self, limit: int = 100) -> dict:
        """The ``/trace`` index: recently completed traces, newest first."""
        traces: dict[str, dict] = {}
        for root in self.tracer.spans():
            for span in root.walk():
                if not span.trace_id:
                    continue
                entry = traces.setdefault(span.trace_id, {
                    "trace_id": span.trace_id,
                    "spans": 0,
                    "start_wall": span.start_wall,
                    "names": set(),
                })
                entry["spans"] += 1
                entry["start_wall"] = min(
                    entry["start_wall"], span.start_wall
                )
                entry["names"].add(span.name)
        listing = sorted(
            traces.values(), key=lambda e: e["start_wall"], reverse=True
        )[:limit]
        for entry in listing:
            entry["names"] = sorted(entry["names"])
        return {"count": len(traces), "traces": listing}

    def trace_report(self, trace_id: str) -> dict | None:
        """The ``/trace/<id>`` JSON: the trace's spans reassembled into
        trees by parent span id (a span whose parent was not recorded —
        e.g. the worker half arriving before the coordinator half is
        queried — becomes its own root).  None for an unknown id."""
        spans = self.tracer.trace_spans(trace_id)
        if not spans:
            return None
        nodes = {}
        for span in spans:
            wire = span_to_wire(span, children=False)
            wire["children"] = []
            nodes[id(span)] = (span, wire)
        by_span_id = {
            span.span_id: wire
            for span, wire in nodes.values()
            if span.span_id
        }
        roots = []
        for span, wire in nodes.values():
            parent = (
                by_span_id.get(span.parent_span_id)
                if span.parent_span_id else None
            )
            if parent is not None and parent is not wire:
                parent["children"].append(wire)
            else:
                roots.append(wire)
        return {
            "trace_id": trace_id,
            "span_count": len(spans),
            "roots": roots,
        }

    # -- route handlers ------------------------------------------------------

    def _serve_metrics(self, params: dict[str, str]) -> tuple[int, str, bytes]:
        """``/metrics``: ``scope`` picks the snapshot, ``format`` how it
        is rendered."""
        scope = params.get("scope", "process")
        if scope not in ("process", "fleet"):
            raise _ParamError(
                f"scope must be process or fleet, got {scope!r}"
            )
        fmt = params.get("format", "prometheus")
        if fmt not in ("prometheus", "openmetrics"):
            raise _ParamError(
                f"format must be prometheus or openmetrics, got {fmt!r}"
            )
        if scope == "fleet":
            coordinator = _resolve(self._coordinator)
            if coordinator is None:
                return _not_found("no shard coordinator attached")
            snapshot = coordinator.fleet_metrics_snapshot()
        else:
            snapshot = self.registry.snapshot()
        if fmt == "openmetrics":
            text = snapshot_to_prometheus(snapshot, exemplars=True)
            return 200, OPENMETRICS_CONTENT_TYPE, (text + "# EOF\n").encode()
        return 200, PROMETHEUS_CONTENT_TYPE, (
            snapshot_to_prometheus(snapshot).encode()
        )

    def _serve_ready(self) -> tuple[int, str, bytes]:
        ready, body = self.ready()
        return (200 if ready else 503), "application/json", _json_bytes(body)

    def _serve_profile(self, params: dict[str, str]) -> tuple[int, str, bytes]:
        """The ``/profile`` route: continuous report or bounded burst."""
        fmt = params.get("format", "report")
        if fmt not in ("report", "collapsed", "speedscope"):
            raise _ParamError(
                f"format must be report, collapsed or speedscope, "
                f"got {fmt!r}"
            )
        if "seconds" in params:
            seconds = _parse_number(
                params, "seconds", 5.0, 0.1, MAX_PROFILE_SECONDS
            )
            hz = _parse_number(params, "hz", 100.0, 1.0, 1000.0)
            profiler = self.profile_burst(seconds, hz)
        else:
            if "hz" in params:
                raise _ParamError("hz only applies to ?seconds= bursts")
            profiler = _resolve(self._profiler)
            if profiler is None:
                return _not_found(
                    "no continuous profiler attached; "
                    "request a burst with ?seconds=N"
                )
        if fmt == "collapsed":
            return 200, "text/plain; charset=utf-8", (
                profiler.to_collapsed().encode()
            )
        if fmt == "speedscope":
            return 200, "application/json", (
                json.dumps(profiler.to_speedscope()) + "\n"
            ).encode()
        return _json_ok(profiler.report())

    def _serve_trace(self, trace_id: str) -> tuple[int, str, bytes]:
        """``/trace`` (the index) and ``/trace/<id>`` (one tree)."""
        if not trace_id:
            return _json_ok(self.traces_report())
        if "/" in trace_id:
            raise _ParamError(f"malformed trace id {trace_id!r}")
        body = self.trace_report(trace_id)
        if body is None:
            return _not_found(f"no spans recorded for trace {trace_id!r}")
        return _json_ok(body)

    # -- request dispatch ----------------------------------------------------

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        path, _, query = handler.path.partition("?")
        route = path.rstrip("/") or "/"
        label, entry, tail = _lookup(route)
        try:
            if entry is None:
                status, content_type, payload = _not_found(
                    f"unknown route {route!r}"
                )
            else:
                status, content_type, payload = entry.serve(
                    self, _parse_query(query, entry.params), tail
                )
        except _ParamError as error:
            status = 400
            content_type = "application/json"
            payload = _json_bytes({"error": str(error)})
        except Exception as error:   # a broken route must not kill serving
            status = 500
            content_type = "application/json"
            payload = _json_bytes(
                {"error": f"{type(error).__name__}: {error}"}
            )
            log.error(
                "admin route failed", route=label,
                error=f"{type(error).__name__}: {error}",
            )
        self._requests_total.labels(route=label, status=str(status)).inc()
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(payload)))
        handler.end_headers()
        handler.wfile.write(payload)


# -- store answers (shared with the offline doctor bundle) -------------------


def store_generations(store) -> dict:
    """The ``/generations`` JSON of an artifact store: every generation
    manifest, oldest first, with the serving one marked."""
    serving = store.latest_id()
    return {
        "serving": serving,
        "generations": [
            {
                "generation_id": record.generation_id,
                "created_from_day": record.created_from_day,
                "created_at": record.created_at,
                "components": sorted(record.components),
                "index_backend": record.index_meta.get("backend"),
                "serving": record.generation_id == serving,
            }
            for record in store.list_generations()
        ],
    }


def latest_drift_report(store):
    """(generation id, report path) of the newest generation in ``store``
    that carries a drift report; None when none does."""
    from repro.store import DRIFT_REPORT_COMPONENT

    for record in reversed(store.list_generations()):
        if record.has_component(DRIFT_REPORT_COMPONENT):
            return (
                record.generation_id,
                record.component_path(DRIFT_REPORT_COMPONENT),
            )
    return None


# -- the route table ---------------------------------------------------------


def _json_bytes(body: dict) -> bytes:
    return (json.dumps(body, indent=2, sort_keys=True) + "\n").encode()


def _json_ok(body: dict) -> tuple[int, str, bytes]:
    return 200, "application/json", _json_bytes(body)


def _not_found(reason: str) -> tuple[int, str, bytes]:
    return 404, "application/json", _json_bytes({"error": reason})


def _parse_flag(params: dict[str, str], key: str) -> bool:
    """A ``0``/``1`` query flag; absent means 0."""
    raw = params.get(key)
    if raw is not None and raw not in ("0", "1"):
        raise _ParamError(f"{key} must be 0 or 1, got {raw!r}")
    return raw == "1"


def _answer(ask: Callable, missing: str) -> Callable:
    """Handler for a route over one answer method: 200 with
    ``ask(server, params)`` as JSON, or a 404 saying ``missing`` when the
    answer is None (the state it reads is not attached)."""

    def serve(server, params, tail):
        body = ask(server, params)
        return _not_found(missing) if body is None else _json_ok(body)

    return serve


@dataclass(frozen=True)
class _Route:
    """One admin route: the query parameters it accepts, and its handler
    ``serve(server, params, tail) -> (status, content type, payload)``.
    ``tail`` is the path below a route that takes one (``/trace/<id>``);
    such requests are counted under the route's own label."""

    params: tuple[str, ...]
    serve: Callable
    takes_tail: bool = False


_ROUTES: dict[str, _Route] = {
    "/metrics": _Route(
        ("format", "scope"), lambda s, p, t: s._serve_metrics(p)
    ),
    "/healthz": _Route(
        (), lambda s, p, t: (200, "application/json", b'{"ok": true}\n')
    ),
    "/readyz": _Route((), lambda s, p, t: s._serve_ready()),
    "/varz": _Route((), lambda s, p, t: _json_ok(s.varz())),
    "/generations": _Route((), _answer(
        lambda s, p: s.generations(), "no artifact store attached"
    )),
    "/drift/latest": _Route((), _answer(
        lambda s, p: s.drift_latest(), "no drift report yet"
    )),
    "/slo": _Route((), _answer(
        lambda s, p: s.slo_report(), "no SLO engine attached"
    )),
    "/alerts": _Route((), _answer(
        lambda s, p: s.alerts_report(), "no SLO engine attached"
    )),
    "/shards": _Route((), _answer(
        lambda s, p: s.shards_report(), "no shard coordinator attached"
    )),
    "/flight": _Route(("dump",), _answer(
        lambda s, p: s.flight_report(dump=_parse_flag(p, "dump")),
        "no flight recorder attached",
    )),
    "/profile": _Route(
        ("seconds", "hz", "format"), lambda s, p, t: s._serve_profile(p)
    ),
    "/trace": _Route((), lambda s, p, t: s._serve_trace(t), takes_tail=True),
}


def _lookup(route: str) -> tuple[str, _Route | None, str]:
    """(counter label, table entry, tail) for a normalised request path.

    An unknown path has no entry and the single ``<other>`` label —
    unbounded label values are a leak.
    """
    entry = _ROUTES.get(route)
    if entry is not None:
        return route, entry, ""
    head, _, tail = route[1:].partition("/")
    entry = _ROUTES.get("/" + head)
    if entry is not None and entry.takes_tail:
        return "/" + head, entry, tail
    return "<other>", None, ""
