"""Streaming profiler: the deployable, line-rate shape of the pipeline.

The batch pipeline (train on yesterday, profile a given window) is what
the paper evaluates; a real network observer runs *continuously*.  This
module provides that deployment shape:

* events arrive one at a time (from the packet observer, a pcap replay,
  or any source of (client, time, hostname) facts);
* per-client sliding windows of the last T minutes are maintained
  incrementally, with first-visit dedup and tracker filtering;
* profiles are emitted on each client's report grid (every 10 minutes of
  activity), matching the experiment's cadence;
* the embedding model is swapped atomically whenever the daily retrain
  finishes — exactly the paper's "train a new model that we immediately
  start using".
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.profiler import SessionProfile, SessionProfiler
from repro.core.session import first_visits
from repro.netobs.flows import HostnameEvent
from repro.obs.metrics import LATENCY_BUCKETS_FAST, MetricsRegistry
from repro.obs.tracing import (
    NULL_TRACER,
    HeadSampler,
    Tracer,
    current_exemplar,
    use_trace,
)
from repro.traffic.blocklists import TrackerFilter
from repro.utils.serialization import atomic_write_text
from repro.utils.timeutils import minutes


#: Checkpoint snapshot versions :meth:`StreamingProfiler.restore` accepts.
SUPPORTED_CHECKPOINT_VERSIONS = (1,)


class CheckpointVersionError(ValueError):
    """A checkpoint snapshot's version is outside the supported range.

    Raised instead of a bare ``ValueError`` so operators (and upgrade
    tooling) can distinguish "snapshot from an incompatible release" from
    garden-variety bad input; the message names the supported range.
    """

    def __init__(self, found):
        self.found = found
        versions = ", ".join(str(v) for v in SUPPORTED_CHECKPOINT_VERSIONS)
        super().__init__(
            f"unsupported checkpoint version {found!r}; this build "
            f"supports version(s) {versions}"
        )


@dataclass(frozen=True)
class ProfileEmission:
    """One profile produced by the stream."""

    client: str
    timestamp: float
    profile: SessionProfile
    window_hosts: tuple[str, ...]


@dataclass
class StreamingConfig:
    session_minutes: float = 20.0
    report_interval_minutes: float = 10.0
    # Forget clients silent for this long (state bound, like a flow table).
    client_idle_timeout_minutes: float = 24 * 60.0
    # Bounded-lateness tolerance for out-of-order arrivals: an event up to
    # this many seconds behind its client's newest event is re-inserted in
    # timestamp order; anything older is counted and dropped.  0 keeps the
    # strict in-order contract (late events are dropped, never raised).
    max_lateness_seconds: float = 0.0

    def validate(self) -> None:
        if self.session_minutes <= 0:
            raise ValueError("session_minutes must be positive")
        if self.report_interval_minutes <= 0:
            raise ValueError("report_interval_minutes must be positive")
        if self.client_idle_timeout_minutes <= 0:
            raise ValueError("client_idle_timeout_minutes must be positive")
        if self.max_lateness_seconds < 0:
            raise ValueError("max_lateness_seconds must be >= 0")


@dataclass
class _ClientState:
    events: deque = field(default_factory=deque)   # (timestamp, hostname)
    next_report: float | None = None
    last_seen: float = 0.0


class StreamingProfiler:
    """Consumes hostname events; emits profiles on each client's grid."""

    def __init__(
        self,
        config: StreamingConfig | None = None,
        tracker_filter: TrackerFilter | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        trace_sampler: HeadSampler | None = None,
        flight=None,
    ):
        self.config = config or StreamingConfig()
        self.config.validate()
        self.tracker_filter = tracker_filter
        # Request-scoped tracing: the head sampler decides (per client,
        # deterministically) whether an event starts a trace; sampled
        # ingests become root spans whose children — profile.session,
        # index.search — are stamped wherever they run.  The flight
        # recorder (if any) keeps digests of sampled ingests and state
        # transitions for post-mortems.
        self.trace_sampler = trace_sampler
        self.flight = flight
        # Copied onto every profiler swapped in (see SessionProfiler.
        # chaos_delay_seconds): the CLI's latency-spike rehearsal.
        self.chaos_profile_delay_seconds = 0.0
        self._profiler: SessionProfiler | None = None
        self._clients: dict[str, _ClientState] = {}
        # Operational facts the admin plane reports (/varz, /readyz):
        # which store generation the serving model came from (None for a
        # model swapped in without one) and when the last checkpoint hit
        # disk (wall clock; None until the first checkpoint).
        self.serving_generation: str | None = None
        self.last_checkpoint_time: float | None = None
        # All counters live on the registry — checkpoints, telemetry
        # exports and the legacy attribute reads below see one source of
        # truth, and direct attribute mutation is impossible.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        m = self.registry
        self._events_total = m.counter(
            "stream_events_total",
            "Hostname events ingested by the streaming profiler.",
        )
        self._filtered_total = m.counter(
            "stream_events_filtered_total",
            "Events dropped by the tracker filter before windowing.",
        )
        self._profiles_total = m.counter(
            "stream_profiles_total", "Profiles emitted on report ticks."
        )
        self._swaps_total = m.counter(
            "stream_model_swaps_total",
            "Atomic model swaps (published daily retrains).",
        )
        self._late_reordered_total = m.counter(
            "stream_late_events_reordered_total",
            "Out-of-order events re-inserted within the lateness bound.",
        )
        self._late_dropped_total = m.counter(
            "stream_late_events_dropped_total",
            "Out-of-order events older than the lateness bound, dropped.",
        )
        self._active_clients_gauge = m.gauge(
            "stream_active_clients", "Clients with live session state."
        )
        self._emit_latency = m.histogram(
            "stream_emit_latency_seconds",
            "Wall time to compute one emitted profile at a report tick.",
            buckets=LATENCY_BUCKETS_FAST,
        )

    # -- registry-backed counters -------------------------------------------
    # Read-only views; the counters themselves are the state (assignment
    # raises AttributeError, so checkpoints can never drift from what a
    # caller mutated behind the registry's back).

    @property
    def events_seen(self) -> int:
        return int(self._events_total.value)

    @property
    def profiles_emitted(self) -> int:
        return int(self._profiles_total.value)

    @property
    def model_swaps(self) -> int:
        return int(self._swaps_total.value)

    @property
    def late_events_reordered(self) -> int:
        return int(self._late_reordered_total.value)

    @property
    def late_events_dropped(self) -> int:
        return int(self._late_dropped_total.value)

    # -- model management ---------------------------------------------------

    @property
    def has_model(self) -> bool:
        return self._profiler is not None

    def swap_model(
        self, profiler: SessionProfiler, generation: str | None = None
    ) -> None:
        """Atomically replace the profiling model (the daily retrain).

        The profiler arrives with its vector index already built and
        bound (see ``NetworkObserverProfiler._build_profiler``), so the
        swap publishes model and index together in one assignment.
        ``generation`` names the store generation this model came from,
        for the admin plane; an unpersisted model clears it.
        """
        self._profiler = profiler
        if self.chaos_profile_delay_seconds:
            profiler.chaos_delay_seconds = self.chaos_profile_delay_seconds
        self.serving_generation = generation
        self._swaps_total.inc()
        if self.flight is not None:
            self.flight.record("state", "model-swap", generation=generation)

    def set_chaos_profile_delay(self, seconds: float) -> None:
        """Arm the latency-spike rehearsal: the serving profiler (and any
        profiler swapped in later) sleeps this long inside its timed
        profiling path, inflating ``profile_latency_seconds`` so the SLO
        engine's burn-rate alert can be exercised end to end."""
        self.chaos_profile_delay_seconds = float(seconds)
        if self._profiler is not None:
            self._profiler.chaos_delay_seconds = float(seconds)

    # -- event ingestion -------------------------------------------------------

    def _window(self, state: _ClientState, now: float) -> tuple[str, ...]:
        horizon = now - minutes(self.config.session_minutes)
        while state.events and state.events[0][0] <= horizon:
            state.events.popleft()
        # Events after the tick stay buffered for the next window.
        return first_visits(h for t, h in state.events if t <= now)

    def _admit_late(self, state: _ClientState, event: HostnameEvent) -> None:
        """Insert an in-tolerance late event at its timestamp position."""
        position = len(state.events)
        while position > 0 and state.events[position - 1][0] > event.timestamp:
            position -= 1
        state.events.insert(position, (event.timestamp, event.hostname))

    def ingest(self, event: HostnameEvent) -> ProfileEmission | None:
        """Feed one event; returns a profile if a report tick fired.

        Events normally arrive in (per-client) non-decreasing time order,
        as they do off a wire — but a real wire reorders.  An event at most
        ``max_lateness_seconds`` behind its client's newest is re-inserted
        in timestamp order (it joins subsequent windows but fires no tick);
        older stragglers are counted in ``late_events_dropped`` and
        discarded.

        Tracing: an event whose ``trace`` field carries a context (set by
        a sampled :meth:`NetworkObserver.ingest <repro.netobs.observer.
        NetworkObserver.ingest>`) joins that trace; otherwise, with a
        ``trace_sampler`` attached, a sampled client's event starts a
        fresh one.  Either way the ``stream.ingest`` span plus any
        tick-fired profile and index search land in one trace, and the
        latency histograms export that trace id as their exemplar.
        Unsampled events take the bare path.
        """
        if self.tracer.null:
            return self._ingest(event)
        ctx = getattr(event, "trace", None)
        if ctx is None and self.trace_sampler is not None:
            ctx = self.trace_sampler.start(event.client_ip)
        if ctx is None:
            return self._ingest(event)
        with use_trace(ctx):
            with self.tracer.span(
                "stream.ingest", client=event.client_ip,
                host=event.hostname,
            ):
                emission = self._ingest(event)
        if self.flight is not None:
            self.flight.record(
                "flow", event.hostname, client=event.client_ip,
                source=event.source, trace_id=ctx.trace_id,
                emitted=emission is not None,
            )
        return emission

    def _ingest(self, event: HostnameEvent) -> ProfileEmission | None:
        self._events_total.inc()
        if self.tracker_filter is not None and self.tracker_filter.blocks(
            event.hostname
        ):
            self._filtered_total.inc()
            return None
        state = self._clients.setdefault(event.client_ip, _ClientState())
        self._active_clients_gauge.set(len(self._clients))
        newest = max(
            state.last_seen, state.events[-1][0] if state.events else 0.0
        )
        if (state.events or state.next_report is not None) \
                and event.timestamp < newest:
            if newest - event.timestamp > self.config.max_lateness_seconds:
                self._late_dropped_total.inc()
                return None
            self._admit_late(state, event)
            self._late_reordered_total.inc()
            return None
        state.events.append((event.timestamp, event.hostname))
        state.last_seen = event.timestamp
        if state.next_report is None:
            # first activity anchors this client's report grid
            state.next_report = event.timestamp + minutes(
                self.config.report_interval_minutes
            )
            return None
        if event.timestamp < state.next_report or self._profiler is None:
            return None
        # A tick elapsed; profile at the tick time, then advance the grid
        # past "now" (idle ticks need no work — nothing browsed).
        tick = state.next_report
        interval = minutes(self.config.report_interval_minutes)
        while state.next_report <= event.timestamp:
            state.next_report += interval
        window_hosts = self._window(state, tick)
        if not window_hosts:
            return None
        emit_start = time.perf_counter()
        profile = self._profiler.profile(list(window_hosts))
        self._emit_latency.observe(
            time.perf_counter() - emit_start, exemplar=current_exemplar()
        )
        self._profiles_total.inc()
        return ProfileEmission(
            client=event.client_ip,
            timestamp=tick,
            profile=profile,
            window_hosts=window_hosts,
        )

    def ingest_many(self, events) -> list[ProfileEmission]:
        emissions = []
        for event in events:
            emission = self.ingest(event)
            if emission is not None:
                emissions.append(emission)
        return emissions

    # -- checkpoint / restore -------------------------------------------------

    def snapshot_state(self) -> dict:
        """The checkpoint snapshot as a JSON-safe dict.

        Shared by :meth:`checkpoint` (which writes it to disk) and the
        sharded runtime (which embeds it inside each worker's per-shard
        checkpoint); :meth:`from_snapshot` is the inverse.
        """
        return {
            "version": 1,
            "config": {
                "session_minutes": self.config.session_minutes,
                "report_interval_minutes":
                    self.config.report_interval_minutes,
                "client_idle_timeout_minutes":
                    self.config.client_idle_timeout_minutes,
                "max_lateness_seconds": self.config.max_lateness_seconds,
            },
            "counters": {
                "events_seen": self.events_seen,
                "profiles_emitted": self.profiles_emitted,
                "model_swaps": self.model_swaps,
                "late_events_reordered": self.late_events_reordered,
                "late_events_dropped": self.late_events_dropped,
            },
            "clients": {
                client: {
                    "events": [[t, h] for t, h in state.events],
                    "next_report": state.next_report,
                    "last_seen": state.last_seen,
                }
                for client, state in self._clients.items()
            },
        }

    def checkpoint(self, path: str | Path) -> None:
        """Snapshot all session state to ``path`` (atomic JSON write).

        Captures per-client windows, report grids and counters so a crashed
        observer resumes mid-day without losing session state.  The model
        itself is *not* serialized here — it lives in the artifact store
        as a published generation (the pipeline's ``publish_generation``);
        pass ``store``/``pipeline`` to :meth:`restore` to reattach it.
        """
        atomic_write_text(path, json.dumps(self.snapshot_state()))
        self.last_checkpoint_time = time.time()

    @classmethod
    def restore(
        cls,
        path: str | Path,
        tracker_filter: TrackerFilter | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        store=None,
        pipeline=None,
    ) -> "StreamingProfiler":
        """Rebuild a profiler from a :meth:`checkpoint` snapshot.

        Without a ``store``, the restored instance has no model
        (``has_model`` is False) until the caller swaps one in —
        emissions resume on the original report grids either way.
        Counters are restored onto the registry, so a metrics snapshot
        taken after restore matches one taken before the checkpoint
        exactly.

        Pass ``store`` (an :class:`~repro.store.ArtifactStore`) together
        with ``pipeline`` (a :class:`NetworkObserverProfiler` built
        against the labelled set) and the killed observer comes back in
        one call with *both* halves of its state: session windows from
        the checkpoint, and the serving model from ``store.latest()``
        (digest-verified, index loaded rather than rebuilt).  An empty
        store restores session state only.

        Snapshots outside :data:`SUPPORTED_CHECKPOINT_VERSIONS` raise
        :class:`CheckpointVersionError`.
        """
        if (store is None) != (pipeline is None):
            raise ValueError(
                "store and pipeline must be provided together"
            )
        snapshot = json.loads(Path(path).read_text())
        stream = cls.from_snapshot(
            snapshot,
            tracker_filter=tracker_filter,
            registry=registry,
            tracer=tracer,
        )
        if store is not None and store.latest() is not None:
            record = pipeline.load_generation(store)
            # Direct attach, not swap_model(): a warm restart resumes the
            # model that was already serving, so the swap counter (which
            # was just restored from the snapshot) must not advance.
            stream._profiler = pipeline.profiler
            stream.serving_generation = record.generation_id
        return stream

    @classmethod
    def from_snapshot(
        cls,
        snapshot: dict,
        tracker_filter: TrackerFilter | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> "StreamingProfiler":
        """Rebuild session state from a :meth:`snapshot_state` dict.

        The in-memory half of :meth:`restore` — shard workers embed the
        snapshot inside their own checkpoint files and rebuild from it
        here without a standalone stream-checkpoint file.
        """
        if snapshot.get("version") not in SUPPORTED_CHECKPOINT_VERSIONS:
            raise CheckpointVersionError(snapshot.get("version"))
        stream = cls(
            config=StreamingConfig(**snapshot["config"]),
            tracker_filter=tracker_filter,
            registry=registry,
            tracer=tracer,
        )
        counters = snapshot["counters"]
        stream._events_total.reset(counters["events_seen"])
        stream._profiles_total.reset(counters["profiles_emitted"])
        stream._swaps_total.reset(counters["model_swaps"])
        stream._late_reordered_total.reset(counters["late_events_reordered"])
        stream._late_dropped_total.reset(counters["late_events_dropped"])
        for client, saved in snapshot["clients"].items():
            state = _ClientState(
                events=deque(
                    (float(t), str(h)) for t, h in saved["events"]
                ),
                next_report=saved["next_report"],
                last_seen=saved["last_seen"],
            )
            stream._clients[client] = state
        stream._active_clients_gauge.set(len(stream._clients))
        return stream

    # -- housekeeping ---------------------------------------------------------

    def evict_idle(self, now: float) -> int:
        """Drop clients idle past the timeout; returns how many."""
        horizon = now - minutes(self.config.client_idle_timeout_minutes)
        idle = [
            client
            for client, state in self._clients.items()
            if state.last_seen < horizon
        ]
        for client in idle:
            del self._clients[client]
        self._active_clients_gauge.set(len(self._clients))
        return len(idle)

    @property
    def active_clients(self) -> int:
        return len(self._clients)
