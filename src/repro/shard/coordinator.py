"""The fleet: spawn shard workers, feed them, survive their deaths.

The coordinator owns the only global view: it partitions each incoming
event batch with the :class:`~repro.shard.router.ShardRouter`, stamps
each shard's slice with a per-shard sequence number, and retains every
sent batch until the owning worker *durably* acknowledges it (an ack is
sent only after the worker's checkpoint hit disk).  That replay buffer
is the whole fault story: when a worker dies — crash or ``kill -9`` —
the coordinator respawns it with fresh queues (stale queued items would
create sequence gaps), waits for the restored worker to report its
checkpoint's ``next_seq``, and replays exactly the retained batches from
there.  Delivery is at-least-once; the worker's sequence check makes
application exactly-once, so the day completes with no duplicate and no
dropped sessions.

Results merge in one place: per-shard emissions concatenate and sort
into the canonical ``(timestamp, client)`` order, and per-worker metric
registries merge through :func:`repro.obs.merge_snapshots` into a single
fleet snapshot the admin server can serve.

The coordinator is also the fleet's telemetry sink.  Workers ship
``repro-shard-telemetry-v1`` frames on a dedicated per-shard telemetry
queue (see :meth:`repro.shard.worker.ShardWorker.telemetry_frame`) —
separate from the ack/control channel precisely so the coordinator's
heartbeat thread and admin scrapes can drain frames while the dispatch
loop is blocked or idle.  The coordinator caches the latest frame per
shard and grafts any exported worker spans into its own tracer
(cross-process trace reassembly).  Every frame is also a heartbeat: a
shard's one record, :class:`_ShardState`, defines its heartbeat age,
ingest rate and replay lag once, and the ``/shards`` rows, the ``fleet``
summary and the ``fleet_*`` straggler/skew gauges the SLO engine alerts
on all read those definitions.  :meth:`fleet_metrics_snapshot` and
:meth:`status` back the admin server's ``/metrics?scope=fleet`` and
``/shards`` routes.  When a head sampler is attached, :meth:`dispatch`
stamps each sampled client's events with a ``(trace_id, span_id)`` wire
context so the trace survives the coordinator→worker hop.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, label_snapshot
from repro.obs.tracing import NULL_TRACER, span_from_wire, use_trace
from repro.shard.router import ShardRouter
from repro.shard.worker import WorkerSpec, _worker_main

log = get_logger("shard.coordinator")

#: Generous: a spawned worker imports numpy + repro and loads the model
#: before it reports ready; CI runners under load need headroom.
READY_TIMEOUT_SECONDS = 120.0

#: Trailing window over which per-shard throughput is computed.
THROUGHPUT_WINDOW_SECONDS = 30.0


class ShardWorkerError(RuntimeError):
    """A worker reported an application error (not a kill)."""


@dataclass
class FleetResult:
    """Merged output of a completed fleet run."""

    emissions: list[dict]
    per_shard: list[dict]
    metrics: dict
    restarts: int = 0

    @property
    def events_seen(self) -> int:
        return sum(s["events_seen"] for s in self.per_shard)

    @property
    def profiles_emitted(self) -> int:
        return sum(s["profiles_emitted"] for s in self.per_shard)


@dataclass
class _ShardState:
    """Coordinator-side bookkeeping and health record for one worker."""

    process: object | None = None
    inbox: object | None = None
    outbox: object | None = None
    telemetry_q: object | None = None   # dedicated heartbeat/frame channel
    sent_seq: int = 0          # next sequence number to assign
    acked_seq: int = 0         # everything below is durable on disk
    retained: dict = field(default_factory=dict)   # seq -> events
    result: dict | None = None
    restarts: int = 0
    telemetry: dict | None = None      # latest repro-shard-telemetry-v1 frame
    telemetry_mono: float | None = None   # monotonic instant it arrived
    spawned_mono: float | None = None     # monotonic instant of last spawn
    # Trailing (monotonic instant, cumulative events_seen) per frame.
    samples: deque = field(default_factory=deque)

    def observe_frame(self, frame: dict, now: float) -> None:
        """Keep the latest frame and its ``(now, events_seen)`` sample."""
        self.telemetry = frame
        self.telemetry_mono = now
        self.samples.append((now, float(frame.get("events_seen", 0))))
        horizon = now - THROUGHPUT_WINDOW_SECONDS
        while len(self.samples) > 2 and self.samples[1][0] <= horizon:
            self.samples.popleft()

    @property
    def lag_batches(self) -> int:
        """Batches sent but not yet durably acked."""
        return max(0, self.sent_seq - self.acked_seq)

    def heartbeat_age(self, now: float) -> float | None:
        """Seconds since the last frame, counted from spawn before the
        first; None once the shard's ``done`` result arrived."""
        if self.result is not None:
            return None
        reference = (
            self.telemetry_mono if self.telemetry_mono is not None
            else self.spawned_mono
        )
        return None if reference is None else max(0.0, now - reference)

    def events_per_second(self) -> float | None:
        """Trailing-window ingest rate; None before two frames arrived."""
        if len(self.samples) < 2:
            return None
        (t0, e0), (t1, e1) = self.samples[0], self.samples[-1]
        if t1 <= t0:
            return None
        return max(0.0, (e1 - e0) / (t1 - t0))


def event_wire(event) -> tuple:
    """A HostnameEvent as the 4-tuple that crosses worker queues."""
    return (
        event.client_ip, event.timestamp, event.hostname, event.source,
    )


class ShardCoordinator:
    """Feed N shard workers from one event stream; merge their output."""

    def __init__(
        self,
        num_shards: int,
        checkpoint_dir: str | Path,
        model_dir: str | Path | None = None,
        labelled: dict | None = None,
        stream_config: dict | None = None,
        tracker_filter=None,
        salt: str = "",
        nat_groups: dict[str, str] | None = None,
        checkpoint_every_batches: int = 1,
        registry: MetricsRegistry | None = None,
        tracer=None,
        trace_sampler=None,
        flight=None,
        telemetry_interval_seconds: float = 1.0,
    ):
        self.router = ShardRouter(
            num_shards, salt=salt, nat_groups=nat_groups
        )
        self.num_shards = int(num_shards)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.model_dir = str(model_dir) if model_dir is not None else None
        self.labelled = labelled or {}
        self.stream_config = dict(stream_config or {})
        self.tracker_filter = tracker_filter
        self.checkpoint_every_batches = int(checkpoint_every_batches)
        self._ctx = mp.get_context("spawn")
        self._shards = [_ShardState() for _ in range(self.num_shards)]
        self._started = False
        self._finished = False
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self._dispatched_total = registry.counter(
            "shard_batches_dispatched_total",
            "Sequenced batches sent to shard workers.",
            labelnames=("shard",),
        )
        self._restarts_total = registry.counter(
            "shard_worker_restarts_total",
            "Workers respawned from their per-shard checkpoint.",
            labelnames=("shard",),
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_sampler = trace_sampler
        self.flight = flight
        self.telemetry_interval_seconds = float(telemetry_interval_seconds)
        # One stable wire context per sampled client for the whole run:
        # HeadSampler mints a fresh trace id per start() call, so caching
        # here is what makes a client's events share a single trace.
        self._client_traces: dict[str, tuple | None] = {}
        # Guards the shards' health records: the heartbeat thread, admin
        # scrapes and the dispatch loop may all pull frames; the lock
        # keeps each shard's frames applied in arrival order and a
        # refresh's gauges consistent with the rows built beside them.
        self._telemetry_lock = threading.RLock()
        self._heartbeat: threading.Thread | None = None
        self._stop = threading.Event()
        self._frames_total = registry.counter(
            "fleet_telemetry_frames_total",
            "Telemetry frames received from shard workers.",
            labelnames=("shard",),
        )
        self._rate_gauge = registry.gauge(
            "fleet_shard_events_per_second",
            "Per-shard ingest rate over the trailing telemetry window.",
            labelnames=("shard",),
        )
        self._lag_gauge = registry.gauge(
            "fleet_shard_lag_batches",
            "Batches sent to the shard but not yet durably acked.",
            labelnames=("shard",),
        )
        self._heartbeat_gauge = registry.gauge(
            "fleet_shard_heartbeat_age_seconds",
            "Seconds since the shard's last telemetry frame.",
            labelnames=("shard",),
        )
        self._max_heartbeat_gauge = registry.gauge(
            "fleet_max_heartbeat_age_seconds",
            "Worst heartbeat age across live (not-done) shards.",
        )
        self._max_lag_gauge = registry.gauge(
            "fleet_max_lag_batches",
            "Worst sent-minus-acked replay lag across live shards.",
        )
        self._lag_skew_gauge = registry.gauge(
            "fleet_lag_skew_batches",
            "Max minus min replay lag across live shards.",
        )
        self._throughput_skew_gauge = registry.gauge(
            "fleet_throughput_skew",
            "1 - min/max per-shard ingest rate (0 balanced, 1 skewed).",
        )

    # -- specs and paths -------------------------------------------------------

    def shard_checkpoint_path(self, shard: int) -> Path:
        return self.checkpoint_dir / f"shard-{shard:03d}.json"

    def shard_flight_path(self, shard: int) -> Path:
        return self.checkpoint_dir / f"shard-{shard:03d}-flight.json"

    def _spec(self, shard: int) -> WorkerSpec:
        return WorkerSpec(
            shard_id=shard,
            num_shards=self.num_shards,
            checkpoint_path=str(self.shard_checkpoint_path(shard)),
            router=self.router.spec(),
            model_dir=self.model_dir,
            labelled=self.labelled,
            stream_config=self.stream_config,
            tracker_filter=self.tracker_filter,
            checkpoint_every_batches=self.checkpoint_every_batches,
            telemetry_interval_seconds=self.telemetry_interval_seconds,
            tracing=self.trace_sampler is not None,
            flight_path=(
                str(self.shard_flight_path(shard))
                if self.flight is not None else None
            ),
        )

    def _record_worker_event(self, name: str, shard: int, **fields) -> None:
        if self.flight is not None:
            self.flight.record("worker", name, shard=shard, **fields)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker and wait for the ready handshake, then start
        the heartbeat thread (none when telemetry is off)."""
        if self._started:
            raise RuntimeError("coordinator already started")
        self._started = True
        for shard in range(self.num_shards):
            self._spawn(shard)
        if self.telemetry_interval_seconds > 0:
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop, name="fleet-heartbeat",
                daemon=True,
            )
            self._heartbeat.start()

    def _heartbeat_loop(self) -> None:
        """Refresh the ``fleet_*`` gauges at the telemetry cadence.

        The thread — not the dispatch loop — is what keeps straggler
        gauges honest: when the coordinator blocks feeding a wedged
        shard, dispatch-driven refreshes would freeze exactly when the
        heartbeat age should be climbing.  It builds no ``/shards`` rows:
        their ``is_alive()`` is a ``waitpid`` that would race the
        dispatch loop's own checks for dead workers.
        """
        while not self._stop.wait(self.telemetry_interval_seconds):
            try:
                self._refresh_fleet()
            except Exception as error:  # monitoring must not kill feeding
                log.error(
                    "fleet gauge refresh failed",
                    error=f"{type(error).__name__}: {error}",
                )

    def _stop_heartbeat(self) -> None:
        self._stop.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=5.0)

    def _spawn(self, shard: int) -> int:
        """(Re)spawn one worker; returns its reported ``next_seq``.

        Queues are always created fresh: a dead worker's inbox may hold
        items it never applied, and re-delivering them to the restored
        worker out of order would trip its sequence check.  The retained
        buffer, not the old queue, is the source of truth for replay.
        """
        state = self._shards[shard]
        self._discard_queues(state)
        state.inbox = self._ctx.Queue()
        state.outbox = self._ctx.Queue()
        state.telemetry_q = self._ctx.Queue()
        state.process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._spec(shard), state.inbox, state.outbox,
                state.telemetry_q,
            ),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        state.process.start()
        message = self._get(shard, timeout=READY_TIMEOUT_SECONDS)
        if message[0] == "error":
            raise ShardWorkerError(
                f"shard {shard} failed to start:\n{message[2]}"
            )
        if message[0] != "ready":
            raise RuntimeError(
                f"shard {shard}: expected ready, got {message[0]!r}"
            )
        next_seq = int(message[2])
        # Everything below the checkpoint's cursor is durable — trim it;
        # everything at or above it that we already sent is replayed.
        state.acked_seq = max(state.acked_seq, next_seq)
        replayed = 0
        for seq in sorted(state.retained):
            if seq < next_seq:
                del state.retained[seq]
            else:
                state.inbox.put(("batch", seq, state.retained[seq]))
                replayed += 1
        state.spawned_mono = time.monotonic()
        self._record_worker_event(
            "shard.spawn" if state.restarts == 0 else "shard.respawn",
            shard,
            pid=state.process.pid,
            next_seq=next_seq,
            restarts=state.restarts,
        )
        if replayed:
            self._record_worker_event(
                "shard.replay", shard,
                batches=replayed, from_seq=next_seq,
            )
        return next_seq

    @staticmethod
    def _discard_queues(state: _ShardState) -> None:
        """Release a dead worker's queues without joining their feeders.

        A killed worker leaves unread pickles in its inbox pipe; the
        queue's feeder thread blocks on that write forever, and the
        default exit finalizer would join it — hanging the coordinator
        process at shutdown.  ``cancel_join_thread`` severs that tie.
        """
        for old in (state.inbox, state.outbox, state.telemetry_q):
            if old is not None:
                old.cancel_join_thread()
                old.close()
        state.inbox = None
        state.outbox = None
        state.telemetry_q = None

    def _get(self, shard: int, timeout: float):
        """One message from a worker's outbox, watching for death."""
        state = self._shards[shard]
        deadline = time.monotonic() + timeout
        while True:
            try:
                return state.outbox.get(timeout=0.2)
            except queue_module.Empty:
                if not state.process.is_alive():
                    # Drain any last message the dying worker flushed.
                    try:
                        return state.outbox.get(timeout=0.2)
                    except queue_module.Empty:
                        raise _WorkerDied(shard) from None
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"shard {shard}: no message within {timeout}s"
                    ) from None

    def _restart(self, shard: int) -> None:
        """Respawn a dead worker from its checkpoint and replay."""
        state = self._shards[shard]
        if state.process is not None:
            state.process.join(timeout=5)
        self._record_worker_event(
            "shard.crash", shard,
            pid=state.process.pid if state.process is not None else None,
            sent_seq=state.sent_seq,
            acked_seq=state.acked_seq,
        )
        state.restarts += 1
        self._restarts_total.labels(shard=str(shard)).inc()
        self._spawn(shard)

    def _drain_acks(self, shard: int) -> None:
        """Trim the replay buffer on any durable acks that arrived."""
        state = self._shards[shard]
        while True:
            try:
                message = state.outbox.get_nowait()
            except queue_module.Empty:
                return
            self._apply_message(shard, message)

    def _apply_message(self, shard: int, message) -> None:
        state = self._shards[shard]
        kind = message[0]
        if kind == "ack":
            acked = int(message[2])
            state.acked_seq = max(state.acked_seq, acked)
            for seq in [s for s in state.retained if s < acked]:
                del state.retained[seq]
        elif kind == "done":
            state.result = message[2]
            self._record_worker_event(
                "shard.done", shard,
                events_seen=message[2].get("events_seen"),
                restarts=state.restarts,
            )
        elif kind == "error":
            raise ShardWorkerError(
                f"shard {shard} failed:\n{message[2]}"
            )
        else:
            raise RuntimeError(
                f"shard {shard}: unexpected message {kind!r}"
            )

    def _ingest_telemetry(self, shard: int, frame: dict) -> None:
        """Fold one worker telemetry frame into the fleet view.

        The latest frame wins (each carries a cumulative registry
        snapshot, not a delta); exported worker spans are grafted into
        the coordinator's tracer so ``trace_spans`` — and the admin
        server's ``/trace/<id>`` — see both sides of the hop.
        """
        self._shards[shard].observe_frame(frame, time.monotonic())
        self._frames_total.labels(shard=str(shard)).inc()
        if self.tracer.null:
            return
        for wire in frame.get("spans") or ():
            try:
                root = span_from_wire(wire)
            except Exception:
                continue   # one malformed span must not poison the run
            root.tags.setdefault("shard", str(shard))
            self.tracer.adopt(root)

    def drain_telemetry(self) -> None:
        """Consume every pending frame from the telemetry queues.

        Safe from any thread — frames travel on their own queue, so
        draining here can never steal a ``ready``/``done``/``error``
        message from the control channel the dispatch loop reads.  The
        heartbeat thread calls this before every gauge refresh (which is
        what lets a straggler alert *clear* while the dispatch loop is
        idle); admin scrapes call it for freshness.
        """
        with self._telemetry_lock:
            for shard, state in enumerate(self._shards):
                channel = state.telemetry_q
                if channel is None:
                    continue
                while True:
                    try:
                        message = channel.get_nowait()
                    except queue_module.Empty:
                        break
                    except (OSError, ValueError):
                        break   # queue torn down mid-respawn
                    self._ingest_telemetry(shard, message[2])

    # -- feeding ----------------------------------------------------------------

    def dispatch(self, events) -> None:
        """Partition one global batch and send each shard its slice.

        ``events`` are :class:`~repro.netobs.flows.HostnameEvent`s or
        wire 4-tuples; each shard's slice preserves the global order of
        its own clients' events, which is all per-client profiling state
        depends on.

        With a head sampler attached, a sampled client's events gain a
        fifth wire element — ``(trace_id, span_id)`` — parenting the
        worker's ingest spans under this coordinator's ``shard.route``
        span for that client.  Unsampled clients keep the 4-tuple form.
        """
        if not self._started:
            raise RuntimeError("coordinator not started")
        stamping = self.trace_sampler is not None
        slices: dict[int, list[tuple]] = {}
        for event in events:
            wire = (
                event if isinstance(event, tuple) else event_wire(event)
            )
            shard = self.router.shard_of(wire[0])
            if stamping:
                ctx_wire = self._trace_wire(wire[0], shard)
                if ctx_wire is not None:
                    wire = wire[:4] + (ctx_wire,)
            slices.setdefault(shard, []).append(wire)
        for shard, shard_events in slices.items():
            self._send(shard, shard_events)

    def _trace_wire(self, client: str, shard: int) -> tuple | None:
        """The client's cached ``(trace_id, span_id)``, minted on first
        sighting by asking the head sampler and opening a one-shot
        coordinator-side ``shard.route`` span the worker's spans will
        parent to."""
        try:
            return self._client_traces[client]
        except KeyError:
            pass
        if len(self._client_traces) > 65536:   # bound the run's cache
            self._client_traces.clear()
        ctx = self.trace_sampler.start(client)
        if ctx is None:
            self._client_traces[client] = None
            return None
        with use_trace(ctx):
            with self.tracer.span(
                "shard.route", client=client, shard=str(shard)
            ) as record:
                span_id = getattr(record, "span_id", "") or ""
        wire = (ctx.trace_id, span_id)
        self._client_traces[client] = wire
        return wire

    def _send(self, shard: int, events: list[tuple]) -> None:
        state = self._shards[shard]
        seq = state.sent_seq
        state.retained[seq] = events
        state.sent_seq += 1
        self._dispatched_total.labels(shard=str(shard)).inc()
        while True:
            if not state.process.is_alive():
                # Respawn replays everything retained (including this
                # batch — it entered the buffer before the put).
                self._restart(shard)
                return
            try:
                state.inbox.put(("batch", seq, events), timeout=0.5)
                break
            except queue_module.Full:
                # Blocked on a slow shard: keep consuming every other
                # shard's acks and telemetry so the rest of the fleet's
                # view stays live while this one wedges.
                for other in range(self.num_shards):
                    if other != shard:
                        self._drain_acks(other)
                continue
        self._drain_acks(shard)

    # -- completion ---------------------------------------------------------------

    def finish(self) -> FleetResult:
        """Flush the fleet: final checkpoints, results, merged metrics."""
        if not self._started:
            raise RuntimeError("coordinator not started")
        if self._finished:
            raise RuntimeError("coordinator already finished")
        for shard in range(self.num_shards):
            self._send_finish(shard)
        for shard in range(self.num_shards):
            self._await_done(shard)
        for state in self._shards:
            state.process.join(timeout=30)
        self._finished = True
        # Stop the heartbeat thread, then one last refresh: it drains the
        # frame each worker sent just before ``done`` (its last sampled
        # spans) and freezes the gauges at their end-of-run values —
        # every shard is done, so no heartbeat age counts and a
        # lingering admin server serves no stale alarm.
        self._stop_heartbeat()
        self._refresh_fleet()
        per_shard = [
            {
                "shard_id": state.result["shard_id"],
                "events_seen": state.result["events_seen"],
                "profiles_emitted": state.result["profiles_emitted"],
                "active_clients": state.result["active_clients"],
                "restarts": state.restarts,
            }
            for state in self._shards
        ]
        emissions = [
            emission
            for state in self._shards
            for emission in state.result["emissions"]
        ]
        emissions.sort(key=lambda e: (e["timestamp"], e["client"]))
        metrics = MetricsRegistry.merge_snapshots(
            [state.result["metrics"] for state in self._shards]
        )
        return FleetResult(
            emissions=emissions,
            per_shard=per_shard,
            metrics=metrics,
            restarts=sum(state.restarts for state in self._shards),
        )

    def _send_finish(self, shard: int) -> None:
        state = self._shards[shard]
        while True:
            if not state.process.is_alive():
                self._restart(shard)
            try:
                state.inbox.put(("finish",), timeout=0.5)
                return
            except queue_module.Full:
                continue

    def _await_done(self, shard: int) -> None:
        state = self._shards[shard]
        while state.result is None:
            try:
                message = self._get(shard, timeout=READY_TIMEOUT_SECONDS)
            except _WorkerDied:
                # Died between our finish and its done: restore, replay,
                # re-issue finish.
                self._restart(shard)
                self._send_finish(shard)
                continue
            self._apply_message(shard, message)

    # -- liveness & introspection ---------------------------------------------

    def poll(self) -> list[int]:
        """Detect and restart dead workers; returns restarted shard ids.

        Call between dispatches (the CLI does, once per trace batch) so
        a kill during a lull is healed before more load arrives.
        """
        restarted = []
        for shard, state in enumerate(self._shards):
            if (
                state.process is not None
                and not state.process.is_alive()
                and state.result is None
                and not self._finished
            ):
                self._restart(shard)
                restarted.append(shard)
        return restarted

    def fleet_metrics_snapshot(self) -> dict:
        """One merged ``repro-metrics-v1`` snapshot for the whole fleet.

        The coordinator's own registry merges with each shard's latest
        telemetry frame (or its final ``done`` registry once finished),
        every per-shard series stamped with a ``shard`` label so merged
        families stay distinguishable.  Backs ``/metrics?scope=fleet``.
        """
        self.drain_telemetry()
        snapshots = [self.registry.snapshot()]
        for shard, state in enumerate(self._shards):
            if state.result is not None:
                shard_metrics = state.result["metrics"]
            elif state.telemetry is not None:
                shard_metrics = state.telemetry["metrics"]
            else:
                continue
            snapshots.append(
                label_snapshot(shard_metrics, shard=str(shard))
            )
        return MetricsRegistry.merge_snapshots(snapshots)

    def _refresh_fleet(self) -> tuple[float, dict]:
        """Drain pending frames, then set every ``fleet_*`` gauge from
        the shard records; returns the instant used and the ``fleet``
        summary.  Shards with no heartbeat age (finished) are left out
        of the aggregates."""
        with self._telemetry_lock:
            self.drain_telemetry()
            now = time.monotonic()
            ages: list[float] = []
            lags: list[int] = []
            rates: list[float] = []
            for shard, state in enumerate(self._shards):
                label = str(shard)
                lag = state.lag_batches
                self._lag_gauge.labels(shard=label).set(lag)
                rate = state.events_per_second()
                if rate is not None:
                    self._rate_gauge.labels(shard=label).set(rate)
                age = state.heartbeat_age(now)
                if age is None:
                    continue
                self._heartbeat_gauge.labels(shard=label).set(age)
                ages.append(age)
                lags.append(lag)
                if rate is not None:
                    rates.append(rate)
            max_age = max(ages, default=0.0)
            max_lag = max(lags, default=0)
            lag_skew = (max_lag - min(lags)) if lags else 0
            throughput_skew = 0.0
            if len(rates) >= 2 and max(rates) > 0:
                throughput_skew = 1.0 - min(rates) / max(rates)
            self._max_heartbeat_gauge.set(max_age)
            self._max_lag_gauge.set(max_lag)
            self._lag_skew_gauge.set(lag_skew)
            self._throughput_skew_gauge.set(throughput_skew)
        return now, {
            "max_heartbeat_age_seconds": round(max_age, 3),
            "max_lag_batches": max_lag,
            "lag_skew_batches": lag_skew,
            "throughput_skew": round(throughput_skew, 4),
        }

    def _shard_status(self, shard: int, state: _ShardState, now: float) -> dict:
        frame = state.telemetry
        age = state.heartbeat_age(now)
        rate = state.events_per_second()
        checkpoint_age = None
        if frame is not None and frame.get("checkpoint_age_seconds") is not None:
            # The frame reports age at send time; add its time in flight.
            checkpoint_age = round(
                frame["checkpoint_age_seconds"] + now - state.telemetry_mono,
                3,
            )
        return {
            "shard_id": shard,
            "pid": (
                state.process.pid
                if state.process is not None else None
            ),
            "alive": (
                state.process is not None
                and state.process.is_alive()
            ),
            "sent_seq": state.sent_seq,
            "acked_seq": state.acked_seq,
            "lag_batches": state.lag_batches,
            "retained_batches": len(state.retained),
            "restarts": state.restarts,
            "done": state.result is not None,
            "checkpoint": str(self.shard_checkpoint_path(shard)),
            "events_seen": frame["events_seen"] if frame else None,
            "profiles_emitted": (
                frame["profiles_emitted"] if frame else None
            ),
            "active_clients": frame["active_clients"] if frame else None,
            "events_per_second": (
                round(rate, 2) if rate is not None else None
            ),
            "heartbeat_age_seconds": (
                round(age, 3) if age is not None else None
            ),
            "checkpoint_age_seconds": checkpoint_age,
            "last_heartbeat_wall": frame["wall"] if frame else None,
        }

    def status(self) -> dict:
        """Fleet state for the admin server's ``/shards`` route."""
        with self._telemetry_lock:
            now, fleet = self._refresh_fleet()
            shards = [
                self._shard_status(shard, state, now)
                for shard, state in enumerate(self._shards)
            ]
        return {
            "num_shards": self.num_shards,
            "workers": self.num_shards,
            "started": self._started,
            "finished": self._finished,
            "salt": self.router.salt,
            "nat_groups": len(self.router.nat_groups),
            "model_dir": self.model_dir,
            "restarts": sum(s.restarts for s in self._shards),
            "telemetry_interval_seconds": self.telemetry_interval_seconds,
            "fleet": fleet,
            "shards": shards,
        }

    # -- hard shutdown -----------------------------------------------------------

    def terminate(self) -> None:
        """Kill every worker (tests and error paths; not a clean finish)."""
        self._stop_heartbeat()
        for state in self._shards:
            if state.process is not None and state.process.is_alive():
                state.process.terminate()
                state.process.join(timeout=5)
            self._discard_queues(state)


class _WorkerDied(Exception):
    """Internal: the worker exited without an error message (kill -9)."""

    def __init__(self, shard: int):
        self.shard = shard
        super().__init__(f"shard {shard} worker died")
