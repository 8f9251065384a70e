"""One shard of the fleet: a StreamingProfiler plus its checkpoint.

A :class:`ShardWorker` owns every client the :class:`~repro.shard.router.
ShardRouter` assigns to its shard id, and nothing else.  It is driven by
sequenced event batches — the sequence number, not wall clock, is the
unit of progress — and persists an atomic per-shard checkpoint
(``repro-shard-checkpoint-v1``) carrying:

* ``next_seq`` — the first batch sequence it has *not* durably applied,
  the exact analogue of the worldgen ``GenerationCursor``;
* the embedded :meth:`StreamingProfiler.snapshot_state` (windows, report
  grids, counters);
* every profile emitted so far, as JSON payloads (``repr`` floats
  round-trip exactly, so a profile that crossed a checkpoint compares
  equal to one computed in-process).

``kill -9`` therefore loses only this shard's progress since its last
acknowledged checkpoint; the coordinator respawns the worker, which
restores here and reports ``next_seq`` so exactly the unacknowledged
batches are replayed — at-least-once delivery, exactly-once application.

The class is process-agnostic: :func:`_worker_main` is the spawn target,
but tests drive the same object in-process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.pipeline import NetworkObserverProfiler, PipelineConfig
from repro.core.streaming import StreamingConfig, StreamingProfiler
from repro.netobs.flows import HostnameEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    NULL_TRACER,
    TraceContext,
    Tracer,
    span_to_wire,
)
from repro.shard.router import ShardRouter
from repro.utils.serialization import atomic_write_text

SHARD_CHECKPOINT_FORMAT = "repro-shard-checkpoint-v1"
SHARD_TELEMETRY_FORMAT = "repro-shard-telemetry-v1"

#: Longest an idle worker waits on its inbox before checking that its
#: coordinator is still alive, when no telemetry interval bounds the wait.
PARENT_CHECK_SECONDS = 1.0


@dataclass
class WorkerSpec:
    """Everything a spawned worker needs, in picklable primitives.

    No lambdas, no live objects with locks: the router travels as its
    primitive spec, the model as a directory path (each worker loads
    the coordinator's export), the stream config as a plain kwargs
    dict.
    """

    shard_id: int
    num_shards: int
    checkpoint_path: str
    router: dict = field(default_factory=dict)
    model_dir: str | None = None
    labelled: dict = field(default_factory=dict)
    stream_config: dict = field(default_factory=dict)
    tracker_filter: object | None = None
    # Batches applied between durable checkpoints; 0 checkpoints only at
    # finish (cheapest, but a kill replays the whole shard stream).
    checkpoint_every_batches: int = 1
    # Live telemetry: the worker ships a frame (metrics snapshot, newly
    # completed sampled spans, heartbeat facts) at most this often — the
    # same cadence doubles as the idle heartbeat when no batches arrive;
    # 0 disables streaming telemetry (the final ``done`` result still
    # carries metrics).
    telemetry_interval_seconds: float = 1.0
    # Build a real tracer so wire events carrying a TraceContext record
    # worker-side spans; off by default — tracing costs nothing unless
    # the coordinator is sampling.
    tracing: bool = False
    # Per-shard flight recorder dumped here on finish and on crash.
    flight_path: str | None = None

    def build_router(self) -> ShardRouter:
        spec = dict(self.router) if self.router else {
            "num_shards": self.num_shards
        }
        spec.setdefault("num_shards", self.num_shards)
        return ShardRouter.from_spec(spec)


class ShardWorker:
    """Applies sequenced batches to one shard's streaming profiler."""

    def __init__(self, spec: WorkerSpec):
        if not 0 <= spec.shard_id < spec.num_shards:
            raise ValueError(
                f"shard_id {spec.shard_id} outside [0, {spec.num_shards})"
            )
        self.spec = spec
        self.shard_id = spec.shard_id
        self.router = spec.build_router()
        self.registry = MetricsRegistry()
        self.tracer: Tracer = Tracer() if spec.tracing else NULL_TRACER
        self.flight = None
        if spec.flight_path:
            from repro.obs.flight import FlightRecorder

            self.flight = FlightRecorder(registry=self.registry)
        self.checkpoint_path = Path(spec.checkpoint_path)
        self.next_seq = 0
        self.emissions: list[dict] = []
        self.restored = False
        self.last_checkpoint_wall: float | None = None
        snapshot = self._load_checkpoint()
        if snapshot is not None:
            self.stream = StreamingProfiler.from_snapshot(
                snapshot["stream"],
                tracker_filter=spec.tracker_filter,
                registry=self.registry,
                tracer=self.tracer,
            )
            self.next_seq = int(snapshot["next_seq"])
            self.emissions = list(snapshot["emissions"])
            self.restored = True
        else:
            self.stream = StreamingProfiler(
                config=StreamingConfig(**spec.stream_config),
                tracker_filter=spec.tracker_filter,
                registry=self.registry,
                tracer=self.tracer,
            )
        if self.flight is not None:
            self.stream.flight = self.flight
            self.flight.record(
                "state",
                "shard.restore" if self.restored else "shard.fresh",
                shard=self.shard_id,
                next_seq=self.next_seq,
            )
        self._attach_model()

    # -- model ----------------------------------------------------------------

    def _attach_model(self) -> None:
        if self.spec.model_dir is None:
            return
        pipeline = NetworkObserverProfiler(
            self.spec.labelled,
            config=PipelineConfig(),
            tracker_filter=self.spec.tracker_filter,
            registry=self.registry,
            tracer=self.tracer,
        )
        pipeline.load_model_dir(self.spec.model_dir)
        if self.restored:
            # Warm restart: the same model resumes serving, so the swap
            # counter restored from the snapshot must not advance.
            self.stream._profiler = pipeline.profiler
        else:
            self.stream.swap_model(pipeline.profiler)

    # -- checkpoint -----------------------------------------------------------

    def _load_checkpoint(self) -> dict | None:
        if not self.checkpoint_path.exists():
            return None
        snapshot = json.loads(self.checkpoint_path.read_text())
        if snapshot.get("format") != SHARD_CHECKPOINT_FORMAT:
            raise ValueError(
                f"unknown shard checkpoint format "
                f"{snapshot.get('format')!r}"
            )
        if (
            int(snapshot["shard_id"]) != self.spec.shard_id
            or int(snapshot["num_shards"]) != self.spec.num_shards
        ):
            raise ValueError(
                f"checkpoint belongs to shard "
                f"{snapshot['shard_id']}/{snapshot['num_shards']}, "
                f"this worker is "
                f"{self.spec.shard_id}/{self.spec.num_shards}"
            )
        return snapshot

    def checkpoint(self) -> None:
        """Durably persist shard progress (atomic ``.tmp`` + replace)."""
        payload = {
            "format": SHARD_CHECKPOINT_FORMAT,
            "shard_id": self.spec.shard_id,
            "num_shards": self.spec.num_shards,
            "next_seq": self.next_seq,
            "emissions": self.emissions,
            "stream": self.stream.snapshot_state(),
        }
        atomic_write_text(self.checkpoint_path, json.dumps(payload))
        self.last_checkpoint_wall = time.time()

    # -- ingestion ------------------------------------------------------------

    def ingest_batch(self, seq: int, events: list[tuple]) -> int:
        """Apply one sequenced batch; returns profiles emitted by it.

        Replayed batches (``seq < next_seq``) are skipped whole — they
        were durably applied before a crash, and re-applying would
        double-count — making at-least-once delivery exactly-once
        application.  A gap (``seq > next_seq``) means the feed protocol
        broke; failing loudly beats silently dropping a window.

        Wire events are 4-tuples ``(client_ip, timestamp, hostname,
        source)``; a 5th element, when present, is a serialized
        :class:`TraceContext` (``(trace_id, span_id)``) stamped by a
        sampling coordinator — the event joins that trace here, so its
        ``stream.ingest`` → ``profile.session`` → ``index.search`` spans
        parent back to the coordinator's dispatch span across the
        process boundary.
        """
        if seq < self.next_seq:
            return 0
        if seq > self.next_seq:
            raise RuntimeError(
                f"shard {self.shard_id}: batch gap — expected seq "
                f"{self.next_seq}, got {seq}"
            )
        emitted = 0
        for wire in events:
            client_ip, timestamp, hostname, source = wire[:4]
            trace = (
                TraceContext.from_wire(wire[4]) if len(wire) > 4 else None
            )
            if self.router.shard_of(client_ip) != self.shard_id:
                raise RuntimeError(
                    f"client {client_ip} routed to shard "
                    f"{self.router.shard_of(client_ip)}, delivered to "
                    f"shard {self.shard_id}"
                )
            emission = self.stream.ingest(
                HostnameEvent(
                    client_ip=client_ip,
                    timestamp=timestamp,
                    hostname=hostname,
                    source=source,
                    trace=trace,
                )
            )
            if emission is not None:
                emitted += 1
                self.emissions.append({
                    "client": emission.client,
                    "timestamp": emission.timestamp,
                    "profile": emission.profile.to_payload(),
                    "window_hosts": list(emission.window_hosts),
                })
        self.next_seq = seq + 1
        return emitted

    # -- telemetry -------------------------------------------------------------

    def telemetry_frame(self) -> dict:
        """One live telemetry frame (``repro-shard-telemetry-v1``).

        Everything the coordinator's fleet view needs between acks: the
        full metrics snapshot (cheap relative to a 4k-event batch), the
        heartbeat facts its straggler gauges derive from, and every
        completed sampled span tree — drained, so each span ships
        exactly once and the worker's memory stays bounded.
        """
        now = time.time()
        return {
            "format": SHARD_TELEMETRY_FORMAT,
            "shard_id": self.shard_id,
            "wall": now,
            "next_seq": self.next_seq,
            "events_seen": self.stream.events_seen,
            "profiles_emitted": self.stream.profiles_emitted,
            "active_clients": self.stream.active_clients,
            "checkpoint_age_seconds": (
                None if self.last_checkpoint_wall is None
                else max(0.0, now - self.last_checkpoint_wall)
            ),
            "metrics": self.registry.snapshot(),
            "spans": [
                span_to_wire(root)
                for root in self.tracer.drain_sampled()
            ],
        }

    # -- results --------------------------------------------------------------

    def result(self) -> dict:
        """The shard's contribution to the fleet merge (JSON-safe)."""
        return {
            "shard_id": self.shard_id,
            "next_seq": self.next_seq,
            "emissions": self.emissions,
            "events_seen": self.stream.events_seen,
            "profiles_emitted": self.stream.profiles_emitted,
            "active_clients": self.stream.active_clients,
            "metrics": self.registry.snapshot(),
        }


def _worker_main(spec: WorkerSpec, inbox, outbox, telemetry) -> None:
    """Spawn target: restore, announce readiness, then apply batches.

    Protocol (all tuples, picklable):

    * out ``("ready", shard_id, next_seq)`` — restored (possibly from
      checkpoint); the coordinator replays retained batches from
      ``next_seq``.
    * in  ``("batch", seq, events)`` — apply; every
      ``checkpoint_every_batches`` applied batches, checkpoint and send
      ``("ack", shard_id, next_seq)`` (an ack promises durability — the
      coordinator trims its replay buffer below ``next_seq``).
    * telemetry ``("telemetry", shard_id, frame)`` — a live
      ``repro-shard-telemetry-v1`` frame (metrics snapshot, completed
      sampled spans, heartbeat facts), always on the dedicated
      ``telemetry`` queue, never the outbox, so any coordinator thread
      can drain frames without touching the control channel the
      dispatch loop owns.  A frame goes out right after ``ready``,
      after an applied batch at most every
      ``telemetry_interval_seconds``, after every *idle* interval with
      no batch (the heartbeat — silence must mean *stuck*, never merely
      unloaded), and right before ``done``.  Telemetry is advisory: the
      coordinator caches the latest frame per shard and never acks it.
    * in  ``("finish",)`` — final checkpoint, send
      ``("done", shard_id, result)``, exit.
    * out ``("error", shard_id, traceback)`` on any failure, then exit
      nonzero so the coordinator can distinguish crash from kill.

    An idle worker whose coordinator has died exits on its own.  A
    coordinator killed by a signal never runs the ``atexit`` hook in
    which multiprocessing terminates daemon children, so without this
    check its workers would wait on their inboxes forever.
    """
    try:
        worker = ShardWorker(spec)
        if worker.flight is not None and spec.flight_path:
            # The ring survives what the worker process does not.
            worker.flight.install_crash_hooks(spec.flight_path)
        outbox.put(("ready", worker.shard_id, worker.next_seq))
        interval = spec.telemetry_interval_seconds

        def emit_frame() -> None:
            telemetry.put(("telemetry", worker.shard_id,
                           worker.telemetry_frame()))

        if interval > 0:
            emit_frame()
        last_telemetry = time.monotonic()
        since_checkpoint = 0
        parent = multiprocessing.parent_process()
        while True:
            try:
                message = inbox.get(
                    timeout=interval if interval > 0
                    else PARENT_CHECK_SECONDS
                )
            except queue_module.Empty:
                if parent is not None and not parent.is_alive():
                    # Nobody is left to read our queues, so skip the
                    # feeder-thread joins a normal exit would block on.
                    os._exit(0)
                if interval > 0:
                    # Idle heartbeat: no batch arrived within a telemetry
                    # interval.  A SIGSTOPped worker cannot reach this
                    # line, so heartbeat age cleanly separates stuck from
                    # idle.
                    emit_frame()
                    last_telemetry = time.monotonic()
                continue
            kind = message[0]
            if kind == "batch":
                _, seq, events = message
                applied_before = worker.next_seq
                worker.ingest_batch(seq, events)
                if worker.next_seq > applied_before:
                    since_checkpoint += 1
                every = spec.checkpoint_every_batches
                if every > 0 and since_checkpoint >= every:
                    worker.checkpoint()
                    since_checkpoint = 0
                    outbox.put(("ack", worker.shard_id, worker.next_seq))
                if interval > 0 and (
                    time.monotonic() - last_telemetry >= interval
                ):
                    emit_frame()
                    last_telemetry = time.monotonic()
            elif kind == "finish":
                worker.checkpoint()
                if worker.flight is not None and spec.flight_path:
                    worker.flight.record(
                        "state", "shard.finish",
                        shard=worker.shard_id, next_seq=worker.next_seq,
                    )
                    try:
                        worker.flight.dump(spec.flight_path, reason="finish")
                    except Exception:
                        pass  # telemetry must not block the done message
                if interval > 0:
                    # Flush the final frame so spans completed since the
                    # last one reach the coordinator before done.
                    emit_frame()
                outbox.put(("done", worker.shard_id, worker.result()))
                return
            else:
                raise RuntimeError(f"unknown message kind {kind!r}")
    except BaseException:
        try:
            outbox.put(("error", spec.shard_id, traceback.format_exc()))
        finally:
            os._exit(1)
