"""Process-parallel profiling runtime: shard by client, share the model.

The paper notes its observer pipeline is "fully parallelizable" because
sessions are independent: every per-client structure (sliding window,
report grid, emitted profiles) keys on the client id and never reads
another client's state.  This package turns that observation into a
runtime:

* :class:`ShardRouter` — a stable hash partition of client ids across N
  shards, NAT-aware so clients merged behind one egress stay co-located
  (their windows must live in one worker);
* :class:`ShardWorker` — one shard's :class:`~repro.core.streaming.
  StreamingProfiler` plus its per-shard checkpoint (atomic JSON, cursor
  semantics borrowed from the worldgen `GenerationCursor`);
* :class:`ShardCoordinator` — spawns the workers, feeds them sequenced
  event batches, trims its replay buffer on durable acks, restarts a
  killed worker from its own checkpoint (replaying only that shard's
  unacknowledged batches), and merges results and per-worker metrics
  (:func:`repro.obs.merge_snapshots`) into one fleet view.

The coordinator exports the model once (``embeddings.npz`` +
``profiler.json``) and every worker loads that directory with the same
loader a store restore uses, building its own cosine index over the
archive's unit rows.

Parity is exact, not approximate: partitioning preserves each client's
event subsequence, per-client profiling state never crosses clients,
and all workers load byte-identical model files — so the merged fleet
emissions equal the single-process run's, which the parity tests pin
over N ∈ {1, 2, 4} and multiple shardings.

The fleet is observable while it runs, not only at finish: workers ship
``repro-shard-telemetry-v1`` frames (metrics snapshot, heartbeat facts,
exported trace spans) on a dedicated telemetry queue, and the
coordinator caches and merges them (``/metrics?scope=fleet``, enriched
``/shards``).  It keeps each shard's health — heartbeat age, ingest
rate, replay lag — in one record and derives from it the straggler/skew
gauges the SLO engine can alert on.
"""

from repro.shard.coordinator import FleetResult, ShardCoordinator
from repro.shard.router import ShardRouter
from repro.shard.worker import (
    SHARD_CHECKPOINT_FORMAT,
    SHARD_TELEMETRY_FORMAT,
    ShardWorker,
    WorkerSpec,
)

__all__ = [
    "FleetResult",
    "SHARD_CHECKPOINT_FORMAT",
    "SHARD_TELEMETRY_FORMAT",
    "ShardCoordinator",
    "ShardRouter",
    "ShardWorker",
    "WorkerSpec",
]
