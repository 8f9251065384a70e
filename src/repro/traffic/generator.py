"""Multi-day, multi-user trace generation, streamed out of core.

:class:`StreamingTraceGenerator` assembles the browsing model into the
artefact every other subsystem consumes: time-ordered :class:`TraceBatch`es
of requests across the whole population, or (via :meth:`materialize`) a
:class:`Trace` of per-day request lists.  Day/user randomness is derived
independently (``derive_rng(seed, "day{d}.user{u}")``) so any day can be
regenerated in isolation and in any order — which is how the
daily-retraining pipeline and the benchmarks slice the timeline.

Users are realized in chunks, each chunk's day is sorted and (when more
than one chunk exists) spilled to disk, and the shards are heap-merged
back into one globally ``(timestamp, user_id)``-ordered stream — a classic
external sort whose peak memory is O(chunk + batch), never O(population).
The correctness spine is *seeded equivalence*: for any (seed, config) the
emitted stream is fixed regardless of batching and chunking, and golden
SHA-256 digests of it are pinned in ``tests/traffic/test_streamgen.py``.

Generation is resumable: every batch carries a :class:`GenerationCursor`
``(day, batch_index)`` that can be serialized like a checkpoint and handed
back to :meth:`StreamingTraceGenerator.batches` to continue mid-day
without duplicating or dropping a single event.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import tempfile
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.obs.metrics import (
    LATENCY_BUCKETS_SLOW,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.traffic.events import HostKind, Request
from repro.traffic.sessions import BrowsingModel, SessionConfig
from repro.traffic.users import UserProfile
from repro.traffic.web import SyntheticWeb
from repro.utils.randomness import derive_rng
from repro.utils.serialization import atomic_write_text
from repro.utils.timeutils import DAY_SECONDS, HOUR_SECONDS


@dataclass
class Trace:
    """Requests grouped by day, each day sorted by timestamp."""

    days: list[list[Request]]
    start_day: int = 0

    def __len__(self) -> int:
        return len(self.days)

    def day(self, day: int) -> list[Request]:
        """Requests of absolute day index ``day``."""
        index = day - self.start_day
        if not 0 <= index < len(self.days):
            last = self.start_day + len(self.days) - 1
            raise ValueError(
                f"day {day} outside trace range "
                f"[{self.start_day}, {last}]"
            )
        return self.days[index]

    def all_requests(self) -> Iterator[Request]:
        for day_requests in self.days:
            yield from day_requests

    @property
    def num_requests(self) -> int:
        return sum(len(day) for day in self.days)

    def distinct_hostnames(self) -> set[str]:
        return {r.hostname for r in self.all_requests()}

    def user_ids(self) -> set[int]:
        return {r.user_id for r in self.all_requests()}

    def user_sequences(self, day: int) -> dict[int, list[Request]]:
        """Per-user request lists for one day (each sorted by time)."""
        sequences: dict[int, list[Request]] = defaultdict(list)
        for request in self.day(day):
            sequences[request.user_id].append(request)
        return dict(sequences)

    def per_user_hostnames(self) -> dict[int, set[str]]:
        """Which hostnames each user touched over the whole trace."""
        seen: dict[int, set[str]] = defaultdict(set)
        for request in self.all_requests():
            seen[request.user_id].add(request.hostname)
        return dict(seen)

    def counts_by_kind(self) -> Counter:
        return Counter(r.kind for r in self.all_requests())

    def hostname_counts(self) -> Counter:
        return Counter(r.hostname for r in self.all_requests())

    def filter(self, keep) -> "Trace":
        """A new trace containing only requests for which ``keep(r)``."""
        return Trace(
            days=[[r for r in day if keep(r)] for day in self.days],
            start_day=self.start_day,
        )


@dataclass
class DiurnalModel:
    """When during the day sessions start.

    A two-peak mixture (lunchtime + evening) wrapped into [0, 24h); crude
    but sufficient to make "last 20 minutes" sessions realistic and to
    spread load across each simulated day.
    """

    peaks_hours: tuple[float, ...] = (13.0, 21.0)
    peak_weights: tuple[float, ...] = (0.4, 0.6)
    spread_hours: float = 3.0

    def sample_start(self, day: int, rng: np.random.Generator) -> float:
        peak = self.peaks_hours[
            int(rng.choice(len(self.peaks_hours), p=self.peak_weights))
        ]
        hour = float(rng.normal(peak, self.spread_hours)) % 24.0
        return day * DAY_SECONDS + hour * HOUR_SECONDS


def user_day_requests(
    model: BrowsingModel,
    diurnal: DiurnalModel,
    seed: int,
    user: UserProfile,
    day: int,
) -> list[Request]:
    """One user's requests for one day, from their own derived stream.

    This is the generator's seeded kernel: because the rng is namespaced
    ``day{d}.user{u}``, any (day, user) cell is reconstructible in
    isolation — the property the resume cursor, shard filtering and the
    chunking-invariance guarantee all rest on.
    """
    rng = derive_rng(seed, f"day{day}.user{user.user_id}")
    n_sessions = int(rng.poisson(user.sessions_per_day))
    requests: list[Request] = []
    for _ in range(n_sessions):
        start = diurnal.sample_start(day, rng)
        requests.extend(model.session_requests(user, start, rng))
    return requests


# -- streaming generation ----------------------------------------------------

CURSOR_FORMAT = "repro-worldgen-cursor-v1"


@dataclass(frozen=True)
class GenerationCursor:
    """Resume position of a streamed generation: the next batch to emit.

    ``(day, batch_index)`` identifies the first batch that has *not* been
    consumed yet; ``events_emitted`` is the cumulative event count up to the
    cursor (informational); ``config_digest`` fingerprints the generator
    configuration so a cursor cannot silently resume a different world.
    """

    day: int
    batch_index: int
    events_emitted: int = 0
    config_digest: str | None = None

    def save(self, path: str | Path) -> Path:
        """Serialize like a checkpoint: atomic replace, format-tagged."""
        path = Path(path)
        payload = {
            "format": CURSOR_FORMAT,
            "day": self.day,
            "batch_index": self.batch_index,
            "events_emitted": self.events_emitted,
            "config_digest": self.config_digest,
        }
        atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "GenerationCursor":
        data = json.loads(Path(path).read_text())
        if data.get("format") != CURSOR_FORMAT:
            raise ValueError(
                f"unknown cursor format {data.get('format')!r}"
            )
        return cls(
            day=int(data["day"]),
            batch_index=int(data["batch_index"]),
            events_emitted=int(data.get("events_emitted", 0)),
            config_digest=data.get("config_digest"),
        )


@dataclass
class TraceBatch:
    """A bounded, time-ordered slice of one day's request stream.

    ``resume_cursor`` points at the batch *after* this one: persisting it
    after consuming the batch makes the generation exactly-once resumable.
    """

    day: int
    index: int
    requests: list[Request] = field(repr=False)
    resume_cursor: GenerationCursor | None = None

    def __len__(self) -> int:
        return len(self.requests)


def _read_spill(handle) -> Iterator[Request]:
    """Decode one spill shard (full-precision JSON rows) lazily."""
    for line in handle:
        t, user_id, hostname, kind, site = json.loads(line)
        yield Request(
            user_id=user_id,
            timestamp=t,
            hostname=hostname,
            kind=HostKind(kind),
            site_domain=site,
        )


class StreamingTraceGenerator:
    """Seeded, resumable, out-of-core trace generation.

    Produces one fixed request stream per ``(seed, config)`` as an
    iterator of bounded :class:`TraceBatch`es whose peak memory is
    O(users_per_chunk + batch_events), never O(population x day).

    ``population`` is any provider with ``__len__`` and
    ``profile(user_id) -> UserProfile``: the materialized
    :class:`~repro.traffic.users.UserPopulation` or the million-user
    :class:`~repro.traffic.users.LazyUserPopulation`.
    """

    def __init__(
        self,
        web: SyntheticWeb,
        population,
        seed: int,
        session_config: SessionConfig | None = None,
        diurnal: DiurnalModel | None = None,
        batch_events: int = 8192,
        users_per_chunk: int = 25_000,
        spill_dir: str | Path | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        flight=None,
    ):
        if batch_events < 1:
            raise ValueError("batch_events must be >= 1")
        if users_per_chunk < 1:
            raise ValueError("users_per_chunk must be >= 1")
        self.web = web
        self.population = population
        self.seed = int(seed)
        self.model = BrowsingModel(web, session_config)
        self.diurnal = diurnal or DiurnalModel()
        self.batch_events = int(batch_events)
        self.users_per_chunk = int(users_per_chunk)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.registry = registry if registry is not None else NullRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.flight = flight
        # Live day iterators, so close() can shut them (and their spill
        # directories) down deterministically.  Weak: an iterator that
        # was consumed to exhaustion or GC'd drops out on its own.
        self._active_iters: weakref.WeakSet = weakref.WeakSet()
        # Plain-int mirrors of the counters so stats survive NullRegistry.
        self.events_generated = 0
        self.batches_generated = 0
        self.days_generated = 0
        self.spill_shards = 0
        self.resume_skipped_batches = 0
        self._events_total = self.registry.counter(
            "worldgen_events_total",
            "Requests emitted by the streaming trace generator.",
        )
        self._batches_total = self.registry.counter(
            "worldgen_batches_total",
            "Trace batches emitted by the streaming generator.",
        )
        self._days_total = self.registry.counter(
            "worldgen_days_total",
            "Days fully generated by the streaming generator.",
        )
        self._spill_total = self.registry.counter(
            "worldgen_spill_shards_total",
            "Per-chunk day shards spilled to disk for external merge.",
        )
        self._skipped_total = self.registry.counter(
            "worldgen_resume_skipped_batches_total",
            "Batches regenerated but not re-emitted while resuming.",
        )
        self._day_seconds = self.registry.histogram(
            "worldgen_day_seconds",
            "Wall time to generate one full day of the population.",
            buckets=LATENCY_BUCKETS_SLOW,
        )

    # -- seeded identity -----------------------------------------------------

    @property
    def config_digest(self) -> str:
        """Fingerprint of everything that shapes the emitted stream.

        Deliberately excludes ``users_per_chunk`` and ``spill_dir``: those
        are execution details the stream is invariant to (the parity tests
        assert that), so a cursor taken under one chunking resumes under
        another.
        """
        parts = [
            str(self.seed),
            str(len(self.population)),
            str(self.batch_events),
            repr(self.model.config),
            repr(self.diurnal),
        ]
        material = ":".join(parts)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def _profile(self, user_id: int) -> UserProfile:
        return self.population.profile(user_id)

    # -- one day, merged across users ---------------------------------------

    def _chunk_requests(self, day: int, lo: int, hi: int) -> list[Request]:
        """Requests of users [lo, hi) for one day, time-sorted."""
        requests: list[Request] = []
        for user_id in range(lo, hi):
            requests.extend(
                user_day_requests(
                    self.model, self.diurnal, self.seed,
                    self._profile(user_id), day,
                )
            )
        requests.sort(key=lambda r: (r.timestamp, r.user_id))
        return requests

    def iter_day_requests(self, day: int) -> Iterator[Request]:
        """One absolute day in global ``(timestamp, user_id)`` order.

        Small populations (one chunk) stream straight from memory; larger
        ones spill each chunk's sorted day to a temp shard and heap-merge
        the shards, so memory stays bounded by the chunk size.

        The returned iterator owns its spill directory: ``.close()`` (or
        :meth:`close` on the generator itself, which closes every
        outstanding iterator) removes the shards immediately, and a GC
        finalizer backstops a consumer that abandons the iterator
        mid-merge without closing it — cleanup never waits for
        interpreter exit.
        """
        if day < 0:
            raise ValueError("day must be >= 0")
        num_users = len(self.population)
        if num_users <= self.users_per_chunk:
            iterator = self._iter_single_chunk(day, num_users)
            self._active_iters.add(iterator)
            return iterator
        tmp = tempfile.TemporaryDirectory(
            prefix=f"worldgen-day{day}-",
            dir=self.spill_dir,
        )
        iterator = self._iter_spill_merge(day, num_users, tmp)
        self._active_iters.add(iterator)
        # The bound method holds tmp, not the iterator, so this fires
        # exactly when the iterator dies; cleanup() is idempotent, so
        # racing the normal finally-path is harmless.
        weakref.finalize(iterator, tmp.cleanup)
        return iterator

    def _iter_single_chunk(
        self, day: int, num_users: int
    ) -> Iterator[Request]:
        yield from self._chunk_requests(day, 0, num_users)

    def _iter_spill_merge(
        self, day: int, num_users: int, tmp
    ) -> Iterator[Request]:
        try:
            starts = range(0, num_users, self.users_per_chunk)
            shard_paths: list[Path] = []
            with self.tracer.span(
                "worldgen.spill", day=day, chunks=len(starts)
            ):
                for chunk_index, lo in enumerate(starts):
                    hi = min(lo + self.users_per_chunk, num_users)
                    chunk = self._chunk_requests(day, lo, hi)
                    path = Path(tmp.name) / f"shard-{chunk_index:05d}.jsonl"
                    with open(path, "w", encoding="utf-8") as handle:
                        for r in chunk:
                            # Bare repr floats round-trip exactly, which the
                            # byte-identical parity guarantee depends on.
                            handle.write(
                                json.dumps(
                                    [r.timestamp, r.user_id, r.hostname,
                                     r.kind.value, r.site_domain]
                                ) + "\n"
                            )
                    shard_paths.append(path)
                    self.spill_shards += 1
                    self._spill_total.inc()
            handles = [
                open(path, encoding="utf-8") for path in shard_paths
            ]
            try:
                yield from heapq.merge(
                    *(_read_spill(handle) for handle in handles),
                    key=lambda r: (r.timestamp, r.user_id),
                )
            finally:
                for handle in handles:
                    handle.close()
        finally:
            tmp.cleanup()

    def close(self) -> None:
        """Shut down every outstanding day iterator.

        Raises ``GeneratorExit`` inside each live iterator, which runs
        its cleanup path and removes any spill shards on disk *now* —
        the hygiene a long-lived process (shard coordinator, admin-
        served observer) needs when a consumer walks away from a batch
        stream mid-merge.  Safe to call repeatedly; exhausted iterators
        are no-ops.
        """
        for iterator in list(self._active_iters):
            iterator.close()

    def day_requests(self, day: int) -> list[Request]:
        """All requests of one absolute day, sorted by timestamp."""
        return list(self.iter_day_requests(day))

    # -- the batch stream ----------------------------------------------------

    def batches(
        self,
        num_days: int,
        start_day: int = 0,
        cursor: GenerationCursor | None = None,
    ) -> Iterator[TraceBatch]:
        """Stream ``num_days`` days as bounded, cursor-carrying batches.

        With ``cursor``, generation fast-forwards deterministically to the
        cursor position — already-consumed batches are regenerated (the
        model is seeded, so this is pure CPU) but not re-emitted, which is
        what makes kill-and-resume exactly-once.
        """
        if num_days < 1:
            raise ValueError("num_days must be >= 1")
        digest = self.config_digest
        events_emitted = 0
        if cursor is not None:
            if (
                cursor.config_digest is not None
                and cursor.config_digest != digest
            ):
                raise ValueError(
                    "cursor was written by a different generator config "
                    f"(cursor {cursor.config_digest}, ours {digest})"
                )
            events_emitted = cursor.events_emitted
            if self.flight is not None:
                self.flight.record(
                    "worldgen", "resume",
                    day=cursor.day, batch_index=cursor.batch_index,
                )
        for day in range(start_day, start_day + num_days):
            if cursor is not None and day < cursor.day:
                continue
            skip = (
                cursor.batch_index
                if cursor is not None and day == cursor.day
                else 0
            )
            started = time.perf_counter()
            day_events = 0
            index = 0
            pending: list[Request] = []

            def flush(pending, index):
                nonlocal events_emitted
                if index < skip:
                    self._skipped_total.inc()
                    self.resume_skipped_batches += 1
                    return None
                events_emitted += len(pending)
                self.events_generated += len(pending)
                self.batches_generated += 1
                self._events_total.inc(len(pending))
                self._batches_total.inc()
                return TraceBatch(
                    day=day,
                    index=index,
                    requests=pending,
                    resume_cursor=GenerationCursor(
                        day=day,
                        batch_index=index + 1,
                        events_emitted=events_emitted,
                        config_digest=digest,
                    ),
                )

            day_iter = self.iter_day_requests(day)
            try:
                for request in day_iter:
                    pending.append(request)
                    day_events += 1
                    if len(pending) >= self.batch_events:
                        batch = flush(pending, index)
                        if batch is not None:
                            yield batch
                        pending = []
                        index += 1
            finally:
                # A consumer abandoning this batch stream mid-day must
                # not strand the day's spill shards until GC.
                day_iter.close()
            if pending:
                batch = flush(pending, index)
                if batch is not None:
                    yield batch
            self.days_generated += 1
            self._days_total.inc()
            elapsed = time.perf_counter() - started
            self._day_seconds.observe(elapsed)
            if self.flight is not None:
                self.flight.record(
                    "worldgen", "day",
                    day=day, events=day_events, seconds=round(elapsed, 3),
                )

    def materialize(self, num_days: int, start_day: int = 0) -> Trace:
        """Thin materializing wrapper: the stream, collected into a Trace."""
        if num_days < 1:
            raise ValueError("num_days must be >= 1")
        return Trace(
            days=[
                self.day_requests(day)
                for day in range(start_day, start_day + num_days)
            ],
            start_day=start_day,
        )
