"""Generation-oriented artifact store for daily model rollovers.

The paper's observer retrains its SKIPGRAM model every day and must keep
serving profiles while models roll over (§5.4: "train a new model that we
immediately start using").  This module gives that rollover the artifact
registry discipline word2vec-era serving systems use for embedding
snapshots: every successful retrain is published as a **generation** — an
immutable directory holding the embeddings archive, the profiler
configuration, and a manifest with SHA-256 content digests and the shape
of the vector index a loader builds — and a ``LATEST`` pointer names the
generation that serves.

Guarantees:

* **atomic publish** — components are written into a scratch directory
  which is ``os.replace``d to its final name only after every file and
  the manifest are on disk; a crashed publish leaves at most a scratch
  directory that the next publish sweeps away, never a half-generation;
* **verified load** — :meth:`ArtifactStore.restore` re-hashes every
  component against the manifest before anything is deserialized, so a
  flipped bit fails loudly (:class:`ArtifactIntegrityError`) instead of
  serving a corrupt model;
* **rollback** — :meth:`ArtifactStore.rollback` atomically repoints
  ``LATEST`` at the previous generation (a bad deploy is one pointer
  swap away from recovery; the rolled-back generation stays on disk
  until :meth:`ArtifactStore.gc` collects it);
* **bounded disk** — :meth:`ArtifactStore.gc` keeps the newest
  ``keep_n`` generations (always including the serving one).

Telemetry follows the repo conventions: ``store_``-prefixed metrics on
the attached registry and ``store.publish`` / ``store.restore`` spans on
the attached tracer.

On-disk layout::

    <root>/
      LATEST                  # {"generation": "g000042"}
      generations/
        g000041/
          manifest.json
          embeddings.npz
          profiler.json
          drift.json          # when a drift report was attached
        g000042/
          ...
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.index import ExactIndex
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.utils.serialization import atomic_write_json, file_sha256

log = get_logger("store")

MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
LATEST_NAME = "LATEST"

#: Canonical component filenames shared by every layer that publishes or
#: loads a model generation (pipeline, supervisor, CLI).
EMBEDDINGS_COMPONENT = "embeddings.npz"
PROFILER_CONFIG_COMPONENT = "profiler.json"
DRIFT_REPORT_COMPONENT = "drift.json"

_GENERATION_RE = re.compile(r"^g(\d{6,})$")
_COMPONENT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class StoreError(RuntimeError):
    """Base class for artifact-store failures."""


class GenerationNotFoundError(StoreError):
    """The requested generation does not exist (or the store is empty)."""


class ArtifactIntegrityError(StoreError):
    """A component's bytes do not match its manifest digest."""


@dataclass(frozen=True)
class GenerationRecord:
    """One published generation: its id, directory, and parsed manifest."""

    generation_id: str
    path: Path
    manifest: dict

    @property
    def schema_version(self) -> int:
        return int(self.manifest.get("schema_version", 0))

    @property
    def created_at(self) -> float:
        return float(self.manifest.get("created_at", 0.0))

    @property
    def created_from_day(self) -> int | None:
        day = self.manifest.get("created_from_day")
        return None if day is None else int(day)

    @property
    def components(self) -> dict[str, dict]:
        return dict(self.manifest.get("components", {}))

    @property
    def index_meta(self) -> dict:
        return dict(self.manifest.get("index", {}))

    @property
    def extra(self) -> dict:
        return dict(self.manifest.get("extra", {}))

    def has_component(self, name: str) -> bool:
        return name in self.manifest.get("components", {})

    def component_path(self, name: str) -> Path:
        if not self.has_component(name):
            raise GenerationNotFoundError(
                f"generation {self.generation_id} has no component "
                f"{name!r} (has: {sorted(self.components)})"
            )
        return self.path / name

    def describe(self) -> str:
        """One-line human digest for CLI listings and logs."""
        total = sum(int(c.get("bytes", 0)) for c in self.components.values())
        backend = self.index_meta.get("backend", "-")
        day = self.created_from_day
        return (
            f"{self.generation_id}  day={'-' if day is None else day}  "
            f"index={backend}  components={len(self.components)}  "
            f"{total / 1024:.1f} KiB"
        )


class ArtifactStore:
    """Versioned model generations with atomic publish and rollback.

    Single-writer by design (one observer process publishes); concurrent
    *readers* are always safe because generations are immutable once the
    directory rename lands and ``LATEST`` is replaced atomically.
    """

    def __init__(
        self,
        root: str | Path,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.root = Path(root)
        self.generations_dir = self.root / "generations"
        self.generations_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        m = self.registry
        self._publishes_total = m.counter(
            "store_publishes_total", "Generations published to the store."
        )
        self._restores_total = m.counter(
            "store_restores_total",
            "Generations restored (digest-verified loads).",
        )
        self._rollbacks_total = m.counter(
            "store_rollbacks_total", "LATEST-pointer rollbacks."
        )
        self._gc_removed_total = m.counter(
            "store_gc_removed_total", "Generations deleted by gc."
        )
        self._digest_failures_total = m.counter(
            "store_digest_failures_total",
            "Component files whose bytes failed manifest verification.",
        )
        self._generations_gauge = m.gauge(
            "store_generations", "Generations currently on disk."
        )
        self._publish_seconds = m.histogram(
            "store_publish_seconds",
            "Wall time to write and atomically publish one generation.",
        )
        self._generations_gauge.set(len(self._generation_ids()))

    # -- id bookkeeping ------------------------------------------------------

    def _generation_ids(self) -> list[str]:
        """Generation ids on disk, oldest first."""
        ids = []
        for entry in self.generations_dir.iterdir():
            if entry.is_dir() and _GENERATION_RE.match(entry.name):
                ids.append(entry.name)
        return sorted(ids)

    def _next_generation_id(self) -> str:
        ids = self._generation_ids()
        last = int(_GENERATION_RE.match(ids[-1]).group(1)) if ids else 0
        return f"g{last + 1:06d}"

    def _record(self, generation_id: str) -> GenerationRecord:
        path = self.generations_dir / generation_id
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise GenerationNotFoundError(
                f"generation {generation_id!r} not found in {self.root}"
            )
        manifest = json.loads(manifest_path.read_text())
        return GenerationRecord(
            generation_id=generation_id, path=path, manifest=manifest
        )

    # -- publish -------------------------------------------------------------

    def publish(
        self,
        components: dict[str, Callable[[Path], None]],
        created_from_day: int | None = None,
        index_meta: dict | None = None,
        extra: dict | None = None,
    ) -> GenerationRecord:
        """Write a new generation atomically and point ``LATEST`` at it.

        ``components`` maps component filenames to writer callables; each
        writer receives the path it must create (e.g.
        ``embeddings.save``).  Every component is written and digested
        into a scratch directory, the manifest lands last, and only then
        is the scratch directory renamed to its final generation name —
        a crash at any earlier point leaves the store exactly as it was.
        """
        if not components:
            raise StoreError("cannot publish a generation with no components")
        for name in components:
            if not _COMPONENT_RE.match(name) or name == MANIFEST_NAME:
                raise StoreError(f"invalid component filename {name!r}")
        with self._lock, self._publish_seconds.time():
            generation_id = self._next_generation_id()
            scratch = self.generations_dir / f".scratch-{generation_id}"
            if scratch.exists():
                # Debris from a publish that died mid-write; safe to sweep
                # because nothing ever points into a scratch directory.
                shutil.rmtree(scratch)
            target = self.generations_dir / generation_id
            with self.tracer.span(
                "store.publish",
                generation=generation_id, components=len(components),
            ):
                try:
                    scratch.mkdir()
                    digests = {}
                    for name in sorted(components):
                        path = scratch / name
                        components[name](path)
                        if not path.is_file():
                            raise StoreError(
                                f"component writer for {name!r} did not "
                                f"create {path}"
                            )
                        digests[name] = {
                            "sha256": file_sha256(path),
                            "bytes": path.stat().st_size,
                        }
                    manifest = {
                        "schema_version": MANIFEST_SCHEMA_VERSION,
                        "generation": generation_id,
                        "created_at": time.time(),
                        "created_from_day": created_from_day,
                        "components": digests,
                        "index": dict(index_meta or {}),
                        "extra": dict(extra or {}),
                    }
                    atomic_write_json(scratch / MANIFEST_NAME, manifest)
                    os.replace(scratch, target)
                except Exception:
                    shutil.rmtree(scratch, ignore_errors=True)
                    raise
            self._set_latest(generation_id)
            self._publishes_total.inc()
            self._generations_gauge.set(len(self._generation_ids()))
        record = GenerationRecord(
            generation_id=generation_id, path=target, manifest=manifest
        )
        log.info(
            "generation published",
            generation=generation_id,
            components=sorted(components),
            created_from_day=created_from_day,
        )
        return record

    # -- the LATEST pointer --------------------------------------------------

    def _set_latest(self, generation_id: str) -> None:
        atomic_write_json(
            self.root / LATEST_NAME, {"generation": generation_id}
        )

    def latest_id(self) -> str | None:
        """Id of the serving generation, or None for an empty store.

        If the pointer file is missing (a publish crashed between the
        directory rename and the pointer replace) the newest generation
        on disk is the right answer — the rename is the commit point.
        """
        pointer = self.root / LATEST_NAME
        if pointer.is_file():
            generation_id = json.loads(pointer.read_text()).get("generation")
            if (
                generation_id
                and (self.generations_dir / generation_id
                     / MANIFEST_NAME).is_file()
            ):
                return generation_id
        ids = self._generation_ids()
        return ids[-1] if ids else None

    def latest(self) -> GenerationRecord | None:
        generation_id = self.latest_id()
        return None if generation_id is None else self._record(generation_id)

    # -- read API ------------------------------------------------------------

    def get(self, generation_id: str) -> GenerationRecord:
        return self._record(generation_id)

    def list_generations(self) -> list[GenerationRecord]:
        """Every generation on disk, oldest first."""
        return [self._record(gid) for gid in self._generation_ids()]

    def verify(self, record: GenerationRecord) -> None:
        """Re-hash every component against the manifest digests."""
        for name, meta in record.components.items():
            path = record.path / name
            if not path.is_file():
                self._digest_failures_total.inc()
                raise ArtifactIntegrityError(
                    f"generation {record.generation_id}: component "
                    f"{name!r} is missing from {record.path}"
                )
            actual = file_sha256(path)
            if actual != meta["sha256"]:
                self._digest_failures_total.inc()
                raise ArtifactIntegrityError(
                    f"generation {record.generation_id}: component "
                    f"{name!r} digest mismatch (manifest "
                    f"{meta['sha256'][:12]}…, file {actual[:12]}…)"
                )

    def restore(
        self, generation_id: str | None = None
    ) -> GenerationRecord:
        """The digest-verified read path every model load goes through.

        Resolves ``LATEST`` (or the named generation), verifies every
        component's SHA-256 against the manifest, and returns the record.
        Raises :class:`GenerationNotFoundError` on an empty store and
        :class:`ArtifactIntegrityError` on corruption.
        """
        if generation_id is None:
            record = self.latest()
            if record is None:
                raise GenerationNotFoundError(
                    f"store at {self.root} has no generations"
                )
        else:
            record = self._record(generation_id)
        with self.tracer.span(
            "store.restore", generation=record.generation_id
        ):
            self.verify(record)
        self._restores_total.inc()
        return record

    # -- rollback / gc -------------------------------------------------------

    def rollback(self) -> GenerationRecord:
        """Atomically repoint ``LATEST`` at the previous generation.

        The rolled-back generation stays on disk (gc collects it later),
        so a mistaken rollback is itself recoverable.  Raises
        :class:`StoreError` when there is no earlier generation.
        """
        with self._lock:
            current = self.latest_id()
            if current is None:
                raise StoreError(f"store at {self.root} is empty")
            ids = self._generation_ids()
            earlier = [gid for gid in ids if gid < current]
            if not earlier:
                raise StoreError(
                    f"generation {current} is the oldest; nothing to "
                    "roll back to"
                )
            previous = earlier[-1]
            self._set_latest(previous)
            self._rollbacks_total.inc()
        log.warning(
            "store rolled back", rolled_back=current, now_serving=previous
        )
        return self._record(previous)

    def retract(self, generation_id: str) -> None:
        """Delete one generation outright.

        For publishes that failed post-train validation before anything
        ever served them: unlike :meth:`rollback` (which keeps the bad
        generation on disk) this removes it, so a later rollback can
        never land on a model that was rejected.  If ``LATEST`` pointed
        at the retracted generation, the pointer moves to the newest
        remaining one (or is cleared when the store empties).
        """
        with self._lock:
            path = self.generations_dir / generation_id
            if not path.is_dir():
                raise GenerationNotFoundError(
                    f"generation {generation_id!r} not found in {self.root}"
                )
            was_latest = self.latest_id() == generation_id
            shutil.rmtree(path)
            remaining = self._generation_ids()
            if was_latest:
                if remaining:
                    self._set_latest(remaining[-1])
                else:
                    (self.root / LATEST_NAME).unlink(missing_ok=True)
            self._generations_gauge.set(len(remaining))
        log.warning("generation retracted", generation=generation_id)

    def gc(self, keep_n: int, dry_run: bool = False) -> list[str]:
        """Delete all but the newest ``keep_n`` generations.

        The serving generation is always kept, even if a rollback made
        it older than the ``keep_n`` newest.  Returns the removed ids.
        With ``dry_run`` nothing is deleted and no metrics move — the
        returned list is what a real gc *would* remove.
        """
        if keep_n < 1:
            raise ValueError("keep_n must be >= 1")
        with self._lock:
            ids = self._generation_ids()
            keep = set(ids[-keep_n:])
            current = self.latest_id()
            if current is not None:
                keep.add(current)
            removed = [gid for gid in ids if gid not in keep]
            if dry_run:
                log.info(
                    "store gc dry-run",
                    would_remove=removed, kept=sorted(keep),
                )
                return removed
            for gid in removed:
                shutil.rmtree(self.generations_dir / gid)
            if removed:
                self._gc_removed_total.inc(len(removed))
                self._generations_gauge.set(len(self._generation_ids()))
        if removed:
            log.info("store gc", removed=removed, kept=sorted(keep))
        return removed


def publish_model(
    store: ArtifactStore,
    embeddings,
    profiler_config: dict | None = None,
    created_from_day: int | None = None,
    extra: dict | None = None,
    drift_report: dict | None = None,
) -> GenerationRecord:
    """Publish an embeddings archive (+ optional profiler config).

    The shared shape every publisher uses — the pipeline's
    ``publish_generation``, the supervisor's post-retrain publish, and
    the ``train --store`` CLI path — so all generations in a store are
    mutually loadable.  ``embeddings`` only needs ``save``, ``__len__``
    and ``dim`` (duck-typed to avoid a core → store import cycle).  The
    archive is the whole model: every loader builds the cosine
    :class:`~repro.index.ExactIndex` over its unit rows, and the
    manifest's ``index`` block records that index's shape.
    ``drift_report`` (the ``to_dict()`` of a
    :class:`~repro.obs.drift.DriftReport`) rides along as the
    ``drift.json`` component, so every generation carries the drift
    check that admitted it.
    """
    components: dict[str, Callable[[Path], None]] = {
        EMBEDDINGS_COMPONENT: embeddings.save,
    }
    if profiler_config is not None:
        components[PROFILER_CONFIG_COMPONENT] = (
            lambda path, cfg=dict(profiler_config): atomic_write_json(
                path, cfg
            )
        )
    if drift_report is not None:
        components[DRIFT_REPORT_COMPONENT] = (
            lambda path, report=dict(drift_report): atomic_write_json(
                path, report
            )
        )
    return store.publish(
        components,
        created_from_day=created_from_day,
        index_meta={
            "backend": ExactIndex.name,
            "metric": "cosine",
            "size": len(embeddings),
            "dim": embeddings.dim,
        },
        extra=extra,
    )
