"""Tests for the generation-oriented artifact store."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.store import (
    LATEST_NAME,
    MANIFEST_NAME,
    ArtifactIntegrityError,
    ArtifactStore,
    GenerationNotFoundError,
    StoreError,
)


def _writer(payload: bytes):
    return lambda path: path.write_bytes(payload)


def _publish(store, payload=b"model bytes", **kwargs):
    return store.publish({"model.bin": _writer(payload)}, **kwargs)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store", registry=MetricsRegistry())


class TestPublish:
    def test_publish_creates_generation_and_latest(self, store):
        record = _publish(store, created_from_day=3)
        assert record.generation_id == "g000001"
        assert record.created_from_day == 3
        assert (record.path / "model.bin").read_bytes() == b"model bytes"
        assert store.latest_id() == "g000001"
        assert store.latest().generation_id == "g000001"

    def test_generation_ids_are_sequential(self, store):
        assert _publish(store).generation_id == "g000001"
        assert _publish(store).generation_id == "g000002"
        assert _publish(store).generation_id == "g000003"
        assert store.latest_id() == "g000003"

    def test_manifest_records_digests_and_sizes(self, store):
        record = _publish(store, payload=b"abc")
        meta = record.components["model.bin"]
        assert meta["bytes"] == 3
        assert len(meta["sha256"]) == 64

    def test_index_meta_and_extra_land_in_manifest(self, store):
        record = _publish(
            store,
            index_meta={"kind": "made-up", "knob": 4096},
            extra={"dim": 32},
        )
        assert record.index_meta == {"kind": "made-up", "knob": 4096}
        assert record.extra == {"dim": 32}

    def test_empty_components_rejected(self, store):
        with pytest.raises(StoreError):
            store.publish({})

    def test_bad_component_names_rejected(self, store):
        with pytest.raises(StoreError):
            store.publish({"../evil": _writer(b"x")})
        with pytest.raises(StoreError):
            store.publish({MANIFEST_NAME: _writer(b"x")})

    def test_failed_writer_leaves_store_unchanged(self, store):
        _publish(store)

        def explode(path):
            path.write_bytes(b"partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            store.publish({"model.bin": explode})
        # The crashed publish left neither a generation nor scratch debris.
        assert store.latest_id() == "g000001"
        assert [p.name for p in store.generations_dir.iterdir()] == [
            "g000001"
        ]
        # The id is not burned: the next publish reuses it.
        assert _publish(store).generation_id == "g000002"

    def test_writer_that_writes_nothing_rejected(self, store):
        with pytest.raises(StoreError, match="did not"):
            store.publish({"model.bin": lambda path: None})
        assert store.latest_id() is None


class TestReadPath:
    def test_restore_returns_verified_latest(self, store):
        _publish(store)
        record = store.restore()
        assert record.generation_id == "g000001"

    def test_restore_named_generation(self, store):
        _publish(store, payload=b"one")
        _publish(store, payload=b"two")
        record = store.restore("g000001")
        assert (record.path / "model.bin").read_bytes() == b"one"

    def test_restore_empty_store_raises(self, store):
        with pytest.raises(GenerationNotFoundError):
            store.restore()

    def test_corrupt_component_fails_digest_check(self, store):
        record = _publish(store)
        (record.path / "model.bin").write_bytes(b"flipped bits")
        with pytest.raises(ArtifactIntegrityError, match="digest mismatch"):
            store.restore()
        assert store._digest_failures_total.value == 1

    def test_missing_component_fails_verification(self, store):
        record = _publish(store)
        (record.path / "model.bin").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            store.restore()

    def test_latest_survives_missing_pointer(self, store):
        _publish(store)
        _publish(store)
        # A crash between directory rename and pointer replace: the newest
        # generation on disk is authoritative.
        (store.root / LATEST_NAME).unlink()
        assert store.latest_id() == "g000002"

    def test_component_path_unknown_component_raises(self, store):
        record = _publish(store)
        with pytest.raises(GenerationNotFoundError):
            record.component_path("nope.bin")

    def test_list_generations_oldest_first(self, store):
        _publish(store)
        _publish(store)
        ids = [r.generation_id for r in store.list_generations()]
        assert ids == ["g000001", "g000002"]

    def test_describe_is_one_line(self, store):
        record = _publish(store, index_meta={"backend": "exact"})
        line = record.describe()
        assert "\n" not in line
        assert "g000001" in line and "exact" in line


class TestRollbackRetractGc:
    def test_rollback_repoints_latest(self, store):
        _publish(store, payload=b"one")
        _publish(store, payload=b"two")
        record = store.rollback()
        assert record.generation_id == "g000001"
        assert store.latest_id() == "g000001"
        # The rolled-back generation stays on disk for forensics/gc.
        assert (store.generations_dir / "g000002").is_dir()

    def test_rollback_empty_store_raises(self, store):
        with pytest.raises(StoreError, match="empty"):
            store.rollback()

    def test_rollback_past_oldest_raises(self, store):
        _publish(store)
        with pytest.raises(StoreError, match="oldest"):
            store.rollback()

    def test_publish_after_rollback_moves_forward(self, store):
        _publish(store)
        _publish(store)
        store.rollback()
        # New ids keep counting up past the rolled-back generation.
        assert _publish(store).generation_id == "g000003"
        assert store.latest_id() == "g000003"

    def test_retract_latest_repoints_to_previous(self, store):
        _publish(store)
        _publish(store)
        store.retract("g000002")
        assert store.latest_id() == "g000001"
        assert not (store.generations_dir / "g000002").exists()

    def test_retract_last_generation_empties_store(self, store):
        _publish(store)
        store.retract("g000001")
        assert store.latest_id() is None
        assert store.latest() is None

    def test_retract_unknown_raises(self, store):
        with pytest.raises(GenerationNotFoundError):
            store.retract("g000042")

    def test_gc_keeps_newest_and_serving(self, store):
        for _ in range(4):
            _publish(store)
        store.rollback()            # serving g000003, newest g000004
        removed = store.gc(keep_n=1)
        assert removed == ["g000001", "g000002"]
        remaining = [r.generation_id for r in store.list_generations()]
        assert remaining == ["g000003", "g000004"]
        assert store.latest_id() == "g000003"

    def test_gc_nothing_to_remove(self, store):
        _publish(store)
        assert store.gc(keep_n=3) == []

    def test_gc_keep_n_validated(self, store):
        with pytest.raises(ValueError):
            store.gc(keep_n=0)

    def test_gc_dry_run_deletes_nothing(self, store):
        for _ in range(4):
            _publish(store)
        store.rollback()            # serving g000003, newest g000004
        would_remove = store.gc(keep_n=1, dry_run=True)
        assert would_remove == ["g000001", "g000002"]
        # nothing was deleted, no metrics moved, serving unchanged
        remaining = [r.generation_id for r in store.list_generations()]
        assert remaining == ["g000001", "g000002", "g000003", "g000004"]
        assert store.latest_id() == "g000003"
        assert store._gc_removed_total.value == 0
        assert store._generations_gauge.value == 4
        # and a real gc removes exactly what the dry run predicted,
        # retaining the (older-than-keep_n) serving generation
        assert store.gc(keep_n=1) == would_remove
        assert [r.generation_id for r in store.list_generations()] == [
            "g000003", "g000004"
        ]
        assert store.latest_id() == "g000003"


class TestMetrics:
    def test_counters_and_gauge_track_operations(self, tmp_path):
        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store", registry=registry)
        _publish(store)
        _publish(store)
        store.restore()
        store.rollback()
        assert store._publishes_total.value == 2
        assert store._restores_total.value == 1
        assert store._rollbacks_total.value == 1
        assert store._generations_gauge.value == 2
        store.gc(keep_n=1)   # keeps g000002 (newest) + g000001 (serving)
        assert store._gc_removed_total.value == 0

    def test_reopened_store_sees_existing_generations(self, tmp_path):
        root = tmp_path / "store"
        first = ArtifactStore(root)
        _publish(first)
        _publish(first)
        # A fresh process opening the same directory serves the same state.
        second = ArtifactStore(root)
        assert second.latest_id() == "g000002"
        assert second._generations_gauge.value == 2


class TestCrashRecovery:
    def test_stale_scratch_is_swept_by_next_publish(self, store):
        _publish(store)
        scratch = store.generations_dir / ".scratch-g000002"
        scratch.mkdir()
        (scratch / "model.bin").write_bytes(b"half-written")
        record = _publish(store, payload=b"clean")
        assert record.generation_id == "g000002"
        assert (record.path / "model.bin").read_bytes() == b"clean"
        assert not scratch.exists()

    def test_manifest_is_valid_json_with_schema_version(self, store):
        record = _publish(store)
        manifest = json.loads((record.path / MANIFEST_NAME).read_text())
        assert manifest["schema_version"] == 1
        assert manifest["generation"] == "g000001"
        assert record.schema_version == 1
