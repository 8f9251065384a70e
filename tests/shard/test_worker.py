"""ShardWorker in-process: sequencing, checkpointing, exactly-once."""

import json

import numpy as np
import pytest

from repro.shard import SHARD_CHECKPOINT_FORMAT, ShardWorker, WorkerSpec
from repro.shard.router import ShardRouter

from tests.shard.conftest import STREAM_CONFIG


def _spec(tmp_path, shard_id=0, num_shards=1, **overrides):
    kwargs = dict(
        shard_id=shard_id,
        num_shards=num_shards,
        checkpoint_path=str(tmp_path / f"shard-{shard_id:03d}.json"),
        router=ShardRouter(num_shards).spec(),
        stream_config=dict(STREAM_CONFIG),
    )
    kwargs.update(overrides)
    return WorkerSpec(**kwargs)


def _owned_client(num_shards, shard_id):
    router = ShardRouter(num_shards)
    for i in range(10_000):
        client = f"10.0.0.{i}"
        if router.shard_of(client) == shard_id:
            return client
    raise AssertionError("no client hashed to shard")


class TestSequencing:
    def test_batches_apply_in_order(self, tmp_path):
        worker = ShardWorker(_spec(tmp_path))
        client = _owned_client(1, 0)
        worker.ingest_batch(0, [(client, 10.0, "a.com", "tls-sni")])
        worker.ingest_batch(1, [(client, 20.0, "b.com", "tls-sni")])
        assert worker.next_seq == 2
        assert worker.stream.events_seen == 2

    def test_replayed_batch_is_skipped_whole(self, tmp_path):
        worker = ShardWorker(_spec(tmp_path))
        client = _owned_client(1, 0)
        batch = [(client, 10.0, "a.com", "tls-sni")]
        worker.ingest_batch(0, batch)
        worker.ingest_batch(0, batch)   # at-least-once delivery
        worker.ingest_batch(0, batch)
        assert worker.stream.events_seen == 1   # exactly-once application
        assert worker.next_seq == 1

    def test_gap_fails_loudly(self, tmp_path):
        worker = ShardWorker(_spec(tmp_path))
        client = _owned_client(1, 0)
        worker.ingest_batch(0, [(client, 10.0, "a.com", "tls-sni")])
        with pytest.raises(RuntimeError, match="gap"):
            worker.ingest_batch(2, [(client, 20.0, "b.com", "tls-sni")])

    def test_misrouted_client_rejected(self, tmp_path):
        worker = ShardWorker(_spec(tmp_path, shard_id=0, num_shards=4))
        stranger = _owned_client(4, 3)
        with pytest.raises(RuntimeError, match="routed"):
            worker.ingest_batch(0, [(stranger, 10.0, "a.com", "tls-sni")])


class TestCheckpointing:
    def test_round_trip_resumes_exactly(self, tmp_path):
        spec = _spec(tmp_path)
        worker = ShardWorker(spec)
        client = _owned_client(1, 0)
        worker.ingest_batch(0, [(client, 10.0, "a.com", "tls-sni")])
        worker.ingest_batch(1, [(client, 700.0, "b.com", "tls-sni")])
        worker.checkpoint()

        resumed = ShardWorker(_spec(tmp_path))
        assert resumed.restored
        assert resumed.next_seq == worker.next_seq
        assert resumed.stream.events_seen == worker.stream.events_seen
        # Both apply the same next batch and agree on all state.
        tail = [(client, 1300.0, "c.com", "tls-sni")]
        worker.ingest_batch(2, tail)
        resumed.ingest_batch(2, tail)
        assert resumed.stream.snapshot_state() == (
            worker.stream.snapshot_state()
        )
        assert resumed.emissions == worker.emissions

    def test_checkpoint_format_is_tagged(self, tmp_path):
        worker = ShardWorker(_spec(tmp_path))
        worker.checkpoint()
        payload = json.loads(worker.checkpoint_path.read_text())
        assert payload["format"] == SHARD_CHECKPOINT_FORMAT
        assert payload["next_seq"] == 0
        assert "stream" in payload

    def test_checkpoint_is_atomic(self, tmp_path, monkeypatch):
        import os

        worker = ShardWorker(_spec(tmp_path))
        worker.checkpoint()
        before = worker.checkpoint_path.read_bytes()
        client = _owned_client(1, 0)
        worker.ingest_batch(0, [(client, 10.0, "a.com", "tls-sni")])

        def explode(src, dst):
            raise OSError("power cut")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            worker.checkpoint()
        assert worker.checkpoint_path.read_bytes() == before

    def test_wrong_shard_checkpoint_rejected(self, tmp_path):
        worker = ShardWorker(_spec(tmp_path, shard_id=0, num_shards=2))
        worker.checkpoint()
        path = tmp_path / "shard-000.json"
        with pytest.raises(ValueError, match="belongs to shard"):
            ShardWorker(
                _spec(
                    tmp_path, shard_id=0, num_shards=4,
                    checkpoint_path=str(path),
                    router=ShardRouter(4).spec(),
                )
            )

    def test_spec_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ShardWorker(_spec(tmp_path, shard_id=5, num_shards=2))


class TestModel:
    def test_loaded_index_matrix_is_owned_and_writeable(
        self, tmp_path, shard_model_dir, labelled, tracker_filter
    ):
        """A worker builds its index at load over its own unit rows, so
        the matrix it scans is a private aligned array, not a read-only
        map of the export (numpy hands no unaligned map to BLAS)."""
        worker = ShardWorker(
            _spec(
                tmp_path, model_dir=shard_model_dir, labelled=labelled,
                tracker_filter=tracker_filter,
            )
        )
        matrix = worker.stream._profiler.index._vectors
        assert not isinstance(matrix, np.memmap)
        assert matrix.flags.writeable
        assert matrix.flags.owndata
        assert matrix.flags.aligned
