"""Tests for vector-index save/load (repro.index persistence)."""

import json

import numpy as np
import pytest

from repro.index import (
    INDEX_FORMAT,
    BlockedExactIndex,
    ExactIndex,
    IndexConfig,
    build_index,
    load_index,
)


def _matrix(size=64, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(size, dim))


def _build(backend, matrix, **kwargs):
    return build_index(
        matrix, metric="cosine",
        config=IndexConfig(backend=backend, **kwargs),
    )


BACKENDS = ("exact", "blocked")


class TestRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_search_results_survive_save_load(self, backend, tmp_path):
        matrix = _matrix()
        index = _build(backend, matrix)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = load_index(path)
        assert type(loaded) is type(index)
        assert len(loaded) == len(index)
        assert loaded.dim == index.dim
        for seed in range(5):
            query = _matrix(size=1, dim=8, seed=100 + seed)[0]
            ids, sims = index.search(query, 10)
            loaded_ids, loaded_sims = loaded.search(query, 10)
            assert ids.tolist() == loaded_ids.tolist()
            assert np.allclose(sims, loaded_sims)

    def test_blocked_preserves_block_rows(self, tmp_path):
        index = _build("blocked", _matrix(), block_rows=7)
        index.save(tmp_path / "index.npz")
        loaded = load_index(tmp_path / "index.npz")
        assert isinstance(loaded, BlockedExactIndex)
        assert loaded.block_rows == 7

    def test_load_does_not_rebuild(self, tmp_path, monkeypatch):
        index = _build("blocked", _matrix(size=128), block_rows=16)
        index.save(tmp_path / "index.npz")

        def explode(*args, **kwargs):
            raise AssertionError("load must not rebuild the index")

        import repro.index.base as base_module

        monkeypatch.setattr(base_module, "build_index", explode)
        loaded = load_index(tmp_path / "index.npz")
        query = _matrix(size=1, dim=8, seed=9)[0]
        ids, _ = loaded.search(query, 5)
        assert ids.tolist() == index.search(query, 5)[0].tolist()

    def test_describe_names_backend(self):
        index = _build("exact", _matrix())
        meta = index.describe()
        assert meta["backend"] == "exact"
        assert meta["size"] == 64 and meta["dim"] == 8


class TestDeterminism:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_saving_twice_yields_identical_bytes(self, backend, tmp_path):
        matrix = _matrix()
        index = _build(backend, matrix)
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        index.save(first)
        index.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_rebuilt_index_same_bytes(self, tmp_path):
        # Two independent builds over the same matrix serialize
        # identically — the property the store's digests depend on.
        matrix = _matrix()
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        _build("exact", matrix).save(first)
        _build("exact", matrix).save(second)
        assert first.read_bytes() == second.read_bytes()


class TestLoadValidation:
    def test_non_index_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, vectors=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not a saved vector index"):
            load_index(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "wrong.npz"
        header = json.dumps({"format": "something-else"}).encode()
        np.savez(
            path,
            header=np.frombuffer(header, dtype=np.uint8),
            vectors=np.zeros((2, 2)),
        )
        with pytest.raises(ValueError, match=INDEX_FORMAT):
            load_index(path)

    def test_unknown_backend_rejected(self, tmp_path):
        # An archive from a build that shipped a third backend.
        path = tmp_path / "index.npz"
        header = json.dumps(
            {"format": INDEX_FORMAT, "backend": "ivf", "metric": "cosine"}
        ).encode()
        np.savez(
            path,
            header=np.frombuffer(header, dtype=np.uint8),
            vectors=np.zeros((2, 2)),
        )
        with pytest.raises(ValueError, match="unknown index backend 'ivf'"):
            load_index(path)
