"""Tests for vector-index save/load (repro.index persistence)."""

import hashlib
import json

import numpy as np
import pytest

import repro.index.exact as exact_module
from repro.index import INDEX_FORMAT, ExactIndex, build_index, load_index


def _matrix(size=64, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(size, dim))


def _build(matrix):
    return build_index(matrix, metric="cosine")


# Every archive this build writes names the one backend it can load.
BACKENDS = (ExactIndex.name,)


class TestRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_search_results_survive_save_load(self, backend, tmp_path):
        matrix = _matrix()
        index = _build(matrix)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = load_index(path)
        assert loaded.name == backend
        assert len(loaded) == len(index)
        assert loaded.dim == index.dim
        for seed in range(5):
            query = _matrix(size=1, dim=8, seed=100 + seed)[0]
            ids, sims = index.search(query, 10)
            loaded_ids, loaded_sims = loaded.search(query, 10)
            assert ids.tolist() == loaded_ids.tolist()
            assert np.allclose(sims, loaded_sims)

    def test_load_does_not_rebuild(self, tmp_path, monkeypatch):
        index = _build(_matrix(size=128))
        index.save(tmp_path / "index.npz")

        def explode(*args, **kwargs):
            raise AssertionError("load must not rebuild the index")

        monkeypatch.setattr(exact_module, "build_index", explode)
        loaded = load_index(tmp_path / "index.npz")
        query = _matrix(size=1, dim=8, seed=9)[0]
        ids, _ = loaded.search(query, 5)
        assert ids.tolist() == index.search(query, 5)[0].tolist()

    def test_describe_names_backend(self):
        index = _build(_matrix())
        meta = index.describe()
        assert meta["backend"] == "exact"
        assert meta["size"] == 64 and meta["dim"] == 8


class TestDeterminism:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_saving_twice_yields_identical_bytes(self, backend, tmp_path):
        index = _build(_matrix())
        assert index.name == backend
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        index.save(first)
        index.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_rebuilt_index_same_bytes(self, tmp_path):
        # Two independent builds over the same matrix serialize
        # identically — the property the store's digests depend on.
        matrix = _matrix()
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        _build(matrix).save(first)
        _build(matrix).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_archive_bytes_are_pinned(self, tmp_path):
        """The archive format published generations and shard exports
        carry: header JSON and mappable bytes fixed for a seeded matrix."""
        path = tmp_path / "index.npz"
        ExactIndex(_matrix()).save(path, compress=False)
        with np.load(path) as archive:
            assert sorted(archive.files) == ["header", "vectors"]
            assert bytes(archive["header"]).decode() == (
                '{"backend": "exact", "dim": 8, "format": "repro-index-v1",'
                ' "metric": "cosine", "size": 64}'
            )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "187dbd273bb50e5c6bd22766fb2e0c4d936816476185502d3f81a61911274001"
        )


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
        # Archives from builds that shipped another backend.
        for backend in ("ivf", "blocked"):
            path = tmp_path / f"{backend}.npz"
            header = json.dumps(
                {"format": INDEX_FORMAT, "backend": backend,
                 "metric": "cosine"}
            ).encode()
            np.savez(
                path,
                header=np.frombuffer(header, dtype=np.uint8),
                vectors=np.zeros((2, 2)),
            )
            with pytest.raises(
                ValueError, match=f"unknown index backend '{backend}'"
            ):
                load_index(path)
