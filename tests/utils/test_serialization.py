"""Tests for atomic/deterministic serialization helpers."""

import hashlib
import json
import zipfile

import numpy as np
import pytest

from repro.utils.serialization import (
    atomic_write_bytes,
    atomic_write_json,
    file_sha256,
    npz_bytes_deterministic,
    save_npz_deterministic,
)


class TestAtomicWrites:
    def test_write_bytes_lands_and_cleans_tmp(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [path]   # no .tmp sibling left

    def test_interrupted_write_preserves_original(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"original")

        def explode(src, dst):
            raise OSError("power cut")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"replacement")
        # The crash happened before the rename commit point: the old
        # contents are untouched.
        assert path.read_bytes() == b"original"

    def test_write_json_is_canonical(self, tmp_path):
        path = tmp_path / "data.json"
        atomic_write_json(path, {"b": 2, "a": 1})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')   # sorted keys
        assert json.loads(text) == {"a": 1, "b": 2}


class TestDeterministicNpz:
    def test_loadable_by_numpy(self, tmp_path):
        arrays = {
            "vectors": np.arange(12, dtype=np.float64).reshape(3, 4),
            "hosts": np.asarray(["a.com", "b.com", "c.com"], dtype=np.str_),
        }
        path = tmp_path / "out.npz"
        save_npz_deterministic(path, arrays)
        with np.load(path) as archive:
            assert np.array_equal(archive["vectors"], arrays["vectors"])
            assert [str(h) for h in archive["hosts"]] == [
                "a.com", "b.com", "c.com",
            ]

    def test_same_content_same_bytes(self):
        arrays = {"x": np.arange(100, dtype=np.float64)}
        assert npz_bytes_deterministic(arrays) == npz_bytes_deterministic(
            {"x": np.arange(100, dtype=np.float64)}
        )

    def test_member_order_does_not_matter(self):
        a = {"x": np.zeros(3), "y": np.ones(3)}
        b = {"y": np.ones(3), "x": np.zeros(3)}
        assert npz_bytes_deterministic(a) == npz_bytes_deterministic(b)

    def test_members_are_stored_not_deflated(self, tmp_path):
        # One write mode: loading a member is a copy, never an inflate.
        path = tmp_path / "out.npz"
        save_npz_deterministic(
            path, {"x": np.zeros(3), "h": np.asarray(["a"], dtype=np.str_)}
        )
        with zipfile.ZipFile(path) as archive:
            assert {
                info.compress_type for info in archive.infolist()
            } == {zipfile.ZIP_STORED}

    def test_object_dtype_rejected(self):
        with pytest.raises(ValueError):
            npz_bytes_deterministic(
                {"bad": np.asarray(["a", 1], dtype=object)}
            )


class TestFileSha256:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 100
        path.write_bytes(payload)
        assert file_sha256(path) == hashlib.sha256(payload).hexdigest()
