"""Crash-safe, digest-stable array archives.

Two properties every persisted artifact in this repo needs:

* **atomicity** — a crash mid-write must never leave a corrupt file at
  the final path.  Everything here writes to a ``.tmp`` sibling and
  ``os.replace``s it into place, the same discipline as the streaming
  checkpoint.
* **byte determinism** — the same content must produce the same bytes on
  every save, so the artifact store's SHA-256 manifest digests are stable
  across republishes of an identical model.  ``np.savez`` breaks this
  by stamping the member zip headers with the wall clock;
  :func:`save_npz_deterministic` builds the zip itself with a fixed
  timestamp (and no pickled members), yet stays loadable by ``np.load``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from pathlib import Path

import numpy as np

# DOS epoch: the oldest timestamp a zip member can carry.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a ``.tmp`` sibling + ``os.replace``."""
    path = Path(path)
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_bytes(data)
    os.replace(scratch, path)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Canonical (sorted-key) JSON, atomically replaced into place."""
    atomic_write_text(
        path, json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )


def npz_bytes_deterministic(arrays: dict[str, np.ndarray]) -> bytes:
    """An ``.npz``-compatible archive with reproducible bytes.

    Members are written in sorted name order with a fixed zip timestamp
    and stored verbatim (``ZIP_STORED``), so identical arrays always
    produce identical bytes and loading is a plain copy, not an inflate.
    Object-dtype arrays are rejected: they would be pickled, which is
    neither stable across Python versions nor safe to load.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name in sorted(arrays):
            array = np.asanyarray(arrays[name])
            if array.dtype.hasobject:
                raise ValueError(
                    f"array {name!r} has object dtype; deterministic "
                    "archives cannot contain pickled members"
                )
            member = io.BytesIO()
            np.lib.format.write_array(member, array, allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o644 << 16
            archive.writestr(info, member.getvalue())
    return buffer.getvalue()


def save_npz_deterministic(
    path: str | Path, arrays: dict[str, np.ndarray]
) -> None:
    """Atomically write a deterministic ``.npz`` archive to ``path``.

    Unlike ``np.savez`` this writes to the *exact* path given (no
    implicit ``.npz`` suffix appended) and never leaves a truncated
    archive behind on a crash.
    """
    atomic_write_bytes(path, npz_bytes_deterministic(arrays))


def file_sha256(path: str | Path, chunk_size: int = 1 << 20) -> str:
    """Hex SHA-256 of a file's bytes, streamed in chunks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()
