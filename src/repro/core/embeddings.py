"""Learned hostname representations and similarity queries.

Wraps the trained embedding matrix with the operations the profiling
algorithm needs: vector lookup, cosine nearest-neighbour search (the
paper's N = 1000 neighbourhood), and session aggregation (the paper's
aggregation function g, a mean over the session's hostname vectors).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.vocabulary import Vocabulary
from repro.index import ExactIndex
from repro.index import unit_rows as _unit_rows
from repro.utils.serialization import save_npz_deterministic


class HostnameEmbeddings:
    """A |H| x d embedding matrix bound to its vocabulary."""

    def __init__(
        self,
        vectors: np.ndarray,
        vocabulary: Vocabulary,
        context_vectors: np.ndarray | None = None,
    ):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D matrix")
        if vectors.shape[0] != len(vocabulary):
            raise ValueError(
                f"vector count {vectors.shape[0]} != vocabulary size "
                f"{len(vocabulary)}"
            )
        if not np.isfinite(vectors).all():
            raise ValueError("embedding matrix contains non-finite values")
        self.vectors = vectors
        self.vocabulary = vocabulary
        self.context_vectors = context_vectors
        self._unit: np.ndarray | None = None
        self._index: ExactIndex | None = None

    # -- basic access ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __contains__(self, hostname: str) -> bool:
        return hostname in self.vocabulary

    def vector(self, hostname: str) -> np.ndarray:
        """The embedding of ``hostname``; KeyError if unknown."""
        return self.vectors[self.vocabulary.id_of(hostname)]

    def get(self, hostname: str) -> np.ndarray | None:
        host_id = self.vocabulary.get_id(hostname)
        return None if host_id is None else self.vectors[host_id]

    @property
    def unit_vectors(self) -> np.ndarray:
        """Row-normalized matrix, cached for repeated cosine queries."""
        if self._unit is None:
            self._unit = _unit_rows(self.vectors)
        return self._unit

    # -- the bound vector index ---------------------------------------------------

    @property
    def index(self) -> ExactIndex:
        """The vector index every similarity query routes through.

        Defaults to an unmetered :class:`~repro.index.ExactIndex` over
        the unit rows; the pipeline binds one that reports to its
        metrics registry with :meth:`bind_index`.
        """
        if self._index is None:
            self._index = ExactIndex(
                self.unit_vectors, metric="cosine", normalized=True
            )
        return self._index

    def bind_index(self, index: ExactIndex) -> None:
        """Attach a prebuilt index (the daily retrain swaps one in)."""
        if len(index) != len(self):
            raise ValueError(
                f"index size {len(index)} != vocabulary size {len(self)}"
            )
        if index.metric != "cosine":
            raise ValueError("embeddings require a cosine index")
        self._index = index

    # -- similarity --------------------------------------------------------------

    def similarity(self, host_a: str, host_b: str) -> float:
        """Cosine similarity between two hostnames."""
        ua = self.unit_vectors[self.vocabulary.id_of(host_a)]
        ub = self.unit_vectors[self.vocabulary.id_of(host_b)]
        return float(ua @ ub)

    def cosine_to_all(self, vector: np.ndarray) -> np.ndarray:
        """Cosine similarity of an arbitrary vector to every hostname."""
        return self.index.scores_all(vector)

    def nearest_to_vector(
        self, vector: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """ids and cosine similarities of the ``min(n, |V|)`` nearest
        hostnames.

        ``n <= 0`` returns empty arrays (historically this crashed in
        ``np.argpartition``).
        """
        return self.index.search(vector, n)

    def most_similar(
        self,
        hostname: str,
        n: int = 10,
        exclude_self: bool = True,
    ) -> list[tuple[str, float]]:
        """The up-to-n most cosine-similar hostnames to ``hostname``.

        Empty when ``n <= 0`` or when ``exclude_self`` leaves nothing to
        return (a one-host vocabulary used to crash here).
        """
        host_id = self.vocabulary.id_of(hostname)
        if n <= 0:
            return []
        ids, sims = self.index.search(
            self.vectors[host_id], n + int(exclude_self)
        )
        results = [
            (self.vocabulary.host_of(int(i)), float(s))
            for i, s in zip(ids, sims)
            if not (exclude_self and int(i) == host_id)
        ]
        return results[:n]

    # -- session aggregation -------------------------------------------------------

    def aggregate(
        self, hostnames: Iterable[str], how: str = "mean"
    ) -> np.ndarray | None:
        """The paper's g: aggregate a session's hostname vectors.

        Unknown hostnames are skipped (a live profiler constantly sees
        hosts absent from yesterday's training vocabulary).  Returns None
        when no hostname is known.
        """
        rows = [
            self.vocabulary.get_id(h)
            for h in hostnames
        ]
        rows = [r for r in rows if r is not None]
        if not rows:
            return None
        block = self.vectors[rows]
        if how == "mean":
            return block.mean(axis=0)
        if how == "sum":
            return block.sum(axis=0)
        if how == "max":
            return block.max(axis=0)
        raise ValueError(f"unknown aggregation {how!r}")

    # -- persistence ------------------------------------------------------------------

    #: Archive format written by :meth:`save`.  Version 2 stores hosts as
    #: a plain unicode array (no pickle) in the *exact* row order of the
    #: vector matrix, which :meth:`load` preserves verbatim — tied counts
    #: can never permute host→row alignment through a round-trip.
    FORMAT_VERSION = 2

    def save(self, path: str | Path) -> None:
        """Serialize to an ``.npz`` archive (vectors + vocabulary + counts).

        This archive is the whole served model: a loader rebuilds the
        cosine index from its rows.  Crash-safe and digest-stable: the
        archive is written to a ``.tmp`` sibling and ``os.replace``d
        into place (a crash mid-write can no longer leave a corrupt file
        at the final path), with deterministic bytes so saving the same
        model twice yields the same SHA-256 (the artifact store's
        manifests rely on this).
        """
        save_npz_deterministic(
            Path(path),
            {
                "format_version": np.asarray(
                    self.FORMAT_VERSION, dtype=np.int64
                ),
                "vectors": self.vectors,
                "hosts": np.asarray(self.vocabulary.hosts, dtype=np.str_),
                "counts": self.vocabulary.counts.astype(np.int64),
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "HostnameEmbeddings":
        """Load a saved archive.

        The deterministic npz format never contains pickled members, so
        loading is strict (``allow_pickle=False``).  Archives with
        deflated members, as older builds wrote them, load the same way.
        """
        from collections import Counter

        with np.load(Path(path), allow_pickle=False) as archive:
            hosts = [str(h) for h in archive["hosts"]]
            counts = [int(c) for c in archive["counts"]]
            if "format_version" in archive.files:
                # v2+: the saved row order is authoritative; rebuild the
                # vocabulary in place so save → load is bitwise-identical
                # even when counts tie.
                vocabulary = Vocabulary.from_ordered(
                    hosts, counts, min_count=1
                )
                vectors = archive["vectors"]
            else:
                # Legacy v1 archives: Vocabulary re-sorts by count, so
                # realign the vector rows to the rebuilt order.
                vocabulary = Vocabulary(
                    Counter(dict(zip(hosts, counts))), min_count=1
                )
                row_of = {host: row for row, host in enumerate(hosts)}
                order = [row_of[h] for h in vocabulary.hosts]
                vectors = archive["vectors"][order]
        return cls(vectors, vocabulary)

    def save_word2vec_format(self, path: str | Path) -> None:
        """Write the classic word2vec text format for interop.

        First line: ``<vocab size> <dim>``; then one ``host v1 v2 ...``
        line per hostname — loadable by gensim's
        ``KeyedVectors.load_word2vec_format`` (the library the paper used)
        and by most embedding tooling.  Counts are not representable in
        this format; :meth:`load_word2vec_format` assigns rank-based ones.
        """
        path = Path(path)
        with path.open("w") as handle:
            handle.write(f"{len(self)} {self.dim}\n")
            for host_id, hostname in enumerate(self.vocabulary.hosts):
                values = " ".join(
                    format(v, ".6g") for v in self.vectors[host_id]
                )
                handle.write(f"{hostname} {values}\n")

    @classmethod
    def load_word2vec_format(cls, path: str | Path) -> "HostnameEmbeddings":
        """Read the word2vec text format written by any compatible tool."""
        from collections import Counter

        path = Path(path)
        with path.open() as handle:
            header = handle.readline().split()
            if len(header) != 2:
                raise ValueError("malformed word2vec header")
            count, dim = int(header[0]), int(header[1])
            hosts: list[str] = []
            rows: list[list[float]] = []
            for line in handle:
                parts = line.rstrip("\n").split(" ")
                if len(parts) != dim + 1:
                    raise ValueError(
                        f"bad vector line for {parts[0]!r}: "
                        f"{len(parts) - 1} values, expected {dim}"
                    )
                hosts.append(parts[0])
                rows.append([float(v) for v in parts[1:]])
        if len(hosts) != count:
            raise ValueError(
                f"header promised {count} vectors, file has {len(hosts)}"
            )
        # The format carries no counts; preserve file order via fake
        # rank-based counts (first line = most frequent).
        counts = Counter(
            {host: len(hosts) - i for i, host in enumerate(hosts)}
        )
        vocabulary = Vocabulary(counts, min_count=1)
        row_of = {host: row for row, host in enumerate(hosts)}
        vectors = np.array(
            [rows[row_of[h]] for h in vocabulary.hosts], dtype=np.float64
        )
        return cls(vectors, vocabulary)
