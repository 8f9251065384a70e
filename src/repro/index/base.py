"""The vector-index interface every search call site routes through.

The paper's whole profiling algorithm is nearest-neighbour retrieval:
the N = 1000 cosine neighbourhood per session (Eq. 3/4), the 20-NN
Euclidean ad lookup (Section 5.4), and the Figure-5 cluster inspection
are all "find the rows of a matrix closest to a query".  Before this
subsystem each caller re-implemented the full O(|V| x d) scan; now they
share one :class:`VectorIndex` contract with two exhaustive backends:

* :class:`~repro.index.exact.ExactIndex` — the brute-force scan, kept
  bit-for-bit compatible with the historical call sites; ground truth.
* :class:`~repro.index.exact.BlockedExactIndex` — cache-blocked batched
  float32 matmul; still exhaustive, but scores many queries per GEMM so
  batched profiling amortises the scan.

Score convention: **higher is better** for every metric.  ``cosine``
scores are cosine similarities; ``euclidean`` scores are *negative
squared* Euclidean distances (monotone in true distance, cheap to
compute, and one ordering rule serves both metrics).
"""

from __future__ import annotations

import json
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs.metrics import (
    LATENCY_BUCKETS_FAST,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_TRACER, current_exemplar
from repro.utils.serialization import save_npz_deterministic

METRICS = ("cosine", "euclidean")
BACKENDS = ("exact", "blocked")

#: Format marker in saved index archives (see :meth:`VectorIndex.save`).
INDEX_FORMAT = "repro-index-v1"


@dataclass
class IndexConfig:
    """Knobs for :func:`build_index`; defaults preserve exact search."""

    backend: str = "exact"
    # BlockedExactIndex: rows scored per block (tuned to keep a block of
    # the float32 matrix plus the score tile inside L2).
    block_rows: int = 8192

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown index backend {self.backend!r}; "
                f"choose from {BACKENDS}"
            )
        if self.block_rows < 1:
            raise ValueError("block_rows must be >= 1")


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize with the zero-row guard every call site used."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)


def top_ids_desc(scores: np.ndarray, n: int) -> np.ndarray:
    """ids of the ``n`` largest scores, descending, ties stable by id.

    Reproduces the historical selection ops exactly (argpartition then a
    stable argsort of the partition), so the exact backend is bit-for-bit
    the pre-refactor behaviour.
    """
    n = min(n, len(scores))
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    top = np.argpartition(-scores, n - 1)[:n]
    return top[np.argsort(-scores[top], kind="stable")]


class VectorIndex(ABC):
    """Nearest-neighbour search over the rows of a fixed matrix.

    Instances are immutable after construction: a model retrain builds a
    fresh index and swaps it in atomically (see
    :meth:`repro.core.pipeline.NetworkObserverProfiler.train_on_sequences`).
    """

    #: short backend identifier ("exact" / "blocked")
    name: str = "?"

    def __init__(
        self,
        vectors: np.ndarray,
        metric: str = "cosine",
        normalized: bool = False,
        registry: MetricsRegistry | None = None,
    ):
        vectors = np.asarray(vectors)
        if vectors.ndim != 2:
            raise ValueError("index vectors must be a 2-D matrix")
        if vectors.shape[0] == 0:
            raise ValueError("cannot index an empty matrix")
        if metric not in METRICS:
            raise ValueError(
                f"unknown metric {metric!r}; choose from {METRICS}"
            )
        self.metric = metric
        if metric == "cosine" and not normalized:
            vectors = unit_rows(np.asarray(vectors, dtype=np.float64))
        self._vectors = vectors
        registry = registry if registry is not None else NULL_REGISTRY
        self.registry = registry
        self._measure = not registry.null
        # Rebindable after construction (SessionProfiler binds its tracer
        # here) so sampled traces get "index.search" spans without the
        # factory chain having to thread a tracer argument.
        self.tracer = NULL_TRACER
        self._queries_total = registry.counter(
            "index_queries_total",
            "Vector-index queries served (batch = one per query row).",
            labelnames=("backend",),
        ).labels(backend=self.name)
        self._scanned_total = registry.counter(
            "index_rows_scanned_total",
            "Candidate rows scored across all queries (|V| per query).",
            labelnames=("backend",),
        ).labels(backend=self.name)
        self._search_seconds = registry.histogram(
            "index_search_seconds",
            "Wall time per search call (batched calls count once).",
            labelnames=("backend",),
            buckets=LATENCY_BUCKETS_FAST,
        ).labels(backend=self.name)

    # -- shape -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._vectors.shape[0]

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        """The stored matrix (unit rows for cosine).  Do not mutate.

        For a cosine index this is exactly the row-normalized embedding
        matrix, which is why ``HostnameEmbeddings.bind_index(...,
        reuse_unit_rows=True)`` can adopt it as its unit-row cache — and
        when the index was loaded ``mmap_mode="r"``, keep a whole worker
        fleet on one shared physical copy.
        """
        return self._vectors

    # -- scoring helpers --------------------------------------------------------

    def _prepare_query(self, query: np.ndarray) -> np.ndarray:
        """Validate and (for cosine) unit-normalize one query vector."""
        query = np.asarray(query, dtype=self._vectors.dtype)
        if query.ndim != 1 or query.shape[0] != self.dim:
            raise ValueError(
                f"query must be a vector of dim {self.dim}, "
                f"got shape {query.shape}"
            )
        if self.metric == "cosine":
            norm = np.linalg.norm(query)
            if norm < 1e-12:
                return np.zeros_like(query)
            return query / norm
        return query

    def _prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=self._vectors.dtype)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"queries must be (batch, {self.dim}), "
                f"got shape {queries.shape}"
            )
        if self.metric == "cosine":
            return unit_rows(queries)
        return queries

    # -- the contract ----------------------------------------------------------

    @abstractmethod
    def _search_prepared(
        self, query: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(ids, scores) for one prepared query; both length min(n, |V|)."""

    def _search_batch_prepared(
        self, queries: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Default batch path: one :meth:`_search_prepared` per row."""
        n = min(n, len(self))
        ids = np.empty((queries.shape[0], n), dtype=np.int64)
        scores = np.empty((queries.shape[0], n))
        for row, query in enumerate(queries):
            ids[row], scores[row] = self._search_prepared(query, n)
        return ids, scores

    def search(
        self, query: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``min(n, |V|)`` best rows for one query.

        Returns ``(ids, scores)`` sorted best-first; ``n <= 0`` returns
        empty arrays rather than misbehaving.
        """
        if n <= 0:
            return (np.empty(0, dtype=np.int64), np.empty(0))
        query = self._prepare_query(query)
        traced = not self.tracer.null and current_exemplar() is not None
        if not self._measure and not traced:
            return self._search_prepared(query, n)
        exemplar = current_exemplar()
        started = time.perf_counter()
        if traced:
            with self.tracer.span("index.search", backend=self.name):
                ids, scores = self._search_prepared(query, n)
        else:
            ids, scores = self._search_prepared(query, n)
        self._search_seconds.observe(
            time.perf_counter() - started, exemplar=exemplar
        )
        self._queries_total.inc()
        return ids, scores

    def search_batch(
        self, queries: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Best rows for many queries at once: ``(B, min(n, |V|))`` arrays.

        Both backends are exhaustive, so every row holds exactly
        ``min(n, |V|)`` results, best-first.
        """
        queries = self._prepare_queries(queries)
        if n <= 0 or queries.shape[0] == 0:
            return (
                np.empty((queries.shape[0], 0), dtype=np.int64),
                np.empty((queries.shape[0], 0)),
            )
        traced = not self.tracer.null and current_exemplar() is not None
        if not self._measure and not traced:
            return self._search_batch_prepared(queries, n)
        exemplar = current_exemplar()
        started = time.perf_counter()
        if traced:
            with self.tracer.span(
                "index.search", backend=self.name,
                batch=int(queries.shape[0]),
            ):
                ids, scores = self._search_batch_prepared(queries, n)
        else:
            ids, scores = self._search_batch_prepared(queries, n)
        self._search_seconds.observe(
            time.perf_counter() - started, exemplar=exemplar
        )
        self._queries_total.inc(queries.shape[0])
        return ids, scores

    def scores_all(self, query: np.ndarray) -> np.ndarray:
        """Scores of the query against **every** row (exhaustive)."""
        query = self._prepare_query(query)
        if self._measure:
            self._queries_total.inc()
            self._scanned_total.inc(len(self))
        return self._scores_all_prepared(query)

    def _scores_all_prepared(self, query: np.ndarray) -> np.ndarray:
        if self.metric == "cosine":
            return self._vectors @ query
        deltas = self._vectors - query
        return -np.einsum("ij,ij->i", deltas, deltas)

    # -- persistence -----------------------------------------------------------

    def _save_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(hyperparam meta, extra arrays) a backend needs to restore.

        The base contract persists nothing beyond the vectors; backends
        with build-time state (the block size) override this so
        :func:`load_index` can reconstruct them without redoing the build.
        """
        return {}, {}

    def describe(self) -> dict:
        """Backend + hyperparams, as recorded in generation manifests."""
        meta, _ = self._save_state()
        return {
            "backend": self.name,
            "metric": self.metric,
            "size": len(self),
            "dim": self.dim,
            **meta,
        }

    def save(self, path: str | Path, compress: bool = True) -> None:
        """Serialize the index (``.npz``, atomic + digest-stable).

        The archive holds the stored vector matrix (already unit rows
        for cosine), any backend-specific arrays, and a JSON header; a
        retrained observer restores it with :func:`load_index` instead
        of rebuilding.
        ``compress=False`` writes mappable members so a worker fleet can
        :func:`load_index` the archive with ``mmap_mode="r"`` zero-copy.
        """
        meta, arrays = self._save_state()
        header = {
            "format": INDEX_FORMAT,
            "backend": self.name,
            "metric": self.metric,
            "size": len(self),
            "dim": self.dim,
            **meta,
        }
        payload = dict(arrays)
        payload["vectors"] = self._vectors
        payload["header"] = np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        )
        save_npz_deterministic(path, payload, compress=compress)


def build_index(
    vectors: np.ndarray,
    metric: str = "cosine",
    config: IndexConfig | None = None,
    normalized: bool = False,
    registry: MetricsRegistry | None = None,
) -> VectorIndex:
    """Construct the backend named by ``config.backend``."""
    from repro.index.exact import BlockedExactIndex, ExactIndex

    config = config or IndexConfig()
    config.validate()
    if config.backend == "exact":
        return ExactIndex(
            vectors, metric=metric, normalized=normalized,
            registry=registry,
        )
    return BlockedExactIndex(
        vectors, metric=metric, normalized=normalized,
        block_rows=config.block_rows, registry=registry,
    )


def load_index(
    path: str | Path,
    registry: MetricsRegistry | None = None,
    mmap_mode: str | None = None,
) -> VectorIndex:
    """Restore an index saved with :meth:`VectorIndex.save`.

    Dispatches on the archive's backend header.  Restoring never redoes
    build work: both backends' archives are plain matrix loads.  A header
    naming any other backend raises ``ValueError``.

    ``mmap_mode="r"`` binds the index to read-only mapped views of the
    archive (see :func:`~repro.utils.serialization.load_npz_mapped`):
    N worker processes restoring the same archive share one physical
    copy of the vector matrix through the OS page cache.
    """
    from repro.index.exact import BlockedExactIndex, ExactIndex
    from repro.utils.serialization import load_npz_mapped

    path = Path(path)
    if mmap_mode is not None:
        mapped = load_npz_mapped(path, mmap_mode=mmap_mode)
        files = set(mapped)
        get = mapped.__getitem__
        closer = None
    else:
        npz = np.load(path, allow_pickle=False)
        files = set(npz.files)
        get = npz.__getitem__
        closer = npz.close
    try:
        if "header" not in files:
            raise ValueError(f"{path} is not a saved vector index")
        header = json.loads(bytes(get("header")).decode("utf-8"))
        if header.get("format") != INDEX_FORMAT:
            raise ValueError(
                f"{path}: unsupported index format "
                f"{header.get('format')!r} (expected {INDEX_FORMAT})"
            )
        vectors = get("vectors")
        backend = header.get("backend")
        # Stored vectors are already normalized for cosine, so every
        # reconstruction below passes normalized=True.
        if backend == "exact":
            return ExactIndex(
                vectors, metric=header["metric"], normalized=True,
                registry=registry,
            )
        if backend == "blocked":
            return BlockedExactIndex(
                vectors, metric=header["metric"], normalized=True,
                block_rows=int(header["block_rows"]), registry=registry,
            )
        raise ValueError(f"{path}: unknown index backend {backend!r}")
    finally:
        if closer is not None:
            closer()
