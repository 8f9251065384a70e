"""The vector index every search call site routes through.

The paper's whole profiling algorithm is nearest-neighbour retrieval:
the N = 1000 cosine neighbourhood per session (Eq. 3/4), the 20-NN
Euclidean ad lookup (Section 5.4), and the Figure-5 cluster inspection
are all "find the rows of a matrix closest to a query".  Before this
subsystem each caller re-implemented the full O(|V| x d) scan; now they
share :class:`ExactIndex`, the same brute-force scan kept bit-for-bit
compatible with the historical call sites.

Score convention: **higher is better** for every metric.  ``cosine``
scores are cosine similarities; ``euclidean`` scores are *negative
squared* Euclidean distances (monotone in true distance, cheap to
compute, and one ordering rule serves both metrics).
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.metrics import (
    LATENCY_BUCKETS_FAST,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_TRACER, current_exemplar

METRICS = ("cosine", "euclidean")


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize with the zero-row guard every call site used."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)


def top_ids_desc(scores: np.ndarray, n: int) -> np.ndarray:
    """ids of the ``n`` largest scores, descending, ties stable by id.

    Reproduces the historical selection ops exactly (argpartition then a
    stable argsort of the partition), so search is bit-for-bit the
    pre-refactor behaviour.
    """
    n = min(n, len(scores))
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    top = np.argpartition(-scores, n - 1)[:n]
    return top[np.argsort(-scores[top], kind="stable")]


class ExactIndex:
    """Exhaustive nearest-neighbour search over the rows of a fixed matrix.

    Scores, selection and tie-breaking are bit-for-bit what the call
    sites computed before the index subsystem existed, so profiles and
    ad rankings are byte-identical to the pre-refactor code.

    Instances are immutable after construction: a model retrain builds a
    fresh index and swaps it in atomically (see
    :meth:`repro.core.pipeline.NetworkObserverProfiler.train_on_sequences`).
    """

    #: backend identifier in metric labels and generation manifests
    name = "exact"

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
            "Vector-index queries served.",
            labelnames=("backend",),
        ).labels(backend=self.name)
        self._scanned_total = registry.counter(
            "index_rows_scanned_total",
            "Candidate rows scored across all queries (|V| per query).",
            labelnames=("backend",),
        ).labels(backend=self.name)
        self._search_seconds = registry.histogram(
            "index_search_seconds",
            "Wall time per search call.",
            labelnames=("backend",),
            buckets=LATENCY_BUCKETS_FAST,
        ).labels(backend=self.name)

    # -- shape -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._vectors.shape[0]

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    # -- search ----------------------------------------------------------------

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

    def _search_prepared(
        self, query: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        scores = self._scores_all_prepared(query)
        if self._measure:
            self._scanned_total.inc(len(self))
        ids = top_ids_desc(scores, n)
        return ids, scores[ids]

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


def build_index(
    vectors: np.ndarray,
    metric: str = "cosine",
    normalized: bool = False,
    registry: MetricsRegistry | None = None,
) -> ExactIndex:
    """Build the serving index over ``vectors``.

    The pipeline calls this (through its module global) for every model
    it trains, so it is the one place a retrain's index build can be
    timed or, in tests, forbidden.  Loading a served model constructs
    its :class:`ExactIndex` directly and is not a build.
    """
    return ExactIndex(
        vectors, metric=metric, normalized=normalized, registry=registry
    )
