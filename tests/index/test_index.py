"""Unit tests for the vector-index subsystem (repro.index)."""

import numpy as np
import pytest

from repro.index import (
    BlockedExactIndex,
    ExactIndex,
    IndexConfig,
    build_index,
    top_ids_desc,
    unit_rows,
)
from repro.obs.metrics import MetricsRegistry


def _matrix(size=64, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(size, dim))


def _brute_force_cosine(matrix, query, n):
    unit = unit_rows(matrix)
    q = query / max(np.linalg.norm(query), 1e-12)
    sims = unit @ q
    top = np.argpartition(-sims, n - 1)[:n]
    return top[np.argsort(-sims[top], kind="stable")]


def _brute_force_euclidean(matrix, query, n):
    deltas = matrix - query
    distances = np.einsum("ij,ij->i", deltas, deltas)
    top = np.argpartition(distances, n - 1)[:n]
    return top[np.argsort(distances[top], kind="stable")]


class TestTopIdsDesc:
    def test_orders_descending_with_stable_ties(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        assert top_ids_desc(scores, 3).tolist() == [1, 0, 2]

    def test_n_clamped_to_length(self):
        assert len(top_ids_desc(np.array([1.0, 2.0]), 10)) == 2

    def test_non_positive_n_is_empty(self):
        out = top_ids_desc(np.array([1.0, 2.0]), 0)
        assert out.dtype == np.int64 and len(out) == 0
        assert len(top_ids_desc(np.array([1.0]), -3)) == 0


class TestConfig:
    def test_defaults_validate(self):
        IndexConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "faiss"},
            {"backend": "ivf"},
            {"block_rows": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IndexConfig(**kwargs).validate()

    def test_build_index_dispatches_each_backend(self):
        matrix = _matrix()
        for backend, cls in (
            ("exact", ExactIndex),
            ("blocked", BlockedExactIndex),
        ):
            index = build_index(
                matrix, config=IndexConfig(backend=backend)
            )
            assert isinstance(index, cls)
            assert index.name == backend


class TestContract:
    """Behaviour every backend must share."""

    def _backends(self, matrix, metric="cosine"):
        return [
            ExactIndex(matrix, metric=metric),
            BlockedExactIndex(matrix, metric=metric, block_rows=17),
        ]

    def test_search_non_positive_n_is_empty(self):
        for index in self._backends(_matrix()):
            ids, scores = index.search(np.ones(8), 0)
            assert len(ids) == 0 and len(scores) == 0
            ids, _ = index.search(np.ones(8), -2)
            assert len(ids) == 0

    def test_search_n_clamped_to_size(self):
        for index in self._backends(_matrix(size=10)):
            ids, _ = index.search(np.ones(8), 50)
            assert len(ids) == 10
            ids, _ = index.search_batch(np.ones((2, 8)), 50)
            assert ids.shape == (2, 10)

    def test_batch_matches_single(self):
        matrix = _matrix()
        queries = _matrix(size=5, seed=3)
        for index in self._backends(matrix):
            batch_ids, batch_scores = index.search_batch(queries, 7)
            assert batch_ids.shape == (5, 7)
            for row, query in enumerate(queries):
                ids, scores = index.search(query, 7)
                np.testing.assert_array_equal(batch_ids[row], ids)
                np.testing.assert_allclose(
                    batch_scores[row], scores, rtol=1e-5, atol=1e-6,
                )

    def test_batch_empty_inputs(self):
        for index in self._backends(_matrix()):
            ids, scores = index.search_batch(np.empty((0, 8)), 5)
            assert ids.shape == (0, 5) or ids.shape == (0, 0)
            ids, _ = index.search_batch(np.ones((3, 8)), 0)
            assert ids.shape == (3, 0)

    def test_scores_all_is_exhaustive(self):
        matrix = _matrix()
        query = np.arange(8, dtype=float)
        expected = unit_rows(matrix) @ (query / np.linalg.norm(query))
        for index in self._backends(matrix):
            np.testing.assert_allclose(
                index.scores_all(query), expected, rtol=1e-12
            )

    def test_rejects_bad_shapes(self):
        index = ExactIndex(_matrix())
        with pytest.raises(ValueError):
            index.search(np.ones(5), 3)          # wrong dim
        with pytest.raises(ValueError):
            index.search_batch(np.ones((2, 5)), 3)
        with pytest.raises(ValueError):
            ExactIndex(np.ones(4))               # 1-D
        with pytest.raises(ValueError):
            ExactIndex(np.empty((0, 4)))         # empty
        with pytest.raises(ValueError):
            ExactIndex(_matrix(), metric="manhattan")

    def test_zero_query_cosine_is_safe(self):
        for index in self._backends(_matrix()):
            ids, scores = index.search(np.zeros(8), 3)
            assert np.isfinite(scores).all()


class TestExactness:
    """Exact and blocked reproduce the historical brute-force ordering."""

    def test_exact_cosine_bitwise(self):
        matrix, query = _matrix(), np.arange(8, dtype=float) - 3.0
        index = ExactIndex(matrix)
        ids, scores = index.search(query, 9)
        expected = _brute_force_cosine(matrix, query, 9)
        np.testing.assert_array_equal(ids, expected)
        unit = unit_rows(matrix)
        q = query / np.linalg.norm(query)
        np.testing.assert_array_equal(scores, (unit @ q)[expected])

    def test_exact_euclidean_bitwise(self):
        matrix, query = _matrix(), np.arange(8, dtype=float)
        index = ExactIndex(matrix, metric="euclidean")
        ids, scores = index.search(query, 9)
        expected = _brute_force_euclidean(matrix, query, 9)
        np.testing.assert_array_equal(ids, expected)
        assert (scores <= 0).all()       # negative squared distances

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_blocked_matches_exact_sets(self, metric):
        matrix = _matrix(size=200)
        exact = ExactIndex(matrix, metric=metric)
        blocked = BlockedExactIndex(
            matrix, metric=metric, block_rows=64
        )
        for seed in range(5):
            query = _matrix(size=1, seed=seed)[0]
            e_ids, e_scores = exact.search(query, 20)
            b_ids, b_scores = blocked.search(query, 20)
            # float32 scoring may swap near-ties; the sets agree and
            # scores match to float32 precision.
            assert set(e_ids.tolist()) == set(b_ids.tolist())
            np.testing.assert_allclose(
                b_scores, e_scores, rtol=1e-5, atol=1e-5
            )


class TestMetrics:
    def test_counters_and_histograms_flow(self):
        registry = MetricsRegistry()
        index = ExactIndex(_matrix(size=30), registry=registry)
        index.search(np.ones(8), 5)
        index.search_batch(np.ones((4, 8)), 5)
        index.scores_all(np.ones(8))
        flat = MetricsRegistry.flatten(registry.snapshot())
        queries = flat[
            'index_queries_total{backend="exact"}'
        ]
        assert queries == 1 + 4 + 1
        scanned = flat[
            'index_rows_scanned_total{backend="exact"}'
        ]
        assert scanned == 30 * 6
        assert (
            flat['index_search_seconds_count{backend="exact"}'] == 2
        )

    def test_null_registry_default_measures_nothing(self):
        index = ExactIndex(_matrix(size=10))
        assert not index._measure
        index.search(np.ones(8), 3)   # must not raise
