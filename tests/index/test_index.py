"""Unit tests for the vector-index subsystem (repro.index)."""

import numpy as np
import pytest

from repro.index import ExactIndex, top_ids_desc, unit_rows
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


class TestContract:
    def test_search_non_positive_n_is_empty(self):
        index = ExactIndex(_matrix())
        ids, scores = index.search(np.ones(8), 0)
        assert len(ids) == 0 and len(scores) == 0
        ids, _ = index.search(np.ones(8), -2)
        assert len(ids) == 0

    def test_search_n_clamped_to_size(self):
        ids, _ = ExactIndex(_matrix(size=10)).search(np.ones(8), 50)
        assert len(ids) == 10

    def test_scores_all_is_exhaustive(self):
        matrix = _matrix()
        query = np.arange(8, dtype=float)
        expected = unit_rows(matrix) @ (query / np.linalg.norm(query))
        np.testing.assert_allclose(
            ExactIndex(matrix).scores_all(query), expected, rtol=1e-12
        )

    def test_rejects_bad_shapes(self):
        index = ExactIndex(_matrix())
        with pytest.raises(ValueError):
            index.search(np.ones(5), 3)          # wrong dim
        with pytest.raises(ValueError):
            ExactIndex(np.ones(4))               # 1-D
        with pytest.raises(ValueError):
            ExactIndex(np.empty((0, 4)))         # empty
        with pytest.raises(ValueError):
            ExactIndex(_matrix(), metric="manhattan")

    def test_zero_query_cosine_is_safe(self):
        _, scores = ExactIndex(_matrix()).search(np.zeros(8), 3)
        assert np.isfinite(scores).all()


class TestExactness:
    """Search reproduces the historical brute-force ordering."""

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


class TestMetrics:
    def test_counters_and_histograms_flow(self):
        registry = MetricsRegistry()
        index = ExactIndex(_matrix(size=30), registry=registry)
        index.search(np.ones(8), 5)
        index.search(np.ones(8), 5)
        index.scores_all(np.ones(8))
        flat = MetricsRegistry.flatten(registry.snapshot())
        queries = flat[
            'index_queries_total{backend="exact"}'
        ]
        assert queries == 3
        scanned = flat[
            'index_rows_scanned_total{backend="exact"}'
        ]
        assert scanned == 30 * 3
        assert (
            flat['index_search_seconds_count{backend="exact"}'] == 2
        )

    def test_null_registry_default_measures_nothing(self):
        index = ExactIndex(_matrix(size=10))
        assert not index._measure
        index.search(np.ones(8), 3)   # must not raise
