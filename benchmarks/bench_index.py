"""INDEX — vector-index backend throughput.

The ``repro.index`` subsystem serves every nearest-neighbour call site
from one exhaustive scan at two operating points: exact per-query (ground
truth) and blocked batched GEMM (same results, amortised scan).  This
bench measures both on a clustered synthetic embedding set — clustered
because that is what trained hostname embeddings look like (Figure 5):

* per-query :class:`ExactIndex` queries/second over 1000 queries;
* :class:`BlockedExactIndex` ``search_batch`` queries/second on the same
  1000 queries (must beat per-query exact; >= 3x at full scale).

Timings are best-of-k: the box this runs on shares a host, and a single
stolen timeslice must not decide a ratio assertion.  Results are emitted
through the metrics registry to ``benchmarks/out/BENCH_index.json`` (a
``repro-metrics-v1`` snapshot).  Setting ``REPRO_BENCH_INDEX_SMOKE=1``
shrinks the matrix and top-N for CI (the query count stays at 1000 and
every assertion still runs; the blocked speedup floor relaxes from 3x to
"faster than per-query").
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.index import BlockedExactIndex, ExactIndex
from repro.obs.metrics import MetricsRegistry

OUT_DIR = Path(__file__).parent / "out"

SMOKE = os.environ.get("REPRO_BENCH_INDEX_SMOKE", "") == "1"

NUM_QUERIES = 1000                       # fixed: "the 1k-query bench"
NUM_VECTORS = 8192 if SMOKE else 65536
DIM = 100                                # the repo's SkipGramConfig.dim
NUM_TRUE_CLUSTERS = 32                   # planted structure
TOP_N = 128 if SMOKE else 1000           # full scale = the paper's N
# CI smoke only asserts "batched beats per-query"; the 3x acceptance
# floor applies at full scale where the GEMM has room to amortise.
BLOCKED_SPEEDUP_FLOOR = 1.2 if SMOKE else 3.0

BENCH_REGISTRY = MetricsRegistry()


def _emit(name: str, help_text: str, value: float) -> None:
    BENCH_REGISTRY.gauge(name, help_text).set(value)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_index.json").write_text(
        BENCH_REGISTRY.to_json(indent=2) + "\n"
    )


def _best_of(k: int, run) -> float:
    """Minimum wall time of ``k`` runs (robust to host-steal stalls)."""
    best = float("inf")
    for _ in range(k):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _fixture():
    """Clustered unit vectors + queries drawn from the same clusters."""
    rng = np.random.default_rng(12345)
    centers = rng.normal(size=(NUM_TRUE_CLUSTERS, DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assignment = rng.integers(NUM_TRUE_CLUSTERS, size=NUM_VECTORS)
    vectors = centers[assignment] + 0.15 * rng.normal(
        size=(NUM_VECTORS, DIM)
    )
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    picks = rng.integers(NUM_VECTORS, size=NUM_QUERIES)
    queries = vectors[picks] + 0.05 * rng.normal(size=(NUM_QUERIES, DIM))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return vectors, queries


def test_blocked_batched_beats_per_query_exact(report_sink):
    vectors, queries = _fixture()
    exact = ExactIndex(vectors, metric="cosine", normalized=True)
    blocked = BlockedExactIndex(vectors, metric="cosine", normalized=True)

    exact.search(queries[0], TOP_N)       # warm-up
    exact_elapsed = _best_of(
        2, lambda: [exact.search(query, TOP_N) for query in queries]
    )
    exact_qps = NUM_QUERIES / exact_elapsed

    blocked.search_batch(queries, TOP_N)  # warm-up at full batch size
    blocked_elapsed = _best_of(
        3, lambda: blocked.search_batch(queries, TOP_N)
    )
    blocked_qps = NUM_QUERIES / blocked_elapsed
    speedup = blocked_qps / exact_qps

    lines = [
        f"Vector-index throughput ({NUM_VECTORS} x {DIM}, "
        f"{NUM_QUERIES} queries, top-{TOP_N}"
        + (", smoke)" if SMOKE else ")"),
        f"exact per-query:  {exact_qps:,.0f} q/s",
        f"blocked batched:  {blocked_qps:,.0f} q/s",
        f"speedup:          {speedup:.1f}x "
        f"(floor {BLOCKED_SPEEDUP_FLOOR:g}x)",
    ]
    report_sink("index_throughput", "\n".join(lines))
    _emit(
        "bench_index_exact_queries_per_second",
        "Per-query ExactIndex throughput on the 1k-query bench.",
        exact_qps,
    )
    _emit(
        "bench_index_blocked_queries_per_second",
        "BlockedExactIndex search_batch throughput, same queries.",
        blocked_qps,
    )
    _emit(
        "bench_index_blocked_speedup",
        "Blocked batched q/s over per-query exact q/s.",
        speedup,
    )
    assert speedup >= BLOCKED_SPEEDUP_FLOOR, (
        f"batched backend must beat per-query exact by "
        f">= {BLOCKED_SPEEDUP_FLOOR:g}x, got {speedup:.2f}x"
    )


def test_bench_snapshot_is_valid():
    """The emitted snapshot parses and carries the index gauges."""
    path = OUT_DIR / "BENCH_index.json"
    if not path.exists():  # running this test alone
        _emit("bench_index_blocked_speedup", "", 0.0)
    snapshot = json.loads(path.read_text())
    assert snapshot["format"] == "repro-metrics-v1"
    names = {m["name"] for m in snapshot["metrics"]}
    assert any(name.startswith("bench_index_") for name in names)
