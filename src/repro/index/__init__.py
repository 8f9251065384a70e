"""Unified vector-index subsystem: one ANN layer behind profiling,
retrieval and ad selection.

Every nearest-neighbour call site in the repo — the Eq. 3/4 session
neighbourhood, the 20-NN Euclidean ad lookup, the Figure-5 cluster
purity scan, hostname ``most_similar`` queries — routes through the
:class:`VectorIndex` contract defined here.  See ``DESIGN.md`` ("Vector
index") for the backend matrix and the retrain swap semantics.
"""

from repro.index.base import (
    BACKENDS,
    INDEX_FORMAT,
    METRICS,
    IndexConfig,
    VectorIndex,
    build_index,
    load_index,
    top_ids_desc,
    unit_rows,
)
from repro.index.exact import BlockedExactIndex, ExactIndex

__all__ = [
    "BACKENDS",
    "INDEX_FORMAT",
    "METRICS",
    "BlockedExactIndex",
    "ExactIndex",
    "IndexConfig",
    "VectorIndex",
    "build_index",
    "load_index",
    "top_ids_desc",
    "unit_rows",
]
