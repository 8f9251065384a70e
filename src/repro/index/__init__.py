"""The vector index behind profiling, retrieval and ad selection.

Every nearest-neighbour call site in the repo — the Eq. 3/4 session
neighbourhood, the 20-NN Euclidean ad lookup, the Figure-5 cluster
purity scan, hostname ``most_similar`` queries — routes through
:class:`ExactIndex`, an exhaustive scan.  See ``DESIGN.md`` ("Vector
index") for the retrain swap semantics and what a faster index must
show before it comes back.
"""

from repro.index.exact import (
    METRICS,
    ExactIndex,
    build_index,
    top_ids_desc,
    unit_rows,
)

__all__ = [
    "METRICS",
    "ExactIndex",
    "build_index",
    "top_ids_desc",
    "unit_rows",
]
