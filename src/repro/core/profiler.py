"""Session profiling — Equations 3 and 4 of the paper.

Given a session s_T_u, its aggregated embedding s, and a labelled set H_L
of hostnames with known category vectors c^h, the profile is built by an
N-nearest-neighbour vote:

* H_s  — the N = 1000 hostnames most cosine-similar to s;
* L    — labelled hostnames contained in the session itself;
* alpha_h = 1 for h in L, [cos(s, h)]_+ for the other neighbours (Eq. 3);
* c^s_i = sum_h alpha_h c^h_i / sum_h alpha_h over labelled contributors
  (Eq. 4), which keeps every component in [0, 1].

The N-neighbourhood is fetched through the profiler's
:class:`~repro.index.ExactIndex`, one O(|V| x d) scan per session.  The
ambient-similarity recentring term is O(d) per session: the mean of all
|V| cosines to a query equals the dot of the query's unit vector with
the cached mean unit row, computed once per embedding swap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.embeddings import HostnameEmbeddings
from repro.core.session import first_visits
from repro.obs.metrics import (
    LATENCY_BUCKETS_FAST,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_TRACER, Tracer, current_exemplar
from repro.ontology.taxonomy import Category, Taxonomy

if TYPE_CHECKING:
    from repro.index import ExactIndex


@dataclass(frozen=True)
class SessionProfile:
    """The category vector c^{s_T_u} plus provenance counters."""

    categories: np.ndarray
    session_size: int      # distinct hostnames in the session
    known_hosts: int       # of which, present in the embedding vocabulary
    support: int           # labelled hostnames that contributed weight

    @property
    def is_empty(self) -> bool:
        return self.support == 0

    def top_categories(
        self, taxonomy: Taxonomy, n: int = 10
    ) -> list[tuple[Category, float]]:
        """Strongest categories, for inspection and ad selection."""
        truncated = taxonomy.truncated_categories()
        order = np.argsort(-self.categories, kind="stable")[:n]
        return [
            (truncated[int(i)], float(self.categories[i]))
            for i in order
            if self.categories[i] > 0
        ]

    def to_payload(self) -> dict:
        """A JSON-safe dict that :meth:`from_payload` restores exactly.

        Category floats survive via ``repr`` round-tripping (Python
        floats serialize shortest-repr, which parses back bitwise), so
        a profile that crossed a shard checkpoint or a worker queue
        compares equal to one computed in-process.
        """
        return {
            "categories": [float(v) for v in self.categories],
            "session_size": self.session_size,
            "known_hosts": self.known_hosts,
            "support": self.support,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SessionProfile":
        return cls(
            categories=np.asarray(payload["categories"], dtype=np.float64),
            session_size=int(payload["session_size"]),
            known_hosts=int(payload["known_hosts"]),
            support=int(payload["support"]),
        )


class SessionProfiler:
    """Implements the paper's kNN profiling over learned embeddings."""

    def __init__(
        self,
        embeddings: HostnameEmbeddings,
        labelled: dict[str, np.ndarray],
        neighbourhood_size: int = 1000,
        aggregation: str = "mean",
        max_neighbourhood_fraction: float = 0.05,
        recentre_alpha: bool = True,
        registry: MetricsRegistry | None = None,
        index: "ExactIndex | None" = None,
        tracer: Tracer | None = None,
    ):
        """``neighbourhood_size`` is the paper's N = 1000 — but the paper
        draws it from a 470K-host space (~0.2 % of the vocabulary).  To
        preserve that locality at smaller scales, the effective N is capped
        at ``max_neighbourhood_fraction`` of the vocabulary (with a floor of
        10); a neighbourhood covering half the space would average the vote
        into noise.

        ``recentre_alpha`` adapts Eq. 3 to small embedding spaces: in a
        470K-host space the cosine between unrelated hosts hovers near 0,
        so [cos]_+ already suppresses them; our smaller spaces have an
        ambient cosine of ~0.3, so alpha is recentred to
        [cos - ambient]_+ / (1 - ambient) with ambient the mean similarity
        of the session vector to the whole vocabulary.  The ablation bench
        compares both variants.

        ``index`` is the neighbour-search index to use (the pipeline
        passes one that reports to its metrics registry); by default the
        profiler uses the index bound to ``embeddings``."""
        if neighbourhood_size < 1:
            raise ValueError("neighbourhood_size must be >= 1")
        if not 0 < max_neighbourhood_fraction <= 1:
            raise ValueError("max_neighbourhood_fraction must be in (0, 1]")
        if not labelled:
            raise ValueError("labelled set H_L is empty")
        self.embeddings = embeddings
        self.labelled = labelled
        self.neighbourhood_size = min(
            neighbourhood_size,
            max(10, int(len(embeddings) * max_neighbourhood_fraction)),
        )
        self.aggregation = aggregation
        self.recentre_alpha = recentre_alpha
        self._index = index if index is not None else embeddings.index
        if len(self._index) != len(embeddings):
            raise ValueError(
                f"index size {len(self._index)} != vocabulary size "
                f"{len(embeddings)}"
            )
        # Per-session profiling is a hot path: the latency histogram only
        # takes timestamps when a real registry is attached.
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._measure = not self.registry.null
        # The tracer stamps "profile.session" spans onto sampled traces;
        # it is also bound onto the index so "index.search" spans land in
        # the same trace tree (the exemplar -> trace contract).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if not self.tracer.null:
            self._index.tracer = self.tracer
        # Chaos rehearsal knob (CLI --chaos-profile-delay): an injected
        # sleep inside the timed profiling path, so operators and CI can
        # trip the profile-latency SLO on purpose and watch the alert
        # fire and clear.  Off (0.0) in any real deployment.
        self.chaos_delay_seconds = 0.0
        self._sessions_total = self.registry.counter(
            "profile_sessions_total", "Session windows profiled."
        )
        self._empty_total = self.registry.counter(
            "profile_empty_total",
            "Sessions yielding an empty profile (no labelled support).",
        )
        self._latency = self.registry.histogram(
            "profile_latency_seconds",
            "Wall time to compute one session's category vector.",
            buckets=LATENCY_BUCKETS_FAST,
        )

        dims = {v.shape for v in labelled.values()}
        if len(dims) != 1:
            raise ValueError(f"inconsistent label vector shapes: {dims}")
        (self._category_shape,) = dims
        self.num_categories = int(self._category_shape[0])

        # Vectorized lookup structures over the vocabulary:
        # label_row_of[vocab_id] = row in the labelled category matrix, or -1.
        V = len(embeddings)
        self._label_row_of = np.full(V, -1, dtype=np.int64)
        rows: list[np.ndarray] = []
        for hostname, vector in labelled.items():
            vocab_id = embeddings.vocabulary.get_id(hostname)
            if vocab_id is not None:
                self._label_row_of[vocab_id] = len(rows)
                rows.append(np.asarray(vector, dtype=np.float64))
        self._label_matrix = (
            np.vstack(rows) if rows
            else np.zeros((0, self.num_categories))
        )
        # Ambient-similarity cache: mean(U @ q_hat) == mean_unit @ q_hat,
        # so the recentring term costs O(d) per session instead of a full
        # |V| scan.  Computed once per embedding swap (a retrain builds a
        # fresh profiler, which naturally invalidates this cache).
        self._mean_unit = embeddings.unit_vectors.mean(axis=0)

    @property
    def labelled_in_vocabulary(self) -> int:
        """How many labelled hosts the current embedding space contains."""
        return int((self._label_row_of >= 0).sum())

    @property
    def index(self) -> "ExactIndex":
        """The vector index serving the Eq. 3 neighbourhood queries."""
        return self._index

    def ambient_similarity(self, session_vector: np.ndarray) -> float:
        """Mean cosine of ``session_vector`` to the whole vocabulary.

        Served from the cached mean unit row — O(d), no vocabulary scan.
        """
        vector = np.asarray(session_vector, dtype=np.float64)
        norm = np.linalg.norm(vector)
        if norm < 1e-12:
            return 0.0
        return float(self._mean_unit @ (vector / norm))

    def _empty_profile(self, session_size: int, known: int) -> SessionProfile:
        return SessionProfile(
            categories=np.zeros(self.num_categories),
            session_size=session_size,
            known_hosts=known,
            support=0,
        )

    def profile(self, hostnames: Iterable[str]) -> SessionProfile:
        """Profile one session given its (deduplicated) hostnames."""
        exemplar = current_exemplar()
        if (
            not self._measure and exemplar is None
            and not self.chaos_delay_seconds
        ):
            return self._profile(hostnames)
        started = time.perf_counter()
        if self.chaos_delay_seconds:
            time.sleep(self.chaos_delay_seconds)
        if exemplar is not None and not self.tracer.null:
            with self.tracer.span("profile.session"):
                result = self._profile(hostnames)
        else:
            result = self._profile(hostnames)
        self._latency.observe(
            time.perf_counter() - started, exemplar=exemplar
        )
        self._sessions_total.inc()
        if result.is_empty:
            self._empty_total.inc()
        return result

    def _profile(self, hostnames: Iterable[str]) -> SessionProfile:
        session_hosts = first_visits(hostnames)
        if not session_hosts:
            return self._empty_profile(0, 0)

        session_vector = self.embeddings.aggregate(
            session_hosts, how=self.aggregation
        )
        neighbours = None
        if session_vector is not None:
            ids, sims = self._index.search(
                session_vector, self.neighbourhood_size
            )
            neighbours = (ids, sims)
        return self._vote(session_hosts, session_vector, neighbours)

    def _vote(
        self,
        session_hosts: Sequence[str],
        session_vector: np.ndarray | None,
        neighbours: tuple[np.ndarray, np.ndarray] | None,
    ) -> SessionProfile:
        """Eq. 3/4 given a session's precomputed N-neighbourhood."""
        known = sum(1 for h in session_hosts if h in self.embeddings)

        numerator = np.zeros(self.num_categories)
        denominator = 0.0
        support = 0

        # L: labelled hosts inside the session get alpha = 1 (Eq. 3 top).
        # Iterated in first-visit order so accumulation is deterministic.
        in_session_labelled = [
            h for h in session_hosts if h in self.labelled
        ]
        for hostname in in_session_labelled:
            numerator = numerator + self.labelled[hostname]
            denominator += 1.0
            support += 1

        # H_s: labelled hosts among the N nearest neighbours of the session
        # vector get alpha = [cos]_+ (Eq. 3 bottom), optionally recentred
        # by the ambient similarity of the space.
        if session_vector is not None and neighbours is not None:
            ids, sims = neighbours
            if self.recentre_alpha:
                ambient = self.ambient_similarity(session_vector)
                if ambient < 1.0:
                    sims = (sims - ambient) / (1.0 - ambient)
            label_rows = self._label_row_of[ids]
            mask = label_rows >= 0
            if mask.any():
                neighbour_ids = ids[mask]
                alphas = np.maximum(sims[mask], 0.0)
                # Neighbours already counted as in-session labelled are
                # excluded by vocab id (no per-neighbour host_of calls).
                keep = alphas > 0.0
                excluded = self._excluded_ids(in_session_labelled)
                if excluded.size:
                    keep &= ~np.isin(neighbour_ids, excluded)
                if keep.any():
                    alphas = alphas[keep]
                    cat_rows = self._label_matrix[label_rows[mask][keep]]
                    numerator, denominator = _accumulate_vote(
                        numerator, denominator, alphas, cat_rows
                    )
                    support += int(keep.sum())

        if denominator == 0.0:
            return self._empty_profile(len(session_hosts), known)
        categories = numerator / denominator
        return SessionProfile(
            categories=categories,
            session_size=len(session_hosts),
            known_hosts=known,
            support=support,
        )

    def _excluded_ids(
        self, in_session_labelled: Sequence[str]
    ) -> np.ndarray:
        """Vocab ids of in-session labelled hosts (the Eq. 3 overlap)."""
        ids = [
            vocab_id
            for vocab_id in (
                self.embeddings.vocabulary.get_id(h)
                for h in in_session_labelled
            )
            if vocab_id is not None
        ]
        return np.asarray(ids, dtype=np.int64)


def _accumulate_vote(
    numerator: np.ndarray,
    denominator: float,
    alphas: np.ndarray,
    cat_rows: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Fold weighted category rows into the Eq. 4 accumulator.

    The reduction is seeded with the running accumulator and summed along
    axis 0 (row-sequential in numpy), so the floating-point operation
    order is identical to the historical per-neighbour loop — profiles
    stay bitwise-identical to the loop implementation.
    """
    k, C = cat_rows.shape
    aug = np.empty((k + 1, C + 1))
    aug[0, :C] = numerator
    aug[0, C] = denominator
    aug[1:, :C] = alphas[:, None] * cat_rows
    aug[1:, C] = alphas
    acc = aug.sum(axis=0)
    return acc[:C], float(acc[C])
