"""End-to-end network-observer profiling pipeline.

Glues the pieces into the deployment loop of the paper's Section 5.4:

* **daily retraining** — "We update our model every day ... we obtain from
  our database the sequence of hosts visited by all the users during the
  whole previous day [and] train a new model that we immediately start
  using to calculate profiles";
* **session profiling** — profiles are computed from the hosts each user
  requested in the last T = 20 minutes, tracker hostnames filtered out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.corpus import CorpusConfig, day_corpus
from repro.core.embeddings import HostnameEmbeddings
from repro.core.profiler import SessionProfile, SessionProfiler
from repro.core.session import SessionExtractor, SessionWindow
from repro.core.skipgram import SkipGramConfig, SkipGramModel, TrainStats
from repro.index import ExactIndex, build_index
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.traffic.blocklists import TrackerFilter
from repro.traffic.events import Request
from repro.traffic.generator import Trace
from repro.utils.timeutils import minutes

if TYPE_CHECKING:
    from repro.store import ArtifactStore, GenerationRecord


@dataclass
class PipelineConfig:
    """All paper constants in one place."""

    session_minutes: float = 20.0       # T
    report_interval_minutes: float = 10.0
    neighbourhood_size: int = 1000      # N
    # Effective N is capped at this fraction of the vocabulary (see
    # SessionProfiler): the paper's N=1000 spans only ~0.2% of its space.
    max_neighbourhood_fraction: float = 0.02
    aggregation: str = "mean"           # g
    skipgram: SkipGramConfig = field(default_factory=SkipGramConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)

    def validate(self) -> None:
        if self.session_minutes <= 0:
            raise ValueError("session_minutes must be positive")
        if self.report_interval_minutes <= 0:
            raise ValueError("report_interval_minutes must be positive")
        self.skipgram.validate()
        self.corpus.validate()


class NetworkObserverProfiler:
    """The complete eavesdropper: train daily, profile sessions on demand."""

    def __init__(
        self,
        labelled: dict[str, np.ndarray],
        config: PipelineConfig | None = None,
        tracker_filter: TrackerFilter | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        if not labelled:
            raise ValueError("labelled set H_L is empty")
        self.labelled = labelled
        self.config = config or PipelineConfig()
        self.config.validate()
        self.tracker_filter = tracker_filter
        # Shared by the trainer and every profiler this pipeline builds;
        # the no-op defaults keep the hot paths bare.
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.extractor = SessionExtractor(
            window_seconds=minutes(self.config.session_minutes),
            tracker_filter=tracker_filter,
        )
        self._profiler: SessionProfiler | None = None
        self._embeddings: HostnameEmbeddings | None = None
        self.last_train_stats: TrainStats | None = None
        self.trained_days: list[int] = []

    # -- state -----------------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self._profiler is not None

    @property
    def embeddings(self) -> HostnameEmbeddings:
        if self._embeddings is None:
            raise RuntimeError("pipeline has not been trained yet")
        return self._embeddings

    @property
    def profiler(self) -> SessionProfiler:
        if self._profiler is None:
            raise RuntimeError("pipeline has not been trained yet")
        return self._profiler

    # -- training ---------------------------------------------------------------

    def train_on_sequences(self, sequences: list[list[str]]) -> TrainStats:
        """Train a fresh model on arbitrary hostname sequences.

        The swap is atomic: nothing is published until both the embeddings
        and the profiler are built, so a retrain that dies mid-way leaves
        the previous day's model fully serving (degraded mode, see
        :class:`repro.core.supervisor.RetrainSupervisor`).
        """
        model = SkipGramModel(
            self.config.skipgram, registry=self.registry, tracer=self.tracer
        )
        with self.tracer.span("train.fit", sequences=len(sequences)):
            embeddings = model.fit(sequences)
        profiler = self._build_profiler(embeddings)
        self._embeddings = embeddings
        self._profiler = profiler
        self.last_train_stats = model.stats
        return model.stats

    def reinstate(self, profiler: SessionProfiler) -> None:
        """Serve an already-built ``profiler`` and its embeddings again.

        The retrain supervisor puts back the pre-retrain model this way
        when its drift gate vetoes a retrain.
        """
        self._embeddings = profiler.embeddings
        self._profiler = profiler

    def _build_profiler(self, embeddings: HostnameEmbeddings) -> SessionProfiler:
        # The index is built over the fresh embedding matrix *before* the
        # profiler is published, so serving never sees a half-built index
        # (the same atomic-swap discipline as the model itself).
        with self.tracer.span(
            "index.build",
            backend=ExactIndex.name, vocabulary=len(embeddings),
        ):
            index = build_index(
                embeddings.unit_vectors,
                metric="cosine",
                normalized=True,
                registry=self.registry,
            )
        embeddings.bind_index(index)
        self.registry.counter(
            "index_rebuilds_total",
            "Vector-index rebuilds (one per model retrain).",
            labelnames=("backend",),
        ).labels(backend=index.name).inc()
        return self._session_profiler(
            embeddings, index, self._profiler_config()
        )

    def _session_profiler(
        self, embeddings: HostnameEmbeddings, index: ExactIndex,
        serving: dict,
    ) -> SessionProfiler:
        """The Eq. 3/4 profiler over ``index`` with ``serving`` knobs.

        ``serving`` has the keys of :meth:`_profiler_config`; a loaded
        model passes the values its publisher recorded.
        """
        return SessionProfiler(
            embeddings,
            self.labelled,
            neighbourhood_size=int(serving["neighbourhood_size"]),
            aggregation=serving["aggregation"],
            max_neighbourhood_fraction=float(
                serving["max_neighbourhood_fraction"]
            ),
            registry=self.registry,
            index=index,
            tracer=self.tracer,
        )

    def train_on_day(self, trace: Trace, day: int) -> TrainStats:
        """The daily retrain: replace the model with one trained on ``day``."""
        with self.tracer.span("train.corpus", day=day):
            corpus = day_corpus(
                trace, day,
                tracker_filter=self.tracker_filter,
                config=self.config.corpus,
            )
        stats = self.train_on_sequences(corpus)
        self.trained_days.append(day)
        return stats

    # -- persistence -------------------------------------------------------------

    def _profiler_config(self) -> dict:
        """The serving knobs a generation must carry to be self-contained."""
        return {
            "neighbourhood_size": self.config.neighbourhood_size,
            "max_neighbourhood_fraction":
                self.config.max_neighbourhood_fraction,
            "aggregation": self.config.aggregation,
            "session_minutes": self.config.session_minutes,
            "report_interval_minutes": self.config.report_interval_minutes,
        }

    def publish_generation(
        self,
        store: "ArtifactStore",
        day: int | None = None,
        drift_report: dict | None = None,
    ) -> "GenerationRecord":
        """Publish the serving model as one atomic store generation.

        The embeddings archive and the profiler config land in a single
        transaction (scratch dir + rename), so a reader never observes
        the archive of one retrain next to the serving knobs of another.
        Together with :meth:`StreamingProfiler.checkpoint` this is the
        observer's complete crash-recovery state: session windows in the
        stream checkpoint, the model in the store.  When the supervisor
        ran a drift check, its report (a plain dict) is published
        alongside as the ``drift.json`` component.
        """
        from repro.store import publish_model

        return publish_model(
            store,
            self.embeddings,
            profiler_config=self._profiler_config(),
            created_from_day=day,
            extra={
                "vocabulary_size": len(self.embeddings),
                "dim": self.embeddings.dim,
            },
            drift_report=drift_report,
        )

    def load_generation(
        self,
        store: "ArtifactStore",
        generation_id: str | None = None,
    ) -> "GenerationRecord":
        """Serve a stored generation (``latest`` unless named).

        Every component is digest-verified before deserialization, then
        the generation directory is served by :meth:`load_model_dir`,
        so the restored observer scores sessions exactly as the one
        that published.  A generation whose manifest names an index
        backend other than ``exact`` (``ivf`` or ``blocked``, from older
        builds) served other scores, so it is refused before anything
        loads, and the model already serving stays in place.
        """
        record = store.restore(generation_id)
        backend = record.index_meta.get("backend", ExactIndex.name)
        if backend != ExactIndex.name:
            raise ValueError(
                f"generation {record.generation_id}: unknown index "
                f"backend {backend!r}"
            )
        self.load_model_dir(record.path)
        return record

    def export_model_dir(self, directory) -> "Path":
        """Write the serving model to a plain directory.

        The sharded runtime's coordinator calls this once per fleet:
        ``embeddings.npz`` + ``profiler.json``, the same component names
        as a store generation, no store required.
        """
        from pathlib import Path as _Path

        from repro.store import (
            EMBEDDINGS_COMPONENT,
            PROFILER_CONFIG_COMPONENT,
        )
        from repro.utils.serialization import atomic_write_json

        directory = _Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.embeddings.save(directory / EMBEDDINGS_COMPONENT)
        atomic_write_json(
            directory / PROFILER_CONFIG_COMPONENT, self._profiler_config()
        )
        return directory

    def load_model_dir(self, directory) -> None:
        """Serve the model in ``directory`` (an export or a generation).

        The one model loader: :meth:`load_generation` calls it after
        verifying digests, and each shard worker calls it on the
        coordinator's export.  The cosine index is built over the
        archive's unit rows exactly as a retrain builds it, but directly
        rather than through :func:`build_index`, so
        ``index_rebuilds_total`` keeps counting retrains only.  An
        ``index.npz`` left by older builds is ignored.  Nothing is
        swapped in until every component has loaded.
        """
        import json as _json
        from pathlib import Path as _Path

        from repro.store import (
            EMBEDDINGS_COMPONENT,
            PROFILER_CONFIG_COMPONENT,
        )

        directory = _Path(directory)
        embeddings = HostnameEmbeddings.load(directory / EMBEDDINGS_COMPONENT)
        index = ExactIndex(
            embeddings.unit_vectors,
            metric="cosine",
            normalized=True,
            registry=self.registry,
        )
        embeddings.bind_index(index)
        serving = self._profiler_config()
        config_path = directory / PROFILER_CONFIG_COMPONENT
        if config_path.exists():
            serving.update(_json.loads(config_path.read_text()))
        profiler = self._session_profiler(embeddings, index, serving)
        self._embeddings = embeddings
        self._profiler = profiler

    # -- profiling ---------------------------------------------------------------

    def profile_session(self, hostnames) -> SessionProfile:
        """Profile an explicit hostname list (already a session window)."""
        if self.tracker_filter is not None:
            hostnames = self.tracker_filter.filter_hostnames(list(hostnames))
        return self.profiler.profile(hostnames)

    def profile_window(self, window: SessionWindow) -> SessionProfile:
        return self.profile_session(list(window.hostnames))

    def profile_user(
        self, user_requests: list[Request], now: float
    ) -> SessionProfile:
        """Profile a user from her raw request stream at time ``now``.

        Extracts the last-T-minutes session window (tracker-filtered,
        first-visit deduplicated) and profiles it.
        """
        window = self.extractor.extract(user_requests, end_time=now)
        return self.profiler.profile(list(window.hostnames))
