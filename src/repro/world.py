"""One-call world construction — materialized or lazy.

Every example, benchmark and CLI command starts the same way: build the
taxonomy, the synthetic web, the population, a trace, the blocklists and
the labelled set.  :func:`make_world` packages that boilerplate behind a
single seeded call with the paper's defaults; :func:`make_lazy_world` is
the out-of-core twin for populations that must never be materialized —
it returns a :class:`LazyWorld` whose trace exists only as the streaming
generator's batch iterator.

``make_world`` itself is a thin materializing wrapper over the stream:
the trace it returns is collected from
:class:`~repro.traffic.generator.StreamingTraceGenerator`, whose output
for a (seed, config) is pinned to golden digests by the generator tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.ontology import OntologyLabeler, Taxonomy, build_default_taxonomy
from repro.traffic import (
    GenerationCursor,
    LazyUserPopulation,
    PopulationConfig,
    SessionConfig,
    StreamingTraceGenerator,
    SyntheticWeb,
    Trace,
    TraceBatch,
    TrackerFilter,
    UserPopulation,
    WebConfig,
    build_blocklists,
)
from repro.utils.randomness import derive_rng


def build_web(
    seed: int,
    num_sites: int = 500,
    web_config: WebConfig | None = None,
    taxonomy: Taxonomy | None = None,
) -> tuple[Taxonomy, SyntheticWeb]:
    """The seeded (taxonomy, web) pair every world starts from."""
    taxonomy = taxonomy or build_default_taxonomy()
    web = SyntheticWeb.generate(
        taxonomy,
        derive_rng(seed, "web"),
        web_config or WebConfig(num_sites=num_sites),
    )
    return taxonomy, web


def build_labelled_set(
    web: SyntheticWeb,
    taxonomy: Taxonomy,
    seed: int,
    coverage: float | None = None,
) -> dict[str, np.ndarray]:
    """The sparse ontology-labelled set H_L for a seeded web.

    One definition for every consumer (experiment runner, CLI train and
    stream paths, the lazy facade), so "rebuild the labelled world the
    publisher used" can never drift between subcommands.
    """
    labeler = (
        OntologyLabeler(taxonomy)
        if coverage is None
        else OntologyLabeler(taxonomy, coverage=coverage)
    )
    return labeler.build_labelled_set(
        web.ground_truth(),
        universe_size=len(web.all_hostnames()),
        rng=derive_rng(seed, "labeler"),
        popularity=web.popularity(),
    )


@dataclass
class World:
    """Everything a profiling study needs, built from one seed."""

    seed: int
    taxonomy: Taxonomy
    web: SyntheticWeb
    population: UserPopulation
    trace: Trace
    tracker_filter: TrackerFilter
    labelled: dict[str, np.ndarray]
    generator: StreamingTraceGenerator

    def extend_trace(self, num_days: int) -> Trace:
        """Generate more days after the existing trace (reproducibly)."""
        start = self.trace.start_day + len(self.trace)
        extra = self.generator.materialize(num_days, start_day=start)
        self.trace = Trace(
            days=self.trace.days + extra.days,
            start_day=self.trace.start_day,
        )
        return self.trace

    @property
    def coverage(self) -> float:
        return len(self.labelled) / max(len(self.web.all_hostnames()), 1)


@dataclass
class LazyWorld:
    """A world whose population and trace are never held in memory.

    ``population`` derives profiles from ``seed + user_id`` on demand
    (bounded LRU) and ``generator`` streams seeded, resumable
    time-ordered batches — the representation for 1M–10M user scenarios.
    Small instances can still :meth:`materialize` into a classic
    :class:`World` for code that wants a ``Trace``.
    """

    seed: int
    num_days: int
    taxonomy: Taxonomy
    web: SyntheticWeb
    population: LazyUserPopulation
    generator: StreamingTraceGenerator
    tracker_filter: TrackerFilter
    labelled: dict[str, np.ndarray]

    def batches(
        self, cursor: GenerationCursor | None = None
    ) -> Iterator[TraceBatch]:
        """The whole scenario as a resumable stream of trace batches."""
        return self.generator.batches(self.num_days, cursor=cursor)

    def day_batches(self, day: int) -> Iterator[TraceBatch]:
        return self.generator.batches(1, start_day=day)

    @property
    def num_users(self) -> int:
        return len(self.population)

    @property
    def coverage(self) -> float:
        return len(self.labelled) / max(len(self.web.all_hostnames()), 1)

    def materialize(self) -> World:
        """Collect the stream into a classic in-memory :class:`World`."""
        return World(
            seed=self.seed,
            taxonomy=self.taxonomy,
            web=self.web,
            population=self.population,
            trace=self.generator.materialize(self.num_days),
            tracker_filter=self.tracker_filter,
            labelled=self.labelled,
            generator=self.generator,
        )


def make_lazy_world(
    seed: int = 42,
    num_sites: int = 500,
    num_users: int = 1_000_000,
    num_days: int = 1,
    ontology_coverage: float = 0.106,
    web_config: WebConfig | None = None,
    population_config: PopulationConfig | None = None,
    session_config: SessionConfig | None = None,
    batch_events: int = 8192,
    users_per_chunk: int = 25_000,
    spill_dir=None,
    cache_profiles: int = 4096,
    registry=None,
    tracer=None,
    flight=None,
) -> LazyWorld:
    """Build the out-of-core facade: O(web + labelled set) memory, any N.

    The web and labelled set are still materialized (they are O(sites),
    not O(users)); the population and trace are not.
    """
    if num_days < 1:
        raise ValueError("num_days must be >= 1")
    taxonomy, web = build_web(seed, num_sites, web_config)
    population = LazyUserPopulation(
        web,
        seed=seed,
        config=population_config or PopulationConfig(num_users=num_users),
        cache_profiles=cache_profiles,
    )
    generator = StreamingTraceGenerator(
        web,
        population,
        seed=seed,
        session_config=session_config,
        batch_events=batch_events,
        users_per_chunk=users_per_chunk,
        spill_dir=spill_dir,
        registry=registry,
        tracer=tracer,
        flight=flight,
    )
    tracker_filter = TrackerFilter(
        build_blocklists(web, derive_rng(seed, "blocklists"))
    )
    labelled = build_labelled_set(
        web, taxonomy, seed, coverage=ontology_coverage
    )
    return LazyWorld(
        seed=seed,
        num_days=num_days,
        taxonomy=taxonomy,
        web=web,
        population=population,
        generator=generator,
        tracker_filter=tracker_filter,
        labelled=labelled,
    )


def make_world(
    seed: int = 42,
    num_sites: int = 500,
    num_users: int = 60,
    num_days: int = 2,
    ontology_coverage: float = 0.106,
    web_config: WebConfig | None = None,
    population_config: PopulationConfig | None = None,
    session_config: SessionConfig | None = None,
) -> World:
    """Build a complete, reproducible study world.

    Explicit ``*_config`` arguments override the ``num_sites``/``num_users``
    shortcuts.
    """
    if num_days < 1:
        raise ValueError("num_days must be >= 1")
    taxonomy, web = build_web(seed, num_sites, web_config)
    population = UserPopulation.generate(
        web,
        derive_rng(seed, "population"),
        population_config or PopulationConfig(num_users=num_users),
    )
    generator = StreamingTraceGenerator(
        web, population, seed=seed, session_config=session_config
    )
    trace = generator.materialize(num_days)
    tracker_filter = TrackerFilter(
        build_blocklists(web, derive_rng(seed, "blocklists"))
    )
    labelled = build_labelled_set(
        web, taxonomy, seed, coverage=ontology_coverage
    )
    return World(
        seed=seed,
        taxonomy=taxonomy,
        web=web,
        population=population,
        trace=trace,
        tracker_filter=tracker_filter,
        labelled=labelled,
        generator=generator,
    )
