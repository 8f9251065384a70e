"""Shared fixtures.

Expensive world-building (taxonomy, web, traces, trained embeddings) is
session-scoped: the objects are treated as immutable by every test that
uses them.  Tests that need to mutate state build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SkipGramConfig, SkipGramModel, day_corpus
from repro.ontology import OntologyLabeler, build_default_taxonomy
from repro.traffic import (
    PopulationConfig,
    StreamingTraceGenerator,
    SyntheticWeb,
    TrackerFilter,
    UserPopulation,
    WebConfig,
    build_blocklists,
)
from repro.utils.randomness import derive_rng

TEST_SEED = 1234


@pytest.fixture(scope="session")
def taxonomy():
    return build_default_taxonomy()


@pytest.fixture(scope="session")
def web(taxonomy):
    return SyntheticWeb.generate(
        taxonomy,
        derive_rng(TEST_SEED, "web"),
        WebConfig(num_sites=300, num_trackers=40),
    )


@pytest.fixture(scope="session")
def population(web):
    return UserPopulation.generate(
        web,
        derive_rng(TEST_SEED, "population"),
        PopulationConfig(num_users=40),
    )


@pytest.fixture(scope="session")
def trace(web, population):
    generator = StreamingTraceGenerator(web, population, seed=TEST_SEED)
    return generator.materialize(2)


@pytest.fixture(scope="session")
def tracker_filter(web):
    return TrackerFilter(
        build_blocklists(web, derive_rng(TEST_SEED, "blocklists"))
    )


@pytest.fixture(scope="session")
def labelled(taxonomy, web):
    labeler = OntologyLabeler(taxonomy, coverage=0.106)
    return labeler.build_labelled_set(
        web.ground_truth(),
        universe_size=len(web.all_hostnames()),
        rng=derive_rng(TEST_SEED, "labeler"),
        popularity=web.popularity(),
    )


@pytest.fixture(scope="session")
def corpus(trace):
    return day_corpus(trace, 0) + day_corpus(trace, 1)


@pytest.fixture(scope="session")
def embeddings(corpus):
    model = SkipGramModel(SkipGramConfig(epochs=8, seed=TEST_SEED))
    return model.fit(corpus)


@pytest.fixture()
def rng():
    return np.random.default_rng(TEST_SEED)
