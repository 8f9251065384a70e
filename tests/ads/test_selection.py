"""Tests for eavesdropper ad selection."""

import hashlib
import json

import numpy as np
import pytest

from repro.ads.inventory import Ad, AdDatabase, AdDatabaseConfig
from repro.ads.selection import EavesdropperSelector, SelectorConfig
from repro.obs.metrics import MetricsRegistry
from repro.utils.randomness import derive_rng

TEST_SEED = 1234


def _setup(num_categories=6, hosts_per_category=5, ads_per_host=2):
    labelled = {}
    ads = []
    for cat in range(num_categories):
        vec = np.zeros(num_categories)
        vec[cat] = 1.0
        for i in range(hosts_per_category):
            host = f"cat{cat}-host{i}.com"
            labelled[host] = vec.copy()
            for _ in range(ads_per_host):
                ads.append(
                    Ad(
                        ad_id=len(ads), landing_domain=host,
                        categories=vec.copy(), width=300, height=250,
                        created_day=0,
                    )
                )
    return labelled, AdDatabase(ads)


class TestNearestHosts:
    def test_nearest_match_category(self):
        labelled, db = _setup()
        selector = EavesdropperSelector(labelled, db)
        profile = np.zeros(6)
        profile[2] = 0.8
        hosts = selector.nearest_hosts(profile, n=5)
        assert all(h.startswith("cat2-") for h in hosts)

    def test_effective_neighbours_capped(self):
        labelled, db = _setup()
        config = SelectorConfig(neighbour_hosts=20, max_host_fraction=0.1)
        selector = EavesdropperSelector(labelled, db, config)
        hosts = selector.nearest_hosts(np.zeros(6))
        assert len(hosts) == max(3, int(len(labelled) * 0.1))

    def test_requires_labels(self):
        _, db = _setup()
        with pytest.raises(ValueError):
            EavesdropperSelector({}, db)


class TestSelect:
    def test_returns_requested_count(self):
        labelled, db = _setup()
        config = SelectorConfig(ads_per_report=10)
        selector = EavesdropperSelector(labelled, db, config)
        profile = np.zeros(6)
        profile[1] = 1.0
        ads = selector.select(profile)
        assert len(ads) == 10

    def test_no_duplicate_ads(self):
        labelled, db = _setup()
        selector = EavesdropperSelector(labelled, db)
        profile = np.zeros(6)
        profile[0] = 1.0
        ads = selector.select(profile)
        ids = [a.ad_id for a in ads]
        assert len(ids) == len(set(ids))

    def test_ads_match_profile_topic(self):
        labelled, db = _setup()
        config = SelectorConfig(ads_per_report=6)
        selector = EavesdropperSelector(labelled, db, config)
        profile = np.zeros(6)
        profile[3] = 0.9
        ads = selector.select(profile)
        matching = sum(1 for a in ads if a.categories[3] == 1.0)
        assert matching >= len(ads) * 0.8

    def test_fallback_fills_when_hosts_have_no_ads(self):
        labelled, db = _setup(ads_per_host=0 + 1)
        # remove ads from the top category's hosts by using a db whose
        # ads all live in other categories
        ads = [a for a in db if a.categories[0] != 1.0]
        db2 = AdDatabase(ads)
        selector = EavesdropperSelector(
            labelled, db2, SelectorConfig(ads_per_report=5)
        )
        profile = np.zeros(6)
        profile[0] = 1.0
        selected = selector.select(profile)
        assert len(selected) == 5  # filled from nearest_by_category

    def test_accepts_session_profile_object(self):
        from repro.core.profiler import SessionProfile

        labelled, db = _setup()
        selector = EavesdropperSelector(labelled, db)
        vec = np.zeros(6)
        vec[4] = 1.0
        profile = SessionProfile(
            categories=vec, session_size=3, known_hosts=3, support=2
        )
        ads = selector.select(profile)
        assert ads
        assert ads[0].categories[4] == 1.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SelectorConfig(ads_per_report=0).validate()
        with pytest.raises(ValueError):
            SelectorConfig(max_host_fraction=0).validate()


def _path_counts(registry):
    family = registry.counter("ads_selected_total", labelnames=("path",))
    return family.value_of(path="host"), family.value_of(path="topup")


class TestSelectedPathCounter:
    def test_counts_sum_to_ads_served(self):
        labelled, db = _setup()
        registry = MetricsRegistry()
        # Three nearest hosts with two ads each fill 6 of 10 slots.
        selector = EavesdropperSelector(
            labelled, db, SelectorConfig(ads_per_report=10),
            registry=registry,
        )
        served = 0
        for cat in range(6):
            profile = np.zeros(6)
            profile[cat] = 1.0
            served += len(selector.select(profile))
        host, topup = _path_counts(registry)
        assert (host, topup) == (36, 24)
        assert host + topup == served

    def test_hosts_without_ads_read_all_topup(self):
        labelled, db = _setup()
        db = AdDatabase([a for a in db if a.categories[0] != 1.0])
        registry = MetricsRegistry()
        selector = EavesdropperSelector(
            labelled, db, SelectorConfig(ads_per_report=5),
            registry=registry,
        )
        profile = np.zeros(6)
        profile[0] = 1.0
        assert len(selector.select(profile)) == 5
        assert _path_counts(registry) == (0, 5)

    def test_unused_selector_exports_both_paths_at_zero(self):
        labelled, db = _setup()
        registry = MetricsRegistry()
        EavesdropperSelector(labelled, db, registry=registry)
        # Both children are bound at construction, before any read.
        assert [labels for labels, _ in registry.counter(
            "ads_selected_total", labelnames=("path",)
        ).samples()] == [{"path": "host"}, {"path": "topup"}]
        assert _path_counts(registry) == (0, 0)


#: SHA-256 of the ad ids served over the tier-1 world (conftest seed,
#: 300 ads): one JSON line per profile vector holding ``select``'s list,
#: then ``nearest_by_category`` at n = 1, 20, 40 and ``len(db)``.
#: Recorded when every ad row was scored on its own; scoring each
#: distinct category row once must not move a single id.
GOLDEN_SERVED_ADS = (
    "4d25b4ac72e387507dfe8fb559dfca0fed1eb04b21b58c0781c5ae5e0cdd7ae7"
)


def _golden_profiles(labelled, database):
    """Profile vectors that reach both the nearest-host and top-up paths.

    Advertisers' own label vectors put hosts with ads among the nearest;
    non-advertisers' vectors and weighted mixtures of 2-5 labels (what a
    session profile looks like) fall through to the top-up.
    """
    hosts = sorted(labelled)
    advertisers = [h for h in hosts if database.ads_for_landing(h)]
    others = [h for h in hosts if not database.ads_for_landing(h)]
    vectors = [labelled[h] for h in advertisers[:8] + others[:8]]
    rng = derive_rng(TEST_SEED, "golden-ads")
    for _ in range(16):
        k = int(rng.integers(2, 6))
        picks = rng.choice(len(hosts), size=k, replace=False)
        weights = rng.random(k)
        mixture = sum(
            w * labelled[hosts[int(p)]] for w, p in zip(weights, picks)
        )
        vectors.append(mixture / weights.sum())
    return vectors


class TestServedAdsGolden:
    @pytest.fixture(scope="class")
    def golden_world(self, web, labelled):
        database = AdDatabase.harvest(
            web, derive_rng(TEST_SEED, "ads"),
            AdDatabaseConfig(target_size=300),
        )
        return labelled, database, _golden_profiles(labelled, database)

    def test_served_ad_ids_match_golden_digest(self, golden_world):
        labelled, database, profiles = golden_world
        selector = EavesdropperSelector(labelled, database)
        digest = hashlib.sha256()
        for vector in profiles:
            lists = [[ad.ad_id for ad in selector.select(vector)]]
            for n in (1, 20, 40, len(database)):
                lists.append([
                    ad.ad_id
                    for ad in database.nearest_by_category(vector, n)
                ])
            digest.update(json.dumps(lists).encode("utf-8") + b"\n")
        assert digest.hexdigest() == GOLDEN_SERVED_ADS

    def test_golden_profiles_reach_both_paths(self, golden_world):
        labelled, database, profiles = golden_world
        registry = MetricsRegistry()
        selector = EavesdropperSelector(labelled, database, registry=registry)
        for vector in profiles:
            selector.select(vector)
        # 640 ads over 32 profiles: 123 from nearest hosts, the rest
        # from the top-up.
        assert _path_counts(registry) == (123, 517)
