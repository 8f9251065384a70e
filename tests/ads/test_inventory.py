"""Tests for ads and the ad database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ads.inventory import Ad, AdDatabase, AdDatabaseConfig, IAB_SIZES
from repro.index import ExactIndex, top_ids_desc


def _ad(ad_id, cats, landing="shop.example.com", size=(300, 250), day=0):
    return Ad(
        ad_id=ad_id, landing_domain=landing,
        categories=np.asarray(cats, dtype=float),
        width=size[0], height=size[1], created_day=day,
    )


class TestAd:
    def test_size_and_area(self):
        ad = _ad(0, [1, 0], size=(728, 90))
        assert ad.size == (728, 90)
        assert ad.area == 65520

    def test_hash_eq_by_id(self):
        assert _ad(1, [1, 0]) == _ad(1, [0, 1])
        assert _ad(1, [1, 0]) != _ad(2, [1, 0])
        assert len({_ad(1, [1, 0]), _ad(1, [0, 1])}) == 1


class TestDatabase:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AdDatabase([])

    def test_ads_for_landing(self):
        db = AdDatabase([_ad(0, [1, 0]), _ad(1, [0, 1], landing="other.com")])
        assert [a.ad_id for a in db.ads_for_landing("other.com")] == [1]
        assert db.ads_for_landing("missing.com") == []

    def test_nearest_by_category(self):
        db = AdDatabase([
            _ad(0, [1, 0, 0]), _ad(1, [0, 1, 0]), _ad(2, [0, 0, 1]),
        ])
        nearest = db.nearest_by_category(np.array([0.9, 0.1, 0.0]), n=2)
        assert nearest[0].ad_id == 0
        assert len(nearest) == 2

    def test_nearest_invalid_n(self):
        db = AdDatabase([_ad(0, [1.0])])
        with pytest.raises(ValueError):
            db.nearest_by_category(np.array([1.0]), n=0)

    def test_nearest_n_clamped(self):
        db = AdDatabase([_ad(0, [1.0]), _ad(1, [0.5])])
        assert len(db.nearest_by_category(np.array([1.0]), n=50)) == 2


@st.composite
def tied_databases(draw):
    """Ads drawn from a few distinct rows (one-hot, zero or small ints),
    so most rows repeat and many scores tie exactly, plus a query on a
    coarse grid and a list length that may exceed the database."""
    dim = draw(st.integers(min_value=1, max_value=5))
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    row = st.one_of(
        st.integers(min_value=0, max_value=dim).map(
            lambda hot: np.eye(dim + 1)[hot][:dim]
        ),
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=dim, max_size=dim,
        ).map(np.array),
    )
    distinct = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(
        st.integers(min_value=0, max_value=len(distinct) - 1),
        min_size=1, max_size=40,
    ))
    ads = [
        Ad(
            ad_id=i, landing_domain=f"site{p}.example",
            categories=distinct[p].astype(dtype),
            width=300, height=250, created_day=0,
        )
        for i, p in enumerate(picks)
    ]
    query = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
        min_size=dim, max_size=dim,
    )))
    n = draw(st.integers(min_value=1, max_value=len(ads) + 3))
    return ads, query, n


class TestNearestByCategoryProperty:
    @settings(max_examples=200, deadline=None)
    @given(tied_databases())
    def test_ids_equal_brute_force_over_every_ad(self, drawn):
        ads, query, n = drawn
        db = AdDatabase(ads)
        matrix = np.vstack([ad.categories for ad in ads])
        scores = ExactIndex(matrix, metric="euclidean").scores_all(query)
        expected = top_ids_desc(scores, n).tolist()
        got = [ad.ad_id for ad in db.nearest_by_category(query, n)]
        assert got == expected


class TestHarvest:
    def test_target_size(self, web, rng):
        db = AdDatabase.harvest(
            web, rng, AdDatabaseConfig(target_size=150)
        )
        assert len(db) == 150

    def test_ads_land_on_content_sites(self, web, rng):
        db = AdDatabase.harvest(web, rng, AdDatabaseConfig(target_size=100))
        content = {s.domain for s in web.content_sites}
        core = {s.domain for s in web.core_sites}
        for ad in db:
            assert ad.landing_domain in content
            assert ad.landing_domain not in core

    def test_sizes_are_iab(self, web, rng):
        db = AdDatabase.harvest(web, rng, AdDatabaseConfig(target_size=100))
        valid_sizes = {size for size, _ in IAB_SIZES}
        assert {ad.size for ad in db} <= valid_sizes

    def test_categories_match_landing_site(self, web, rng):
        db = AdDatabase.harvest(web, rng, AdDatabaseConfig(target_size=60))
        for ad in db.ads[:20]:
            expected = web.true_category_vector(ad.landing_domain)
            assert np.array_equal(ad.categories, expected)

    def test_created_day_range(self, web, rng):
        db = AdDatabase.harvest(
            web, rng, AdDatabaseConfig(target_size=80),
            created_day_range=(2, 5),
        )
        days = {ad.created_day for ad in db}
        assert days <= set(range(2, 6))
        assert len(days) > 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AdDatabaseConfig(target_size=0).validate()
        with pytest.raises(ValueError):
            AdDatabaseConfig(ads_per_advertiser_mean=0).validate()
