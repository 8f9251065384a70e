"""Ad inventory: creatives, sizes, landing pages, and the ad database.

During the paper's data-collection phase the extension harvested the ads
users received, leaving (after filtering broken and offensive creatives) a
database of roughly 12K ads used in the profiling month.  We rebuild that
artefact synthetically: each ad advertises a site of the synthetic web
(its landing page), inherits that site's ground-truth categories, and has
a creative in one of the standard IAB display sizes — which matters
because the extension only replaced ads of similar size.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.index import ExactIndex, top_ids_desc
from repro.traffic.web import SyntheticWeb

# Standard IAB display sizes (w, h) with rough frequency weights.
IAB_SIZES: list[tuple[tuple[int, int], float]] = [
    ((300, 250), 0.32),   # medium rectangle
    ((728, 90), 0.18),    # leaderboard
    ((320, 50), 0.14),    # mobile banner
    ((336, 280), 0.09),   # large rectangle
    ((160, 600), 0.08),   # wide skyscraper
    ((300, 600), 0.07),   # half page
    ((970, 250), 0.05),   # billboard
    ((320, 100), 0.04),   # large mobile banner
    ((468, 60), 0.03),    # banner
]


@dataclass(frozen=True)
class Ad:
    """One creative: what it looks like and what it advertises."""

    ad_id: int
    landing_domain: str
    categories: np.ndarray       # category vector of the landing page
    width: int
    height: int
    created_day: int             # day it entered the database
    kind: str = "display"

    @property
    def size(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def area(self) -> int:
        return self.width * self.height

    def __hash__(self) -> int:  # categories array is not hashable
        return hash(self.ad_id)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ad) and other.ad_id == self.ad_id


@dataclass
class AdDatabaseConfig:
    """Shape of the harvested ad database."""

    target_size: int = 2000      # paper: ~12K; scaled with the web
    ads_per_advertiser_mean: float = 2.5
    # Popular sites advertise more (they buy more campaigns).
    popularity_bias: float = 0.5

    def validate(self) -> None:
        if self.target_size < 1:
            raise ValueError("target_size must be >= 1")
        if self.ads_per_advertiser_mean <= 0:
            raise ValueError("ads_per_advertiser_mean must be positive")


class AdDatabase:
    """The pool of creatives the eavesdropper back-end serves from."""

    def __init__(self, ads: list[Ad], registry=None):
        if not ads:
            raise ValueError("ad database cannot be empty")
        self.ads = ads
        self._by_landing: dict[str, list[Ad]] = defaultdict(list)
        for ad in ads:
            self._by_landing[ad.landing_domain].append(ad)
        # Every ad inherits its landing site's category vector, so most
        # rows repeat (2,000 ads hold 379 distinct vectors on the
        # benchmark world).  The Euclidean index (paper Section 5.4)
        # holds each distinct row once, keyed on its bytes, and
        # ``_row_of_ad`` maps every ad to its row.
        matrix = np.vstack([ad.categories for ad in ads])
        row_ids: dict[bytes, int] = {}
        first_ads: list[int] = []   # the first ad holding each row
        row_of_ad: list[int] = []
        for i, row in enumerate(matrix):
            row_id = row_ids.setdefault(row.tobytes(), len(row_ids))
            if row_id == len(first_ads):
                first_ads.append(i)
            row_of_ad.append(row_id)
        self._row_of_ad = np.array(row_of_ad, dtype=np.intp)
        self._index = ExactIndex(
            matrix[first_ads], metric="euclidean", registry=registry
        )

    def __len__(self) -> int:
        return len(self.ads)

    def __iter__(self):
        return iter(self.ads)

    @property
    def landing_domains(self) -> list[str]:
        return sorted(self._by_landing)

    def ads_for_landing(self, domain: str) -> list[Ad]:
        """Ads whose landing page is (on) ``domain``."""
        return list(self._by_landing.get(domain, []))

    def nearest_by_category(
        self, category_vector: np.ndarray, n: int
    ) -> list[Ad]:
        """The n ads whose category vectors are Euclidean-nearest.

        Each distinct row is scored once and its score gathered back to
        every ad that shares it: the per-ad scores are bit for bit those
        of a scan over all ads, so ids and their order (ties by ad id)
        are too.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        scores = self._index.scores_all(np.asarray(category_vector))
        ids = top_ids_desc(scores[self._row_of_ad], n)
        return [self.ads[int(i)] for i in ids]

    # -- construction -----------------------------------------------------------

    @classmethod
    def harvest(
        cls,
        web: SyntheticWeb,
        rng: np.random.Generator,
        config: AdDatabaseConfig | None = None,
        created_day: int = 0,
        created_day_range: tuple[int, int] | None = None,
        registry=None,
    ) -> "AdDatabase":
        """Build the database the way the data-collection phase did.

        Advertisers are content sites sampled with popularity bias; each
        contributes a few creatives of IAB sizes.  Core sites do not
        advertise (Google does not retarget itself), trackers never do.
        ``created_day_range`` spreads harvest days across the collection
        phase (ads captured early are staler when later served).
        """
        config = config or AdDatabaseConfig()
        config.validate()
        sites = web.content_sites
        if not sites:
            raise ValueError("web has no content sites to advertise")
        weights = np.array(
            [site.popularity for site in sites]
        ) ** config.popularity_bias
        probs = weights / weights.sum()
        sizes, size_weights = zip(*IAB_SIZES)
        size_probs = np.array(size_weights) / sum(size_weights)

        ads: list[Ad] = []
        while len(ads) < config.target_size:
            site = sites[int(rng.choice(len(sites), p=probs))]
            count = max(1, int(rng.poisson(config.ads_per_advertiser_mean)))
            vector = web.taxonomy.vector(site.categories)
            for _ in range(count):
                if len(ads) >= config.target_size:
                    break
                width, height = sizes[
                    int(rng.choice(len(sizes), p=size_probs))
                ]
                if created_day_range is not None:
                    lo, hi = created_day_range
                    day = int(rng.integers(lo, hi + 1))
                else:
                    day = created_day
                ads.append(
                    Ad(
                        ad_id=len(ads),
                        landing_domain=site.domain,
                        categories=vector,
                        width=width,
                        height=height,
                        created_day=day,
                    )
                )
        return cls(ads, registry=registry)
