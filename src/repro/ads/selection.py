"""Eavesdropper ad selection (paper Section 5.4, "Selecting the best ads").

Given a session profile c^{s_T_u} (a 328-dim category vector), the back-end
computes "the 20-nearest neighbors of c^{s_T_u} (according to Euclidean
distance) from the pool of hosts for which we know their categorization
[H_L].  We then select ads for each of the closest hosts and serve such
ads to the user for the next 10 minutes" — 20 ads per report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ads.inventory import Ad, AdDatabase
from repro.core.profiler import SessionProfile
from repro.index import ExactIndex
from repro.obs.metrics import NULL_REGISTRY


@dataclass
class SelectorConfig:
    """The experiment's constants."""

    neighbour_hosts: int = 20   # 20-NN over H_L
    ads_per_report: int = 20    # "our back-end served 20 eavesdropper ads"
    # The paper's 20-NN is drawn from ~50K labelled hosts (0.04 % of H_L) —
    # extremely local.  At smaller |H_L| the effective neighbourhood is
    # capped at this fraction (floor 3) to preserve that locality.
    max_host_fraction: float = 0.015

    def validate(self) -> None:
        if self.neighbour_hosts < 1 or self.ads_per_report < 1:
            raise ValueError("selector sizes must be >= 1")
        if not 0 < self.max_host_fraction <= 1:
            raise ValueError("max_host_fraction must be in (0, 1]")


class EavesdropperSelector:
    """Profile vector -> ranked list of relevant ads."""

    def __init__(
        self,
        labelled: dict[str, np.ndarray],
        database: AdDatabase,
        config: SelectorConfig | None = None,
        registry=None,
    ):
        if not labelled:
            raise ValueError("labelled set H_L is empty")
        self.config = config or SelectorConfig()
        self.config.validate()
        self.database = database
        self._hosts = sorted(labelled)
        self._matrix = np.vstack([labelled[h] for h in self._hosts])
        # The Section 5.4 20-NN over H_L rides the shared index layer
        # (negative-squared-distance scores reproduce the old ordering).
        self._index = ExactIndex(
            self._matrix, metric="euclidean", registry=registry
        )
        self._effective_neighbours = min(
            self.config.neighbour_hosts,
            max(3, int(len(self._hosts) * self.config.max_host_fraction)),
        )
        # The paper serves only nearest-host ads; the top-up is ours, so
        # count which path filled each slot.
        registry = registry if registry is not None else NULL_REGISTRY
        selected = registry.counter(
            "ads_selected_total",
            "Eavesdropper ads served, by the path that chose them.",
            labelnames=("path",),
        )
        self._host_ads_total = selected.labels(path="host")
        self._topup_ads_total = selected.labels(path="topup")

    def nearest_hosts(
        self, category_vector: np.ndarray, n: int | None = None
    ) -> list[str]:
        """The n labelled hosts Euclidean-nearest to a profile vector."""
        n = n or self._effective_neighbours
        ids, _ = self._index.search(np.asarray(category_vector), n)
        return [self._hosts[int(i)] for i in ids]

    def select(
        self, profile: SessionProfile | np.ndarray
    ) -> list[Ad]:
        """The replacement list for one extension report.

        Ads are drawn round-robin from the nearest hosts' own ads; if those
        hosts advertise too little, the list is topped up with the ads
        whose category vectors are nearest to the profile itself.
        """
        vector = (
            profile.categories
            if isinstance(profile, SessionProfile)
            else np.asarray(profile)
        )
        hosts = self.nearest_hosts(vector)
        per_host = [self.database.ads_for_landing(h) for h in hosts]
        selected: list[Ad] = []
        seen: set[int] = set()
        rank = 0
        while len(selected) < self.config.ads_per_report and any(
            rank < len(ads) for ads in per_host
        ):
            for ads in per_host:
                if rank < len(ads) and ads[rank].ad_id not in seen:
                    selected.append(ads[rank])
                    seen.add(ads[rank].ad_id)
                    if len(selected) >= self.config.ads_per_report:
                        break
            rank += 1
        from_hosts = len(selected)
        self._host_ads_total.inc(from_hosts)
        if from_hosts < self.config.ads_per_report:
            for ad in self.database.nearest_by_category(
                vector, self.config.ads_per_report * 2
            ):
                if ad.ad_id not in seen:
                    selected.append(ad)
                    seen.add(ad.ad_id)
                if len(selected) >= self.config.ads_per_report:
                    break
            self._topup_ads_total.inc(len(selected) - from_hosts)
        return selected
