"""Cluster-quality inspection of the embedding space (Figure 5).

The paper shows three magnified t-SNE regions — porn sites, sports
streaming, travel — and argues the embeddings group same-topic hostnames
even when they were never co-requested.  We quantify that with
neighbourhood purity (do a hostname's nearest neighbours share its
ground-truth vertical?) and satellite attachment (does an opaque CDN/API
hostname embed closest to its parent site?).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.embeddings import HostnameEmbeddings
from repro.index import ExactIndex
from repro.traffic.web import SyntheticWeb
from repro.utils.hostnames import second_level_domain


@dataclass(frozen=True)
class PurityReport:
    """Neighbourhood purity per vertical plus the global average."""

    k: int
    per_vertical: dict[str, float]
    overall: float
    baseline: float     # expected purity under random neighbour choice


def neighbourhood_purity(
    embeddings: HostnameEmbeddings,
    web: SyntheticWeb,
    k: int = 10,
    min_sites_per_vertical: int = 3,
) -> PurityReport:
    """For each embedded content site: share of its k nearest *site*
    neighbours with the same vertical."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sites = [
        site for site in web.content_sites if site.domain in embeddings
    ]
    if len(sites) <= k:
        raise ValueError("not enough embedded sites for the requested k")
    ids = np.array(
        [embeddings.vocabulary.id_of(site.domain) for site in sites]
    )
    unit = embeddings.unit_vectors[ids]
    verticals = np.array([site.vertical for site in sites])

    # One query per site over the site-only sub-index replaces the old
    # |S| x |S| similarity matrix + fill_diagonal scan.  Each row asks
    # for k+1 neighbours (itself included), then drops itself; rows
    # where a tie pushed the site out of its own top-(k+1) drop the
    # last neighbour instead so exactly k remain.
    index = ExactIndex(unit, metric="cosine", normalized=True)
    ids_batch = np.vstack([index.search(row, k + 1)[0] for row in unit])
    self_mask = ids_batch == np.arange(len(sites))[:, None]
    missing_self = ~self_mask.any(axis=1)
    self_mask[missing_self, -1] = True
    top_k = ids_batch[~self_mask].reshape(len(sites), k)
    matches = verticals[top_k] == verticals[:, None]
    per_site_purity = matches.mean(axis=1)

    per_vertical: dict[str, float] = {}
    for vertical in sorted(set(verticals)):
        mask = verticals == vertical
        if mask.sum() >= min_sites_per_vertical:
            per_vertical[vertical] = float(per_site_purity[mask].mean())
    counts = {v: int((verticals == v).sum()) for v in set(verticals)}
    baseline = sum(c * (c - 1) for c in counts.values()) / max(
        len(sites) * (len(sites) - 1), 1
    )
    return PurityReport(
        k=k,
        per_vertical=per_vertical,
        overall=float(per_site_purity.mean()),
        baseline=float(baseline),
    )


@dataclass(frozen=True)
class SatelliteReport:
    """How well satellites attach to their parent site in the space."""

    tested: int
    parent_beats_random: float      # fraction of (satellite, random) wins
    mean_parent_similarity: float
    mean_random_similarity: float


def satellite_attachment(
    embeddings: HostnameEmbeddings,
    web: SyntheticWeb,
    rng: np.random.Generator,
    max_satellites: int = 500,
) -> SatelliteReport:
    """Is cos(satellite, parent) > cos(satellite, random site)?

    This is the paper's api.bkng.azure.com -> hotels.com claim made
    measurable.
    """
    embedded_sites = [
        s.domain for s in web.content_sites if s.domain in embeddings
    ]
    if len(embedded_sites) < 2:
        raise ValueError("not enough embedded sites")
    pairs: list[tuple[str, str]] = []
    for site in web.content_sites:
        if site.domain not in embeddings:
            continue
        for satellite in site.satellites:
            if satellite in embeddings:
                pairs.append((satellite, site.domain))
    if not pairs:
        raise ValueError("no embedded satellites to test")
    if len(pairs) > max_satellites:
        chosen = rng.choice(len(pairs), size=max_satellites, replace=False)
        pairs = [pairs[int(i)] for i in chosen]

    wins = 0
    parent_sims: list[float] = []
    random_sims: list[float] = []
    for satellite, parent in pairs:
        other = parent
        while other == parent:
            other = embedded_sites[int(rng.integers(len(embedded_sites)))]
        sim_parent = embeddings.similarity(satellite, parent)
        sim_random = embeddings.similarity(satellite, other)
        parent_sims.append(sim_parent)
        random_sims.append(sim_random)
        wins += int(sim_parent > sim_random)
    return SatelliteReport(
        tested=len(pairs),
        parent_beats_random=wins / len(pairs),
        mean_parent_similarity=float(np.mean(parent_sims)),
        mean_random_similarity=float(np.mean(random_sims)),
    )


def collapse_to_slds(
    sequences: list[list[str]],
) -> list[list[str]]:
    """Rewrite hostname sequences onto second-level domains.

    The paper's Figure 4 preprocessing: "we only use second-level domain
    names instead of complete hostnames", shrinking ~470K hostnames to
    <3K points.
    """
    return [
        [second_level_domain(hostname) for hostname in sequence]
        for sequence in sequences
    ]
