#!/usr/bin/env python3
"""Explore the embedding space: the paper's Figure 4/5 analysis.

Trains hostname embeddings on one day of traffic, collapses hostnames to
second-level domains (the paper's preprocessing), projects them to 2-D
with t-SNE, and inspects the topical clusters the paper highlights —
including the headline trick: opaque CDN/API hostnames embedding next to
the content site they serve.

Writes the 2-D map to ``examples/out/tsne_map.tsv`` (columns: x, y, sld,
vertical) so it can be plotted with any tool.

Run:  python examples/cluster_explorer.py      (~60 s)
"""

from pathlib import Path

import numpy as np

from repro.analysis.clusters import (
    collapse_to_slds,
    neighbourhood_purity,
    satellite_attachment,
)
from repro.analysis.tsne import TSNE, TSNEConfig
from repro.core import SkipGramConfig, SkipGramModel, day_corpus
from repro.ontology import build_default_taxonomy
from repro.traffic import (
    PopulationConfig,
    StreamingTraceGenerator,
    SyntheticWeb,
    UserPopulation,
    WebConfig,
)
from repro.utils.randomness import derive_rng

SEED = 5


def main() -> None:
    taxonomy = build_default_taxonomy()
    web = SyntheticWeb.generate(
        taxonomy, derive_rng(SEED, "web"),
        WebConfig(num_sites=600, num_trackers=60),
    )
    population = UserPopulation.generate(
        web, derive_rng(SEED, "users"), PopulationConfig(num_users=80)
    )
    trace = StreamingTraceGenerator(web, population, seed=SEED).materialize(1)

    # The paper's Figure 4 preprocessing: one day, SLD-collapsed.
    raw_corpus = day_corpus(trace, 0)
    corpus = collapse_to_slds(raw_corpus)
    full = {h for s in raw_corpus for h in s}
    slds = {h for s in corpus for h in s}
    print(f"one day of traffic: {len(full)} hostnames -> "
          f"{len(slds)} second-level domains")

    model = SkipGramModel(SkipGramConfig(epochs=20, seed=SEED))
    embeddings = model.fit(corpus)
    print(f"embeddings: {len(embeddings)} SLDs x {embeddings.dim} dims")

    # -- Figure 5: inspect the clusters the paper magnifies ------------------
    full_model = SkipGramModel(SkipGramConfig(epochs=15, seed=SEED))
    full_embeddings = full_model.fit(raw_corpus)
    purity = neighbourhood_purity(full_embeddings, web, k=10)
    print(f"\nneighbourhood purity (k=10): {purity.overall:.3f} "
          f"(chance: {purity.baseline:.3f})")
    for vertical in ("Adult", "Sports", "Travel"):
        if vertical in purity.per_vertical:
            print(f"  {vertical:<8} cluster purity: "
                  f"{purity.per_vertical[vertical]:.3f}")

    attachment = satellite_attachment(
        full_embeddings, web, derive_rng(SEED, "attach")
    )
    print(f"\nthe api.bkng.azure.com trick: over {attachment.tested} "
          f"satellites,")
    print(f"  cos(satellite, its site)  = "
          f"{attachment.mean_parent_similarity:.3f}")
    print(f"  cos(satellite, random)    = "
          f"{attachment.mean_random_similarity:.3f}")
    print(f"  parent wins {attachment.parent_beats_random * 100:.0f}% "
          f"of the time")

    # show one concrete example, like the paper's running example
    example_site = next(
        s for s in web.content_sites
        if s.satellites and s.satellites[0] in full_embeddings
        and s.domain in full_embeddings
    )
    satellite = example_site.satellites[0]
    print(f"\nexample: {satellite} (opaque API hostname)")
    for hostname, similarity in full_embeddings.most_similar(satellite, 5):
        marker = "  <-- its site" if hostname == example_site.domain else ""
        print(f"  {similarity:.3f}  {hostname}{marker}")

    # -- Figure 4: the 2-D map -------------------------------------------------
    hosts = embeddings.vocabulary.hosts[:350]
    matrix = np.vstack([embeddings.vector(h) for h in hosts])
    print(f"\nprojecting {len(hosts)} SLDs with t-SNE "
          "(perplexity 25, 350 iterations)...")
    tsne = TSNE(TSNEConfig(perplexity=25, n_iter=350, seed=SEED))
    projected = tsne.fit_transform(matrix)

    vertical_of = {s.domain: s.vertical for s in web.sites}
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / "tsne_map.tsv"
    with out_path.open("w") as handle:
        handle.write("x\ty\tsld\tvertical\n")
        for (x, y), host in zip(projected, hosts):
            handle.write(
                f"{x:.3f}\t{y:.3f}\t{host}\t"
                f"{vertical_of.get(host, 'infrastructure')}\n"
            )
    print(f"2-D map written to {out_path} "
          f"(final KL: {tsne.kl_history[-1]:.3f})")


if __name__ == "__main__":
    main()
