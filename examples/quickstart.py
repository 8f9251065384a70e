#!/usr/bin/env python3
"""Quickstart: profile a user from hostname sequences in ~60 seconds.

Walks the paper's core loop end to end on a small synthetic world:

1. generate browsing traffic (the ISP-trace substitute);
2. build the labelled set H_L (the Adwords-like ontology, 10.6 % coverage);
3. train hostname embeddings on one day of traffic (SGNS, paper defaults);
4. profile a session from the hostnames seen in the last 20 minutes;
5. compare the profile against the ground truth no real observer has.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import NetworkObserverProfiler, PipelineConfig, SkipGramConfig
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

SEED = 2021


def main() -> None:
    # -- 1. the world: sites, users, two days of browsing -------------------
    taxonomy = build_default_taxonomy()
    print(f"taxonomy: {len(taxonomy)} raw categories, "
          f"{taxonomy.num_truncated} after level-2 truncation")

    web = SyntheticWeb.generate(
        taxonomy, derive_rng(SEED, "web"),
        WebConfig(num_sites=500, num_trackers=60),
    )
    population = UserPopulation.generate(
        web, derive_rng(SEED, "users"), PopulationConfig(num_users=60)
    )
    trace = StreamingTraceGenerator(web, population, seed=SEED).materialize(2)
    print(f"trace: {trace.num_requests} requests, "
          f"{len(trace.distinct_hostnames())} distinct hostnames")

    # -- 2. what the profiler is given: blocklists + a sparse ontology ------
    tracker_filter = TrackerFilter(
        build_blocklists(web, derive_rng(SEED, "blocklists"))
    )
    labeler = OntologyLabeler(taxonomy, coverage=0.106)
    labelled = labeler.build_labelled_set(
        web.ground_truth(),
        universe_size=len(web.all_hostnames()),
        rng=derive_rng(SEED, "labeler"),
        popularity=web.popularity(),
    )
    print(f"ontology knows {len(labelled)} hostnames "
          f"({labeler.stats.coverage * 100:.1f}% of the universe)")

    # -- 3. train on day 0 (the paper retrains daily) ------------------------
    profiler = NetworkObserverProfiler(
        labelled,
        config=PipelineConfig(skipgram=SkipGramConfig(epochs=25, seed=SEED)),
        tracker_filter=tracker_filter,
    )
    stats = profiler.train_on_day(trace, 0)
    print(f"trained embeddings: vocab {stats.vocabulary_size}, "
          f"{stats.pairs_trained} pairs, "
          f"loss {stats.mean_loss_per_epoch[0]:.2f} -> "
          f"{stats.mean_loss_per_epoch[-1]:.2f}")

    # a taste of what the space learned: the nearest *content sites* to a
    # popular site (its raw neighbour list is dominated by the CDN shard
    # hostnames of the users who browse it — the paper's 'unlabelable
    # infrastructure' — so we filter to sites for readability)
    content = {s.domain: s.vertical for s in web.content_sites}
    some_site = next(
        s.domain for s in web.content_sites
        if s.domain in profiler.embeddings
    )
    print(f"\nnearest site neighbours of {some_site} "
          f"[{content[some_site]}]:")
    shown = 0
    for hostname, similarity in profiler.embeddings.most_similar(
        some_site, 400
    ):
        if hostname in content:
            print(f"  {similarity:.3f}  {hostname} [{content[hostname]}]")
            shown += 1
            if shown == 5:
                break

    # -- 4. profile a day-1 session ------------------------------------------
    sequences = trace.user_sequences(1)
    user_id = max(sequences, key=lambda u: len(sequences[u]))
    requests = sequences[user_id]
    now = requests[len(requests) // 2].timestamp
    profile = profiler.profile_user(requests, now)

    print(f"\nprofiling user {user_id} at t={now:.0f}s "
          f"({profile.session_size} hosts in the last 20 min, "
          f"{profile.support} labelled voters):")
    for category, weight in profile.top_categories(taxonomy, 5):
        print(f"  {weight:.3f}  {category.name}")

    # -- 5. the oracle check the paper could not do --------------------------
    user = population.by_id(user_id)
    latent = user.interest_vector(taxonomy.num_truncated)
    print("\nuser's true (latent) interests:")
    for idx in np.argsort(-latent)[:5]:
        if latent[idx] > 0:
            print(f"  {latent[idx]:.3f}  "
                  f"{taxonomy.truncated_categories()[idx].name}")


if __name__ == "__main__":
    main()
