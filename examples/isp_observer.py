#!/usr/bin/env python3
"""An ISP-style observer, from raw packets to user profiles.

The quickstart works on abstract hostname sequences; this example runs the
*wire-level* path an actual on-path eavesdropper would:

    browsing -> IPv4/TCP/UDP packets (TLS ClientHellos, QUIC Initials,
    DNS queries) -> SNI extraction + flow dedup -> per-client hostname
    streams -> embeddings -> session profiles

It also shows the two degradations discussed in the paper's Section 7.2:
a DNS-resolver vantage and users merged behind a NAT.

Run:  python examples/isp_observer.py
"""

import numpy as np

from repro.ads.clicks import affinity
from repro.core import (
    NetworkObserverProfiler,
    PipelineConfig,
    SkipGramConfig,
    sequences_from_requests,
)
from repro.netobs import (
    NatBox,
    NetworkObserver,
    ObserverConfig,
    TrafficSynthesizer,
)
from repro.ontology import OntologyLabeler, build_default_taxonomy
from repro.traffic import (
    PopulationConfig,
    StreamingTraceGenerator,
    SyntheticWeb,
    UserPopulation,
    WebConfig,
)
from repro.utils.randomness import derive_rng
from repro.utils.timeutils import minutes

SEED = 77


def build_world():
    taxonomy = build_default_taxonomy()
    web = SyntheticWeb.generate(
        taxonomy, derive_rng(SEED, "web"),
        WebConfig(num_sites=400, num_trackers=50),
    )
    population = UserPopulation.generate(
        web, derive_rng(SEED, "users"), PopulationConfig(num_users=40)
    )
    trace = StreamingTraceGenerator(web, population, seed=SEED).materialize(2)
    labeler = OntologyLabeler(taxonomy, coverage=0.106)
    labelled = labeler.build_labelled_set(
        web.ground_truth(),
        universe_size=len(web.all_hostnames()),
        rng=derive_rng(SEED, "labeler"),
        popularity=web.popularity(),
    )
    return taxonomy, web, population, trace, labelled


def observe(trace, user_ids, vantage="sni", nat=None):
    """Convert the trace to packets and run them through the observer."""
    synthesizer = TrafficSynthesizer(seed=SEED)
    observer = NetworkObserver(ObserverConfig(vantage=vantage))
    user_to_client = {
        user_id: (nat.public_ip if nat else synthesizer.client_ip(user_id))
        for user_id in user_ids
    }
    packets = bytes_seen = 0
    for day in (0, 1):
        for request in trace.day(day):
            for packet in synthesizer.packets_for_request(request):
                if nat is not None:
                    packet = nat.translate(packet)
                raw = packet.to_bytes()        # what the wire carries
                bytes_seen += len(raw)
                packets += 1
                observer.ingest_bytes(raw, packet.timestamp)
    return observer, user_to_client, packets, bytes_seen


def profile_clients(web, labelled, trace, observer, user_to_client, label):
    """Fidelity of the observer's profiles vs each REAL user's browsing.

    Behind a NAT the observer still produces a profile — but for a merged
    pseudo-user, so it matches any individual user poorly.
    """
    client_events = observer.client_sequences()
    corpus = []
    for _, stream in sorted(observer.as_requests().items()):
        corpus.extend(sequences_from_requests(stream))
    profiler = NetworkObserverProfiler(
        labelled,
        config=PipelineConfig(skipgram=SkipGramConfig(epochs=10, seed=SEED)),
    )
    profiler.train_on_sequences(corpus)

    day1 = trace.user_sequences(1)
    scores = []
    for user_id, own_requests in sorted(day1.items()):
        if len(own_requests) < 5:
            continue
        now = own_requests[len(own_requests) // 2].timestamp
        truth = [
            web.true_category_vector(r.hostname)
            for r in own_requests
            if now - minutes(20) < r.timestamp <= now
        ]
        truth = [v for v in truth if v is not None]
        if not truth:
            continue
        window = [
            hostname
            for t, hostname in client_events.get(user_to_client[user_id], [])
            if now - minutes(20) < t <= now
        ]
        profile = profiler.profile_session(window)
        if not profile.is_empty:
            scores.append(
                affinity(np.mean(truth, axis=0), profile.categories)
            )
    mean = float(np.mean(scores)) if scores else 0.0
    print(f"  {label:<30} clients={len(observer.clients):<4} "
          f"users scored={len(scores):<4} fidelity={mean:.3f}")
    return mean


def main() -> None:
    taxonomy, web, population, trace, labelled = build_world()
    user_ids = sorted(u.user_id for u in population)
    print(f"world: {len(web.all_hostnames())} stable hostnames, "
          f"{trace.num_requests} requests over 2 days\n")

    # -- the ISP vantage: full SNI visibility --------------------------------
    observer, mapping, packets, raw = observe(trace, user_ids, vantage="sni")
    stats = observer.flow_table.stats
    print("ISP (SNI) observer:")
    print(f"  packets parsed: {packets} ({raw / 1e6:.1f} MB of wire bytes)")
    print(f"  flows tracked: {stats.flows_tracked}, "
          f"hostname events: {stats.events_emitted} "
          f"(incl. DNS queries), parse failures: {stats.parse_failures}")
    print("\nprofile fidelity by vantage "
          "(cosine to each real user's current browsing content):")
    profile_clients(web, labelled, trace, observer, mapping,
                    "SNI (per-user)")

    # -- DNS resolver vantage -------------------------------------------------
    dns_observer, dns_map, _, _ = observe(trace, user_ids, vantage="dns")
    profile_clients(web, labelled, trace, dns_observer, dns_map,
                    "DNS resolver")

    # -- landline ISP: all users behind one NAT -------------------------------
    nat_observer, nat_map, _, _ = observe(
        trace, user_ids, vantage="sni", nat=NatBox()
    )
    profile_clients(web, labelled, trace, nat_observer, nat_map,
                    "SNI behind one NAT")

    print("\nNAT folds everyone into one pseudo-user, destroying per-user "
          "profiles\n(paper Section 7.2: a landline ISP 'may not be able "
          "to tell apart traffic').")


if __name__ == "__main__":
    main()
