"""The four pipeline workloads; ``run.py`` runs each in its own process.

``python benchmarks/pipeline/workloads.py --workload NAME --seed N
--seconds S --trace 0|1 [--smoke] [--out DIR]`` builds the workload's
inputs from the seed, sets it up ``setup_repeats`` times (the median is
``setup_s``), then replays the timed phase as a closed loop with one
producer — the next record is fed as soon as the previous call returns —
pass after pass, each on fresh streaming state, until the passes add up
to ``S`` seconds.  Every end-to-end metric is the median over those
passes.  Each pass's outputs are checked as it ends; the result is one
JSON line, printed last.

With ``--trace 1`` it sets up and replays once more with the ledger's
wrappers installed, for the per-layer metrics and a Chrome trace of a
1-in-64 client sample.  Run it directly only to debug one workload:
``run.py`` is what pins BLAS to one thread and enforces the timeout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import repro.core.pipeline as pipeline_module  # noqa: E402
from repro.ads.inventory import AdDatabase  # noqa: E402
from repro.ads.selection import EavesdropperSelector  # noqa: E402
from repro.core.corpus import day_corpus  # noqa: E402
from repro.core.pipeline import NetworkObserverProfiler, PipelineConfig  # noqa: E402
from repro.core.profiler import SessionProfiler  # noqa: E402
from repro.core.session import SessionExtractor  # noqa: E402
from repro.core.skipgram import SkipGramConfig, SkipGramModel  # noqa: E402
from repro.core.streaming import StreamingConfig, StreamingProfiler  # noqa: E402
from repro.index import ExactIndex  # noqa: E402
from repro.netobs.capture import TrafficSynthesizer  # noqa: E402
from repro.netobs.flows import HostnameEvent  # noqa: E402
from repro.netobs.observer import NetworkObserver, ObserverConfig  # noqa: E402
from repro.shard import ShardCoordinator  # noqa: E402
from repro.shard.coordinator import event_wire  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from repro.traffic import (  # noqa: E402
    PopulationConfig,
    StreamingTraceGenerator,
    Trace,
    TrackerFilter,
    UserPopulation,
    WebConfig,
    build_blocklists,
)
from repro.utils.randomness import derive_rng  # noqa: E402
from repro.utils.timeutils import minutes  # noqa: E402
from repro.world import build_labelled_set, build_web  # noqa: E402

from ledger import Ledger  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())


class Skip(Exception):
    """The host cannot run this workload as specified."""


class Emission(NamedTuple):
    """One profile as the checks see it, whichever process made it."""

    client: str
    tick: float
    window_hosts: tuple[str, ...]
    categories: np.ndarray
    support: int
    ads: int | None   # ads returned; None where the workload selects none


class PassResult(NamedTuple):
    wall_s: float           # the whole timed pass
    records: int            # input records consumed
    record_wall_s: float    # time that consumed them
    sessions: int           # profiles produced
    session_wall_s: float   # time that produced them
    emissions: list         # Emission records (checked after timing)
    latencies: list         # seconds per emission, tick record to ad list
    extra: dict             # what the checks and the ledger need
    retrain_s: float | None = None


class Checks:
    """Failed output checks against checks attempted (``error_rate``)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.notes) < 20:
                self.notes.append(what)


# -- shared helpers -----------------------------------------------------------


def client_ip(user_id: int) -> str:
    """The client address the default capture layout gives a user."""
    return f"10.0.{user_id // 256}.{user_id % 256}"


def is_sampled(key: str, one_in: int) -> bool:
    """Deterministic 1-in-``one_in`` sample, stable across runs."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % one_in == 0


def _span(ledger: Ledger | None, name: str):
    return nullcontext() if ledger is None else ledger.span(name)


def wrap_training(ledger: Ledger) -> None:
    """Time SGNS fits and index builds wherever the pipeline runs them."""
    ledger.wrap(SkipGramModel, "fit", "train.fit")
    ledger.wrap(pipeline_module, "build_index", "index.build")


def wrap_profiler(ledger: Ledger, profiler: SessionProfiler) -> None:
    ledger.wrap(profiler, "profile", "profile")
    ledger.wrap(profiler.index, "search", "index.search")


class World(NamedTuple):
    web: object
    trace: Trace
    tracker_filter: TrackerFilter
    labelled: dict


def build_world(sizes: dict, traffic_seed: int, num_days: int) -> World:
    """The benchmark's fixed world with ``num_days`` of seeded traffic.

    Web, population, labelled set and blocklists come from the spec's
    world seed, so every ``--seed`` replays the same users and sites; the
    seed draws what those users do each day.  A seeded population would
    change the heavy-user mix, and with it the work per pass, by ~6%.
    """
    world_seed = SPEC["world_seed"]
    taxonomy, web = build_web(world_seed, web_config=WebConfig(
        num_sites=sizes["num_sites"], num_trackers=sizes["num_trackers"]
    ))
    population = UserPopulation.generate(
        web, derive_rng(world_seed, "population"),
        PopulationConfig(num_users=sizes["num_users"]),
    )
    return World(
        web,
        StreamingTraceGenerator(
            web, population, seed=traffic_seed
        ).materialize(num_days),
        TrackerFilter(build_blocklists(
            web, derive_rng(world_seed, "blocklists")
        )),
        build_labelled_set(web, taxonomy, world_seed),
    )


def day_prefix(trace: Trace, day: int, count: int) -> list:
    """The first ``count`` requests of a day: a fixed amount of work."""
    requests = trace.day(day)
    if len(requests) < count:
        raise ValueError(
            f"day {day} has {len(requests)} requests, fewer than the "
            f"{count} the workload replays"
        )
    return requests[:count]


def probe_windows(trace: Trace, day: int, tracker_filter, count: int):
    """A fixed probe set: ``count`` session windows spread over a day."""
    windows = SessionExtractor(
        window_seconds=minutes(20), tracker_filter=tracker_filter
    ).windows_for_day(trace, day)
    step = max(1, len(windows) // count)
    return windows[::step][:count]


def reference_profiler(pipeline: NetworkObserverProfiler) -> SessionProfiler:
    """An Eq. 3/4 profiler over a fresh exact index of the same space."""
    embeddings = pipeline.embeddings
    config = pipeline.config
    return SessionProfiler(
        embeddings,
        pipeline.labelled,
        neighbourhood_size=config.neighbourhood_size,
        aggregation=config.aggregation,
        max_neighbourhood_fraction=config.max_neighbourhood_fraction,
        index=ExactIndex(
            embeddings.unit_vectors, metric="cosine", normalized=True
        ),
    )


def turnover(pipeline, trace, day, store, ledger):
    """One daily model turnover: corpus, SGNS + index, publish, load.

    Returns ``(seconds, in-memory profiler, generation record, train
    stats, corpus)``; the pipeline serves the restored generation after.
    """
    started = time.perf_counter()
    with _span(ledger, "train.corpus"):
        corpus = day_corpus(
            trace, day,
            tracker_filter=pipeline.tracker_filter,
            config=pipeline.config.corpus,
        )
    stats = pipeline.train_on_sequences(corpus)
    in_memory = pipeline.profiler
    with _span(ledger, "store.publish"):
        record = pipeline.publish_generation(store, day=day)
    with _span(ledger, "store.restore"):
        pipeline.load_generation(store)
    return time.perf_counter() - started, in_memory, record, stats, corpus


def emission_digest(emissions) -> str:
    """SHA-256 of the emission keys ``(tick, client, window_hosts)``."""
    keys = sorted(
        (e.tick, e.client, list(e.window_hosts)) for e in emissions
    )
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()


def top5(categories: np.ndarray) -> list[int]:
    return np.argsort(-categories, kind="stable")[:5].tolist()


def check_categories(
    emissions, reference: SessionProfiler, checks: Checks,
    one_in: int = 16, at_least: int = 200,
) -> None:
    """Recompute a sample of category vectors from their window hosts.

    Every ``one_in``-th emission is profiled again by ``reference`` (at
    least ``at_least`` of them, or all if there are fewer); the vector
    must match within rtol 1e-9 and keep the same top-5 order.
    """
    step = max(1, min(one_in, len(emissions) // at_least))
    for emission in emissions[::step]:
        expected = reference.profile(list(emission.window_hosts))
        checks.check(
            np.allclose(
                emission.categories, expected.categories, rtol=1e-9, atol=0
            )
            and top5(emission.categories) == top5(expected.categories),
            f"{emission.client} at {emission.tick}: category vector "
            "differs from the reference",
        )


def check_ads(emissions, ads_per_report: int, checks: Checks) -> None:
    """Every non-empty profile must come back with a full ad list."""
    for emission in emissions:
        if emission.ads is not None and emission.support > 0:
            checks.check(
                emission.ads == ads_per_report,
                f"{emission.client} at {emission.tick}: {emission.ads} ads, "
                f"expected {ads_per_report}",
            )


def check_probe(probe, in_memory, restored, checks: Checks) -> None:
    """The restored generation must profile the probe set bit for bit."""
    for window in probe:
        hosts = list(window.hostnames)
        a, b = in_memory.profile(hosts), restored.profile(hosts)
        checks.check(
            np.array_equal(a.categories, b.categories)
            and a.support == b.support,
            f"probe {window.user_id} at {window.end_time}: restored "
            "generation profiles differently",
        )


def histogram_total(snapshot: dict, name: str) -> tuple[float, float]:
    """(count, sum) of a histogram family across its series."""
    for family in snapshot.get("metrics", []):
        if family["name"] == name:
            return (
                sum(s["count"] for s in family["series"]),
                sum(s["sum"] for s in family["series"]),
            )
    return 0.0, 0.0


def series_total(snapshot: dict, name: str) -> float:
    """Sum of a counter or gauge family across its series."""
    for family in snapshot.get("metrics", []):
        if family["name"] == name:
            return sum(s["value"] for s in family["series"])
    return 0.0


def training_layers(ledger: Ledger, stats, pipeline, record) -> dict:
    """Per-layer metrics of one turnover timed under ``ledger``."""
    fit_s = ledger.self_s("train.fit")
    return {
        "train.corpus_s": ledger.self_s("train.corpus"),
        "train.fit_s": fit_s,
        "train.tokens": stats.tokens_seen,
        "train.pairs": stats.pairs_trained,
        "train.tokens_per_s": stats.tokens_seen / fit_s,
        "index.build_s": ledger.self_s("index.build"),
        "index.vocabulary": len(pipeline.embeddings),
        "store.publish_s": ledger.self_s("store.publish"),
        "store.restore_s": ledger.self_s("store.restore"),
        "store.bytes": sum(
            int(c.get("bytes", 0)) for c in record.components.values()
        ),
    }


def profile_layers(ledger: Ledger, emissions) -> dict:
    profile_s = ledger.self_s("profile")
    sessions = ledger.calls("profile")
    search_s = ledger.self_s("index.search")
    queries = ledger.calls("index.search")
    supports = [e.support for e in emissions]
    return {
        "profile.self_s": profile_s,
        "profile.us_per_session": profile_s / sessions * 1e6,
        "profile.sessions": sessions,
        "profile.empty_ratio": supports.count(0) / len(supports),
        "profile.support_mean": statistics.fmean(supports),
        "index.search_s": search_s,
        "index.us_per_query": search_s / queries * 1e6,
        "index.queries": queries,
    }


# -- workloads ------------------------------------------------------------------


class Workload:
    """Set up once, then replay passes; subclasses fill in the layers."""

    name = ""
    size_key = "serving"

    def __init__(
        self, seed: int, sizes: dict, work_dir: Path, one_in: int
    ):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.one_in = one_in
        self.digests: set[str] = set()
        self._serial = 0

    @property
    def cycle(self) -> int:
        """Passes per round of distinct inputs; a run ends on a round."""
        return 1

    def _fresh_dir(self, stem: str) -> Path:
        self._serial += 1
        path = self.work_dir / f"{stem}-{self._serial}"
        path.mkdir(parents=True)
        return path

    def setup(self, ledger: Ledger | None) -> float:
        raise NotImplementedError

    def prepare(self) -> None:
        """Fresh per-pass state, built outside the timed pass."""

    def run_pass(self, ledger: Ledger | None) -> PassResult:
        raise NotImplementedError

    def check_pass(self, result: PassResult, checks: Checks) -> None:
        """Check one pass's outputs; the caller drops them afterwards."""
        raise NotImplementedError

    def finish_checks(self, checks: Checks) -> str:
        """Run-level checks; returns the digest pinned for the seed."""
        raise NotImplementedError

    def layer_metrics(self, setup_ledger, ledger, traced) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ServingWorkload(Workload):
    """The serving world: day-0 model, day-1 traffic, ads per report."""

    def setup(self, ledger):
        self.close()
        if ledger is not None:
            ledger.tag = {"phase": "setup"}
        s = self.sizes
        started = time.perf_counter()
        with _span(ledger, "traffic.generate"):
            world = build_world(s, self.seed, num_days=2)
        self.world = world
        self.trace = Trace(days=[
            day_prefix(world.trace, 0, s["train_requests"]),
            day_prefix(world.trace, 1, s["serve_requests"]),
        ])
        self.pipeline = NetworkObserverProfiler(
            world.labelled,
            config=PipelineConfig(skipgram=SkipGramConfig(epochs=s["epochs"])),
            tracker_filter=world.tracker_filter,
        )
        _, self.in_memory, self.record, self.train_stats, _ = turnover(
            self.pipeline, self.trace, 0,
            ArtifactStore(self._fresh_dir("store")), ledger,
        )
        self.selector = EavesdropperSelector(
            world.labelled,
            AdDatabase.harvest(
                world.web, derive_rng(SPEC["world_seed"], "ads")
            ),
        )
        self.events = [
            HostnameEvent(
                client_ip(r.user_id), r.timestamp, r.hostname, "tls-sni"
            )
            for r in self.trace.day(1)
        ]
        self.sampled = {
            e.client_ip for e in self.events
            if is_sampled(e.client_ip, self.one_in)
        }
        self.build_inputs(ledger)
        elapsed = time.perf_counter() - started
        self.probe = probe_windows(
            self.trace, 1, world.tracker_filter, s["probe_sessions"]
        )
        if ledger is not None:
            ledger.tag = None
        return elapsed

    def build_inputs(self, ledger) -> None:
        """Workload-specific set-up after the model is serving."""

    def new_stream(self) -> StreamingProfiler:
        stream = StreamingProfiler(
            StreamingConfig(), tracker_filter=self.world.tracker_filter
        )
        stream.swap_model(self.pipeline.profiler)
        return stream

    def prepare(self):
        self.stream = self.new_stream()

    def instrument(self, ledger: Ledger) -> None:
        ledger.wrap(self.stream, "ingest", "stream.ingest")
        wrap_profiler(ledger, self.pipeline.profiler)
        ledger.wrap(self.selector, "select", "ads.select")

    def finish_pass(self, started, records, raw, latencies, extra):
        wall = time.perf_counter() - started
        emissions = [
            Emission(
                e.client, e.timestamp, e.window_hosts,
                e.profile.categories, e.profile.support, ads,
            )
            for e, ads in raw
        ]
        extra["stream"] = self.stream.registry.snapshot()
        extra["active_clients"] = self.stream.active_clients
        return PassResult(
            wall, records, wall, len(emissions), wall, emissions,
            latencies, extra,
        )

    def check_pass(self, result, checks):
        if not self.digests:
            check_categories(
                result.emissions, reference_profiler(self.pipeline), checks
            )
        check_ads(
            result.emissions, self.selector.config.ads_per_report, checks
        )
        self.digests.add(emission_digest(result.emissions))

    def finish_checks(self, checks):
        checks.check(len(self.digests) == 1, "passes emitted different keys")
        check_probe(self.probe, self.in_memory, self.pipeline.profiler, checks)
        return min(self.digests)

    def setup_layers(self, setup_ledger: Ledger) -> dict:
        metrics = {
            "traffic.generate_s": setup_ledger.self_s("traffic.generate"),
            "traffic.requests": self.world.trace.num_requests,
        }
        metrics.update(training_layers(
            setup_ledger, self.train_stats, self.pipeline, self.record
        ))
        return metrics

    def layer_metrics(self, setup_ledger, ledger, traced):
        snapshot = traced.extra["stream"]
        stream_s = ledger.self_s("stream.ingest")
        events = ledger.calls("stream.ingest")
        select_s = ledger.self_s("ads.select")
        selects = ledger.calls("ads.select")
        ads_per_report = self.selector.config.ads_per_report
        metrics = self.setup_layers(setup_ledger)
        metrics.update(profile_layers(ledger, traced.emissions))
        metrics.update({
            "stream.ingest_s": stream_s,
            "stream.ingest_us": stream_s / events * 1e6,
            "stream.events": series_total(snapshot, "stream_events_total"),
            "stream.filtered": series_total(
                snapshot, "stream_events_filtered_total"
            ),
            "stream.late_dropped": series_total(
                snapshot, "stream_late_events_dropped_total"
            ),
            "stream.active_clients": traced.extra["active_clients"],
            "stream.emissions": traced.sessions,
            "ads.select_s": select_s,
            "ads.us_per_select": select_s / selects * 1e6,
            "ads.selects": selects,
            "ads.short_lists": sum(
                1 for e in traced.emissions
                if e.support > 0 and e.ads != ads_per_report
            ),
        })
        return metrics


class SniLog(ServingWorkload):
    """Hostname events, as a resolver log or SNI export delivers them."""

    name = "sni-log"

    def run_pass(self, ledger):
        if ledger is not None:
            self.instrument(ledger)
        ingest = self.stream.ingest
        select = self.selector.select
        sampled = self.sampled
        perf = time.perf_counter
        raw, latencies = [], []
        started = perf()
        for index, event in enumerate(self.events):
            if ledger is not None:
                ledger.tag = (
                    {"client": event.client_ip, "record": index}
                    if event.client_ip in sampled else None
                )
            fed = perf()
            emission = ingest(event)
            if emission is None:
                continue
            profile = emission.profile
            ads = select(profile) if not profile.is_empty else ()
            latencies.append(perf() - fed)
            raw.append((emission, len(ads)))
        if ledger is not None:
            ledger.tag = None
        return self.finish_pass(started, len(self.events), raw, latencies, {})


class WireSni(ServingWorkload):
    """The same day as raw IPv4 packets through the SNI observer."""

    name = "wire-sni"

    def build_inputs(self, ledger):
        with _span(ledger, "netobs.synthesize"):
            synthesizer = TrafficSynthesizer(seed=self.seed)
            self.packets = [
                (packet.to_bytes(), packet.timestamp, client_ip(r.user_id))
                for r in self.trace.day(1)
                for packet in synthesizer.packets_for_request(r)
            ]

    def prepare(self):
        super().prepare()
        self.observer = NetworkObserver(ObserverConfig(vantage="sni"))

    def instrument(self, ledger):
        super().instrument(ledger)
        ledger.wrap(self.observer, "ingest_bytes", "netobs.ingest")

    def run_pass(self, ledger):
        if ledger is not None:
            self.instrument(ledger)
        ingest_bytes = self.observer.ingest_bytes
        ingest = self.stream.ingest
        select = self.selector.select
        sampled = self.sampled
        perf = time.perf_counter
        raw, latencies, events = [], [], []
        started = perf()
        for index, (data, timestamp, client) in enumerate(self.packets):
            if ledger is not None:
                ledger.tag = (
                    {"client": client, "record": index}
                    if client in sampled else None
                )
            fed = perf()
            event = ingest_bytes(data, timestamp)
            if event is None:
                continue
            events.append(event)
            emission = ingest(event)
            if emission is None:
                continue
            profile = emission.profile
            ads = select(profile) if not profile.is_empty else ()
            latencies.append(perf() - fed)
            raw.append((emission, len(ads)))
        if ledger is not None:
            ledger.tag = None
        return self.finish_pass(started, len(self.packets), raw, latencies, {
            "events": [(e.client_ip, e.hostname) for e in events],
            "quarantined": self.observer.quarantine.total,
        })

    def check_pass(self, result, checks):
        if not self.digests:
            self.expected = [(e.client_ip, e.hostname) for e in self.events]
        checks.check(
            result.extra["events"] == self.expected,
            "observer did not yield exactly one event per request",
        )
        checks.check(
            result.extra["quarantined"] == 0,
            f"{result.extra['quarantined']} packets quarantined",
        )
        super().check_pass(result, checks)

    def layer_metrics(self, setup_ledger, ledger, traced):
        metrics = super().layer_metrics(setup_ledger, ledger, traced)
        ingest_s = ledger.self_s("netobs.ingest")
        packets = ledger.calls("netobs.ingest")
        events = len(traced.extra["events"])
        metrics.update({
            "netobs.synthesize_s": setup_ledger.self_s("netobs.synthesize"),
            "netobs.bytes": sum(len(p[0]) for p in self.packets),
            "netobs.ingest_s": ingest_s,
            "netobs.ingest_us": ingest_s / packets * 1e6,
            "netobs.packets": packets,
            "netobs.events": events,
            "netobs.event_yield": events / packets,
            "netobs.quarantined": traced.extra["quarantined"],
        })
        return metrics


class Fleet1(ServingWorkload):
    """The same events through a one-worker shard fleet (CLI defaults)."""

    name = "fleet-1"

    def build_inputs(self, ledger):
        if len(os.sched_getaffinity(0)) < 2:
            raise Skip("fleet-1 needs 2 usable cores: coordinator + worker")
        self.model_dir = self.pipeline.export_model_dir(
            self._fresh_dir("model")
        )
        with _span(ledger, "shard.start"):
            self.coordinator = self.start_fleet()

    def start_fleet(self) -> ShardCoordinator:
        coordinator = ShardCoordinator(
            1,
            checkpoint_dir=self._fresh_dir("checkpoints"),
            model_dir=self.model_dir,
            labelled=self.world.labelled,
            tracker_filter=self.world.tracker_filter,
            checkpoint_every_batches=1,
        )
        try:
            coordinator.start()
        except BaseException:
            coordinator.terminate()
            raise
        return coordinator

    def prepare(self):
        if self.coordinator is None:
            self.coordinator = self.start_fleet()

    def run_pass(self, ledger):
        coordinator, self.coordinator = self.coordinator, None
        events = self.events
        batch = self.sizes["batch_events"]
        try:
            started = time.perf_counter()
            for seq, begin in enumerate(range(0, len(events), batch)):
                if ledger is not None:
                    ledger.tag = {"batch": seq}
                with _span(ledger, "shard.dispatch"):
                    coordinator.dispatch(events[begin:begin + batch])
                    coordinator.poll()
            if ledger is not None:
                ledger.tag = {"phase": "drain"}
            with _span(ledger, "shard.drain"):
                result = coordinator.finish()
            wall = time.perf_counter() - started
        finally:
            coordinator.terminate()
        if ledger is not None:
            ledger.tag = None
        checkpoints = coordinator.checkpoint_dir
        checkpoint_bytes = sum(
            p.stat().st_size for p in checkpoints.iterdir() if p.is_file()
        )
        shutil.rmtree(checkpoints)
        emissions = [
            Emission(
                e["client"], e["timestamp"], tuple(e["window_hosts"]),
                np.asarray(e["profile"]["categories"], dtype=np.float64),
                int(e["profile"]["support"]), None,
            )
            for e in result.emissions
        ]
        return PassResult(
            wall, len(events), wall, len(emissions), wall, emissions, [], {
                "metrics": result.metrics,
                "restarts": result.restarts,
                "checkpoint_bytes": checkpoint_bytes,
                "batches": -(-len(events) // batch),
            },
        )

    def check_pass(self, result, checks):
        if not self.digests:
            # Fleet output must equal a single-process replay of the events.
            self.expected = sorted(
                (
                    (e.timestamp, e.client, e.window_hosts, e.profile.categories)
                    for e in self.new_stream().ingest_many(self.events)
                ),
                key=lambda item: (item[0], item[1]),
            )
        got = [
            (e.tick, e.client, e.window_hosts, e.categories)
            for e in result.emissions
        ]
        checks.check(
            len(got) == len(self.expected) and all(
                a[:3] == b[:3] and np.array_equal(a[3], b[3])
                for a, b in zip(got, self.expected)
            ),
            "fleet emissions differ from single-process emissions",
        )
        checks.check(
            result.extra["restarts"] == 0,
            f"{result.extra['restarts']} worker restarts",
        )
        super().check_pass(result, checks)

    def layer_metrics(self, setup_ledger, ledger, traced):
        metrics = self.setup_layers(setup_ledger)
        snapshot = traced.extra["metrics"]
        dispatch_s = ledger.self_s("shard.dispatch")
        batch = self.sizes["batch_events"]
        wire_bytes = sum(
            len(pickle.dumps([
                event_wire(e) for e in self.events[begin:begin + batch]
            ]))
            for begin in range(0, len(self.events), batch)
        )
        profiles, profile_sum = histogram_total(
            snapshot, "profile_latency_seconds"
        )
        queries, search_s = histogram_total(snapshot, "index_search_seconds")
        _, emit_s = histogram_total(snapshot, "stream_emit_latency_seconds")
        supports = [e.support for e in traced.emissions]
        metrics.update({
            "shard.start_s": setup_ledger.self_s("shard.start"),
            "shard.dispatch_s": dispatch_s,
            "shard.drain_s": ledger.self_s("shard.drain"),
            "shard.coordinator_busy": dispatch_s / traced.wall_s,
            "shard.batches": traced.extra["batches"],
            "shard.wire_bytes": wire_bytes,
            "shard.checkpoint_bytes": traced.extra["checkpoint_bytes"],
            "shard.worker_emit_s": emit_s,
            "shard.restarts": traced.extra["restarts"],
            "stream.events": series_total(snapshot, "stream_events_total"),
            "stream.filtered": series_total(
                snapshot, "stream_events_filtered_total"
            ),
            "stream.late_dropped": series_total(
                snapshot, "stream_late_events_dropped_total"
            ),
            "stream.active_clients": series_total(
                snapshot, "stream_active_clients"
            ),
            "stream.emissions": traced.sessions,
            "profile.self_s": profile_sum - search_s,
            "profile.us_per_session": (profile_sum - search_s) / profiles * 1e6,
            "profile.sessions": profiles,
            "profile.empty_ratio": supports.count(0) / len(supports),
            "profile.support_mean": statistics.fmean(supports),
            "index.search_s": search_s,
            "index.us_per_query": search_s / queries * 1e6,
            "index.queries": queries,
        })
        return metrics

    def close(self):
        coordinator = getattr(self, "coordinator", None)
        if coordinator is not None:
            coordinator.terminate()
            self.coordinator = None


class Retrain(Workload):
    """Daily turnovers on the paper-scaled world; serving stays idle."""

    name = "retrain"
    size_key = "retrain"

    @property
    def cycle(self):
        # Days train at rates up to 30% apart: medians over passes must
        # weigh every day alike, whatever the pass count.
        return len(self.sizes["days"])

    def setup(self, ledger):
        if ledger is not None:
            ledger.tag = {"phase": "setup"}
        s = self.sizes
        days = max(s["days"]) + 1
        started = time.perf_counter()
        with _span(ledger, "traffic.generate"):
            world = build_world(s, self.seed, num_days=days)
        self.world = world
        self.trace = Trace(days=[
            day_prefix(world.trace, day, s["day_requests"])
            for day in range(days)
        ])
        # The repository's default pipeline: 25 SGNS epochs.
        self.pipeline = NetworkObserverProfiler(
            world.labelled, tracker_filter=world.tracker_filter
        )
        self.store = ArtifactStore(self._fresh_dir("store"))
        # The first fit in a process is cold; users pay it once, not daily.
        turnover(self.pipeline, self.trace, 0, self.store, ledger)
        elapsed = time.perf_counter() - started
        self.probe = probe_windows(
            self.trace, 1, world.tracker_filter, s["probe_sessions"]
        )
        self.probe_hosts = [list(w.hostnames) for w in self.probe]
        self.probe_tags = [
            {"client": str(w.user_id), "record": i}
            if is_sampled(str(w.user_id), self.one_in) else None
            for i, w in enumerate(self.probe)
        ]
        self.passes_run = 0
        if ledger is not None:
            ledger.tag = None
        return elapsed

    def run_pass(self, ledger):
        days = self.sizes["days"]
        day = days[self.passes_run % len(days)]
        self.passes_run += 1
        perf = time.perf_counter
        started = perf()
        if ledger is not None:
            ledger.tag = {"day": day}
        retrain_s, in_memory, record, stats, corpus = turnover(
            self.pipeline, self.trace, day, self.store, ledger
        )
        serving = self.pipeline.profiler
        if ledger is not None:
            wrap_profiler(ledger, serving)
        # Canary: the fresh generation profiles the fixed probe set.
        profile = serving.profile
        profiles = []
        for hosts, tag in zip(self.probe_hosts, self.probe_tags):
            if ledger is not None:
                ledger.tag = tag
            profiles.append(profile(hosts))
        ended = perf()
        if ledger is not None:
            ledger.tag = None
        mismatched = sum(
            1 for hosts, got in zip(self.probe_hosts, profiles)
            if not np.array_equal(
                got.categories, in_memory.profile(hosts).categories
            )
        )
        emissions = [
            Emission(
                str(w.user_id), w.end_time, w.hostnames,
                p.categories, p.support, None,
            )
            for w, p in zip(self.probe, profiles)
        ]
        return PassResult(
            ended - started, len(self.trace.day(day)), retrain_s,
            len(corpus), retrain_s, emissions, [], {
                "day": day,
                "mismatched": mismatched,
                "corpus": hashlib.sha256(
                    json.dumps(corpus).encode()
                ).hexdigest(),
                "stats": stats,
                "record": record,
            },
            retrain_s,
        )

    def check_pass(self, result, checks):
        day, mismatched = result.extra["day"], result.extra["mismatched"]
        checks.tally(
            len(self.probe), mismatched,
            f"day {day}: {mismatched} probe sessions profile differently "
            "after restore",
        )
        self.digests.add(f"{day}:{result.extra['corpus']}")

    def finish_checks(self, checks):
        days = [digest.split(":")[0] for digest in self.digests]
        checks.check(
            len(days) == len(set(days)),
            "a day's training corpus changed between turnovers",
        )
        keys = {
            "probe": [
                [w.user_id, w.end_time, list(w.hostnames)] for w in self.probe
            ],
            "corpus": sorted(self.digests),
        }
        return hashlib.sha256(json.dumps(keys).encode()).hexdigest()

    def layer_metrics(self, setup_ledger, ledger, traced):
        metrics = {
            "traffic.generate_s": setup_ledger.self_s("traffic.generate"),
            "traffic.requests": self.world.trace.num_requests,
        }
        metrics.update(training_layers(
            ledger, traced.extra["stats"], self.pipeline,
            traced.extra["record"],
        ))
        metrics.update(profile_layers(ledger, traced.emissions))
        return metrics


WORKLOADS = {w.name: w for w in (WireSni, SniLog, Fleet1, Retrain)}


# -- measurement ----------------------------------------------------------------


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (MiB).

    Linux keeps a child's pre-exec peak, so a spawned fleet worker counts
    at least this process's resident set at the moment it was spawned.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_facts() -> dict:
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        facts["blas"] = "unknown"
    return facts


def replay(workload: Workload, ledger: Ledger | None = None) -> PassResult:
    """One pass on fresh state, with the load generator's heap frozen."""
    workload.prepare()
    # The inputs and earlier results belong to the load generator, not to
    # the system: keep the cyclic GC from rescanning them mid-pass.
    gc.collect()
    gc.freeze()
    try:
        return workload.run_pass(ledger)
    finally:
        # Frozen objects are never freed: thaw them, or every pass's
        # discarded state (streams, fleets) would pile up in peak_rss_mb.
        gc.unfreeze()


def measure(workload: Workload, seconds: float, setups: int,
            min_passes: int, traced: bool, out_dir: Path) -> dict:
    """Set up, replay, trace, check: one workload's result record."""
    setup_s = [workload.setup(None) for _ in range(setups)]
    checks = Checks()
    passes: list[PassResult] = []
    busy_s = cpu_s = 0.0
    while (len(passes) < min_passes or busy_s < seconds
           or len(passes) % workload.cycle):
        started, cpu_started = time.perf_counter(), cpu_seconds()
        result = replay(workload)
        busy_s += time.perf_counter() - started
        cpu_s += cpu_seconds() - cpu_started
        workload.check_pass(result, checks)
        passes.append(result._replace(emissions=(), extra={}))
    rss_mb = peak_rss_mb()

    rates = [p.records / p.record_wall_s for p in passes]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "records_per_s": statistics.median(rates),
        "sessions_per_s": statistics.median(
            p.sessions / p.session_wall_s for p in passes
        ),
        "peak_rss_mb": rss_mb,
        "run.cpu_util": cpu_s / busy_s,
        "run.repeat_spread": quartile_spread(rates),
        "run.passes": len(passes),
    }
    if passes[0].retrain_s is not None:
        metrics["retrain_s"] = statistics.median(p.retrain_s for p in passes)
    if passes[0].latencies:
        def per_pass(q):
            return statistics.median(
                float(np.percentile(p.latencies, q)) * 1e3 for p in passes
            )
        metrics["emit_p50_ms"] = per_pass(50)
        metrics["emit_p90_ms"] = per_pass(90)
        metrics["stream.emit_p99_ms"] = per_pass(99)
        metrics["stream.emit_samples"] = sum(len(p.latencies) for p in passes)

    if traced:
        with Ledger() as setup_ledger:
            wrap_training(setup_ledger)
            workload.setup(setup_ledger)
        with Ledger() as ledger:
            wrap_training(ledger)
            result = replay(workload, ledger)
        metrics.update(workload.layer_metrics(setup_ledger, ledger, result))
        metrics["run.trace_overhead"] = result.wall_s / statistics.median(
            p.wall_s for p in passes
        )
        metrics["run.ledger_coverage"] = ledger.self_sum() / result.wall_s
        out_dir.mkdir(parents=True, exist_ok=True)
        Ledger.write_chrome_trace(
            out_dir / f"TRACE_pipeline_{workload.name}.json",
            f"pipeline {workload.name}", setup_ledger, ledger,
        )
        workload.check_pass(result, checks)

    digest = workload.finish_checks(checks)
    return {
        "status": "ok",
        "digest": digest,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "notes": checks.notes,
        "metrics": metrics,
        "passes": [
            {
                "wall_s": p.wall_s,
                "records_per_s": p.records / p.record_wall_s,
                "sessions_per_s": p.sessions / p.session_wall_s,
            }
            for p in passes
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "out")
    parser.add_argument("--work", type=Path, default=HERE / ".work",
                        help="scratch directory (stores, checkpoints)")
    args = parser.parse_args(argv)

    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    profile = SPEC["smoke" if args.smoke else "full"]
    workload_cls = WORKLOADS[args.workload]
    sizes = profile[workload_cls.size_key]
    work_dir = args.work / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    workload = workload_cls(
        args.seed, sizes, work_dir, profile["trace_sample_one_in"]
    )
    result = {"workload": args.workload, "seed": args.seed,
              "sizes": sizes, "host": host_facts()}
    try:
        result.update(measure(
            workload, args.seconds, profile["setup_repeats"],
            profile["min_passes"], bool(args.trace), args.out,
        ))
    except Skip as reason:
        result.update(status="skipped", reason=str(reason))
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if result["status"] == "ok":
        pinned = SPEC["digests"].get(args.workload)
        if pinned and not args.smoke and args.seed == SPEC["default_seed"]:
            result["attempted"] += 1
            if result["digest"] != pinned:
                result["failed"] += 1
                result["notes"].append(
                    f"emission digest {result['digest']} != pinned {pinned}"
                )
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
