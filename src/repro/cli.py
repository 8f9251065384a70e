"""Command-line interface: ``python -m repro <command>``.

Exposes the reproduction's main entry points without writing any code:

* ``experiment``   — run the Section-5 ad experiment, print the CTR table;
* ``diversity``    — the Figure 2/3 core/CCDF analysis;
* ``train``        — generate traffic, train embeddings, save them
                     (``.npz`` or word2vec text format);
* ``neighbours``   — query a saved embedding file for similar hostnames;
* ``synthesize``   — write a synthetic browsing capture as a pcap file,
                     optionally with injected faults (``--chaos-*``);
* ``worldgen``     — stream a seeded world out-of-core: time-ordered,
                     resumable trace batches at any population size
                     (``--population`` / ``--batch-events`` /
                     ``--cursor``), with optional sharded or single-file
                     output, an observe→profile smoke and generation
                     stats (events/s, peak RSS);
* ``observe``      — read a pcap, extract SNI hostnames per client;
* ``stream``       — run the fault-tolerant streaming runtime over a pcap
                     (lateness tolerance, quarantine, checkpoint/restore;
                     ``--train`` adds an in-process daily retrain);
* ``store``        — list / rollback / gc the model generation store;
* ``metrics-dump`` — pretty-print a saved metrics snapshot;
* ``doctor``       — assemble a one-directory debug bundle (live admin
                     scrape and/or offline store/telemetry files).

``stream`` and ``experiment`` accept ``--admin-port`` to serve the live
operations plane (every route is in the route table of the
:mod:`repro.obs.server` docstring); ``stream --train`` adds
``--drift-gate`` / ``--drift-inject`` for the generation drift monitor
(see DESIGN.md, "Live operations plane").

The ``train``, ``stream`` and ``experiment`` commands accept
``--store DIR``: trained models are published into a generation store
(embeddings + vector index + profiler config, atomically, with content
digests) and ``stream --store`` warm-restarts serving from the latest
generation without retraining or rebuilding the index.

The ``experiment``, ``train``, ``observe`` and ``stream`` commands accept
``--metrics-out PATH`` (``.json`` → snapshot, anything else → Prometheus
text) and ``--trace-out PATH`` (Chrome ``trace_event`` JSON, loadable in
chrome://tracing or https://ui.perfetto.dev).

The deep introspection plane (DESIGN.md, "Deep introspection"):
``stream`` and ``experiment`` accept ``--trace-sample-rate`` (head-
sampled request-scoped traces with histogram exemplars), ``--slo``
(burn-rate alerting served at ``/slo`` and ``/alerts``), ``--profile``
(continuous stack sampling, flamegraph + speedscope artifacts) and
``--flight-dump`` (crash-dumped flight-recorder ring); ``stream
--chaos-profile-delay`` injects a latency spike to rehearse the SLO
alert end to end.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path


def _build_world(seed: int, num_sites: int, num_users: int, days: int):
    """Every subcommand builds worlds one way: through the world facade."""
    from repro.world import make_world

    world = make_world(
        seed=seed, num_sites=num_sites, num_users=num_users, num_days=days
    )
    return world.taxonomy, world.web, world.population, world.trace


def _open_store(args: argparse.Namespace, registry, tracer):
    """Open the ``--store`` directory as an ArtifactStore, if given."""
    store_dir = getattr(args, "store", None)
    if not store_dir:
        return None
    from repro.store import ArtifactStore

    return ArtifactStore(Path(store_dir), registry=registry, tracer=tracer)


def _labelled_world(seed: int, sites: int):
    """Rebuild the labelled set H_L from the seeded synthetic world.

    Profiling against a stored model needs the same labelled hostnames
    the publisher used, so ``--seed``/``--sites`` must match the run
    that trained the generation.
    """
    from repro.world import build_labelled_set, build_web

    taxonomy, web = build_web(seed, sites)
    return build_labelled_set(web, taxonomy, seed)


def _telemetry(args: argparse.Namespace):
    """One registry + tracer per command run, bound into the log context."""
    from repro.obs import logging as obslog
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer

    registry = MetricsRegistry()
    tracer = Tracer()
    if obslog.get_run_id() is None:
        obslog.set_run_id(obslog.new_run_id())
    obslog.bind_tracer(tracer)
    return registry, tracer


class _Introspection:
    """The deep-introspection plane behind ``--trace-sample-rate`` /
    ``--slo`` / ``--profile`` / ``--flight-dump``.

    Builds only the pieces the flags asked for, attaches them to the
    admin plane, and on :meth:`finish` tears them down — writing the
    promised profile artifacts and a final flight dump.  Every field is
    None when its flag is off, so callers can pass them through
    unconditionally.
    """

    def __init__(self, args: argparse.Namespace, registry, tracer):
        from repro.obs import (
            FlightRecorder,
            HeadSampler,
            SLOEngine,
            SamplingProfiler,
        )

        rate = getattr(args, "trace_sample_rate", 0.0) or 0.0
        self.sampler = HeadSampler(rate) if rate > 0 else None
        self.flight = None
        self.flight_path = getattr(args, "flight_dump", None)
        if self.flight_path:
            self.flight = FlightRecorder(registry=registry)
            # Crash hooks make the ring survive what the run does not.
            self.flight.install_crash_hooks(self.flight_path)
        self.slo = None
        if getattr(args, "slo", False):
            from repro.obs import default_slos, fleet_slos

            slos = default_slos()
            if getattr(args, "workers", 1) > 1:
                # Sharded runs also watch the fleet: a silent or lagging
                # worker fires a straggler alert on /alerts.
                slos += fleet_slos()
            self.slo = SLOEngine(
                registry,
                slos=slos,
                fast_window_seconds=args.slo_fast_window,
                slow_window_seconds=args.slo_slow_window,
            )
            if self.flight is not None:
                self.slo.on_transition.append(self.flight.slo_observer)
            self.slo.start(interval_seconds=args.slo_interval)
        self.profiler = None
        self.profile_out = getattr(args, "profile_out", None) or "profile"
        if getattr(args, "profile", False):
            self.profiler = SamplingProfiler(
                hz=args.profile_hz, registry=registry
            ).start()

    def attach(self, admin) -> None:
        if admin is None:
            return
        admin.attach(
            slo_engine=self.slo,
            profiler=self.profiler,
            flight=self.flight,
            flight_path=self.flight_path,
        )

    def finish(self) -> None:
        """Stop background threads and write the flagged artifacts."""
        if self.slo is not None:
            # One last evaluation so the final metrics snapshot carries
            # the end-of-run burn rates and transition counters.
            self.slo.evaluate()
            self.slo.stop()
        if self.profiler is not None:
            self.profiler.stop()
            collapsed = Path(f"{self.profile_out}.collapsed")
            speedscope = Path(f"{self.profile_out}.speedscope.json")
            self.profiler.write_collapsed(collapsed)
            self.profiler.write_speedscope(speedscope)
            print(
                f"profile: {self.profiler.samples} samples -> {collapsed} "
                f"(flamegraph.pl) + {speedscope} (speedscope)"
            )
        if self.flight is not None and self.flight_path:
            self.flight.dump(self.flight_path, reason="exit")
            print(f"flight recorder dumped to {self.flight_path}")


def _write_telemetry(args, registry, tracer, flusher=None) -> None:
    """Honour ``--metrics-out`` / ``--trace-out`` if the command has them
    (a running ``flusher``'s final flush is the ``--metrics-out`` write)."""
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        path = Path(metrics_out)
        if flusher is not None:
            flusher.stop()
        else:
            from repro.obs.flush import write_metrics

            write_metrics(registry, path)
        print(f"metrics written to {path}")
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        events = tracer.write_chrome_trace(trace_out)
        print(
            f"trace written to {trace_out} ({events} spans; load in "
            "chrome://tracing or https://ui.perfetto.dev)"
        )


def _start_fleet(args, pipeline=None, admin=None, **coordinator_kwargs):
    """Start the ``--workers`` shard fleet; returns the coordinator and an
    ExitStack whose close terminates it and deletes its temporary dirs.

    A trained ``pipeline`` is exported once as a model directory every
    worker loads; without ``--shard-dir`` the per-shard checkpoints go
    to a private temporary directory.
    """
    import tempfile

    from repro.shard import ShardCoordinator

    with contextlib.ExitStack() as cleanup:
        model_dir = None
        if pipeline is not None and getattr(pipeline, "is_trained", False):
            model_tmp = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-shard-model-")
            )
            model_dir = str(pipeline.export_model_dir(model_tmp))
        shard_dir = args.shard_dir
        if shard_dir is None:
            shard_dir = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-shard-ckpt-")
            )
        coordinator = ShardCoordinator(
            args.workers,
            checkpoint_dir=shard_dir,
            model_dir=model_dir,
            salt=args.shard_salt,
            **coordinator_kwargs,
        )
        cleanup.callback(coordinator.terminate)
        if admin is not None:
            admin.attach(coordinator=coordinator)
        coordinator.start()
        return coordinator, cleanup.pop_all()


def _run_sharded_stream(
    events,
    args: argparse.Namespace,
    *,
    labelled,
    intro,
    pipeline=None,
    stream_config=None,
    registry=None,
    admin=None,
    tracer=None,
):
    """Fan event ingest across ``--workers`` shard processes.

    The parent never profiles: it starts the fleet (:func:`_start_fleet`),
    hash-partitions the events by client, and merges the per-shard
    emissions and metrics at the end.  Prints a fleet summary and
    returns the :class:`~repro.shard.FleetResult`.

    The ``intro`` plane makes the fleet live-observable: workers ship
    telemetry frames the coordinator merges (``/metrics?scope=fleet``,
    enriched ``/shards``), head-sampled traces cross the worker hop
    (``/trace/<id>``), lifecycle events land in the flight recorder, and
    the per-shard checkpoint dir also collects worker flight dumps.
    """
    batch_size = args.shard_batch_events
    if batch_size <= 0:
        raise SystemExit("--shard-batch-events must be positive")
    coordinator, fleet_scope = _start_fleet(
        args,
        pipeline=pipeline,
        admin=admin,
        labelled=labelled,
        stream_config=stream_config or {},
        registry=registry,
        tracer=tracer,
        trace_sampler=intro.sampler,
        flight=intro.flight,
    )
    chaos_delay = getattr(args, "chaos_dispatch_delay", 0.0) or 0.0
    if chaos_delay:
        print(
            f"chaos: sleeping {chaos_delay:g}s between dispatch batches "
            "(fleet probe rehearsal)"
        )
    with fleet_scope:
        for start in range(0, len(events), batch_size):
            coordinator.dispatch(events[start:start + batch_size])
            coordinator.poll()
            if chaos_delay:
                import time as _time

                _time.sleep(chaos_delay)
        result = coordinator.finish()
    per_shard = ", ".join(
        f"#{s['shard_id']}: {s['events_seen']}" for s in result.per_shard
    )
    print(
        f"shard fleet: {args.workers} workers, {result.events_seen} "
        f"events, {result.profiles_emitted} profiles emitted, "
        f"{result.restarts} restart(s) [{per_shard}]"
    )
    return result


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiment import ExperimentConfig, ExperimentRunner

    if args.scale == "small":
        config = ExperimentConfig.small(seed=args.seed)
    else:
        config = ExperimentConfig.paper_scaled(seed=args.seed)
    if args.profiling_days is not None:
        config.profiling_days = args.profiling_days
    if args.retrain_attempts is not None:
        config.retrain.max_attempts = args.retrain_attempts
    if args.retrain_backoff is not None:
        config.retrain.backoff_base_seconds = args.retrain_backoff
    print(
        f"running {args.scale} experiment "
        f"(seed {args.seed}, {config.profiling_days} profiling days)..."
    )
    registry, tracer = _telemetry(args)
    store = _open_store(args, registry, tracer)
    intro = _Introspection(args, registry, tracer)
    runner = ExperimentRunner(
        config, registry=registry, tracer=tracer, store=store,
        flight=intro.flight,
    )
    admin = _start_admin(args, registry, tracer)
    if admin is not None:
        # Thunks: the runner builds its pipeline and supervisor mid-run,
        # and the admin plane sees each the moment it exists.
        admin.attach(
            store=store,
            supervisor=lambda: runner.supervisor,
            pipeline=lambda: (
                runner._world.profiler if runner._world is not None else None
            ),
        )
    intro.attach(admin)
    result = runner.run()
    print()
    print(result.summary())
    if store is not None:
        latest = store.latest()
        if latest is not None:
            print(f"store: serving {latest.describe()}")
    intro.finish()
    _write_telemetry(args, registry, tracer)
    if admin is not None:
        admin.stop()
    return 0


def cmd_diversity(args: argparse.Namespace) -> int:
    from repro.analysis.diversity import diversity_report

    _, _, _, trace = _build_world(
        args.seed, args.sites, args.users, args.days
    )
    report = diversity_report(trace.per_user_hostnames())
    print("core sizes (hostnames visited by >= X% of users):")
    for level in report.core_levels:
        print(f"  Core {level}: {report.core_sizes[level]}")
    print(
        "75% of users visit >= "
        f"{report.overall.quantile_count(75):.0f} hostnames; "
        f"25% visit >= {report.overall.quantile_count(25):.0f}"
    )
    for level in report.core_levels:
        print(
            f"  users with nothing outside Core {level}: "
            f"{report.users_with_nothing_outside[level]:.1f}%"
        )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.core import SkipGramConfig, SkipGramModel, day_corpus

    _, _, _, trace = _build_world(
        args.seed, args.sites, args.users, args.days
    )
    corpus = []
    for day in range(args.days):
        corpus.extend(day_corpus(trace, day))
    registry, tracer = _telemetry(args)
    model = SkipGramModel(
        SkipGramConfig(epochs=args.epochs, seed=args.seed),
        registry=registry, tracer=tracer,
    )
    print(
        f"training on {sum(len(s) for s in corpus)} tokens "
        f"({args.epochs} epochs)..."
    )
    with tracer.span("train.fit", sequences=len(corpus)):
        embeddings = model.fit(corpus)
    stats = model.stats
    print(
        f"vocab {stats.vocabulary_size}, loss "
        f"{stats.mean_loss_per_epoch[0]:.2f} -> "
        f"{stats.mean_loss_per_epoch[-1]:.2f}"
    )
    output = Path(args.output)
    if output.suffix == ".txt":
        embeddings.save_word2vec_format(output)
    else:
        embeddings.save(output)
    print(f"saved {len(embeddings)} vectors to {output}")
    store = _open_store(args, registry, tracer)
    if store is not None:
        from repro.store import publish_model

        record = publish_model(
            store, embeddings,
            created_from_day=args.days - 1,
            extra={"vocabulary_size": len(embeddings),
                   "dim": embeddings.dim},
        )
        print(f"published {record.describe()}")
    _write_telemetry(args, registry, tracer)
    return 0


def _load_embeddings(path: Path):
    from repro.core import HostnameEmbeddings

    if path.suffix == ".txt":
        return HostnameEmbeddings.load_word2vec_format(path)
    return HostnameEmbeddings.load(path)


def cmd_neighbours(args: argparse.Namespace) -> int:
    embeddings = _load_embeddings(Path(args.vectors))
    if args.hostname not in embeddings:
        print(
            f"error: {args.hostname!r} not in the vocabulary "
            f"({len(embeddings)} hostnames)",
            file=sys.stderr,
        )
        return 1
    for hostname, similarity in embeddings.most_similar(
        args.hostname, args.n
    ):
        print(f"{similarity:.3f}  {hostname}")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.netobs import ChaosConfig, ChaosEngine, TrafficSynthesizer
    from repro.netobs.pcap import LINKTYPE_ETHERNET, write_pcap

    _, _, _, trace = _build_world(
        args.seed, args.sites, args.users, args.days
    )
    synthesizer = TrafficSynthesizer(seed=args.seed)
    packets = sorted(
        (
            packet
            for request in trace.all_requests()
            for packet in synthesizer.packets_for_request(request)
        ),
        key=lambda p: p.timestamp,
    )
    chaos_config = ChaosConfig(
        corrupt_fraction=args.chaos_corrupt,
        truncate_fraction=args.chaos_truncate,
        duplicate_fraction=args.chaos_duplicate,
        drop_fraction=args.chaos_drop,
        reorder_fraction=args.chaos_reorder,
        reorder_max_delay_seconds=args.chaos_reorder_delay,
        seed=args.seed,
    )
    if (
        chaos_config.corrupt_fraction or chaos_config.truncate_fraction
        or chaos_config.duplicate_fraction or chaos_config.drop_fraction
        or chaos_config.reorder_fraction
    ):
        engine = ChaosEngine(chaos_config)
        packets = engine.apply(packets)
        stats = engine.stats
        print(
            f"chaos: {stats.corrupted} corrupted, {stats.truncated} "
            f"truncated, {stats.duplicated} duplicated, {stats.dropped} "
            f"dropped, {stats.reordered} reordered"
        )
    count = write_pcap(args.output, packets, linktype=LINKTYPE_ETHERNET)
    print(f"wrote {count} packets to {args.output}")
    return 0


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return rss / 1024.0 if sys.platform != "darwin" else rss / 2**20


def cmd_worldgen(args: argparse.Namespace) -> int:
    """Stream a seeded world out-of-core; report generation stats."""
    import time

    from repro.traffic import (
        GenerationCursor,
        PopulationConfig,
        ShardedTraceWriter,
        save_trace,
    )
    from repro.world import make_lazy_world

    registry, tracer = _telemetry(args)
    population_config = PopulationConfig(num_users=args.population)
    if args.sessions_mu is not None:
        population_config.sessions_per_day_mu = args.sessions_mu
    if args.sessions_sigma is not None:
        population_config.sessions_per_day_sigma = args.sessions_sigma
    world = make_lazy_world(
        seed=args.seed,
        num_sites=args.sites,
        num_users=args.population,
        num_days=args.days,
        population_config=population_config,
        batch_events=args.batch_events,
        users_per_chunk=args.users_per_chunk,
        spill_dir=args.spill_dir,
        cache_profiles=args.cache_profiles,
        registry=registry,
        tracer=tracer,
    )
    cursor = None
    cursor_path = Path(args.cursor) if args.cursor else None
    if cursor_path is not None and cursor_path.exists():
        cursor = GenerationCursor.load(cursor_path)
        print(
            f"resuming from cursor: day {cursor.day}, "
            f"batch {cursor.batch_index} "
            f"({cursor.events_emitted} events already emitted)"
        )
    writer = None
    if args.shards:
        writer = ShardedTraceWriter(
            args.shards, events_per_shard=args.events_per_shard
        )
    observer = stream = synthesizer = coordinator = fleet_scope = None
    observed_events = profile_emissions = observe_capped = 0
    if args.observe:
        from repro.core.streaming import StreamingConfig, StreamingProfiler
        from repro.netobs import (
            CaptureConfig,
            NetworkObserver,
            ObserverConfig,
            TrafficSynthesizer,
        )

        # The default /16 client subnet caps out at 65536 users; wider
        # populations get the /8 so every user keeps a distinct address.
        subnet = "10.0" if args.population <= 65536 else "10"
        synthesizer = TrafficSynthesizer(
            seed=args.seed, config=CaptureConfig(client_subnet=subnet)
        )
        observer = NetworkObserver(
            ObserverConfig(vantage="sni"),
            registry=registry, tracer=tracer,
        )
        if args.workers > 1:
            # Synthesis and observation stay in the parent (both are
            # order-dependent); only stream ingest fans out by client.
            coordinator, fleet_scope = _start_fleet(args, registry=registry)
        else:
            stream = StreamingProfiler(
                StreamingConfig(), registry=registry, tracer=tracer
            )
    started = time.perf_counter()
    batches = 0
    events = 0

    def pump():
        nonlocal batches, events, observed_events, observe_capped
        nonlocal profile_emissions
        for batch in world.batches(cursor=cursor):
            with tracer.span(
                "worldgen.batch",
                day=batch.day, index=batch.index, events=len(batch),
            ):
                batches += 1
                events += len(batch)
                if writer is not None:
                    writer.write(batch)
                if observer is not None:
                    batch_events = []
                    for request in batch.requests:
                        if observed_events >= args.observe_max_events:
                            observe_capped += 1
                            continue
                        observed_events += 1
                        for packet in synthesizer.packets_for_request(
                            request
                        ):
                            event = observer.ingest(packet)
                            if event is None:
                                continue
                            if coordinator is not None:
                                batch_events.append(event)
                            elif stream.ingest(event) is not None:
                                profile_emissions += 1
                    if coordinator is not None and batch_events:
                        coordinator.dispatch(batch_events)
                        coordinator.poll()
                if cursor_path is not None:
                    batch.resume_cursor.save(cursor_path)
            yield batch
            if args.max_batches and batches >= args.max_batches:
                break

    if args.out:
        count = save_trace(pump(), args.out)
        print(f"wrote {count} requests to {args.out}")
    else:
        for _ in pump():
            pass
    fleet = None
    if coordinator is not None:
        with fleet_scope:
            fleet = coordinator.finish()
        profile_emissions = fleet.profiles_emitted
    if writer is not None:
        manifest = writer.close()
        print(
            f"wrote {manifest['num_requests']} requests to "
            f"{len(manifest['shards'])} shard(s) in {args.shards}"
        )
    elapsed = time.perf_counter() - started
    generator = world.generator
    rate = events / elapsed if elapsed > 0 else 0.0
    peak_rss = _peak_rss_mb()
    print(
        f"worldgen: {args.population} users, {args.days} day(s), "
        f"{events} events in {batches} batches"
    )
    print(
        f"  {elapsed:.2f}s, {rate:,.0f} events/s, "
        f"peak RSS {peak_rss:.1f} MiB, "
        f"{generator.spill_shards} spill shard(s)"
    )
    print(
        f"  profile cache: {world.population.cache_misses} realized, "
        f"{world.population.cache_hits} hits"
    )
    if observer is not None:
        stats = observer.flow_table.stats
        if observe_capped:
            print(
                f"  observe: capped at {args.observe_max_events} events "
                f"({observe_capped} not synthesized)"
            )
        clients = (
            sum(s["active_clients"] for s in fleet.per_shard)
            if fleet is not None else stream.active_clients
        )
        print(
            f"  observe: {observed_events} requests -> "
            f"{stats.packets_seen} packets, {stats.events_emitted} "
            f"hostname events, {clients} clients, "
            f"{profile_emissions} profiles emitted"
        )
        if fleet is not None:
            per_shard = ", ".join(
                f"#{s['shard_id']}: {s['events_seen']}"
                for s in fleet.per_shard
            )
            print(
                f"  shard fleet: {args.workers} workers, "
                f"{fleet.events_seen} events, "
                f"{fleet.restarts} restart(s) [{per_shard}]"
            )
    if cursor_path is not None:
        print(f"cursor checkpointed to {cursor_path}")
    if args.bench_out:
        from repro.obs.metrics import MetricsRegistry

        bench = MetricsRegistry()

        def emit(name, help_text, value):
            bench.gauge(name, help_text).set(value)

        emit("bench_worldgen_users", "Population size.", args.population)
        emit("bench_worldgen_days", "Days generated.", args.days)
        emit("bench_worldgen_events", "Requests generated.", events)
        emit("bench_worldgen_batches", "Batches emitted.", batches)
        emit(
            "bench_worldgen_events_per_second",
            "Streamed generation throughput.", rate,
        )
        emit(
            "bench_worldgen_peak_rss_mb",
            "Peak resident set size, MiB.", peak_rss,
        )
        emit(
            "bench_worldgen_spill_shards",
            "External-merge shards spilled.", generator.spill_shards,
        )
        if fleet is not None:
            emit(
                "bench_worldgen_shard_workers",
                "Shard worker processes fed by --observe.", args.workers,
            )
            emit(
                "bench_worldgen_shard_profiles",
                "Profiles emitted by the shard fleet.",
                fleet.profiles_emitted,
            )
            emit(
                "bench_worldgen_shard_restarts",
                "Shard workers respawned from checkpoint.",
                fleet.restarts,
            )
        out_path = Path(args.bench_out)
        if out_path.parent != Path("."):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(bench.to_json(indent=2) + "\n")
        print(f"bench metrics written to {out_path}")
    _write_telemetry(args, registry, tracer)
    if args.rss_limit_mb is not None and peak_rss > args.rss_limit_mb:
        print(
            f"error: peak RSS {peak_rss:.1f} MiB exceeds the "
            f"--rss-limit-mb ceiling of {args.rss_limit_mb:g} MiB",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_observe(args: argparse.Namespace) -> int:
    from repro.netobs import NetworkObserver, ObserverConfig
    from repro.netobs.pcap import read_pcap

    registry, tracer = _telemetry(args)
    observer = NetworkObserver(
        ObserverConfig(vantage=args.vantage, max_flows=args.max_flows),
        registry=registry,
        tracer=tracer,
        trace_sampler=_Introspection(args, registry, tracer).sampler,
    )
    with tracer.span("observe.pcap", pcap=str(args.pcap)):
        for packet in read_pcap(args.pcap):
            observer.ingest(packet)
    stats = observer.flow_table.stats
    print(
        f"{stats.packets_seen} packets, {stats.flows_tracked} flows, "
        f"{stats.events_emitted} hostname events, "
        f"{stats.parse_failures} parse failures"
    )
    if observer.quarantine.total:
        print(observer.quarantine.summary())
    for client in observer.clients:
        events = observer.events_for(client)
        hostnames = [e.hostname for e in events[: args.max_hosts]]
        print(f"{client} ({len(events)} events): {', '.join(hostnames)}")
    _write_telemetry(args, registry, tracer)
    return 0


class _SequenceTrainer:
    """Adapter giving :class:`RetrainSupervisor` a pipeline that trains on
    pre-collected hostname sequences instead of a trace day."""

    def __init__(self, pipeline, sequences: list[list[str]]):
        self._pipeline = pipeline
        self.sequences = sequences

    def train_on_day(self, trace, day: int):
        return self._pipeline.train_on_sequences(self.sequences)

    @property
    def profiler(self):
        return self._pipeline.profiler

    def publish_generation(self, store, day=None, drift_report=None):
        return self._pipeline.publish_generation(
            store, day=day, drift_report=drift_report
        )

    def reinstate(self, profiler):
        self._pipeline.reinstate(profiler)


def _shuffled_sequences(
    sequences: list[list[str]], seed: int
) -> list[list[str]]:
    """Seeded hostname permutation over training sequences.

    The drift-injection primitive: the vocabulary is unchanged (zero
    churn) but every hostname is relabelled to a random other one, so
    co-occurrence — and with it the embedding neighbourhoods and the
    category distributions — is scrambled.  A drift gate that misses
    this would miss anything.
    """
    from repro.utils.randomness import derive_rng

    hosts = sorted({host for sequence in sequences for host in sequence})
    permuted = list(hosts)
    derive_rng(seed, "drift-inject").shuffle(permuted)
    mapping = dict(zip(hosts, permuted))
    return [[mapping[host] for host in sequence] for sequence in sequences]


def _drift_monitor(args, registry, tracer):
    """Build the stream's DriftMonitor when drift options ask for one."""
    if not (getattr(args, "drift_gate", False)
            or getattr(args, "drift_inject", None)):
        return None
    from repro.obs.drift import DriftConfig, DriftMonitor

    config = DriftConfig(seed=args.seed, gate=args.drift_gate)
    return DriftMonitor(config, registry=registry, tracer=tracer)


def _start_admin(args, registry, tracer):
    """Start the admin HTTP server when ``--admin-port`` is given."""
    if getattr(args, "admin_port", None) is None:
        return None
    from repro.obs import logging as obslog
    from repro.obs.server import AdminServer

    admin = AdminServer(
        registry,
        host=args.admin_host,
        port=args.admin_port,
        tracer=tracer,
        run_id=obslog.get_run_id(),
    ).start()
    print(f"admin server listening on {admin.url()}")
    return admin


def _train_stream_model(
    args, events, stream, registry, tracer,
    store=None, admin=None, flight=None,
) -> list:
    """The ``stream --train`` path: train on the first ``--train-split``
    of observed events (through the retrain supervisor, so a failed train
    degrades instead of crashing) and return the events left to stream.

    The labelled set H_L is rebuilt from the same seeded synthetic world
    the capture was synthesized from, so ``--seed``/``--sites`` must match
    the ``synthesize`` invocation that produced the pcap.  With ``store``
    attached the trained model is also published as a generation a later
    ``stream --store`` run can warm-restart from.

    ``--drift-gate`` attaches a :class:`~repro.obs.drift.DriftMonitor` to
    the supervisor; ``--drift-inject label-shuffle`` then runs a *second*
    retrain on hostname-permuted sequences — a seeded catastrophic-drift
    rehearsal that must trip the gate and roll serving back to the first
    generation (the CI ``ops`` job asserts exactly that).
    """
    from repro.core.pipeline import NetworkObserverProfiler, PipelineConfig
    from repro.core.skipgram import SkipGramConfig
    from repro.core.supervisor import RetrainSupervisor

    labelled = _labelled_world(args.seed, args.sites)
    split = max(1, int(len(events) * args.train_split))
    per_client: dict[str, list[str]] = {}
    for event in events[:split]:
        per_client.setdefault(event.client_ip, []).append(event.hostname)
    sequences = [seq for seq in per_client.values() if len(seq) >= 2]
    if not sequences:
        print("not enough observed events to train; streaming bare")
        return events
    pipeline = NetworkObserverProfiler(
        labelled,
        config=PipelineConfig(
            skipgram=SkipGramConfig(
                epochs=args.train_epochs, seed=args.seed
            ),
        ),
        registry=registry,
        tracer=tracer,
    )
    trainer = _SequenceTrainer(pipeline, sequences)
    supervisor = RetrainSupervisor(
        trainer, stream=stream,
        registry=registry, tracer=tracer, store=store,
        drift_monitor=_drift_monitor(args, registry, tracer),
        flight=flight,
    )
    if admin is not None:
        admin.attach(supervisor=supervisor, pipeline=pipeline)
    outcome = supervisor.retrain(None, 0)
    if outcome.succeeded:
        published = (
            f"; published generation {outcome.generation}"
            if outcome.generation else ""
        )
        print(
            f"trained on {len(sequences)} client sequences "
            f"({split} events); model swapped into the stream{published}"
        )
    else:
        print(
            f"training failed after {outcome.attempts} attempts "
            f"({outcome.error}); streaming without a model",
            file=sys.stderr,
        )
    if getattr(args, "drift_inject", None) and outcome.succeeded:
        trainer.sequences = _shuffled_sequences(sequences, args.seed)
        injected = supervisor.retrain(None, 1)
        report = supervisor.last_drift_report
        if report is not None:
            print(f"drift injection: {report.summary()}")
        if injected.succeeded:
            print(
                "drift injection was NOT rejected; serving generation "
                f"{injected.generation}",
                file=sys.stderr,
            )
        else:
            serving = store.latest_id() if store is not None else None
            print(
                "drift gate rejected injected retrain; "
                f"rolled back to {serving or 'in-memory model'}"
            )
    return events[split:]


def cmd_stream(args: argparse.Namespace) -> int:
    """Run the fault-tolerant streaming runtime over a capture file."""
    from repro.core.streaming import StreamingConfig, StreamingProfiler
    from repro.netobs import NetworkObserver, ObserverConfig
    from repro.netobs.pcap import read_pcap

    if args.workers > 1 and args.train:
        print(
            "error: --workers does not combine with --train; train "
            "into a --store first, then stream sharded from it",
            file=sys.stderr,
        )
        return 2
    registry, tracer = _telemetry(args)
    store = _open_store(args, registry, tracer)
    intro = _Introspection(args, registry, tracer)
    # The admin plane comes up before any pcap work so liveness probes
    # answer from the first moment of a (possibly long) run.
    admin = _start_admin(args, registry, tracer)
    if admin is not None and store is not None:
        admin.attach(store=store)
    intro.attach(admin)
    flusher = None
    if args.metrics_flush_interval is not None:
        if not args.metrics_out:
            print(
                "error: --metrics-flush-interval requires --metrics-out",
                file=sys.stderr,
            )
            return 2
        from repro.obs.flush import MetricsFlusher

        flusher = MetricsFlusher(
            registry, args.metrics_out, args.metrics_flush_interval
        ).start()
    # A populated --store can re-arm the serving model without retraining:
    # rebuild the labelled world and load store.latest() into a pipeline.
    pipeline = None
    if store is not None and not args.train and store.latest() is not None:
        from repro.core.pipeline import NetworkObserverProfiler

        pipeline = NetworkObserverProfiler(
            _labelled_world(args.seed, args.sites),
            registry=registry,
            tracer=tracer,
        )
    checkpoint = Path(args.checkpoint) if args.checkpoint else None
    if checkpoint is not None and checkpoint.exists():
        stream = StreamingProfiler.restore(
            checkpoint, registry=registry, tracer=tracer,
            store=store if pipeline is not None else None,
            pipeline=pipeline,
        )
        stream.trace_sampler = intro.sampler
        stream.flight = intro.flight
        stream.config.max_lateness_seconds = args.max_lateness_seconds
        print(
            f"restored {stream.active_clients} client sessions "
            f"from {checkpoint}"
        )
        if pipeline is not None and stream.has_model:
            print(f"warm restart: serving {store.latest().describe()}")
    else:
        stream = StreamingProfiler(
            StreamingConfig(max_lateness_seconds=args.max_lateness_seconds),
            registry=registry, tracer=tracer,
            trace_sampler=intro.sampler, flight=intro.flight,
        )
        if pipeline is not None:
            record = pipeline.load_generation(store)
            stream.swap_model(
                pipeline.profiler, generation=record.generation_id
            )
            print(f"serving stored {record.describe()}")
    if admin is not None:
        admin.attach(
            stream=stream, pipeline=pipeline,
            checkpoint_path=checkpoint,
        )
    if args.chaos_profile_delay:
        stream.set_chaos_profile_delay(args.chaos_profile_delay)
        print(
            f"chaos: delaying every profile by "
            f"{args.chaos_profile_delay:g}s (SLO alert rehearsal)"
        )
    observer = NetworkObserver(
        ObserverConfig(
            vantage=args.vantage,
            max_flows=args.max_flows,
            quarantine_capacity=args.quarantine_capacity,
        ),
        registry=registry,
        tracer=tracer,
        trace_sampler=intro.sampler,
    )
    observer.quarantine.flight = intro.flight
    with tracer.span("stream.observe", pcap=str(args.pcap)):
        events = []
        for packet in read_pcap(args.pcap):
            event = observer.ingest(packet)
            if event is not None:
                events.append(event)
    if args.train:
        events = _train_stream_model(
            args, events, stream, registry, tracer,
            store=store, admin=admin, flight=intro.flight,
        )
    emissions = 0
    fleet = None
    if args.workers > 1:
        with tracer.span(
            "stream.shard", events=len(events), workers=args.workers
        ):
            fleet = _run_sharded_stream(
                events, args,
                labelled=_labelled_world(args.seed, args.sites),
                pipeline=pipeline,
                stream_config={
                    "max_lateness_seconds": args.max_lateness_seconds,
                },
                registry=registry, admin=admin,
                tracer=tracer, intro=intro,
            )
        emissions = fleet.profiles_emitted
    else:
        with tracer.span("stream.ingest", events=len(events)):
            for event in events:
                if stream.ingest(event) is not None:
                    emissions += 1
    stats = observer.flow_table.stats
    print(
        f"{stats.packets_seen} packets, {stats.events_emitted} events, "
        f"{stats.parse_failures} parse failures"
    )
    print(observer.quarantine.summary())
    if fleet is None:
        print(
            f"stream: {stream.events_seen} events, "
            f"{stream.active_clients} clients, "
            f"{stream.late_events_reordered} late reordered, "
            f"{stream.late_events_dropped} late dropped, "
            f"{emissions} profiles emitted "
            f"(model loaded: {stream.has_model})"
        )
    else:
        clients = sum(s["active_clients"] for s in fleet.per_shard)
        print(
            f"stream: {fleet.events_seen} events, {clients} clients, "
            f"{emissions} profiles emitted across {args.workers} shards"
        )
    if checkpoint is not None and fleet is None:
        stream.checkpoint(checkpoint)
        print(f"checkpointed {stream.active_clients} sessions to {checkpoint}")
    elif checkpoint is not None:
        print(
            "note: --checkpoint is per-shard under --workers; see "
            "--shard-dir for the per-shard checkpoint files"
        )
    if args.linger > 0:
        # Keep the admin plane (and the flusher) alive so operators and
        # CI can probe a finished-but-resident run.
        import time as _time

        print(f"lingering {args.linger:g}s (admin plane stays up)...")
        _time.sleep(args.linger)
    intro.finish()
    _write_telemetry(args, registry, tracer, flusher=flusher)
    if admin is not None:
        admin.stop()
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect and operate a model generation store."""
    from repro.store import ArtifactStore, StoreError

    store = ArtifactStore(Path(args.dir))
    if args.action == "list":
        records = store.list_generations()
        if not records:
            print("store is empty")
            return 0
        latest = store.latest_id()
        for record in records:
            marker = "*" if record.generation_id == latest else " "
            print(f"{marker} {record.describe()}")
        return 0
    if args.action == "rollback":
        try:
            record = store.rollback()
        except StoreError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"rolled back; now serving {record.describe()}")
        return 0
    # gc
    removed = store.gc(keep_n=args.keep, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    if removed:
        print(f"{verb} {len(removed)} generation(s): {', '.join(removed)}")
    else:
        print("nothing to remove")
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """Assemble a debug bundle from whatever sources are reachable."""
    from repro.obs.doctor import collect_bundle

    store = None
    if args.store:
        from repro.store import ArtifactStore

        store = ArtifactStore(Path(args.store))
    manifest = collect_bundle(
        args.out,
        admin_url=args.admin_url,
        store=store,
        metrics_path=args.metrics,
        trace_path=args.trace,
        flight_path=args.flight,
        config=vars(args),
        timeout=args.timeout,
        profile_seconds=args.profile_seconds,
        shard_dir=args.shard_dir,
    )
    collected = manifest["collected"]
    errors = manifest["errors"]
    print(f"doctor bundle written to {args.out}:")
    for filename in sorted(collected):
        print(f"  {filename}  <- {collected[filename]}")
    for source in sorted(errors):
        print(f"  ! {source}: {errors[source]}", file=sys.stderr)
    # config.json is synthesised from the doctor's own arguments, so it
    # doesn't count as evidence that anything was actually reachable.
    if not (set(collected) - {"config.json"}):
        print("  (nothing reachable; see bundle.json)", file=sys.stderr)
        return 1
    return 0


def cmd_metrics_dump(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot saved with ``--metrics-out *.json``."""
    import json

    from repro.obs.metrics import MetricsRegistry

    snapshot = json.loads(Path(args.snapshot).read_text())
    flat = MetricsRegistry.flatten(snapshot)
    if args.grep:
        flat = {k: v for k, v in flat.items() if args.grep in k}
    if not flat:
        print("no matching samples", file=sys.stderr)
        return 1
    width = max(len(name) for name in flat)
    for name in sorted(flat):
        print(f"{name:<{width}}  {flat[name]:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'User Profiling by Network Observers' "
            "(CoNEXT '21)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--sites", type=int, default=500)
        p.add_argument("--users", type=int, default=60)
        p.add_argument("--days", type=int, default=2)

    def add_store_args(p):
        p.add_argument(
            "--store", default=None, metavar="DIR",
            help="model generation store directory: trained models are "
            "published as rollback-able generations; serving restores "
            "from the latest one (see DESIGN.md, 'Persistence')",
        )

    def add_telemetry_args(p):
        p.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="write the metrics registry here on exit "
            "(.json = snapshot, anything else = Prometheus text)",
        )
        p.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help="write spans as Chrome trace_event JSON "
            "(chrome://tracing / Perfetto)",
        )

    def add_introspection_args(p):
        p.add_argument(
            "--trace-sample-rate", type=float, default=0.0, metavar="RATE",
            help="head-sample this fraction of clients into request-"
            "scoped traces (deterministic per client id); latency "
            "histograms keep a sampled trace id per bucket, exported as "
            "OpenMetrics exemplars at /metrics?format=openmetrics",
        )
        p.add_argument(
            "--slo", action="store_true",
            help="evaluate the stock SLOs (profile p99 latency, "
            "quarantine ratio, recall floor) with multi-window burn-rate "
            "alerting, served at /slo and /alerts",
        )
        p.add_argument(
            "--slo-fast-window", type=float, default=300.0,
            metavar="SECONDS",
            help="fast burn window (default 300; CI shrinks this so "
            "alerts fire and clear within a job)",
        )
        p.add_argument(
            "--slo-slow-window", type=float, default=3600.0,
            metavar="SECONDS",
            help="slow burn window confirming real budget loss "
            "(default 3600)",
        )
        p.add_argument(
            "--slo-interval", type=float, default=5.0, metavar="SECONDS",
            help="background evaluation cadence (default 5)",
        )
        p.add_argument(
            "--profile", action="store_true",
            help="run the ~100 Hz sampling profiler for the whole "
            "command and write BASE.collapsed (flamegraph.pl) and "
            "BASE.speedscope.json on exit",
        )
        p.add_argument(
            "--profile-hz", type=float, default=100.0, metavar="HZ",
            help="sampling frequency for --profile (default 100)",
        )
        p.add_argument(
            "--profile-out", default="profile", metavar="BASE",
            help="artifact basename for --profile (default ./profile)",
        )
        p.add_argument(
            "--flight-dump", default=None, metavar="PATH",
            help="keep a flight-recorder ring of recent structured "
            "events; dumped here on crash, SIGTERM and exit (also "
            "served live at /flight)",
        )

    def add_shard_args(p):
        p.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="fan stream ingest across N shard worker processes, "
            "hash-partitioned by client ip; merged output is identical "
            "to a single-process run (DESIGN.md 'Sharded runtime')",
        )
        p.add_argument(
            "--shard-dir", default=None, metavar="DIR",
            help="directory for per-shard checkpoints (default: a "
            "private temporary directory); a killed worker restarts "
            "from its shard's file here, losing only its own window",
        )
        p.add_argument(
            "--shard-salt", default="", metavar="SALT",
            help="salt mixed into the shard hash (re-sharding knob; "
            "output is identical for any salt)",
        )
        p.add_argument(
            "--shard-batch-events", type=int, default=4096,
            metavar="N",
            help="events per dispatched shard batch (default 4096); "
            "smaller batches mean finer-grained acks and a longer "
            "mid-run window for live fleet probes",
        )

    def add_admin_args(p):
        p.add_argument(
            "--admin-port", type=int, default=None, metavar="PORT",
            help="serve the admin plane on this loopback port (routes: "
            "the table in the repro.obs.server docstring; 0 = ephemeral)",
        )
        p.add_argument(
            "--admin-host", default="127.0.0.1", metavar="HOST",
            help="admin bind address (default 127.0.0.1)",
        )

    p = sub.add_parser(
        "experiment", help="run the Section-5 ad experiment"
    )
    p.add_argument(
        "--scale", choices=("small", "paper"), default="small"
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--profiling-days", type=int, default=None)
    p.add_argument(
        "--retrain-attempts", type=int, default=None,
        help="max attempts per daily retrain (default from config)",
    )
    p.add_argument(
        "--retrain-backoff", type=float, default=None,
        help="base backoff seconds between retrain retries",
    )
    add_store_args(p)
    add_telemetry_args(p)
    add_admin_args(p)
    add_introspection_args(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("diversity", help="Figure 2 core/CCDF analysis")
    add_world_args(p)
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("train", help="train hostname embeddings")
    add_world_args(p)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument(
        "--output", default="embeddings.npz",
        help=".npz archive or .txt (word2vec text format)",
    )
    add_store_args(p)
    add_telemetry_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "neighbours", help="query similar hostnames from saved vectors"
    )
    p.add_argument("vectors", help="embeddings file (.npz or .txt)")
    p.add_argument("hostname")
    p.add_argument("-n", type=int, default=10)
    p.set_defaults(func=cmd_neighbours)

    p = sub.add_parser(
        "synthesize", help="write a synthetic browsing capture as pcap"
    )
    add_world_args(p)
    p.add_argument("--output", default="capture.pcap")
    p.add_argument(
        "--chaos-corrupt", type=float, default=0.0,
        help="fraction of parseable packets to corrupt",
    )
    p.add_argument(
        "--chaos-truncate", type=float, default=0.0,
        help="fraction of parseable packets to truncate",
    )
    p.add_argument("--chaos-duplicate", type=float, default=0.0)
    p.add_argument("--chaos-drop", type=float, default=0.0)
    p.add_argument("--chaos-reorder", type=float, default=0.0)
    p.add_argument(
        "--chaos-reorder-delay", type=float, default=1.0,
        help="max arrival delay (seconds) for reordered packets",
    )
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser(
        "worldgen",
        help="stream a seeded world out-of-core (resumable batches)",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sites", type=int, default=500)
    p.add_argument(
        "--population", type=int, default=100_000, metavar="N",
        help="number of users; profiles are derived from seed + user id "
        "on demand, never materialized as a list (default 100000)",
    )
    p.add_argument("--days", type=int, default=1)
    p.add_argument(
        "--batch-events", type=int, default=8192, metavar="N",
        help="max requests per emitted batch — the stream's working-set "
        "bound (default 8192)",
    )
    p.add_argument(
        "--users-per-chunk", type=int, default=25_000, metavar="N",
        help="users generated per external-merge chunk; smaller = less "
        "memory, more spill shards (default 25000)",
    )
    p.add_argument(
        "--cache-profiles", type=int, default=4096, metavar="N",
        help="LRU size of realized user profiles (default 4096)",
    )
    p.add_argument(
        "--sessions-mu", type=float, default=None, metavar="MU",
        help="lognormal mu of sessions/day; strongly negative values "
        "give the sparse activity used by million-user smokes",
    )
    p.add_argument(
        "--sessions-sigma", type=float, default=None, metavar="SIGMA",
        help="lognormal sigma of sessions/day",
    )
    p.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="directory for external-merge spill shards "
        "(default: a private temporary directory)",
    )
    p.add_argument(
        "--cursor", default=None, metavar="PATH",
        help="resume cursor checkpoint: loaded if it exists, rewritten "
        "after every batch — kill and rerun to continue exactly-once",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the stream to a single trace file (constant memory)",
    )
    p.add_argument(
        "--shards", default=None, metavar="DIR",
        help="write the stream as sharded JSONL + MANIFEST.json",
    )
    p.add_argument(
        "--events-per-shard", type=int, default=250_000, metavar="N",
        help="rotation threshold for --shards (default 250000)",
    )
    p.add_argument(
        "--max-batches", type=int, default=None, metavar="N",
        help="stop after N batches (the cursor stays valid for resume)",
    )
    p.add_argument(
        "--observe", action="store_true",
        help="smoke the full path per batch: synthesize packets, "
        "observe at an SNI vantage, feed the streaming profiler",
    )
    p.add_argument(
        "--observe-max-events", type=int, default=250_000, metavar="N",
        help="cap on requests run through --observe; the cap is "
        "reported, never silent (default 250000)",
    )
    p.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="write a BENCH_worldgen-style metrics snapshot (events/s, "
        "peak RSS) as JSON",
    )
    p.add_argument(
        "--rss-limit-mb", type=float, default=None, metavar="MB",
        help="exit non-zero if peak RSS exceeds this ceiling",
    )
    add_shard_args(p)
    add_telemetry_args(p)
    p.set_defaults(func=cmd_worldgen)

    p = sub.add_parser(
        "observe", help="extract per-client hostnames from a pcap"
    )
    p.add_argument("pcap")
    p.add_argument(
        "--vantage", choices=("sni", "dns", "all", "ip"), default="sni"
    )
    p.add_argument("--max-hosts", type=int, default=8)
    p.add_argument("--max-flows", type=int, default=1_000_000)
    p.add_argument(
        "--trace-sample-rate", type=float, default=0.0, metavar="RATE",
        help="head-sample this fraction of clients into request-scoped "
        "traces (see the stream command)",
    )
    add_telemetry_args(p)
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser(
        "stream",
        help="run the fault-tolerant streaming runtime over a pcap",
    )
    p.add_argument("pcap")
    p.add_argument(
        "--vantage", choices=("sni", "dns", "all", "ip"), default="sni"
    )
    p.add_argument(
        "--max-lateness-seconds", type=float, default=0.0,
        help="tolerate out-of-order events this far behind (0 = drop)",
    )
    p.add_argument(
        "--checkpoint", default=None,
        help="session state file: restored if present, written on exit",
    )
    p.add_argument("--quarantine-capacity", type=int, default=256)
    p.add_argument("--max-flows", type=int, default=1_000_000)
    p.add_argument(
        "--train", action="store_true",
        help="train a model on the first --train-split of observed "
        "events (supervised retrain), then stream the rest through it",
    )
    p.add_argument(
        "--train-split", type=float, default=0.5,
        help="fraction of observed events used for training",
    )
    p.add_argument("--train-epochs", type=int, default=3)
    p.add_argument(
        "--seed", type=int, default=42,
        help="world seed for rebuilding the labelled set (--train; "
        "must match the synthesize seed)",
    )
    p.add_argument(
        "--sites", type=int, default=500,
        help="world size for rebuilding the labelled set (--train)",
    )
    p.add_argument(
        "--drift-gate", action="store_true",
        help="veto a --train retrain whose drift check breaches a "
        "gate threshold (rollback + retract, see DESIGN.md)",
    )
    p.add_argument(
        "--drift-inject", choices=("label-shuffle",), default=None,
        help="after the normal retrain, run a second retrain on "
        "hostname-permuted sequences — a seeded drift rehearsal that "
        "must trip the gate",
    )
    p.add_argument(
        "--metrics-flush-interval", type=float, default=None,
        metavar="SECONDS",
        help="rewrite --metrics-out atomically on this cadence so a "
        "killed run still leaves a recent snapshot (default off)",
    )
    p.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the process (and admin plane) alive this long after "
        "the capture is fully processed",
    )
    p.add_argument(
        "--chaos-profile-delay", type=float, default=0.0, metavar="SECONDS",
        help="inject this sleep into every session profile (latency-"
        "spike rehearsal: with --slo the burn-rate alert must fire at "
        "/alerts and clear once the spike ends; CI asserts exactly that)",
    )
    p.add_argument(
        "--chaos-dispatch-delay", type=float, default=0.0,
        metavar="SECONDS",
        help="sleep this long between shard dispatch batches (stretches "
        "a --workers run so live fleet probes and straggler injection "
        "have a mid-run window to hit; CI uses this)",
    )
    add_store_args(p)
    add_shard_args(p)
    add_telemetry_args(p)
    add_admin_args(p)
    add_introspection_args(p)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser(
        "store",
        help="inspect and operate a model generation store",
    )
    p.add_argument(
        "action", choices=("list", "rollback", "gc"),
        help="list generations, repoint LATEST at the previous one, "
        "or delete all but the newest --keep",
    )
    p.add_argument("dir", help="store directory (as passed to --store)")
    p.add_argument(
        "--keep", type=int, default=3, metavar="N",
        help="generations to keep during gc (default 3; the serving "
        "generation is always kept)",
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="gc only: report what would be removed without deleting",
    )
    p.set_defaults(func=cmd_store)

    p = sub.add_parser(
        "doctor",
        help="assemble a debug bundle (metrics, drift, generations, "
        "config) into one directory",
    )
    p.add_argument(
        "--out", default="doctor-bundle", metavar="DIR",
        help="bundle output directory (default ./doctor-bundle)",
    )
    p.add_argument(
        "--admin-url", default=None, metavar="URL",
        help="scrape a live admin plane (e.g. http://127.0.0.1:8321)",
    )
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="read generation manifests and drift reports offline",
    )
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="copy a metrics file a run already wrote",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="copy a Chrome trace a run already wrote",
    )
    p.add_argument(
        "--flight", default=None, metavar="PATH",
        help="copy a flight-recorder dump a run already wrote "
        "(a live /flight scrape wins over this)",
    )
    p.add_argument(
        "--shard-dir", default=None, metavar="DIR",
        help="copy per-shard checkpoints and worker flight dumps from a "
        "coordinator checkpoint directory into the bundle's shards/",
    )
    p.add_argument(
        "--timeout", type=float, default=5.0,
        help="per-route HTTP timeout in seconds (default 5)",
    )
    p.add_argument(
        "--profile-seconds", type=float, default=5.0, metavar="SECONDS",
        help="length of the on-demand CPU profile burst requested from "
        "a live admin plane (0 disables; default 5)",
    )
    p.set_defaults(func=cmd_doctor)

    p = sub.add_parser(
        "metrics-dump",
        help="pretty-print a metrics snapshot saved with --metrics-out",
    )
    p.add_argument("snapshot", help="JSON snapshot file")
    p.add_argument(
        "--grep", default=None, help="only show samples containing this"
    )
    p.set_defaults(func=cmd_metrics_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
