"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--scale", "small"],
            ["diversity", "--users", "10"],
            ["train", "--output", "x.npz"],
            ["neighbours", "v.npz", "a.com"],
            ["synthesize", "--output", "c.pcap"],
            ["synthesize", "--chaos-corrupt", "0.1", "--chaos-drop", "0.05"],
            ["observe", "c.pcap", "--vantage", "dns"],
            ["worldgen", "--population", "1000", "--batch-events", "256"],
            ["worldgen", "--cursor", "c.json", "--out", "t.jsonl.gz",
             "--shards", "shards", "--observe",
             "--observe-max-events", "100", "--bench-out", "b.json",
             "--rss-limit-mb", "500", "--sessions-mu", "-4"],
            ["worldgen", "--spill-dir", "spill",
             "--users-per-chunk", "100", "--max-batches", "3",
             "--metrics-out", "m.json"],
            ["stream", "c.pcap", "--max-lateness-seconds", "30"],
            ["stream", "c.pcap", "--train", "--train-split", "0.6",
             "--train-epochs", "2", "--seed", "3", "--sites", "80"],
            ["stream", "c.pcap", "--metrics-out", "m.prom",
             "--trace-out", "t.json"],
            ["experiment", "--retrain-attempts", "4",
             "--retrain-backoff", "30"],
            ["experiment", "--metrics-out", "m.json"],
            ["train", "--metrics-out", "m.json", "--trace-out", "t.json"],
            ["observe", "c.pcap", "--metrics-out", "m.prom"],
            ["metrics-dump", "m.json", "--grep", "stream_"],
            ["train", "--store", "models"],
            ["stream", "c.pcap", "--store", "models"],
            ["experiment", "--store", "models"],
            ["store", "list", "models"],
            ["store", "rollback", "models"],
            ["store", "gc", "models", "--keep", "2"],
            ["store", "gc", "models", "--keep", "2", "--dry-run"],
            ["stream", "c.pcap", "--admin-port", "8321",
             "--admin-host", "0.0.0.0"],
            ["stream", "c.pcap", "--train", "--admin-port", "0",
             "--drift-gate", "--drift-inject", "label-shuffle"],
            ["stream", "c.pcap", "--drift-gate"],
            ["stream", "c.pcap", "--metrics-out", "m.prom",
             "--metrics-flush-interval", "5", "--linger", "2"],
            ["experiment", "--admin-port", "8321"],
            ["doctor", "--out", "bundle",
             "--admin-url", "http://127.0.0.1:8321"],
            ["doctor", "--store", "models", "--metrics", "m.prom",
             "--trace", "t.json", "--timeout", "2"],
        ],
    )
    def test_known_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile-the-world"])

    def test_unknown_store_action_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "drop-everything", "models"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment"],
            ["train"],
            ["neighbours", "v.npz", "a.com"],
            ["stream", "c.pcap", "--train"],
        ],
    )
    def test_index_backend_option_removed(self, argv, capsys):
        """There is one vector index, so no command selects one."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--index-backend", "exact"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --index-backend exact" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--workers", "2"],
            ["stream", "c.pcap", "--drift-max-jsd", "0.1"],
            ["stream", "c.pcap", "--drift-max-churn", "0.9"],
        ],
    )
    def test_removed_options_rejected(self, argv, capsys):
        """experiment runs no sharded replay; gate thresholds are fixed."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_unknown_drift_injection_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "c.pcap", "--drift-inject", "vocab-wipe"]
            )


class TestCommands:
    """End-to-end CLI runs on tiny worlds (seconds each)."""

    WORLD = ["--seed", "5", "--sites", "120", "--users", "12", "--days", "1"]

    def test_diversity(self, capsys):
        assert main(["diversity", *self.WORLD]) == 0
        out = capsys.readouterr().out
        assert "Core 80" in out
        assert "75% of users" in out

    def test_train_npz_and_neighbours(self, tmp_path, capsys):
        out_path = tmp_path / "emb.npz"
        assert main(
            ["train", *self.WORLD, "--epochs", "3",
             "--output", str(out_path)]
        ) == 0
        assert out_path.exists()
        # query a hostname that certainly exists: read it from the file
        from repro.core import HostnameEmbeddings

        embeddings = HostnameEmbeddings.load(out_path)
        host = embeddings.vocabulary.host_of(0)
        capsys.readouterr()
        assert main(["neighbours", str(out_path), host, "-n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_train_word2vec_format(self, tmp_path, capsys):
        out_path = tmp_path / "emb.txt"
        assert main(
            ["train", *self.WORLD, "--epochs", "3",
             "--output", str(out_path)]
        ) == 0
        first_line = out_path.read_text().splitlines()[0]
        count, dim = first_line.split()
        assert int(count) > 0 and int(dim) == 100

    def test_neighbours_unknown_host(self, tmp_path, capsys):
        out_path = tmp_path / "emb.npz"
        main(["train", *self.WORLD, "--epochs", "2",
              "--output", str(out_path)])
        capsys.readouterr()
        assert main(
            ["neighbours", str(out_path), "not-a-host.example"]
        ) == 1

    def test_synthesize_then_observe(self, tmp_path, capsys):
        pcap = tmp_path / "capture.pcap"
        assert main(
            ["synthesize", *self.WORLD, "--output", str(pcap)]
        ) == 0
        assert pcap.exists()
        capsys.readouterr()
        assert main(["observe", str(pcap)]) == 0
        out = capsys.readouterr().out
        assert "hostname events" in out
        assert "10.0." in out  # per-client lines

    def test_observe_ip_vantage(self, tmp_path, capsys):
        pcap = tmp_path / "capture.pcap"
        main(["synthesize", *self.WORLD, "--output", str(pcap)])
        capsys.readouterr()
        assert main(["observe", str(pcap), "--vantage", "ip"]) == 0
        assert "ip:" in capsys.readouterr().out

    def test_synthesize_with_chaos_then_stream(self, tmp_path, capsys):
        pcap = tmp_path / "chaotic.pcap"
        assert main(
            ["synthesize", *self.WORLD, "--output", str(pcap),
             "--chaos-corrupt", "0.1", "--chaos-duplicate", "0.05",
             "--chaos-reorder", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos:" in out
        assert main(
            ["stream", str(pcap), "--max-lateness-seconds", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "quarantine:" in out
        assert "late dropped" in out

    def test_stream_checkpoint_roundtrip(self, tmp_path, capsys):
        pcap = tmp_path / "capture.pcap"
        main(["synthesize", *self.WORLD, "--output", str(pcap)])
        state = tmp_path / "state.json"
        capsys.readouterr()
        assert main(
            ["stream", str(pcap), "--checkpoint", str(state)]
        ) == 0
        assert "checkpointed" in capsys.readouterr().out
        assert state.exists()
        # Second run restores the saved sessions.
        assert main(
            ["stream", str(pcap), "--checkpoint", str(state)]
        ) == 0
        assert "restored" in capsys.readouterr().out


class TestWorldgenCli:
    """The out-of-core generation surface, on a tiny world."""

    ARGS = ["worldgen", "--seed", "5", "--sites", "120",
            "--population", "30", "--days", "1",
            "--batch-events", "256", "--users-per-chunk", "10"]

    def test_stream_to_file_with_bench(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl.gz"
        bench = tmp_path / "bench.json"
        assert main(
            [*self.ARGS, "--out", str(out), "--bench-out", str(bench)]
        ) == 0
        text = capsys.readouterr().out
        assert "events/s" in text
        assert "spill shard" in text
        from repro.traffic import load_trace

        loaded = load_trace(out)
        assert loaded.num_requests > 0
        snapshot = json.loads(bench.read_text())
        assert snapshot["format"] == "repro-metrics-v1"
        names = {m["name"] for m in snapshot["metrics"]}
        assert "bench_worldgen_events_per_second" in names
        assert "bench_worldgen_peak_rss_mb" in names

    def test_cursor_resume_continues_exactly(self, tmp_path, capsys):
        """Kill after 3 batches, rerun with the cursor: the two sharded
        outputs concatenate to exactly the uninterrupted run."""
        cursor = tmp_path / "cursor.json"
        full = tmp_path / "full"
        first = tmp_path / "first"
        rest = tmp_path / "rest"
        assert main([*self.ARGS, "--shards", str(full)]) == 0
        assert main(
            [*self.ARGS, "--shards", str(first),
             "--cursor", str(cursor), "--max-batches", "3"]
        ) == 0
        capsys.readouterr()
        assert main(
            [*self.ARGS, "--shards", str(rest), "--cursor", str(cursor)]
        ) == 0
        assert "resuming from cursor" in capsys.readouterr().out
        from repro.traffic import iter_trace_shards

        whole = list(iter_trace_shards(full))
        assert whole
        resumed = list(iter_trace_shards(first))
        resumed += list(iter_trace_shards(rest))
        assert resumed == whole

    def test_rss_ceiling_enforced(self, capsys):
        assert main([*self.ARGS, "--rss-limit-mb", "1"]) == 1
        assert "exceeds the --rss-limit-mb" in capsys.readouterr().err

    def test_observe_cap_is_reported(self, capsys):
        assert main(
            [*self.ARGS, "--observe", "--observe-max-events", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "observe: capped at 5 events" in out
        assert "hostname events" in out

    def test_sharded_observe_matches_single_process(self, capsys):
        # The fleet must see exactly what one process sees; the CI shard
        # job diffs this same line at a million users.
        def observe_line(*extra):
            assert main([*self.ARGS, "--observe", *extra]) == 0
            out = capsys.readouterr().out
            (line,) = [
                line for line in out.splitlines()
                if line.startswith("  observe:")
            ]
            return line, out

        single, _ = observe_line()
        sharded, out = observe_line("--workers", "2")
        assert sharded == single
        assert "shard fleet: 2 workers" in out
        assert "0 restart(s)" in out


class TestStoreCli:
    """The --store / store subcommand surface, on a tiny world."""

    WORLD = ["--seed", "5", "--sites", "120", "--users", "12", "--days", "1"]

    @pytest.fixture(scope="class")
    def published(self, tmp_path_factory):
        """A store holding two trained generations + a matching pcap."""
        root = tmp_path_factory.mktemp("store-cli")
        store_dir = root / "models"
        for epochs in ("2", "3"):
            assert main(
                ["train", *self.WORLD, "--epochs", epochs,
                 "--output", str(root / f"emb{epochs}.npz"),
                 "--store", str(store_dir)]
            ) == 0
        pcap = root / "capture.pcap"
        main(["synthesize", *self.WORLD, "--output", str(pcap)])
        return store_dir, pcap

    def _copy(self, published, tmp_path):
        import shutil

        store_dir, _ = published
        clone = tmp_path / "models"
        shutil.copytree(store_dir, clone)
        return clone

    def test_list_marks_serving_generation(self, published, capsys):
        store_dir, _ = published
        capsys.readouterr()
        assert main(["store", "list", str(store_dir)]) == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("  g000001")
        assert lines[1].startswith("* g000002")

    def test_list_empty_store(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["store", "list", str(tmp_path / "empty")]) == 0
        assert "store is empty" in capsys.readouterr().out

    def test_rollback_then_gc(self, published, tmp_path, capsys):
        store_dir = self._copy(published, tmp_path)
        capsys.readouterr()
        assert main(["store", "rollback", str(store_dir)]) == 0
        assert "now serving g000001" in capsys.readouterr().out
        # gc keeps the serving generation even though it is not newest.
        assert main(["store", "gc", str(store_dir), "--keep", "1"]) == 0
        assert "nothing to remove" in capsys.readouterr().out
        assert main(["store", "list", str(store_dir)]) == 0
        assert "* g000001" in capsys.readouterr().out

    def test_gc_dry_run_predicts_without_deleting(
        self, published, tmp_path, capsys
    ):
        store_dir = self._copy(published, tmp_path)
        capsys.readouterr()
        assert main(
            ["store", "gc", str(store_dir), "--keep", "1", "--dry-run"]
        ) == 0
        assert "would remove 1 generation(s): g000001" in (
            capsys.readouterr().out
        )
        # nothing was deleted: both generations still list
        assert main(["store", "list", str(store_dir)]) == 0
        assert len(capsys.readouterr().out.rstrip().splitlines()) == 2
        # the real gc removes exactly what the dry run predicted
        assert main(["store", "gc", str(store_dir), "--keep", "1"]) == 0
        assert "removed 1 generation(s): g000001" in capsys.readouterr().out

    def test_gc_dry_run_retains_serving_generation(
        self, published, tmp_path, capsys
    ):
        store_dir = self._copy(published, tmp_path)
        main(["store", "rollback", str(store_dir)])   # serving g000001
        capsys.readouterr()
        assert main(
            ["store", "gc", str(store_dir), "--keep", "1", "--dry-run"]
        ) == 0
        # keep-1 would normally leave only g000002, but the rolled-back
        # serving generation is never a gc candidate.
        assert "nothing to remove" in capsys.readouterr().out

    def test_rollback_past_oldest_fails(self, published, tmp_path, capsys):
        store_dir = self._copy(published, tmp_path)
        main(["store", "rollback", str(store_dir)])
        capsys.readouterr()
        assert main(["store", "rollback", str(store_dir)]) == 1
        assert "error" in capsys.readouterr().err

    def test_stream_serves_stored_generation(self, published, capsys):
        store_dir, pcap = published
        capsys.readouterr()
        assert main(
            ["stream", str(pcap), "--seed", "5", "--sites", "120",
             "--store", str(store_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "serving stored g000002" in out
        assert "profiles emitted (model loaded: True)" in out

    def test_stream_checkpoint_warm_restart(
        self, published, tmp_path, capsys
    ):
        store_dir, pcap = published
        state = tmp_path / "state.json"
        main(["stream", str(pcap), "--seed", "5", "--sites", "120",
              "--store", str(store_dir), "--checkpoint", str(state)])
        capsys.readouterr()
        # The restart restores sessions AND re-arms the model in one run.
        assert main(
            ["stream", str(pcap), "--seed", "5", "--sites", "120",
             "--store", str(store_dir), "--checkpoint", str(state)]
        ) == 0
        out = capsys.readouterr().out
        assert "restored" in out
        assert "warm restart: serving g000002" in out


class TestOpsCli:
    """The live operations plane: admin endpoint, drift gate, doctor."""

    WORLD = ["--seed", "5", "--sites", "120", "--users", "12", "--days", "1"]

    def test_drift_injection_trips_the_gate(self, tmp_path, capsys):
        pcap = tmp_path / "capture.pcap"
        main(["synthesize", *self.WORLD, "--output", str(pcap)])
        capsys.readouterr()
        assert main(
            ["stream", str(pcap), "--train", "--seed", "5",
             "--sites", "120", "--train-epochs", "2",
             "--store", str(tmp_path / "models"),
             "--admin-port", "0", "--drift-gate",
             "--drift-inject", "label-shuffle"]
        ) == 0
        out = capsys.readouterr().out
        assert "admin server listening on http://127.0.0.1:" in out
        assert "published generation g000001" in out
        assert "drift injection: drift vs g000001" in out
        assert "BREACH" in out
        assert "drift gate rejected injected retrain" in out
        assert "rolled back to g000001" in out
        # the rejected generation was retracted from the store
        capsys.readouterr()
        assert main(["store", "list", str(tmp_path / "models")]) == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("* g000001")

    def test_drift_injection_without_store_keeps_streaming(
        self, tmp_path, capsys
    ):
        pcap = tmp_path / "capture.pcap"
        main(["synthesize", *self.WORLD, "--output", str(pcap)])
        capsys.readouterr()
        assert main(
            ["stream", str(pcap), "--train", "--seed", "5",
             "--sites", "120", "--train-epochs", "2", "--drift-gate",
             "--drift-inject", "label-shuffle"]
        ) == 0
        out = capsys.readouterr().out
        assert "drift gate rejected injected retrain" in out
        assert "rolled back to in-memory model" in out
        assert "profiles emitted (model loaded: True)" in out

    def test_flush_interval_requires_metrics_out(self, tmp_path, capsys):
        pcap = tmp_path / "capture.pcap"
        main(["synthesize", *self.WORLD, "--output", str(pcap)])
        capsys.readouterr()
        assert main(
            ["stream", str(pcap), "--metrics-flush-interval", "1"]
        ) == 2
        assert "--metrics-out" in capsys.readouterr().err

    def test_doctor_offline_bundle(self, tmp_path, capsys):
        pcap = tmp_path / "capture.pcap"
        main(["synthesize", *self.WORLD, "--output", str(pcap)])
        main(["stream", str(pcap), "--train", "--seed", "5",
              "--sites", "120", "--train-epochs", "2",
              "--store", str(tmp_path / "models"),
              "--metrics-out", str(tmp_path / "final.prom")])
        capsys.readouterr()
        bundle = tmp_path / "bundle"
        assert main(
            ["doctor", "--out", str(bundle),
             "--store", str(tmp_path / "models"),
             "--metrics", str(tmp_path / "final.prom")]
        ) == 0
        out = capsys.readouterr().out
        assert "doctor bundle written" in out
        assert (bundle / "bundle.json").is_file()
        assert (bundle / "generations.json").is_file()
        assert (bundle / "metrics.prom").is_file()
        assert (bundle / "config.json").is_file()

    def test_doctor_with_nothing_reachable_fails(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(
            ["doctor", "--out", str(tmp_path / "bundle"),
             "--admin-url", "http://127.0.0.1:9", "--timeout", "0.5"]
        ) == 1
        assert "nothing reachable" in capsys.readouterr().err


class TestTelemetry:
    """The --metrics-out / --trace-out / --train surface."""

    WORLD = ["--seed", "5", "--sites", "120", "--users", "12", "--days", "1"]

    @pytest.fixture(scope="class")
    def pcap(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("telemetry") / "capture.pcap"
        main(["synthesize", *self.WORLD, "--output", str(path)])
        return path

    def test_stream_train_covers_every_stage(self, pcap, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        assert main(
            ["stream", str(pcap), "--train", "--seed", "5",
             "--sites", "120", "--train-epochs", "2",
             "--metrics-out", str(metrics), "--trace-out", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "model swapped into the stream" in out

        snapshot = json.loads(metrics.read_text())
        assert snapshot["format"] == "repro-metrics-v1"
        names = {m["name"] for m in snapshot["metrics"]}
        for stage in ("netobs_", "quarantine_", "stream_", "train_",
                      "profile_", "retrain_"):
            assert any(n.startswith(stage) for n in names), stage

        chrome = json.loads(trace.read_text())
        span_names = {e["name"] for e in chrome["traceEvents"]}
        assert {"stream.observe", "train.epoch", "retrain.day"} <= span_names

    def test_prometheus_output_for_non_json_suffix(
        self, pcap, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.prom"
        assert main(
            ["observe", str(pcap), "--metrics-out", str(metrics)]
        ) == 0
        text = metrics.read_text()
        assert "# TYPE netobs_packets_total counter" in text
        assert "netobs_packets_total " in text

    def test_flusher_final_flush_is_the_only_exit_write(
        self, pcap, tmp_path, monkeypatch
    ):
        from repro.obs import flush

        writes = []
        monkeypatch.setattr(
            flush, "write_metrics", lambda registry, path: writes.append(path)
        )
        metrics = tmp_path / "metrics.prom"
        assert main(["stream", str(pcap), "--metrics-out", str(metrics),
                     "--metrics-flush-interval", "3600"]) == 0
        assert writes == [metrics]

    def test_metrics_dump(self, pcap, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        main(["stream", str(pcap), "--metrics-out", str(metrics)])
        capsys.readouterr()
        assert main(["metrics-dump", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "stream_events_total" in out
        assert main(
            ["metrics-dump", str(metrics), "--grep", "netobs_"]
        ) == 0
        filtered = capsys.readouterr().out
        assert "netobs_packets_total" in filtered
        assert "stream_events_total" not in filtered

    def test_metrics_dump_no_match(self, pcap, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        main(["stream", str(pcap), "--metrics-out", str(metrics)])
        capsys.readouterr()
        assert main(
            ["metrics-dump", str(metrics), "--grep", "zzz_nothing"]
        ) == 1
