"""End-to-end tests for model generations: pipeline publish/load, the
kill-and-restore serving path, and supervisor-driven publish/rollback."""

import json

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.core.embeddings import HostnameEmbeddings
from repro.core.pipeline import NetworkObserverProfiler, PipelineConfig
from repro.core.skipgram import SkipGramConfig, SkipGramModel
from repro.core.streaming import StreamingConfig, StreamingProfiler
from repro.core.supervisor import RetrainSupervisor, SupervisorConfig
from repro.netobs.flows import HostnameEvent
from repro.obs.drift import DriftConfig, DriftReport
from repro.store import (
    EMBEDDINGS_COMPONENT,
    MANIFEST_NAME,
    PROFILER_CONFIG_COMPONENT,
    ArtifactIntegrityError,
    ArtifactStore,
)
from repro.utils.timeutils import minutes


def _pipeline(labelled, tracker_filter, seed=0):
    return NetworkObserverProfiler(
        labelled,
        config=PipelineConfig(skipgram=SkipGramConfig(epochs=2, seed=seed)),
        tracker_filter=tracker_filter,
    )


def _forbid_rebuild(monkeypatch):
    """Make training or index construction fail: a restore may only load."""

    def explode(*args, **kwargs):
        raise AssertionError("restore must load the model, not rebuild it")

    monkeypatch.setattr(pipeline_module, "build_index", explode)
    monkeypatch.setattr(SkipGramModel, "fit", explode)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(scope="module")
def trained(trace, labelled, tracker_filter):
    """One pipeline trained on day 0, shared read-only."""
    pipeline = _pipeline(labelled, tracker_filter)
    pipeline.train_on_day(trace, 0)
    return pipeline


def _event(host, t, client="10.0.0.1"):
    return HostnameEvent(
        client_ip=client, timestamp=t, hostname=host, source="tls-sni"
    )


class TestPublishLoadRoundTrip:
    def test_publish_writes_all_components(self, trained, store):
        record = trained.publish_generation(store, day=0)
        assert record.generation_id == "g000001"
        assert record.created_from_day == 0
        # The embeddings archive is the whole model: no index archive.
        assert sorted(record.components) == [
            EMBEDDINGS_COMPONENT, PROFILER_CONFIG_COMPONENT,
        ]
        assert sorted(p.name for p in record.path.iterdir()) == sorted(
            [MANIFEST_NAME, EMBEDDINGS_COMPONENT, PROFILER_CONFIG_COMPONENT]
        )
        assert record.index_meta == {
            "backend": "exact", "metric": "cosine",
            "size": len(trained.embeddings), "dim": trained.embeddings.dim,
        }
        assert record.extra["vocabulary_size"] == len(trained.embeddings)

    def test_fresh_pipeline_serves_identical_profiles(
        self, trained, store, labelled, tracker_filter
    ):
        trained.publish_generation(store, day=0)
        session = trained.embeddings.vocabulary.hosts[:6]
        expected = trained.profile_session(session)

        restored = _pipeline(labelled, tracker_filter)
        record = restored.load_generation(store)
        assert record.generation_id == "g000001"
        assert restored.is_trained
        got = restored.profile_session(session)
        np.testing.assert_allclose(got.categories, expected.categories)

    def test_load_does_not_rebuild(
        self, trained, store, labelled, tracker_filter, monkeypatch
    ):
        trained.publish_generation(store, day=0)
        restored = _pipeline(labelled, tracker_filter)
        _forbid_rebuild(monkeypatch)
        restored.load_generation(store)
        session = trained.embeddings.vocabulary.hosts[:4]
        assert restored.profile_session(session).categories is not None

    @pytest.mark.parametrize("backend", ["ivf", "blocked"])
    def test_unknown_index_backend_keeps_previous_model(
        self, trained, store, labelled, tracker_filter, backend
    ):
        """A generation whose manifest names a backend from an older
        build (``ivf``, or ``blocked``, which scored in float32) served
        other scores: it is refused, and the pipeline keeps serving the
        model it already had."""
        trained.publish_generation(store, day=0)
        pipeline = _pipeline(labelled, tracker_filter)
        pipeline.load_generation(store)
        serving = pipeline.profiler

        store.publish(
            {EMBEDDINGS_COMPONENT: trained.embeddings.save},
            index_meta={"backend": backend},
        )
        with pytest.raises(
            ValueError, match=f"unknown index backend '{backend}'"
        ):
            pipeline.load_generation(store)
        assert pipeline.profiler is serving

    def test_generation_from_older_builds_still_serves(
        self, trained, store, labelled, tracker_filter, monkeypatch
    ):
        """Generations published before the index was built at load
        carry deflated members and an ``index.npz``.  They restore (every
        component still digest-verified), the index archive is ignored,
        and the restored model profiles bit for bit like the in-memory
        one."""
        embeddings = trained.embeddings
        vocabulary = embeddings.vocabulary
        index_meta = {
            "backend": "exact", "metric": "cosine",
            "size": len(embeddings), "dim": embeddings.dim,
        }
        index_header = json.dumps(
            {"format": "repro-index-v1", **index_meta}, sort_keys=True
        ).encode()
        record = store.publish(
            {
                EMBEDDINGS_COMPONENT: lambda path: np.savez_compressed(
                    path,
                    format_version=np.asarray(
                        HostnameEmbeddings.FORMAT_VERSION, dtype=np.int64
                    ),
                    vectors=embeddings.vectors,
                    hosts=np.asarray(vocabulary.hosts, dtype=np.str_),
                    counts=vocabulary.counts.astype(np.int64),
                ),
                "index.npz": lambda path: np.savez_compressed(
                    path,
                    vectors=embeddings.unit_vectors,
                    header=np.frombuffer(index_header, dtype=np.uint8),
                ),
                PROFILER_CONFIG_COMPONENT: lambda path: path.write_text(
                    json.dumps(trained._profiler_config())
                ),
            },
            created_from_day=0,
            index_meta=index_meta,
        )
        probes = [
            vocabulary.hosts[start:start + 6] for start in range(0, 60, 6)
        ]
        restored = _pipeline(labelled, tracker_filter)
        _forbid_rebuild(monkeypatch)
        assert restored.load_generation(store).index_meta == index_meta
        for session in probes:
            assert restored.profile_session(session).categories.tobytes() == (
                trained.profile_session(session).categories.tobytes()
            )

        index_path = record.path / "index.npz"
        index_path.write_bytes(index_path.read_bytes()[:-7] + b"garbage")
        with pytest.raises(ArtifactIntegrityError, match="index.npz"):
            _pipeline(labelled, tracker_filter).load_generation(store)

    def test_corrupt_component_refuses_to_load(
        self, trained, store, labelled, tracker_filter
    ):
        record = trained.publish_generation(store, day=0)
        target = record.component_path(EMBEDDINGS_COMPONENT)
        target.write_bytes(target.read_bytes()[:-7] + b"garbage")
        restored = _pipeline(labelled, tracker_filter)
        with pytest.raises(ArtifactIntegrityError):
            restored.load_generation(store)
        assert not restored.is_trained

    def test_named_generation_loads_old_model(
        self, trace, store, labelled, tracker_filter
    ):
        pipeline = _pipeline(labelled, tracker_filter)
        pipeline.train_on_day(trace, 0)
        pipeline.publish_generation(store, day=0)
        day0 = pipeline.embeddings.vectors.copy()
        pipeline.train_on_day(trace, 1)
        pipeline.publish_generation(store, day=1)

        restored = _pipeline(labelled, tracker_filter)
        record = restored.load_generation(store, "g000001")
        assert record.created_from_day == 0
        assert np.array_equal(restored.embeddings.vectors, day0)


class TestKillAndRestore:
    def test_restarted_observer_serves_from_latest(
        self, trained, store, labelled, tracker_filter, tmp_path, monkeypatch
    ):
        """The acceptance scenario: kill a serving observer, restart from
        checkpoint + store.latest(), and the resumed stream must emit on
        the original report grid exactly what an uninterrupted run emits
        — without re-training or rebuilding the index."""
        hosts = trained.embeddings.vocabulary.hosts[:6]
        events = []
        t = 0.0
        for i in range(30):
            t += minutes(1.7)
            events.append(_event(hosts[i % 6], t, client=f"c{i % 3}"))
        cut = 13

        continuous = StreamingProfiler(StreamingConfig())
        continuous.swap_model(trained.profiler)
        baseline = continuous.ingest_many(events)
        expected_tail = [
            e for e in baseline if e.timestamp > events[cut - 1].timestamp
        ]

        serving = StreamingProfiler(StreamingConfig())
        serving.swap_model(trained.profiler)
        serving.ingest_many(events[:cut])
        checkpoint = tmp_path / "state.json"
        serving.checkpoint(checkpoint)
        trained.publish_generation(store, day=0)
        del serving   # the crash

        # The restarted process rebuilds its world and warm-restarts in
        # one call; training and index builds are forbidden to prove the
        # model was loaded.
        fresh = _pipeline(labelled, tracker_filter)
        _forbid_rebuild(monkeypatch)
        resumed = StreamingProfiler.restore(
            checkpoint, store=store, pipeline=fresh
        )
        assert resumed.has_model

        tail = resumed.ingest_many(events[cut:])
        assert len(tail) == len(expected_tail)
        for ours, theirs in zip(tail, expected_tail):
            assert ours.client == theirs.client
            assert ours.timestamp == theirs.timestamp
            assert ours.window_hosts == theirs.window_hosts
            np.testing.assert_allclose(
                ours.profile.categories, theirs.profile.categories
            )

    def test_restore_without_generations_keeps_stream_bare(
        self, store, labelled, tracker_filter, tmp_path
    ):
        stream = StreamingProfiler(StreamingConfig())
        checkpoint = tmp_path / "state.json"
        stream.checkpoint(checkpoint)
        fresh = _pipeline(labelled, tracker_filter)
        resumed = StreamingProfiler.restore(
            checkpoint, store=store, pipeline=fresh
        )
        assert not resumed.has_model

    def test_restore_does_not_inflate_swap_counter(
        self, trained, store, labelled, tracker_filter, tmp_path
    ):
        stream = StreamingProfiler(StreamingConfig())
        stream.swap_model(trained.profiler)
        checkpoint = tmp_path / "state.json"
        stream.checkpoint(checkpoint)
        trained.publish_generation(store, day=0)
        fresh = _pipeline(labelled, tracker_filter)
        resumed = StreamingProfiler.restore(
            checkpoint, store=store, pipeline=fresh
        )
        # Re-arming the model at restore is not a deploy-time swap: the
        # counter must match what the checkpoint recorded.
        assert resumed.model_swaps == stream.model_swaps


class _ScriptedGate:
    """Gated drift-monitor double: each ``compare`` replays one verdict."""

    config = DriftConfig(gate=True)

    def __init__(self, *passes: bool):
        self._passes = iter(passes)
        self.serving = []   # the serving profiler of each compare

    def compare(
        self, serving, candidate, serving_generation=None, candidate_day=None
    ):
        self.serving.append(serving)
        breaches = () if next(self._passes) else ("neighbour_overlap",)
        return DriftReport(
            serving_generation=serving_generation,
            candidate_day=candidate_day,
            vocab_jaccard=1.0, vocab_churn=0.0, shared_hosts=0,
            neighbour_overlap=0.0 if breaches else 1.0, sampled_hosts=0,
            labelled_coverage_serving=0, labelled_coverage_candidate=0,
            labelled_coverage_delta=0.0, category_jsd=0.0,
            breaches=breaches,
        )


class TestSupervisorStore:
    def _supervisor(self, pipeline, store, **kwargs):
        return RetrainSupervisor(
            pipeline, store=store,
            config=SupervisorConfig(
                max_attempts=1, backoff_base_seconds=0.0, jitter_fraction=0.0
            ),
            **kwargs,
        )

    def test_each_retrain_publishes_a_generation(
        self, trace, store, labelled, tracker_filter
    ):
        pipeline = _pipeline(labelled, tracker_filter)
        supervisor = self._supervisor(pipeline, store)
        first = supervisor.retrain(trace, 0)
        second = supervisor.retrain(trace, 1)
        assert first.generation == "g000001"
        assert second.generation == "g000002"
        assert store.latest_id() == "g000002"
        assert store.latest().created_from_day == 1
        assert supervisor._generations_published_total.value == 2

    def test_validation_failure_rolls_back_to_previous(
        self, trace, store, labelled, tracker_filter
    ):
        pipeline = _pipeline(labelled, tracker_filter)
        # The first retrain has no serving model to compare against, so
        # the gate's one verdict lands on the second.
        supervisor = self._supervisor(
            pipeline, store, drift_monitor=_ScriptedGate(False)
        )
        assert supervisor.retrain(trace, 0).succeeded
        day0 = pipeline.profiler
        day0_vectors = pipeline.embeddings.vectors.copy()

        outcome = supervisor.retrain(trace, 1)
        assert not outcome.succeeded
        assert outcome.rolled_back
        assert outcome.generation is None
        assert outcome.stats is None
        assert "drift gate breached" in outcome.error
        # The store serves day 0 again and the bad generation is gone.
        assert store.latest_id() == "g000001"
        assert [r.generation_id for r in store.list_generations()] == [
            "g000001"
        ]
        # The pipeline serves the pre-retrain day-0 model again.
        assert pipeline.profiler is day0
        assert np.array_equal(pipeline.embeddings.vectors, day0_vectors)
        assert supervisor._rollbacks_total.value == 1

    def test_first_generation_rejection_empties_store(
        self, trace, store, labelled, tracker_filter
    ):
        # A model serves before the store's first publish, so the gate
        # has something to compare the first generation against.
        pipeline = _pipeline(labelled, tracker_filter)
        pipeline.train_on_day(trace, 0)
        serving = pipeline.profiler
        supervisor = self._supervisor(
            pipeline, store, drift_monitor=_ScriptedGate(False)
        )
        outcome = supervisor.retrain(trace, 1)
        assert not outcome.succeeded
        assert not outcome.rolled_back   # nothing earlier to roll back to
        assert store.latest_id() is None
        assert store.list_generations() == []
        assert pipeline.profiler is serving

    def test_veto_without_store_reinstates_serving_model(
        self, trace, labelled, tracker_filter
    ):
        pipeline = _pipeline(labelled, tracker_filter)
        stream = StreamingProfiler(StreamingConfig())
        gate = _ScriptedGate(False, True)
        supervisor = self._supervisor(
            pipeline, None, stream=stream, drift_monitor=gate
        )
        assert supervisor.retrain(trace, 0).succeeded
        day0 = pipeline.profiler

        vetoed = supervisor.retrain(trace, 1)
        assert not vetoed.succeeded
        assert not vetoed.rolled_back   # no store: nothing rolled back
        assert pipeline.profiler is stream._profiler
        assert pipeline.profiler is day0
        assert pipeline.embeddings is day0.embeddings

        # The next retrain (the trace holds two days, so day 0 again) is
        # gated against the day-0 model, not the vetoed day-1 one.
        assert supervisor.retrain(trace, 0).succeeded
        assert gate.serving == [day0, day0]
        assert stream._profiler is pipeline.profiler is not day0

    def test_stream_keeps_old_model_through_rollback(
        self, trace, store, labelled, tracker_filter
    ):
        pipeline = _pipeline(labelled, tracker_filter)
        stream = StreamingProfiler(StreamingConfig())
        supervisor = RetrainSupervisor(
            pipeline, stream=stream, store=store,
            config=SupervisorConfig(max_attempts=1, jitter_fraction=0.0),
            drift_monitor=_ScriptedGate(False),
        )
        supervisor.retrain(trace, 0)
        serving = stream._profiler
        assert supervisor.retrain(trace, 1).rolled_back
        assert stream._profiler is serving
        assert stream.model_swaps == 1

    def test_publish_failure_does_not_fail_the_retrain(
        self, trace, store, labelled, tracker_filter, monkeypatch
    ):
        pipeline = _pipeline(labelled, tracker_filter)
        supervisor = self._supervisor(pipeline, store)

        def explode(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ArtifactStore, "publish", explode)
        outcome = supervisor.retrain(trace, 0)
        # The in-memory model serves even though persistence failed.
        assert outcome.succeeded
        assert outcome.generation is None
        assert supervisor._publish_failures_total.value == 1
