"""Tests for generation drift monitoring and the supervisor drift gate."""

import json

import pytest

from repro.core import day_corpus
from repro.core.pipeline import NetworkObserverProfiler, PipelineConfig
from repro.core.skipgram import SkipGramConfig
from repro.core.streaming import StreamingConfig, StreamingProfiler
from repro.core.supervisor import RetrainSupervisor, SupervisorConfig
from repro.obs.drift import (
    DriftConfig,
    DriftMonitor,
    DriftReport,
    _jensen_shannon,
)
from repro.obs.metrics import MetricsRegistry
from repro.store import DRIFT_REPORT_COMPONENT, ArtifactStore
from repro.utils.randomness import derive_rng
from repro.utils.serialization import atomic_write_json


def _pipeline(labelled, tracker_filter, seed=0):
    return NetworkObserverProfiler(
        labelled,
        config=PipelineConfig(skipgram=SkipGramConfig(epochs=2, seed=seed)),
        tracker_filter=tracker_filter,
    )


def _shuffle_labels(sequences, seed=99):
    """Relabel every hostname through a seeded permutation (drift injection)."""
    hosts = sorted({h for s in sequences for h in s})
    permuted = list(hosts)
    derive_rng(seed, "test-shuffle").shuffle(permuted)
    mapping = dict(zip(hosts, permuted))
    return [[mapping[h] for h in s] for s in sequences]


@pytest.fixture(scope="module")
def day0_sequences(trace):
    return day_corpus(trace, 0)


@pytest.fixture(scope="module")
def day0(day0_sequences, labelled, tracker_filter):
    """A pipeline trained on day 0, shared read-only."""
    pipeline = _pipeline(labelled, tracker_filter)
    pipeline.train_on_sequences(day0_sequences)
    return pipeline


@pytest.fixture(scope="module")
def shuffled(day0_sequences, labelled, tracker_filter):
    """The same corpus with every hostname relabelled — injected drift."""
    pipeline = _pipeline(labelled, tracker_filter)
    pipeline.train_on_sequences(_shuffle_labels(day0_sequences))
    return pipeline


class TestJensenShannon:
    def test_identical_distributions_are_zero(self):
        assert _jensen_shannon([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_distributions_are_maximal(self):
        assert _jensen_shannon([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_empty_cases(self):
        assert _jensen_shannon([0.0, 0.0], [0.0, 0.0]) == 0.0
        assert _jensen_shannon([0.0, 0.0], [1.0, 0.0]) == 1.0

    def test_symmetric(self):
        p, q = [0.8, 0.1, 0.1], [0.2, 0.3, 0.5]
        assert _jensen_shannon(p, q) == pytest.approx(_jensen_shannon(q, p))

    def test_unnormalised_inputs_are_normalised(self):
        assert _jensen_shannon([10, 10], [1, 1]) == pytest.approx(0.0)


class TestDriftConfig:
    def test_defaults_validate(self):
        DriftConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_hosts": 0},
            {"neighbour_k": 0},
            {"probe_sessions": 0},
            {"max_vocab_churn": 1.5},
            {"min_neighbour_overlap": -0.1},
            {"max_category_jsd": 2.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs).validate()


class TestDriftMonitor:
    def test_identical_models_pass_clean(self, day0):
        registry = MetricsRegistry()
        monitor = DriftMonitor(DriftConfig(seed=7), registry=registry)
        report = monitor.compare(day0.profiler, day0.profiler)
        assert report.ok
        assert report.vocab_churn == 0.0
        assert report.neighbour_overlap == pytest.approx(1.0)
        assert report.category_jsd == pytest.approx(0.0, abs=1e-9)
        assert report.labelled_coverage_delta == 0.0
        assert registry.counter("drift_checks_total").value == 1
        assert registry.gauge("drift_vocab_churn").value == 0.0

    def test_label_shuffle_breaches_the_gate(self, day0, shuffled):
        registry = MetricsRegistry()
        monitor = DriftMonitor(DriftConfig(seed=7), registry=registry)
        report = monitor.compare(
            day0.profiler, shuffled.profiler, candidate_day=1
        )
        assert not report.ok
        # The scrambled co-occurrence structure must show up in the
        # embedding-space metrics, whatever the vocabulary does.
        assert "neighbour_overlap" in report.breaches
        assert report.neighbour_overlap < DriftConfig().min_neighbour_overlap
        breaches_total = registry.counter(
            "drift_breaches_total", labelnames=("metric",)
        ).total()
        assert breaches_total == len(report.breaches)

    def test_probe_sample_is_deterministic(self, day0, shuffled):
        config = DriftConfig(seed=7)
        first = DriftMonitor(config).compare(day0.profiler, shuffled.profiler)
        second = DriftMonitor(config).compare(day0.profiler, shuffled.profiler)
        assert first.neighbour_overlap == second.neighbour_overlap
        assert first.category_jsd == second.category_jsd


class TestDriftReport:
    def test_round_trips_through_json(self, day0, shuffled, tmp_path):
        report = DriftMonitor(DriftConfig(seed=7)).compare(
            day0.profiler, shuffled.profiler,
            serving_generation="g000001", candidate_day=3,
        )
        path = tmp_path / "drift.json"
        atomic_write_json(path, report.to_dict())
        restored = DriftReport.from_dict(json.loads(path.read_text()))
        assert restored == report

    def test_reads_reports_carrying_stream_health_keys(self):
        # A drift.json as stores on disk hold it (the label-shuffle
        # rehearsal on the seed-42 world), with quarantine_rate,
        # late_drop_rate and anomalies: it still loads, and the report
        # writes itself back without those keys.
        stream_health = {
            "quarantine_rate": 0.0, "late_drop_rate": 0.0, "anomalies": [],
        }
        payload = {
            "format": "repro-drift-v1",
            "serving_generation": "g000001",
            "candidate_day": 1,
            "vocab_jaccard": 0.3302325581395349,
            "vocab_churn": 0.6697674418604651,
            "shared_hosts": 71,
            "neighbour_overlap": 0.0234375,
            "sampled_hosts": 64,
            "labelled_coverage_serving": 21,
            "labelled_coverage_candidate": 9,
            "labelled_coverage_delta": -0.5714285714285714,
            "category_jsd": 0.10849838790033392,
            **stream_health,
            "breaches": ["neighbour_overlap", "labelled_coverage"],
            "thresholds": {
                "max_category_jsd": 0.25,
                "max_labelled_coverage_drop": 0.3,
                "max_vocab_churn": 0.75,
                "min_neighbour_overlap": 0.05,
            },
            "ok": False,
        }
        report = DriftReport.from_dict(payload)
        assert report.breaches == ("neighbour_overlap", "labelled_coverage")
        assert not report.ok
        written = report.to_dict()
        assert written.keys().isdisjoint(stream_health)
        assert written == {
            k: v for k, v in payload.items() if k not in stream_health
        }

    def test_from_dict_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            DriftReport.from_dict({"format": "something-else"})

    def test_summary_names_breaches(self):
        report = DriftReport(
            serving_generation="g000001", candidate_day=2,
            vocab_jaccard=0.2, vocab_churn=0.8, shared_hosts=10,
            neighbour_overlap=0.01, sampled_hosts=10,
            labelled_coverage_serving=20, labelled_coverage_candidate=10,
            labelled_coverage_delta=-0.5, category_jsd=0.9,
            breaches=("vocab_churn", "category_jsd"),
        )
        assert not report.ok
        assert "BREACH(vocab_churn, category_jsd)" in report.summary()
        assert "g000001" in report.summary()


class _SequenceTrainer:
    """Duck-typed pipeline whose training corpus the test controls."""

    def __init__(self, pipeline, sequences):
        self.pipeline = pipeline
        self.sequences = sequences

    def train_on_day(self, trace, day):
        return self.pipeline.train_on_sequences(self.sequences)

    def publish_generation(self, store, day=None, drift_report=None):
        return self.pipeline.publish_generation(
            store, day=day, drift_report=drift_report
        )

    def load_generation(self, store):
        return self.pipeline.load_generation(store)

    @property
    def profiler(self):
        return self.pipeline.profiler


class TestSupervisorDriftGate:
    """End-to-end: retrain, publish, inject drift, gate, roll back."""

    def _supervisor(self, trainer, stream, store, registry, **config):
        monitor = DriftMonitor(DriftConfig(seed=7, **config), registry=registry)
        return RetrainSupervisor(
            trainer, stream=stream, store=store,
            config=SupervisorConfig(
                max_attempts=1, backoff_base_seconds=0.0, jitter_fraction=0.0
            ),
            registry=registry, drift_monitor=monitor,
        )

    def test_gate_rolls_back_while_stream_keeps_serving(
        self, day0_sequences, labelled, tracker_filter, tmp_path
    ):
        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store")
        trainer = _SequenceTrainer(
            _pipeline(labelled, tracker_filter), day0_sequences
        )
        stream = StreamingProfiler(StreamingConfig())
        supervisor = self._supervisor(trainer, stream, store, registry)

        first = supervisor.retrain(None, 0)
        assert first.succeeded and first.generation == "g000001"
        assert stream.serving_generation == "g000001"

        # A faithful retrain on the same corpus passes the gate and
        # publishes its drift report inside the new generation.
        second = supervisor.retrain(None, 1)
        assert second.succeeded and second.generation == "g000002"
        record = store.latest()
        assert record.has_component(DRIFT_REPORT_COMPONENT)
        published = DriftReport.from_dict(
            json.loads(record.component_path(DRIFT_REPORT_COMPONENT).read_text())
        )
        assert published.ok
        assert published.serving_generation == "g000001"
        serving = stream._profiler

        # Injected drift: the gate vetoes, the store rolls back, and the
        # stream never stops serving the last good model.
        trainer.sequences = _shuffle_labels(day0_sequences)
        outcome = supervisor.retrain(None, 2)
        assert not outcome.succeeded
        assert outcome.rolled_back
        assert outcome.generation is None
        assert "drift gate breached" in outcome.error
        assert store.latest_id() == "g000002"
        assert [r.generation_id for r in store.list_generations()] == [
            "g000001", "g000002"
        ]
        assert stream._profiler is serving
        assert stream.serving_generation == "g000002"
        assert not supervisor.last_drift_report.ok
        assert not supervisor.validating
        assert registry.counter("drift_gate_breaches_total").value == 1
        assert supervisor._rollbacks_total.value == 1

    def test_ungated_monitor_reports_but_never_vetoes(
        self, day0_sequences, labelled, tracker_filter, tmp_path
    ):
        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store")
        trainer = _SequenceTrainer(
            _pipeline(labelled, tracker_filter), day0_sequences
        )
        supervisor = self._supervisor(
            trainer, None, store, registry, gate=False
        )
        assert supervisor.retrain(None, 0).succeeded
        trainer.sequences = _shuffle_labels(day0_sequences)
        outcome = supervisor.retrain(None, 1)
        assert outcome.succeeded
        assert outcome.generation == "g000002"
        assert not supervisor.last_drift_report.ok   # reported, not enforced
        assert registry.counter("drift_gate_breaches_total").value == 0

    def test_drift_check_crash_does_not_lose_the_day(
        self, day0_sequences, labelled, tracker_filter, tmp_path
    ):
        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store")
        trainer = _SequenceTrainer(
            _pipeline(labelled, tracker_filter), day0_sequences
        )
        supervisor = self._supervisor(trainer, None, store, registry)
        assert supervisor.retrain(None, 0).succeeded
        supervisor.drift_monitor.compare = None   # not callable: crashes
        outcome = supervisor.retrain(None, 1)
        assert outcome.succeeded
        assert outcome.generation == "g000002"
        assert supervisor.last_drift_report is None

    def test_first_retrain_has_nothing_to_compare(
        self, day0_sequences, labelled, tracker_filter, tmp_path
    ):
        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store")
        trainer = _SequenceTrainer(
            _pipeline(labelled, tracker_filter), day0_sequences
        )
        supervisor = self._supervisor(trainer, None, store, registry)
        outcome = supervisor.retrain(None, 0)
        assert outcome.succeeded
        assert supervisor.last_drift_report is None
        assert registry.counter("drift_checks_total").value == 0
        # and the generation carries no drift report component
        assert not store.latest().has_component(DRIFT_REPORT_COMPONENT)
