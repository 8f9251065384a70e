"""Tests for the metrics registry: values, export formats, concurrency."""

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    LATENCY_BUCKETS_FAST,
    LATENCY_BUCKETS_SLOW,
    NULL_REGISTRY,
    SIZE_BUCKETS,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    validate_buckets,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("x_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_is_rejected(self):
        counter = MetricsRegistry().counter("x_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_reset_sets_absolute_value(self):
        counter = MetricsRegistry().counter("x_total")
        counter.inc(10)
        counter.reset(3)
        assert counter.value == 3
        with pytest.raises(MetricError):
            counter.reset(-1)

    def test_labelled_children_are_independent(self):
        family = MetricsRegistry().counter(
            "events_total", labelnames=("source",)
        )
        family.labels(source="dns").inc(2)
        family.labels(source="sni").inc(5)
        assert family.value_of(source="dns") == 2
        assert family.value_of(source="sni") == 5
        assert family.total() == 7

    def test_wrong_label_set_is_rejected(self):
        family = MetricsRegistry().counter(
            "events_total", labelnames=("source",)
        )
        with pytest.raises(MetricError):
            family.labels(kind="dns")
        with pytest.raises(MetricError):
            family.inc()   # labelled family has no sole child

    def test_concurrent_increments_lose_nothing(self):
        # The whole point of the per-child lock: 8 threads hammering the
        # same counter (and creating labelled siblings) stay exact.
        registry = MetricsRegistry()
        plain = registry.counter("plain_total")
        family = registry.counter("fanout_total", labelnames=("worker",))
        per_thread, threads = 5000, 8

        def work(worker: int) -> None:
            for _ in range(per_thread):
                plain.inc()
                family.labels(worker=str(worker)).inc()

        pool = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert plain.value == per_thread * threads
        assert family.total() == per_thread * threads
        assert all(
            child.value == per_thread for _, child in family.samples()
        )


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(12)
        assert gauge.value == 3


class TestHistogram:
    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus le semantics: value == upper bound counts in that
        # bucket, not the next.
        hist = MetricsRegistry().histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.1)
        cumulative = dict(hist._sole_child().cumulative_buckets())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 1
        assert cumulative[float("inf")] == 1

    def test_overflow_goes_to_inf_bucket(self):
        hist = MetricsRegistry().histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(99.0)
        cumulative = dict(hist._sole_child().cumulative_buckets())
        assert cumulative[0.1] == 0
        assert cumulative[1.0] == 0
        assert cumulative[float("inf")] == 1
        assert hist.count == 1
        assert hist.sum == 99.0

    def test_explicit_inf_bucket_is_stripped(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", buckets=(0.5, float("inf"))
        )
        assert hist.buckets == (0.5,)

    def test_empty_histogram_exports_zero_series(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "latency", buckets=(0.5,))
        text = registry.to_prometheus()
        assert 'lat_seconds_bucket{le="0.5"} 0' in text
        assert 'lat_seconds_bucket{le="+Inf"} 0' in text
        assert "lat_seconds_sum 0" in text
        assert "lat_seconds_count 0" in text

    def test_time_context_manager_observes(self):
        hist = MetricsRegistry().histogram("op_seconds")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.sum >= 0


class TestRegistration:
    def test_re_registration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        again = registry.counter("x_total", "other help")
        assert first is again

    def test_conflicting_type_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(MetricError):
            registry.gauge("x_total")

    def test_conflicting_labelnames_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("a",))
        with pytest.raises(MetricError):
            registry.counter("x_total", labelnames=("b",))

    def test_conflicting_buckets_are_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", buckets=(0.5,))
        with pytest.raises(MetricError):
            registry.histogram("lat_seconds", buckets=(0.25,))

    def test_invalid_names_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("bad name")
        with pytest.raises(MetricError):
            registry.counter("ok_total", labelnames=("bad-label",))


class TestExport:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("events_total", "Events.", ("source",)).labels(
            source="dns"
        ).inc(3)
        registry.gauge("depth", "Queue depth.").set(2)
        registry.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        return registry

    def test_prometheus_text_format(self):
        text = self._populated().to_prometheus()
        assert "# HELP events_total Events." in text
        assert "# TYPE events_total counter" in text
        assert 'events_total{source="dns"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("p",)).labels(
            p='a"b\\c\nd'
        ).inc()
        text = registry.to_prometheus()
        assert r'x_total{p="a\"b\\c\nd"} 1' in text

    def test_json_snapshot_round_trips(self):
        snapshot = json.loads(self._populated().to_json())
        assert snapshot["format"] == "repro-metrics-v1"
        names = {m["name"] for m in snapshot["metrics"]}
        assert names == {"events_total", "depth", "lat_seconds"}

    def test_flatten_and_diff(self):
        registry = self._populated()
        before = registry.snapshot()
        registry.counter(
            "events_total", labelnames=("source",)
        ).labels(source="dns").inc(4)
        deltas = registry.diff(before)
        assert deltas == {'events_total{source="dns"}': 4.0}
        flat = MetricsRegistry.flatten(registry.snapshot())
        assert flat['events_total{source="dns"}'] == 7.0
        assert flat["lat_seconds_count"] == 1.0
        assert flat['lat_seconds_bucket{le="0.1"}'] == 1.0


class TestExpositionEdgeCases:
    def test_non_finite_values_use_prometheus_spellings(self):
        registry = MetricsRegistry()
        registry.gauge("pos").set(float("inf"))
        registry.gauge("neg").set(float("-inf"))
        registry.gauge("nan").set(float("nan"))
        text = registry.to_prometheus()
        # `repr()` spellings (inf/-inf/nan) are not valid exposition
        # values; scrapers require +Inf / -Inf / NaN.
        assert "pos +Inf" in text
        assert "neg -Inf" in text
        assert "nan NaN" in text
        assert "inf\n" not in text.replace("+Inf", "").replace("-Inf", "")

    def test_hostname_label_with_quote_and_newline(self):
        # Regression: a hostile SNI used as a label value must not be able
        # to break the exposition format (or smuggle in extra samples).
        registry = MetricsRegistry()
        hostname = 'evil"host\nname.example\\'
        registry.counter(
            "stream_quarantined_hosts_total", labelnames=("hostname",)
        ).labels(hostname=hostname).inc()
        text = registry.to_prometheus()
        line = next(
            sample for sample in text.splitlines()
            if sample.startswith("stream_quarantined_hosts_total{")
        )
        assert line == (
            'stream_quarantined_hosts_total'
            '{hostname="evil\\"host\\nname.example\\\\"} 1'
        )
        # every physical line still parses as comment or sample
        for physical in text.splitlines():
            assert physical.startswith("#") or " " in physical


#: OpenMetrics exposition of the registry built in TestGoldenExposition,
#: which reaches every renderer branch: escaped help and label values,
#: ``+Inf`` and ``NaN``, a family without help text, and a labelled
#: histogram with exemplars on some buckets (``+Inf`` too) and a series
#: with none.  The 0.0.4 exposition is the same text without exemplar
#: suffixes and ``# EOF``.
GOLDEN_OPENMETRICS = """\
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1",stage="parse"} 1 # {trace_id="t\\"1"} 0.05 1700000000.250000
latency_seconds_bucket{le="1",stage="parse"} 1
latency_seconds_bucket{le="+Inf",stage="parse"} 2 # {trace_id="t2"} 5 1700000000.250000
latency_seconds_sum{stage="parse"} 5.05
latency_seconds_count{stage="parse"} 2
latency_seconds_bucket{le="0.1",stage="profile"} 0
latency_seconds_bucket{le="1",stage="profile"} 1
latency_seconds_bucket{le="+Inf",stage="profile"} 1
latency_seconds_sum{stage="profile"} 0.5
latency_seconds_count{stage="profile"} 1
# HELP loss_ratio Loss; a \\\\ and a\\nnewline.
# TYPE loss_ratio gauge
loss_ratio NaN
# TYPE queue_depth gauge
queue_depth +Inf
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total{host="x\\"y\\n\\\\z"} 3
# EOF
"""


class TestGoldenExposition:
    def test_both_expositions_match_golden(self, monkeypatch):
        registry = MetricsRegistry()
        registry.counter(
            "requests_total", "Requests served.", labelnames=("host",)
        ).labels(host='x"y\n\\z').inc(3)
        registry.gauge("queue_depth").set(float("inf"))
        registry.gauge("loss_ratio", "Loss; a \\ and a\nnewline.").set(
            float("nan")
        )
        latency = registry.histogram(
            "latency_seconds", "Latency.", labelnames=("stage",),
            buckets=(0.1, 1.0),
        )
        monkeypatch.setattr(time, "time", lambda: 1700000000.25)
        latency.labels(stage="parse").observe(0.05, exemplar='t"1')
        latency.labels(stage="parse").observe(5.0, exemplar="t2")
        latency.labels(stage="profile").observe(0.5)
        assert registry.to_openmetrics() == GOLDEN_OPENMETRICS
        assert registry.to_prometheus() == "".join(
            line.split(" # {")[0] + "\n"
            for line in GOLDEN_OPENMETRICS.splitlines()
            if line != "# EOF"
        )


class TestNullRegistry:
    def test_everything_is_a_no_op(self):
        registry = NullRegistry()
        assert registry.null
        counter = registry.counter("x_total")
        counter.inc(5)
        assert counter.value == 0
        assert counter.labels(a="b") is counter
        hist = registry.histogram("lat_seconds")
        with hist.time():
            pass
        assert hist.count == 0
        assert registry.families() == []
        assert registry.to_prometheus().strip() == ""
        assert registry.snapshot()["metrics"] == []

    def test_shared_singleton_flags(self):
        assert NULL_REGISTRY.null
        assert not MetricsRegistry().null

class TestBucketValidation:
    def test_presets_are_valid_and_sorted(self):
        for preset in (
            LATENCY_BUCKETS_FAST, LATENCY_BUCKETS_SLOW, SIZE_BUCKETS
        ):
            assert validate_buckets(preset) == preset
            assert list(preset) == sorted(preset)

    def test_empty_layout_rejected(self):
        with pytest.raises(MetricError, match="at least one"):
            validate_buckets(())

    def test_only_inf_rejected(self):
        # A lone +Inf is stripped (implicit overflow), leaving nothing.
        with pytest.raises(MetricError, match="at least one"):
            validate_buckets((float("inf"),))

    def test_unsorted_rejected_not_silently_sorted(self):
        with pytest.raises(MetricError, match="ascending"):
            validate_buckets((0.1, 0.05, 0.5))

    def test_duplicate_rejected(self):
        with pytest.raises(MetricError, match="duplicate"):
            validate_buckets((0.1, 0.1, 0.5))

    def test_non_finite_rejected(self):
        with pytest.raises(MetricError, match="finite"):
            validate_buckets((0.1, float("nan")))
        with pytest.raises(MetricError, match="finite"):
            validate_buckets((float("-inf"), 0.1))

    def test_non_numeric_rejected(self):
        with pytest.raises(MetricError, match="numbers"):
            validate_buckets(("fast", "slow"))

    def test_histogram_construction_validates(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.histogram("h_seconds", "H.", buckets=(2.0, 1.0))


class TestExemplars:
    def test_bucket_retains_latest_exemplar(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat_seconds", "L.", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05, exemplar="aaaa")
        histogram.observe(0.07, exemplar="bbbb")   # same bucket: replaces
        histogram.observe(0.5)                     # no exemplar: no change
        histogram.observe(5.0, exemplar="cccc")    # +Inf bucket
        exemplars = histogram.exemplars()
        assert exemplars[0.1][0] == "bbbb"
        assert exemplars[float("inf")][0] == "cccc"
        assert 1.0 not in exemplars

    def test_snapshot_carries_exemplars(self):
        registry = MetricsRegistry()
        registry.histogram(
            "lat_seconds", "L.", buckets=(0.1, 1.0)
        ).observe(0.05, exemplar="deadbeef")
        (family,) = json.loads(registry.to_json())["metrics"]
        exemplars = family["series"][0]["exemplars"]
        assert exemplars["0.1"]["trace_id"] == "deadbeef"
        assert exemplars["0.1"]["value"] == 0.05

    def test_default_exposition_has_no_exemplar_syntax(self):
        # The CI ops job parses /metrics with a strict 0.0.4 regex; the
        # exemplar suffix only appears in the opt-in OpenMetrics shape.
        registry = MetricsRegistry()
        registry.histogram(
            "lat_seconds", "L.", buckets=(0.1,)
        ).observe(0.05, exemplar="deadbeef")
        assert "deadbeef" not in registry.to_prometheus()
        assert "# {" not in registry.to_prometheus()

    def test_openmetrics_exposition_carries_exemplars_and_eof(self):
        registry = MetricsRegistry()
        registry.histogram(
            "lat_seconds", "L.", buckets=(0.1,)
        ).observe(0.05, exemplar="deadbeef")
        text = registry.to_openmetrics()
        assert '# {trace_id="deadbeef"} 0.05' in text
        assert text.endswith("# EOF\n")

    def test_null_registry_swallows_exemplars(self):
        NULL_REGISTRY.histogram("h", "H.").observe(0.1, exemplar="x")
        assert NULL_REGISTRY.histogram("h", "H.").exemplars() == {}


class TestMergeSnapshots:
    """Fleet-level aggregation of per-worker registry snapshots."""

    @staticmethod
    def _worker_registry(events, latency):
        registry = MetricsRegistry()
        registry.counter("stream_events_total", "E.").inc(events)
        registry.gauge("stream_active_clients", "C.").set(events / 2)
        registry.histogram(
            "emit_seconds", "L.", buckets=(0.1, 1.0)
        ).observe(latency)
        registry.counter(
            "index_queries_total", "Q.", labelnames=("backend",)
        ).labels(backend="exact").inc(events * 3)
        return registry

    def test_counters_gauges_and_histograms_sum(self):
        a = self._worker_registry(10, 0.05)
        b = self._worker_registry(4, 0.5)
        merged = MetricsRegistry.merge_snapshots(
            [a.snapshot(), b.snapshot()]
        )
        flat = MetricsRegistry.flatten(merged)
        assert flat["stream_events_total"] == 14.0
        assert flat["stream_active_clients"] == 7.0
        assert flat["emit_seconds_count"] == 2.0
        assert flat['emit_seconds_bucket{le="0.1"}'] == 1.0
        assert flat['emit_seconds_bucket{le="+Inf"}'] == 2.0
        assert flat['index_queries_total{backend="exact"}'] == 42.0

    def test_merge_is_order_independent(self):
        a = self._worker_registry(10, 0.05).snapshot()
        b = self._worker_registry(4, 0.5).snapshot()
        assert MetricsRegistry.merge_snapshots(
            [a, b]
        ) == MetricsRegistry.merge_snapshots([b, a])

    def test_single_snapshot_round_trips(self):
        snapshot = self._worker_registry(5, 0.2).snapshot()
        merged = MetricsRegistry.merge_snapshots([snapshot])
        assert MetricsRegistry.flatten(merged) == (
            MetricsRegistry.flatten(snapshot)
        )

    def test_mismatched_bucket_layouts_rejected(self):
        a = MetricsRegistry()
        a.histogram("h_seconds", "H.", buckets=(0.1,)).observe(0.05)
        b = MetricsRegistry()
        b.histogram("h_seconds", "H.", buckets=(0.5,)).observe(0.05)
        with pytest.raises(MetricError):
            MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot()])

    def test_mismatched_types_rejected(self):
        a = MetricsRegistry()
        a.counter("thing_total", "T.").inc()
        b = MetricsRegistry()
        b.gauge("thing_total", "T.").set(1)
        with pytest.raises(MetricError):
            MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot()])

    def test_unknown_format_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry.merge_snapshots([{"format": "bogus"}])

    def test_newest_exemplar_wins(self):
        a = MetricsRegistry()
        a.histogram("h_seconds", "H.", buckets=(1.0,)).observe(
            0.5, exemplar="older"
        )
        b = MetricsRegistry()
        b.histogram("h_seconds", "H.", buckets=(1.0,)).observe(
            0.5, exemplar="newer"
        )
        snap_a, snap_b = a.snapshot(), b.snapshot()
        # Force a deterministic timestamp ordering.
        snap_a["metrics"][0]["series"][0]["exemplars"]["1"][
            "timestamp"
        ] = 100.0
        snap_b["metrics"][0]["series"][0]["exemplars"]["1"][
            "timestamp"
        ] = 200.0
        merged = MetricsRegistry.merge_snapshots([snap_a, snap_b])
        exemplar = merged["metrics"][0]["series"][0]["exemplars"]["1"]
        assert exemplar["trace_id"] == "newer"


class TestMergeSnapshotsProperty:
    """Merging is exactly addition: N single-observation snapshots merge
    into the same view one registry holding all N observations reports."""

    _OBSERVATIONS = st.lists(
        st.tuples(
            st.sampled_from(("counter", "gauge", "histogram")),
            st.sampled_from(("alpha", "beta")),
            st.floats(
                min_value=0.0, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
        ),
        min_size=1, max_size=12,
    )

    @staticmethod
    def _apply(registry, kind, backend, amount):
        if kind == "counter":
            registry.counter(
                "merged_events_total", "E.", labelnames=("backend",)
            ).labels(backend=backend).inc(amount)
        elif kind == "gauge":
            registry.gauge(
                "merged_depth", "D.", labelnames=("backend",)
            ).labels(backend=backend).inc(amount)
        else:
            registry.histogram(
                "merged_seconds", "S.", buckets=(0.5, 100.0),
                labelnames=("backend",),
            ).labels(backend=backend).observe(amount)

    @given(observations=_OBSERVATIONS)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_combined_registry(self, observations):
        combined = MetricsRegistry()
        singles = []
        for kind, backend, amount in observations:
            single = MetricsRegistry()
            self._apply(single, kind, backend, amount)
            self._apply(combined, kind, backend, amount)
            singles.append(single.snapshot())
        merged = MetricsRegistry.merge_snapshots(singles)
        # Same series keys, same values — bitwise, not approximately:
        # per series the merge adds the same floats in the same order
        # the combined registry did.
        assert MetricsRegistry.flatten(merged) == (
            MetricsRegistry.flatten(combined.snapshot())
        )
