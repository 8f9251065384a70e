"""Metrics registry: labelled counters, gauges, and fixed-bucket histograms.

The paper's eavesdropper is a *continuously running* system — daily SGNS
retrains, 20-minute session windows, per-flow SNI extraction — and its
fidelity claims only hold if per-stage loss and latency are accounted for
(the constrained-view setting of arXiv:1710.00069 makes the same point:
what the observer fails to see is part of the result).  This module is the
one source of truth for those numbers.

Design:

* a :class:`MetricsRegistry` owns metric *families* (one per name); a
  family with ``labelnames`` fans out into children via ``labels()``,
  Prometheus-style; an unlabelled family proxies straight to its single
  child, so ``registry.counter("x").inc()`` just works;
* every mutation is lock-protected — counters incremented from many
  threads never lose updates;
* export goes through one JSON snapshot format, ``repro-metrics-v1``
  (``snapshot`` / ``to_json``), for files and tests, with
  :meth:`MetricsRegistry.diff` turning two snapshots into the flat delta
  dict assertions want; every text exposition for scrapers — a live
  registry's or a merged fleet snapshot's, Prometheus 0.0.4 or
  OpenMetrics — is rendered from a snapshot by
  :func:`snapshot_to_prometheus`;
* :class:`NullRegistry` is a drop-in no-op so hot paths pay (almost)
  nothing when telemetry is off — instrumented code can also check the
  ``null`` attribute before taking timestamps.

Naming conventions (documented in README "Observability"): metrics are
prefixed by stage (``netobs_``, ``quarantine_``, ``stream_``, ``train_``,
``profile_``, ``retrain_``, ``bench_``); counters end in ``_total``
(``_seconds_total`` when they accumulate time); histograms of durations
end in ``_seconds``.
"""

from __future__ import annotations

import bisect
import json
import re
import threading
import time
from contextlib import contextmanager

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Default histogram buckets, tuned for the latencies this pipeline sees:
# sub-millisecond packet parses up to multi-second training epochs.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

# Named presets so call sites stop hand-rolling bucket tuples: pick by
# the latency regime being measured, not by copy-pasting floats.
#: Hot-path operations: packet parses, per-session profiling, index
#: searches — 100 µs to 1 s with dense sub-10 ms resolution.
LATENCY_BUCKETS_FAST = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0,
)
#: Batch operations: training epochs, retrains, store publishes —
#: 10 ms to 10 minutes.
LATENCY_BUCKETS_SLOW = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0, 600.0,
)
#: Payload/object sizes in bytes, powers of four from 64 B to 16 MiB.
SIZE_BUCKETS = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0,
)


class MetricError(ValueError):
    """Invalid metric name, label set, bucket layout, or conflicting
    re-registration."""


def validate_buckets(buckets) -> tuple[float, ...]:
    """Normalize and validate histogram bucket bounds.

    Accepts any iterable of numbers; a trailing ``+Inf`` is tolerated and
    stripped (the overflow bucket is implicit).  Rejects — with a
    :class:`MetricError` naming the problem — empty layouts, non-finite
    bounds, duplicates, and out-of-order bounds, instead of silently
    reordering them (a silently sorted tuple hides a typo at the call
    site until a dashboard looks wrong).
    """
    try:
        bounds = tuple(float(b) for b in buckets)
    except (TypeError, ValueError) as error:
        raise MetricError(f"histogram buckets must be numbers: {error}")
    if bounds and bounds[-1] == float("inf"):
        bounds = bounds[:-1]  # +Inf is implicit
    if not bounds:
        raise MetricError(
            "histogram needs at least one finite bucket bound"
        )
    for bound in bounds:
        if bound != bound or bound in (float("inf"), float("-inf")):
            raise MetricError(
                f"histogram bucket bounds must be finite, got {bound!r}"
            )
    for lower, upper in zip(bounds, bounds[1:]):
        if lower == upper:
            raise MetricError(
                f"duplicate histogram bucket bound {lower!r}"
            )
        if lower > upper:
            raise MetricError(
                f"histogram bucket bounds must be ascending: "
                f"{lower!r} precedes {upper!r}"
            )
    return bounds


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers without the trailing .0.

    Non-finite values use the spec spellings (``+Inf``, ``-Inf``,
    ``NaN``) — ``repr(float("inf"))`` would emit ``inf``, which scrapers
    reject.
    """
    value = float(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return f"{bound:g}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _label_suffix(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _check_format(snapshot: dict, action: str) -> None:
    """Refuse to ``action`` a dict that is not a ``repro-metrics-v1``
    snapshot (a :class:`MetricError` naming the format it carries)."""
    if snapshot.get("format") != "repro-metrics-v1":
        raise MetricError(
            f"cannot {action} snapshot format {snapshot.get('format')!r}"
        )


# -- children ---------------------------------------------------------------


class Counter:
    """Monotonic counter (floats allowed, e.g. accumulated seconds)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters can only increase")
        with self._lock:
            self._value += amount

    def reset(self, value: float = 0.0) -> None:
        """Set the absolute value — for checkpoint restore and tests only."""
        if value < 0:
            raise MetricError("counters cannot be negative")
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (queue depths, staleness, rates)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with an implicit +Inf overflow bucket.

    Bucket semantics are Prometheus's: a bucket with upper bound ``le``
    counts observations with ``value <= le`` — a value exactly on a
    boundary lands in that boundary's bucket, not the next one.

    Each bucket can retain one *exemplar*: the trace id of a recent
    observation that landed in it (plus the observed value and a
    timestamp).  A p99 outlier in the +Inf bucket then links straight to
    its trace tree via :meth:`Tracer.trace_spans`.
    """

    __slots__ = (
        "_bounds", "_counts", "_sum", "_count", "_lock", "_exemplars",
    )

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self._bounds = validate_buckets(buckets)  # ascending, +Inf excluded
        self._counts = [0] * (len(self._bounds) + 1)  # trailing slot is +Inf
        self._exemplars: list[tuple[str, float, float] | None] = (
            [None] * (len(self._bounds) + 1)
        )
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: str | None = None) -> None:
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                self._exemplars[index] = (exemplar, value, time.time())

    @contextmanager
    def time(self):
        """Observe the wall time of a ``with`` block, in seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        with self._lock:
            counts = list(self._counts)
        for bound, count in zip(self._bounds, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def exemplars(self) -> dict[float, tuple[str, float, float]]:
        """{bucket upper bound: (trace_id, value, unix ts)} where retained."""
        with self._lock:
            retained = list(self._exemplars)
        bounds = list(self._bounds) + [float("inf")]
        return {
            bound: exemplar
            for bound, exemplar in zip(bounds, retained)
            if exemplar is not None
        }


# -- families ---------------------------------------------------------------


class _Family:
    """One named metric; children keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise MetricError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _sole_child(self):
        """The single child of an unlabelled family (created on demand)."""
        if self.labelnames:
            raise MetricError(
                f"{self.name} is labelled by {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def samples(self) -> list[tuple[dict[str, str], object]]:
        """(labels dict, child) pairs, sorted by label values."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in items
        ]


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def reset(self, value: float = 0.0) -> None:
        self._sole_child().reset(value)

    @property
    def value(self) -> float:
        return self._sole_child().value

    def total(self) -> float:
        """Sum over every labelled child."""
        return sum(child.value for _, child in self.samples())

    def value_of(self, **labels: str) -> float:
        return self.labels(**labels).value


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()

    def set(self, value: float) -> None:
        self._sole_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole_child().dec(amount)

    @property
    def value(self) -> float:
        return self._sole_child().value


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...],
    ):
        super().__init__(name, help, labelnames)
        self.buckets = buckets

    def _make_child(self) -> Histogram:
        return Histogram(self.buckets)

    def observe(self, value: float, exemplar: str | None = None) -> None:
        self._sole_child().observe(value, exemplar=exemplar)

    def time(self):
        return self._sole_child().time()

    def exemplars(self) -> dict[float, tuple[str, float, float]]:
        return self._sole_child().exemplars()

    @property
    def sum(self) -> float:
        return self._sole_child().sum

    @property
    def count(self) -> int:
        return self._sole_child().count


_FAMILY_TYPES = {
    "counter": CounterFamily,
    "gauge": GaugeFamily,
    "histogram": HistogramFamily,
}


# -- the registry -----------------------------------------------------------


class MetricsRegistry:
    """Thread-safe home of every metric family in one process/component.

    Registration is idempotent: asking for an existing name with the same
    type and label set returns the existing family, so independent
    components can share a registry without coordination; a conflicting
    re-registration raises :class:`MetricError`.
    """

    null = False

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- registration -------------------------------------------------------

    def _register(self, cls, name: str, help: str,
                  labelnames: tuple[str, ...], **kwargs) -> _Family:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.labelnames != labelnames
                ):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            family = cls(name, help, labelnames, **kwargs)
            if not labelnames:
                # Eagerly create the sole child so an unlabelled metric
                # exports a zero-valued series before its first use.
                family._sole_child()
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> CounterFamily:
        return self._register(CounterFamily, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> GaugeFamily:
        return self._register(GaugeFamily, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> HistogramFamily:
        buckets = validate_buckets(buckets)
        family = self._register(
            HistogramFamily, name, help, labelnames, buckets=buckets
        )
        if family.buckets != buckets:
            raise MetricError(
                f"histogram {name!r} already registered with different buckets"
            )
        return family

    def families(self) -> list[_Family]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe snapshot of every family and series."""
        metrics = []
        for family in self.families():
            series = []
            for labels, child in family.samples():
                if family.kind == "histogram":
                    entry = {
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            _format_bound(bound): count
                            for bound, count in child.cumulative_buckets()
                        },
                    }
                    exemplars = child.exemplars()
                    if exemplars:
                        entry["exemplars"] = {
                            _format_bound(bound): {
                                "trace_id": trace_id,
                                "value": value,
                                "timestamp": timestamp,
                            }
                            for bound, (trace_id, value, timestamp)
                            in exemplars.items()
                        }
                    series.append(entry)
                else:
                    series.append({"labels": labels, "value": child.value})
            metrics.append({
                "name": family.name,
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series,
            })
        return {"format": "repro-metrics-v1", "metrics": metrics}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        return snapshot_to_prometheus(self.snapshot())

    def to_openmetrics(self) -> str:
        """OpenMetrics-style exposition with histogram bucket exemplars.

        Identical to :meth:`to_prometheus` except each bucket sample that
        retains an exemplar carries the ``# {trace_id="..."} value ts``
        suffix, and the output is terminated with ``# EOF``.  Scrapers
        that reject exemplar syntax should keep using ``/metrics`` in its
        default (0.0.4) shape.
        """
        return (
            snapshot_to_prometheus(self.snapshot(), exemplars=True)
            + "# EOF\n"
        )

    # -- snapshot algebra (for tests) ----------------------------------------

    @staticmethod
    def flatten(snapshot: dict) -> dict[str, float]:
        """Flatten a :meth:`snapshot` into {sample name: value}.

        Histograms contribute ``name_count``, ``name_sum`` and per-bucket
        ``name_bucket{...,le="..."}`` samples, mirroring the exposition.
        """
        flat: dict[str, float] = {}
        for family in snapshot.get("metrics", []):
            name = family["name"]
            for series in family["series"]:
                suffix = _label_suffix(series.get("labels", {}))
                if family["type"] == "histogram":
                    flat[f"{name}_count{suffix}"] = float(series["count"])
                    flat[f"{name}_sum{suffix}"] = float(series["sum"])
                    for bound, count in series["buckets"].items():
                        labels = dict(series.get("labels", {}))
                        labels["le"] = bound
                        flat[f"{name}_bucket{_label_suffix(labels)}"] = (
                            float(count)
                        )
                else:
                    flat[f"{name}{suffix}"] = float(series["value"])
        return flat

    @staticmethod
    def diff_snapshots(before: dict, after: dict) -> dict[str, float]:
        """Non-zero sample deltas between two snapshots (after - before)."""
        flat_before = MetricsRegistry.flatten(before)
        flat_after = MetricsRegistry.flatten(after)
        deltas = {}
        for key in sorted(set(flat_before) | set(flat_after)):
            delta = flat_after.get(key, 0.0) - flat_before.get(key, 0.0)
            if delta != 0.0:
                deltas[key] = delta
        return deltas

    def diff(self, before: dict) -> dict[str, float]:
        """Delta between an earlier :meth:`snapshot` and the registry now."""
        return self.diff_snapshots(before, self.snapshot())

    @staticmethod
    def merge_snapshots(snapshots: list[dict]) -> dict:
        """Merge per-process :meth:`snapshot` dicts into one fleet view.

        The sharded runtime's aggregation: each worker keeps a private
        registry (no cross-process locks on the hot path), the
        coordinator merges the snapshots.  Counters and gauges sum per
        (name, labels) series; histograms sum ``count``, ``sum`` and
        each cumulative bucket — which requires identical bucket
        layouts, and a mismatch raises :class:`MetricError` rather than
        producing a silently wrong distribution.  Exemplars keep the
        newest timestamp per bucket.  Series order is deterministic:
        family names sorted, series sorted by label items.
        """
        merged: dict[str, dict] = {}
        for snapshot in snapshots:
            _check_format(snapshot, "merge")
            for family in snapshot.get("metrics", []):
                name = family["name"]
                home = merged.setdefault(name, {
                    "name": name,
                    "type": family["type"],
                    "help": family["help"],
                    "labelnames": list(family["labelnames"]),
                    "series": {},
                })
                if home["type"] != family["type"]:
                    raise MetricError(
                        f"metric {name!r} is {home['type']} in one "
                        f"snapshot and {family['type']} in another"
                    )
                for series in family["series"]:
                    labels = series.get("labels", {})
                    key = tuple(sorted(labels.items()))
                    slot = home["series"].get(key)
                    if family["type"] == "histogram":
                        if slot is None:
                            slot = {
                                "labels": dict(labels),
                                "count": 0,
                                "sum": 0.0,
                                "buckets": {
                                    b: 0 for b in series["buckets"]
                                },
                            }
                            home["series"][key] = slot
                        if set(slot["buckets"]) != set(series["buckets"]):
                            raise MetricError(
                                f"histogram {name!r} has mismatched "
                                f"bucket layouts across snapshots"
                            )
                        slot["count"] += series["count"]
                        slot["sum"] += series["sum"]
                        for bound, count in series["buckets"].items():
                            slot["buckets"][bound] += count
                        for bound, exemplar in series.get(
                            "exemplars", {}
                        ).items():
                            existing = slot.setdefault(
                                "exemplars", {}
                            ).get(bound)
                            if (
                                existing is None
                                or exemplar["timestamp"]
                                > existing["timestamp"]
                            ):
                                slot["exemplars"][bound] = dict(exemplar)
                    else:
                        if slot is None:
                            slot = {"labels": dict(labels), "value": 0.0}
                            home["series"][key] = slot
                        slot["value"] += series["value"]
        metrics = []
        for name in sorted(merged):
            family = merged[name]
            metrics.append({
                "name": family["name"],
                "type": family["type"],
                "help": family["help"],
                "labelnames": family["labelnames"],
                "series": [
                    family["series"][key]
                    for key in sorted(family["series"])
                ],
            })
        return {"format": "repro-metrics-v1", "metrics": metrics}


# -- the no-op registry -----------------------------------------------------


class _NullTimer:
    """Reusable, stateless no-op context manager."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_TIMER = _NullTimer()


class _NullMetric:
    """Absorbs every metric operation; ``labels()`` returns itself."""

    def labels(self, **labels):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, exemplar: str | None = None) -> None:
        pass

    def exemplars(self) -> dict:
        return {}

    def reset(self, value: float = 0.0) -> None:
        pass

    def time(self):
        return _NULL_TIMER

    @property
    def value(self) -> float:
        return 0.0

    @property
    def sum(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    def total(self) -> float:
        return 0.0

    def value_of(self, **labels) -> float:
        return 0.0

    def samples(self) -> list:
        return []


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """No-op registry: instruments vanish, exports are empty.

    The default for hot-path components (training, per-session profiling)
    so uninstrumented runs pay essentially nothing; code that would take
    timestamps can skip them when ``registry.null`` is true.
    """

    null = True

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name, help="", labelnames=()):
        return _NULL_METRIC

    def gauge(self, name, help="", labelnames=()):
        return _NULL_METRIC

    def histogram(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        return _NULL_METRIC

    def families(self) -> list:
        return []


NULL_REGISTRY = NullRegistry()


# -- snapshot relabelling & exposition ---------------------------------------


def label_snapshot(snapshot: dict, **labels: str) -> dict:
    """A copy of ``snapshot`` with extra labels stamped on every series.

    The fleet-merge primitive: the coordinator stamps each worker's
    snapshot with ``shard="N"`` before merging, so per-shard series stay
    distinguishable in the fleet exposition instead of summing away.
    Stamping a label a series already carries is a :class:`MetricError`
    (it would silently overwrite a real dimension).
    """
    _check_format(snapshot, "relabel")
    for name in labels:
        if not _LABEL_RE.match(name):
            raise MetricError(f"invalid label name {name!r}")
    stamped = {str(k): str(v) for k, v in labels.items()}
    metrics = []
    for family in snapshot.get("metrics", []):
        collision = set(stamped) & set(family["labelnames"])
        if collision:
            raise MetricError(
                f"metric {family['name']!r} already carries label(s) "
                f"{sorted(collision)}"
            )
        series = []
        for entry in family["series"]:
            entry = dict(entry)
            entry["labels"] = {**entry.get("labels", {}), **stamped}
            series.append(entry)
        metrics.append({
            **family,
            "labelnames": list(family["labelnames"]) + sorted(stamped),
            "series": series,
        })
    return {"format": "repro-metrics-v1", "metrics": metrics}


def _parse_bound(spelling: str) -> float:
    return float("inf") if spelling == "+Inf" else float(spelling)


def snapshot_to_prometheus(snapshot: dict, exemplars: bool = False) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as text exposition.

    The one renderer: a live registry's :meth:`~MetricsRegistry.to_prometheus`
    and :meth:`~MetricsRegistry.to_openmetrics` render their own
    snapshot through it, and the fleet view renders the coordinator's
    *merged* snapshot (per-worker snapshots that exist only as dicts)
    the same way.  ``exemplars`` appends each retained bucket exemplar
    in OpenMetrics syntax; the 0.0.4 exposition leaves it off.
    """
    _check_format(snapshot, "render")
    lines: list[str] = []
    for family in snapshot.get("metrics", []):
        name = family["name"]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['type']}")
        for series in family["series"]:
            labels = series.get("labels", {})
            suffix = _label_suffix(labels)
            if family["type"] == "histogram":
                retained = series.get("exemplars", {}) if exemplars else {}
                buckets = sorted(
                    series["buckets"].items(),
                    key=lambda item: _parse_bound(item[0]),
                )
                for bound, count in buckets:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = bound
                    line = (
                        f"{name}_bucket"
                        f"{_label_suffix(bucket_labels)} {count}"
                    )
                    exemplar = retained.get(bound)
                    if exemplar is not None:
                        trace_id = _escape_label(exemplar["trace_id"])
                        line += (
                            f' # {{trace_id="{trace_id}"}}'
                            f" {_format_value(exemplar['value'])}"
                            f" {exemplar['timestamp']:.6f}"
                        )
                    lines.append(line)
                lines.append(
                    f"{name}_sum{suffix} {_format_value(series['sum'])}"
                )
                lines.append(f"{name}_count{suffix} {series['count']}")
            else:
                lines.append(
                    f"{name}{suffix} {_format_value(series['value'])}"
                )
    return "\n".join(lines) + "\n"
