"""SLO engine: declarative objectives with multi-window burn-rate alerts.

Aggregate telemetry says what the pipeline *did*; an SLO says whether it
is *meeting its objective* — and, when it is not, how fast the error
budget is burning.  This module evaluates declarative objectives over the
live :class:`~repro.obs.metrics.MetricsRegistry`:

* **latency** — a quantile bound on an (unlabelled) histogram, e.g.
  ``profile_latency_seconds p99 < 50 ms``.  An observation above the
  threshold bucket is a *bad event*; the error budget is ``1 - quantile``
  (p99 ⇒ 1 % of events may be slow).
* **ratio** — a bad-events/total-events bound over two counter families,
  e.g. quarantined packets / stream events ``< 1 %``.  The threshold *is*
  the budget.
* **gauge_min** / **gauge_max** — an instantaneous floor/ceiling on a
  gauge, e.g. the drift monitor's neighbour-overlap@k (a live recall
  proxy) must stay above a floor.  Gauges that still read exactly 0.0 are
  treated as "not yet measured" and skipped.

Burn rate follows the standard multi-window definition: the bad-event
fraction over a trailing window divided by the error budget (burn 1.0 =
exactly consuming budget; 14.4 = a 30-day budget gone in 2 days).  An
alert fires only when **both** the fast window (default 5 m) and the slow
window (default 1 h) exceed their burn thresholds — the slow window
confirms real budget loss, the fast window makes the alert clear quickly
once the condition recovers.

The engine keeps a bounded ring of flattened registry snapshots (one per
:meth:`SLOEngine.evaluate` call) to compute windowed deltas; it can run
on its own daemon thread (:meth:`start`) or be driven by the admin
server's ``/slo`` and ``/alerts`` routes, which evaluate on demand.
States are also recorded as ``slo_*`` metrics so dashboards and the
flight recorder see alert transitions.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, _label_suffix

log = get_logger("obs.slo")

KINDS = ("latency", "ratio", "gauge_min", "gauge_max")


@dataclass(frozen=True)
class SLO:
    """One declarative objective over registry metrics."""

    name: str                      # stable identifier ("profile-latency-p99")
    kind: str                      # one of KINDS
    threshold: float               # seconds / ratio bound / gauge bound
    metric: str = ""               # histogram (latency) or gauge name
    quantile: float = 0.99         # latency kind only
    numerator: str = ""            # ratio kind: bad-event counter family
    denominator: str = ""          # ratio kind: total-event counter family
    description: str = ""

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"SLO kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.kind in ("latency", "gauge_min", "gauge_max") and not self.metric:
            raise ValueError(f"SLO {self.name!r}: metric is required")
        if self.kind == "ratio" and not (self.numerator and self.denominator):
            raise ValueError(
                f"SLO {self.name!r}: numerator and denominator are required"
            )
        if self.kind == "latency" and not 0.0 < self.quantile < 1.0:
            raise ValueError(
                f"SLO {self.name!r}: quantile must be in (0, 1)"
            )

    @property
    def budget(self) -> float:
        """Allowed bad-event fraction (error budget)."""
        if self.kind == "latency":
            return 1.0 - self.quantile
        if self.kind == "ratio":
            return self.threshold
        return 0.0  # gauge objectives are instantaneous, no budget


def default_slos() -> list[SLO]:
    """The stock objectives shipped with ``stream --slo``."""
    return [
        SLO(
            name="profile-latency-p99",
            kind="latency",
            metric="profile_latency_seconds",
            quantile=0.99,
            threshold=0.05,
            description="99% of session profiles computed in under 50 ms.",
        ),
        SLO(
            name="stream-quarantine-ratio",
            kind="ratio",
            numerator="quarantine_admitted_total",
            denominator="stream_events_total",
            threshold=0.01,
            description="Under 1% of stream events quarantined as malformed.",
        ),
        SLO(
            name="index-recall-floor",
            kind="gauge_min",
            metric="drift_neighbour_overlap",
            threshold=0.50,
            description=(
                "Live recall proxy: drift-check neighbour overlap@k must "
                "stay above the floor."
            ),
        ),
    ]


def fleet_slos(
    max_heartbeat_age_seconds: float = 5.0,
    max_lag_skew_batches: float = 256.0,
) -> list[SLO]:
    """Straggler objectives over the shard coordinator's ``fleet_*`` gauges.

    Both are ``gauge_max`` (instantaneous) objectives, so they fire the
    evaluation after the condition appears and clear the evaluation
    after it goes away — a SIGSTOPped worker fires ``fleet-straggler``
    within one heartbeat timeout, and a SIGCONT (or a respawn that
    resumes acking) clears it.  The gauges read 0.0 until the
    coordinator's first refresh, which the engine treats as "not yet
    measured".

    ``stream --workers N --slo`` appends these to :func:`default_slos`.
    """
    return [
        SLO(
            name="fleet-straggler",
            kind="gauge_max",
            metric="fleet_max_heartbeat_age_seconds",
            threshold=max_heartbeat_age_seconds,
            description=(
                "Every live shard worker heartbeats (ships a telemetry "
                "frame) within the timeout; a silent worker is stuck."
            ),
        ),
        SLO(
            name="fleet-lag-skew",
            kind="gauge_max",
            metric="fleet_lag_skew_batches",
            threshold=max_lag_skew_batches,
            description=(
                "No shard's unacked replay backlog may run away from "
                "its peers'; skew means one worker is falling behind."
            ),
        ),
    ]


@dataclass
class SLOState:
    """The evaluated condition of one SLO at one instant."""

    slo: SLO
    ok: bool = True
    alerting: bool = False
    skipped: bool = False          # gauge not yet measured / no events
    current: float | None = None   # measured quantile / ratio / gauge value
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    bad_events: float = 0.0        # cumulative since engine start
    total_events: float = 0.0
    budget_remaining: float = 1.0  # of the cumulative budget, [0, 1]
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.slo.name,
            "kind": self.slo.kind,
            "description": self.slo.description,
            "threshold": self.slo.threshold,
            "quantile": (
                self.slo.quantile if self.slo.kind == "latency" else None
            ),
            "budget": self.slo.budget,
            "ok": self.ok,
            "alerting": self.alerting,
            "skipped": self.skipped,
            "current": self.current,
            "burn_fast": round(self.burn_fast, 4),
            "burn_slow": round(self.burn_slow, 4),
            "bad_events": self.bad_events,
            "total_events": self.total_events,
            "budget_remaining": round(self.budget_remaining, 4),
            "detail": self.detail,
        }


def _family_total(flat: dict[str, float], name: str) -> float:
    """Sum of every series of counter family ``name`` in a flat snapshot."""
    prefix = name + "{"
    return sum(
        value for key, value in flat.items()
        if key == name or key.startswith(prefix)
    )


def _bucket_value(flat: dict[str, float], metric: str, le: str) -> float:
    return flat.get(f"{metric}_bucket{_label_suffix({'le': le})}", 0.0)


def _bucket_bounds(flat: dict[str, float], metric: str) -> list[str]:
    """The ``le`` spellings present for ``metric`` in a flat snapshot."""
    prefix = f'{metric}_bucket{{le="'
    bounds = []
    for key in flat:
        if key.startswith(prefix) and key.endswith('"}'):
            bounds.append(key[len(prefix):-2])
    return bounds


def estimate_quantile(
    buckets: list[tuple[float, float]], quantile: float
) -> float | None:
    """Linear-interpolated quantile from (upper bound, cumulative count).

    The Prometheus ``histogram_quantile`` estimator; None without data.
    """
    if not buckets:
        return None
    total = buckets[-1][1]
    if total <= 0:
        return None
    rank = quantile * total
    previous_bound, previous_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return previous_bound
            if count == previous_count:
                return bound
            fraction = (rank - previous_count) / (count - previous_count)
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, count
    return buckets[-1][0]


class SLOEngine:
    """Evaluates a set of :class:`SLO` over snapshot history.

    ``clock`` is injectable (monotonic seconds) so tests can steer the
    windows without sleeping.  All public methods are thread-safe: the
    admin server evaluates on demand while the background thread (if
    started) evaluates on its cadence.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        slos: list[SLO] | None = None,
        fast_window_seconds: float = 300.0,
        slow_window_seconds: float = 3600.0,
        fast_burn_threshold: float = 14.4,
        slow_burn_threshold: float = 1.0,
        clock=time.monotonic,
    ):
        if fast_window_seconds <= 0 or slow_window_seconds <= 0:
            raise ValueError("SLO windows must be positive")
        if slow_window_seconds < fast_window_seconds:
            raise ValueError("slow window must be >= fast window")
        self.registry = registry
        self.slos = list(slos) if slos is not None else default_slos()
        for slo in self.slos:
            slo.validate()
        self.fast_window_seconds = float(fast_window_seconds)
        self.slow_window_seconds = float(slow_window_seconds)
        self.fast_burn_threshold = float(fast_burn_threshold)
        self.slow_burn_threshold = float(slow_burn_threshold)
        self._clock = clock
        self._lock = threading.Lock()
        # (monotonic instant, flattened snapshot) ring; the oldest entry
        # kept is just past the slow window so windowed deltas always
        # have a baseline.
        self._history: deque[tuple[float, dict[str, float]]] = deque()
        self._baseline: dict[str, float] | None = None
        self._states: dict[str, SLOState] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        m = registry
        self._evaluations_total = m.counter(
            "slo_evaluations_total", "SLO engine evaluation passes."
        )
        self._burn_gauge = m.gauge(
            "slo_burn_rate",
            "Error-budget burn rate, by objective and window.",
            labelnames=("slo", "window"),
        )
        self._alert_gauge = m.gauge(
            "slo_alert_active",
            "1 while the multi-window burn alert for this objective fires.",
            labelnames=("slo",),
        )
        self._budget_gauge = m.gauge(
            "slo_error_budget_remaining",
            "Cumulative error budget remaining, by objective (1.0 = intact).",
            labelnames=("slo",),
        )
        self._transitions_total = m.counter(
            "slo_alert_transitions_total",
            "Alert state flips, by objective and direction.",
            labelnames=("slo", "direction"),
        )
        # Observers called on every alert flip: (slo_name, active, state
        # dict).  The flight recorder hooks in here.
        self.on_transition: list = []

    # -- lifecycle -----------------------------------------------------------

    def start(self, interval_seconds: float = 5.0) -> "SLOEngine":
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self._thread is not None:
            raise RuntimeError("SLO engine already started")

        def run():
            while not self._stop.wait(interval_seconds):
                try:
                    self.evaluate()
                except Exception as error:  # evaluation must not kill serving
                    log.error(
                        "slo evaluation failed",
                        error=f"{type(error).__name__}: {error}",
                    )

        self._thread = threading.Thread(
            target=run, name="slo-engine", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- history -------------------------------------------------------------

    def _window_baseline(
        self, now: float, window: float
    ) -> dict[str, float] | None:
        """Newest snapshot at or before ``now - window`` (oldest as fallback).

        None when history cannot yet cover any part of the window.
        """
        target = now - window
        chosen = None
        for instant, flat in self._history:
            if instant <= target:
                chosen = flat
            else:
                break
        if chosen is not None:
            return chosen
        return self._history[0][1] if self._history else None

    # -- evaluation ----------------------------------------------------------

    def evaluate(self) -> dict[str, SLOState]:
        """Take a snapshot, update every SLO's state, return the states."""
        with self._lock:
            now = self._clock()
            flat = MetricsRegistry.flatten(self.registry.snapshot())
            if self._baseline is None:
                self._baseline = flat
            self._history.append((now, flat))
            horizon = now - self.slow_window_seconds
            while len(self._history) > 1 and self._history[1][0] <= horizon:
                self._history.popleft()
            fast_base = self._window_baseline(now, self.fast_window_seconds)
            slow_base = self._window_baseline(now, self.slow_window_seconds)
            for slo in self.slos:
                previous = self._states.get(slo.name)
                state = self._evaluate_one(slo, flat, fast_base, slow_base)
                self._states[slo.name] = state
                self._export(state)
                was_alerting = previous.alerting if previous else False
                if state.alerting != was_alerting:
                    direction = "fire" if state.alerting else "clear"
                    self._transitions_total.labels(
                        slo=slo.name, direction=direction
                    ).inc()
                    log.warning(
                        "slo alert transition",
                        slo=slo.name, direction=direction,
                        burn_fast=round(state.burn_fast, 2),
                        burn_slow=round(state.burn_slow, 2),
                    )
                    for observer in self.on_transition:
                        try:
                            observer(slo.name, state.alerting, state.to_dict())
                        except Exception:
                            pass
            self._evaluations_total.inc()
            return dict(self._states)

    def _export(self, state: SLOState) -> None:
        name = state.slo.name
        self._burn_gauge.labels(slo=name, window="fast").set(state.burn_fast)
        self._burn_gauge.labels(slo=name, window="slow").set(state.burn_slow)
        self._alert_gauge.labels(slo=name).set(1.0 if state.alerting else 0.0)
        self._budget_gauge.labels(slo=name).set(state.budget_remaining)

    def _evaluate_one(
        self,
        slo: SLO,
        flat: dict[str, float],
        fast_base: dict[str, float] | None,
        slow_base: dict[str, float] | None,
    ) -> SLOState:
        state = SLOState(slo=slo)
        if slo.kind in ("gauge_min", "gauge_max"):
            value = flat.get(slo.metric)
            if value is None or value == 0.0:
                state.skipped = True
                state.detail = f"gauge {slo.metric} not yet measured"
                return state
            state.current = value
            if slo.kind == "gauge_min":
                state.ok = value >= slo.threshold
            else:
                state.ok = value <= slo.threshold
            state.alerting = not state.ok
            state.detail = (
                f"{slo.metric} = {value:g} vs "
                f"{'floor' if slo.kind == 'gauge_min' else 'ceiling'} "
                f"{slo.threshold:g}"
            )
            return state

        bad_now, total_now = self._bad_total(slo, flat)
        bad_base, total_base = self._bad_total(slo, self._baseline)
        state.bad_events = max(0.0, bad_now - bad_base)
        state.total_events = max(0.0, total_now - total_base)
        if state.total_events <= 0:
            state.skipped = True
            state.detail = "no events yet"
            return state
        budget = slo.budget
        allowed = state.total_events * budget
        state.budget_remaining = (
            max(0.0, 1.0 - state.bad_events / allowed) if allowed > 0 else 0.0
        )
        state.burn_fast = self._window_burn(slo, flat, fast_base, budget)
        state.burn_slow = self._window_burn(slo, flat, slow_base, budget)
        if slo.kind == "latency":
            bounds = _bucket_bounds(flat, slo.metric)
            pairs = sorted(
                (float(b.replace("+Inf", "inf")),
                 _bucket_value(flat, slo.metric, b))
                for b in bounds
            )
            state.current = estimate_quantile(pairs, slo.quantile)
        else:
            state.current = bad_now / total_now if total_now else 0.0
        state.alerting = (
            state.burn_fast >= self.fast_burn_threshold
            and state.burn_slow >= self.slow_burn_threshold
        )
        state.ok = not state.alerting and state.budget_remaining > 0.0
        state.detail = (
            f"burn fast {state.burn_fast:.1f}x / slow "
            f"{state.burn_slow:.1f}x of a {budget:.2%} budget"
        )
        return state

    def _bad_total(
        self, slo: SLO, flat: dict[str, float] | None
    ) -> tuple[float, float]:
        """(bad events, total events) counters as of one flat snapshot."""
        if flat is None:
            return 0.0, 0.0
        if slo.kind == "latency":
            total = flat.get(f"{slo.metric}_count", 0.0)
            le = self._threshold_bound(slo, flat)
            good = _bucket_value(flat, slo.metric, le) if le else 0.0
            return max(0.0, total - good), total
        numerator = _family_total(flat, slo.numerator)
        denominator = _family_total(flat, slo.denominator)
        return numerator, denominator

    def _threshold_bound(
        self, slo: SLO, flat: dict[str, float]
    ) -> str | None:
        """Largest bucket ``le`` spelling not above the latency threshold."""
        best, best_value = None, None
        for spelling in _bucket_bounds(flat, slo.metric):
            if spelling == "+Inf":
                continue
            value = float(spelling)
            if value <= slo.threshold + 1e-12:
                if best_value is None or value > best_value:
                    best, best_value = spelling, value
        return best

    def _window_burn(
        self,
        slo: SLO,
        flat: dict[str, float],
        base: dict[str, float] | None,
        budget: float,
    ) -> float:
        if budget <= 0:
            return 0.0
        bad_now, total_now = self._bad_total(slo, flat)
        bad_base, total_base = self._bad_total(slo, base)
        bad = max(0.0, bad_now - bad_base)
        total = max(0.0, total_now - total_base)
        if total <= 0:
            return 0.0
        return (bad / total) / budget

    # -- reporting -----------------------------------------------------------

    def states(self, evaluate: bool = True) -> dict[str, SLOState]:
        """Current per-SLO states (optionally re-evaluating first)."""
        if evaluate:
            return self.evaluate()
        with self._lock:
            return dict(self._states)

    def slo_report(self, evaluate: bool = True) -> dict:
        """The ``/slo`` JSON: every objective and its condition."""
        states = self.states(evaluate=evaluate)
        return {
            "format": "repro-slo-v1",
            "fast_window_seconds": self.fast_window_seconds,
            "slow_window_seconds": self.slow_window_seconds,
            "fast_burn_threshold": self.fast_burn_threshold,
            "slow_burn_threshold": self.slow_burn_threshold,
            "objectives": [
                states[slo.name].to_dict()
                for slo in self.slos
                if slo.name in states
            ],
        }

    def alerts_report(self, evaluate: bool = True) -> dict:
        """The ``/alerts`` JSON: only what is firing right now."""
        states = self.states(evaluate=evaluate)
        firing = [
            state.to_dict()
            for state in states.values()
            if state.alerting
        ]
        return {
            "format": "repro-alerts-v1",
            "firing": sorted(firing, key=lambda s: s["name"]),
            "count": len(firing),
        }
