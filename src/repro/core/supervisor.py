"""Degraded-mode retraining: the daily retrain that refuses to die.

The paper's observer "trains a new model every day that we immediately
start using" (§5.4).  In production that retrain *will* fail sometimes —
corrupt day partitions, OOM, a bad deploy — and the worst response is to
stop serving.  The supervisor wraps the daily retrain with bounded retries
(exponential backoff plus deterministic jitter) and, when a day is lost,
keeps serving the previous day's model while exposing how stale it is, so
operators can alert on staleness instead of discovering an outage.

All time here is simulated: backoff delays are *recorded* and handed to an
injectable ``sleep`` callable (a no-op by default) so the same supervisor
drives wall-clock deployments with ``time.sleep`` and replayable
experiments with nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.skipgram import TrainStats
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    NULL_TRACER,
    TraceContext,
    Tracer,
    new_trace_id,
    use_trace,
)
from repro.utils.randomness import derive_rng

log = get_logger("core.supervisor")


@dataclass
class SupervisorConfig:
    """Retry policy for the daily retrain."""

    max_attempts: int = 3
    backoff_base_seconds: float = 60.0
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 3600.0
    # Each delay is scaled by a uniform factor in [1-j, 1+j] so a fleet of
    # observers does not retrain in lockstep after a shared outage.
    jitter_fraction: float = 0.1
    max_recorded_errors: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_multiplier < 1:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.backoff_max_seconds < 0:
            raise ValueError("backoff_max_seconds must be >= 0")
        if not 0 <= self.jitter_fraction < 1:
            raise ValueError("jitter_fraction must be in [0, 1)")
        if self.max_recorded_errors < 0:
            raise ValueError("max_recorded_errors must be >= 0")


@dataclass(frozen=True)
class RetrainOutcome:
    """What one supervised retrain did."""

    day: int
    succeeded: bool
    attempts: int
    backoff_seconds: tuple[float, ...]   # delay taken before each retry
    error: str | None                    # last failure, if any
    stats: TrainStats | None
    generation: str | None = None        # store generation published
    rolled_back: bool = False            # drift gate vetoed, store rolled back


class RetrainSupervisor:
    """Runs the daily retrain with retries; serves stale on failure.

    ``pipeline`` is anything with a ``train_on_day(trace, day)`` method
    and a ``profiler`` property (normally
    :class:`repro.core.pipeline.NetworkObserverProfiler`).  When ``stream``
    (a :class:`repro.core.streaming.StreamingProfiler`) is attached, a
    successful retrain is atomically swapped into it; on failure the
    stream keeps the model it already serves.

    When ``store`` (an :class:`~repro.store.ArtifactStore`) is attached,
    every successful retrain is published as a generation — the pipeline
    must then also provide ``publish_generation(store, day)`` /
    ``load_generation(store)``.

    When ``drift_monitor`` (a :class:`~repro.obs.drift.DriftMonitor`) is
    attached, every retrain that has a serving model to compare against
    runs a drift check; the report is published inside the new
    generation and kept as ``last_drift_report`` for the admin plane.
    When the monitor's config has ``gate`` set, a threshold breach
    rejects the new model — the one way a trained model is rejected:
    the pipeline's ``reinstate(profiler)`` puts the pre-retrain model
    back, the published generation is rolled back and retracted, the
    stream keeps serving what it already had, and the day counts as
    lost.  While the post-train checks run, ``validating`` is True
    (surfaced as the ``retrain_validating`` gauge and flipping
    ``/readyz`` on an attached admin server).
    """

    def __init__(
        self,
        pipeline,
        stream=None,
        config: SupervisorConfig | None = None,
        sleep=None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        store=None,
        drift_monitor=None,
        flight=None,
    ):
        self.pipeline = pipeline
        self.stream = stream
        self.store = store
        self.drift_monitor = drift_monitor
        # Optional flight recorder: retrain lifecycle transitions (publish,
        # rollback, drift-gate vetoes, lost days) become post-mortem events.
        self.flight = flight
        self.last_drift_report = None
        self.validating = False
        self.config = config or SupervisorConfig()
        self.config.validate()
        self._sleep = sleep if sleep is not None else (lambda seconds: None)
        self._rng = derive_rng(self.config.seed, "retrain-supervisor")
        self.last_success_day: int | None = None
        self.failed_days: list[int] = []
        self.errors: list[tuple[int, str]] = []   # (day, message), bounded
        self.history: list[RetrainOutcome] = []
        # Attempt/retry/success counters and the staleness gauges live on
        # the registry; the legacy attributes below are read-only views.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        m = self.registry
        self._attempts_total = m.counter(
            "retrain_attempts_total", "Daily-retrain attempts, all days."
        )
        self._retries_total = m.counter(
            "retrain_retries_total", "Retrain attempts beyond each first try."
        )
        self._successes_total = m.counter(
            "retrain_successes_total", "Days whose retrain succeeded."
        )
        self._failed_days_total = m.counter(
            "retrain_failed_days_total",
            "Days lost after exhausting every attempt.",
        )
        self._backoff_seconds_total = m.counter(
            "retrain_backoff_seconds_total",
            "Backoff delay accumulated before retries.",
        )
        self._consecutive_failures_gauge = m.gauge(
            "retrain_consecutive_failures",
            "Consecutive lost days; 0 when the last retrain succeeded.",
        )
        self._staleness_gauge = m.gauge(
            "retrain_staleness_days",
            "Days the serving model lags the newest requested retrain day.",
        )
        self._generations_published_total = m.counter(
            "retrain_generations_published_total",
            "Store generations published by successful retrains.",
        )
        self._publish_failures_total = m.counter(
            "retrain_publish_failures_total",
            "Retrains whose store publish failed (model served unpersisted).",
        )
        self._rollbacks_total = m.counter(
            "retrain_rollbacks_total",
            "Store rollbacks triggered by failed validation.",
        )
        self._drift_gate_breaches_total = m.counter(
            "drift_gate_breaches_total",
            "Retrained models vetoed by the drift gate.",
        )
        self._validating_gauge = m.gauge(
            "retrain_validating",
            "1 while post-train validation/drift checks run, else 0.",
        )

    # -- registry-backed counters --------------------------------------------

    @property
    def attempts(self) -> int:
        return int(self._attempts_total.value)

    @property
    def retries(self) -> int:
        return int(self._retries_total.value)

    @property
    def successes(self) -> int:
        return int(self._successes_total.value)

    @property
    def consecutive_failures(self) -> int:
        return int(self._consecutive_failures_gauge.value)

    # -- retry policy --------------------------------------------------------

    def _backoff(self, retry_index: int) -> float:
        """Delay before retry ``retry_index`` (0-based), with jitter."""
        cfg = self.config
        delay = cfg.backoff_base_seconds * (
            cfg.backoff_multiplier ** retry_index
        )
        delay = min(delay, cfg.backoff_max_seconds)
        if cfg.jitter_fraction:
            delay *= 1 + cfg.jitter_fraction * (
                2 * float(self._rng.random()) - 1
            )
        return delay

    def _record_error(self, day: int, error: Exception) -> None:
        if len(self.errors) < self.config.max_recorded_errors:
            self.errors.append((day, f"{type(error).__name__}: {error}"))

    # -- store integration ---------------------------------------------------

    def _publish(self, day: int, drift_report=None) -> str | None:
        """Publish the just-trained model as a store generation.

        A publish failure (disk full, permissions) must not undo a
        successful retrain: the in-memory model keeps serving, the error
        is recorded, and the generation id comes back None.
        """
        if self.store is None:
            return None
        try:
            if drift_report is None:
                # Keyword omitted on purpose: duck-typed pipelines that
                # predate drift reports stay publishable.
                record = self.pipeline.publish_generation(self.store, day=day)
            else:
                record = self.pipeline.publish_generation(
                    self.store, day=day,
                    drift_report=drift_report.to_dict(),
                )
        except Exception as error:
            self._publish_failures_total.inc()
            self._record_error(day, error)
            log.error(
                "generation publish failed; serving unpersisted model",
                day=day, error=f"{type(error).__name__}: {error}",
            )
            return None
        self._generations_published_total.inc()
        return record.generation_id

    def _roll_back(self, day: int, generation_id: str | None) -> bool:
        """Undo a vetoed publish in the store; True if it rolled back.

        Rolls the store back to the previous generation and retracts the
        rejected one, so no later rollback can ever land on it.  When the
        bad generation was the first ever, it is simply retracted and
        the store empties.
        """
        if self.store is None or generation_id is None:
            return False
        from repro.store import StoreError

        try:
            previous = self.store.rollback()
        except StoreError:
            self.store.retract(generation_id)
            log.error(
                "first-ever generation rejected by drift gate; retracted",
                day=day, generation=generation_id,
            )
            return False
        self._rollbacks_total.inc()
        self.store.retract(generation_id)
        log.warning(
            "drift gate rejected retrained model; rolled back to previous "
            "generation",
            day=day, rejected=generation_id,
            now_serving=previous.generation_id,
        )
        return True

    # -- drift gate ----------------------------------------------------------

    def _serving_profiler(self):
        """The profiler serving *before* this retrain, or None."""
        try:
            return self.pipeline.profiler
        except Exception:
            return None

    def _drift_check(self, serving_profiler, serving_generation, day: int):
        """Compare candidate vs serving; None when nothing to compare.

        The comparison itself must never turn a good retrain into a lost
        day — an exception inside the monitor is recorded and the check
        is treated as absent (no report, no gate).
        """
        if self.drift_monitor is None or serving_profiler is None:
            return None
        try:
            report = self.drift_monitor.compare(
                serving_profiler,
                self.pipeline.profiler,
                serving_generation=serving_generation,
                candidate_day=day,
            )
        except Exception as error:
            self._record_error(day, error)
            log.error(
                "drift check failed; retrain proceeds ungated",
                day=day, error=f"{type(error).__name__}: {error}",
            )
            return None
        self.last_drift_report = report
        if self.flight is not None:
            self.flight.record(
                "drift", "drift-check", day=day, ok=report.ok,
                breaches=list(report.breaches),
            )
        return report

    # -- the supervised retrain ----------------------------------------------

    def retrain(self, trace, day: int) -> RetrainOutcome:
        """Attempt the daily retrain for ``day``; never raises.

        On success the new model starts serving (and is swapped into the
        attached stream).  After ``max_attempts`` failures the previous
        model keeps serving and the day is recorded as lost.

        Each retrain runs under its own :class:`TraceContext`, so the
        ``retrain.day`` span and everything opened beneath it (training,
        drift check, publish) form one trace.
        """
        if self.tracer.null:
            return self._retrain(trace, day)
        with use_trace(TraceContext(trace_id=new_trace_id())):
            return self._retrain(trace, day)

    def _retrain(self, trace, day: int) -> RetrainOutcome:
        delays: list[float] = []
        last_error: Exception | None = None
        stats: TrainStats | None = None
        succeeded = False
        # train_on_day replaces the pipeline's profiler in place, so the
        # serving side of the drift comparison must be captured now.
        serving_profiler = None
        serving_generation = None
        if self.drift_monitor is not None:
            serving_profiler = self._serving_profiler()
            if self.store is not None:
                serving_generation = self.store.latest_id()
        with self.tracer.span("retrain.day", day=day):
            for attempt in range(1, self.config.max_attempts + 1):
                self._attempts_total.inc()
                if attempt > 1:
                    self._retries_total.inc()
                    delay = self._backoff(attempt - 2)
                    delays.append(delay)
                    self._backoff_seconds_total.inc(delay)
                    self._sleep(delay)
                try:
                    stats = self.pipeline.train_on_day(trace, day)
                except Exception as error:  # degraded mode survives anything
                    last_error = error
                    self._record_error(day, error)
                    log.warning(
                        "retrain attempt failed",
                        day=day, attempt=attempt,
                        max_attempts=self.config.max_attempts,
                        error=f"{type(error).__name__}: {error}",
                    )
                    continue
                succeeded = True
                break
        generation_id = None
        rolled_back = False
        if succeeded:
            self.validating = True
            self._validating_gauge.set(1)
            try:
                drift_report = self._drift_check(
                    serving_profiler, serving_generation, day
                )
                # Publish first, gate second: a vetoed model is rolled
                # back through the same pointer swap an operator would
                # use, so the recovery path is exercised on every bad
                # retrain.  The drift report (if any) is published inside
                # the generation even when the gate then vetoes it — the
                # retracted generation's post-mortem rides in
                # last_drift_report.
                generation_id = self._publish(day, drift_report)
                if (
                    drift_report is not None
                    and self.drift_monitor.config.gate
                    and not drift_report.ok
                ):
                    failure = ValueError(
                        "drift gate breached: "
                        + ", ".join(drift_report.breaches)
                    )
                    self._drift_gate_breaches_total.inc()
                    log.error(
                        "drift gate breached; rejecting retrained model",
                        day=day, breaches=list(drift_report.breaches),
                    )
                    succeeded = False
                    stats = None   # the rejected model's stats don't count
                    last_error = failure
                    self._record_error(day, failure)
                    # Put the pre-retrain model (the one the stream still
                    # serves) back in the pipeline, so direct
                    # ``pipeline.profiler`` callers and later retrains'
                    # drift checks see it rather than the rejected one.
                    self.pipeline.reinstate(serving_profiler)
                    rolled_back = self._roll_back(day, generation_id)
                    if self.flight is not None:
                        self.flight.record(
                            "state", "retrain-rejected", day=day,
                            rejected=generation_id,
                            rolled_back=rolled_back,
                            reason=str(failure),
                        )
                    generation_id = None
            finally:
                self.validating = False
                self._validating_gauge.set(0)
        if succeeded:
            self._successes_total.inc()
            self._consecutive_failures_gauge.set(0)
            self.last_success_day = day
            log.info("retrain published", day=day, generation=generation_id)
            if self.flight is not None:
                self.flight.record(
                    "state", "retrain-published", day=day,
                    generation=generation_id,
                )
            if self.stream is not None:
                # The profiler carries its freshly built vector index, so
                # this swap publishes model + index atomically.
                self.stream.swap_model(
                    self.pipeline.profiler, generation=generation_id
                )
        else:
            self._consecutive_failures_gauge.inc()
            self._failed_days_total.inc()
            self.failed_days.append(day)
            log.error(
                "retrain day lost; serving stale model",
                day=day, attempts=attempt,
                consecutive_failures=self.consecutive_failures,
            )
            if self.flight is not None:
                self.flight.record(
                    "state", "retrain-day-lost", day=day,
                    consecutive_failures=self.consecutive_failures,
                )
        self._staleness_gauge.set(
            0 if self.last_success_day is None
            else max(0, day - self.last_success_day)
        )
        outcome = RetrainOutcome(
            day=day,
            succeeded=succeeded,
            attempts=attempt,
            backoff_seconds=tuple(delays),
            error=None if last_error is None else
            f"{type(last_error).__name__}: {last_error}",
            stats=stats,
            generation=generation_id,
            rolled_back=rolled_back,
        )
        self.history.append(outcome)
        return outcome

    # -- observability --------------------------------------------------------

    def staleness_days(self, current_day: int) -> int | None:
        """Days the serving model lags behind; None if never trained."""
        if self.last_success_day is None:
            return None
        return max(0, current_day - self.last_success_day)

    @property
    def is_degraded(self) -> bool:
        return self.consecutive_failures > 0

    def summary(self) -> str:
        """One-line operator-facing digest."""
        trained = (
            "never trained" if self.last_success_day is None
            else f"last success day {self.last_success_day}"
        )
        return (
            f"retrain: {self.successes} ok, {len(self.failed_days)} days "
            f"lost, {self.retries} retries, {trained}, "
            f"{self.consecutive_failures} consecutive failures"
        )
