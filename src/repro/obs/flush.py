"""Periodic metrics snapshots: telemetry that survives a kill -9.

``stream --metrics-out`` writes its telemetry once, at clean exit — so a
crashed or killed run leaves nothing.  :class:`MetricsFlusher` is a tiny
daemon thread that rewrites the snapshot every ``interval_seconds`` with
the same atomic ``.tmp`` + ``os.replace`` discipline as every other
artifact in this repo, so whatever kills the process, the file on disk
is a complete, recent snapshot — never a torn one.

:func:`write_metrics` is the one ``--metrics-out`` writer, for the flusher
and the CLI's exit write alike: a ``.json`` destination gets the
``repro-metrics-v1`` JSON snapshot, anything else Prometheus text.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.utils.serialization import atomic_write_text

log = get_logger("obs.flush")


def write_metrics(registry: MetricsRegistry, path: str | Path) -> None:
    """Atomically write ``registry`` to ``path``: the JSON snapshot for a
    ``.json`` suffix, the Prometheus text exposition otherwise."""
    path = Path(path)
    if path.suffix == ".json":
        payload = registry.to_json(indent=2) + "\n"
    else:
        payload = registry.to_prometheus()
    atomic_write_text(path, payload)


class MetricsFlusher:
    """Background thread flushing a registry snapshot to disk on a cadence."""

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str | Path,
        interval_seconds: float,
    ):
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.registry = registry
        self.path = Path(path)
        self.interval_seconds = float(interval_seconds)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._flushes_total = registry.counter(
            "metrics_flushes_total",
            "Periodic metrics snapshots written to disk.",
        )

    def flush_now(self) -> None:
        """Write one snapshot immediately (atomic replace)."""
        write_metrics(self.registry, self.path)
        self._flushes_total.inc()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.flush_now()
            except Exception as error:   # a full disk must not kill serving
                log.error(
                    "metrics flush failed",
                    path=str(self.path),
                    error=f"{type(error).__name__}: {error}",
                )

    def start(self) -> "MetricsFlusher":
        if self._thread is not None:
            raise RuntimeError("flusher already started")
        self._thread = threading.Thread(
            target=self._run, name="metrics-flusher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_flush: bool = True) -> None:
        """Stop the thread; by default write one last snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_flush:
            self.flush_now()

    def __enter__(self) -> "MetricsFlusher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
