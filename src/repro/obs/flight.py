"""Flight recorder: a bounded ring of recent events, dumped on death.

Metrics tell you *how much*, traces tell you *where the time went*; the
flight recorder answers the post-mortem question — *what was the process
doing right before it died*.  It keeps the last ``capacity`` structured
events in a lock-protected ring buffer:

============== ==============================================================
kind           recorded by
============== ==============================================================
``flow``       digests of the last N ingested flows (client, host, source)
``state``      lifecycle transitions (checkpoint restore, retrain, rollback)
``quarantine`` stream-hygiene decisions (what was rejected and why)
``drift``      drift-monitor verdicts and gate decisions
``slo``        SLO alert fire/clear transitions
``crash``      the terminal event appended by the dump hooks themselves
``worker``     fleet lifecycle (shard spawn, crash, respawn, replay, done)
``worldgen``   trace-generator progress (a resume point, each generated day)
============== ==============================================================

Each event is ``{"seq", "wall", "kind", "name", **fields}`` — JSON-safe
by construction (fields are coerced with ``repr`` as a last resort).

Dumps are atomic (tempfile + ``os.replace``) and are triggered three
ways: on demand (``/flight`` admin route, ``repro doctor``), on unhandled
exception (a chained ``sys.excepthook``), and on SIGTERM (handler chains
to the previous one, so supervisors still observe the default death).
``install_crash_hooks`` is opt-in — library use never mutates process
globals; only the CLI entry points install.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

from repro.obs.logging import get_logger
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

log = get_logger("obs.flight")

DEFAULT_CAPACITY = 2048
FORMAT = "repro-flight-v1"


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class FlightRecorder:
    """Bounded in-memory ring of recent structured events; thread-safe."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        registry: MetricsRegistry = NULL_REGISTRY,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=self.capacity)
        self._seq = 0
        self._started_wall = time.time()
        self._events_total = registry.counter(
            "flight_events_total",
            "Events appended to the flight recorder, by kind.",
            labelnames=("kind",),
        )
        self._dumps_total = registry.counter(
            "flight_dumps_total",
            "Flight-recorder dumps written, by trigger.",
            labelnames=("trigger",),
        )

    # -- recording -----------------------------------------------------------

    def record(self, kind: str, name: str, **fields) -> None:
        """Append one event; never raises (the recorder must not be able
        to take down the pipeline it is observing)."""
        try:
            event = {
                "seq": 0,  # stamped under the lock
                "wall": time.time(),
                "kind": kind,
                "name": name,
            }
            if fields:
                event.update(
                    {k: _jsonable(v) for k, v in fields.items()}
                )
            with self._lock:
                self._seq += 1
                event["seq"] = self._seq
                self._ring.append(event)
            self._events_total.labels(kind=kind).inc()
        except Exception:
            pass

    def slo_observer(self, slo_name: str, active: bool, state: dict) -> None:
        """SLO transition hook (``SLOEngine.on_transition`` signature)."""
        self.record(
            "slo",
            slo_name,
            direction="fire" if active else "clear",
            burn_fast=state.get("burn_fast"),
            burn_slow=state.get("burn_slow"),
        )

    # -- reading / dumping ---------------------------------------------------

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def report(self, reason: str = "on-demand") -> dict:
        events = self.events()
        kinds: dict[str, int] = {}
        for event in events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        return {
            "format": FORMAT,
            "reason": reason,
            "dumped_at": time.time(),
            "started_at": self._started_wall,
            "capacity": self.capacity,
            "dropped": max(0, self._seq - len(events)),
            "kinds": kinds,
            "events": events,
        }

    def dump(self, path, reason: str = "on-demand") -> Path:
        """Atomically write the current ring to ``path`` as JSON."""
        path = Path(path)
        payload = json.dumps(self.report(reason=reason), indent=2)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._dumps_total.labels(trigger=reason).inc()
        return path

    # -- crash hooks ---------------------------------------------------------

    def install_crash_hooks(self, path) -> None:
        """Dump to ``path`` on unhandled exception and on SIGTERM.

        Both hooks chain to whatever was installed before them, so
        interpreter tracebacks still print and supervisors still see the
        default SIGTERM death.  Call once, from a process entry point.
        """
        path = Path(path)
        previous_excepthook = sys.excepthook

        def excepthook(exc_type, exc_value, exc_tb):
            self.record(
                "crash",
                "unhandled-exception",
                exc_type=exc_type.__name__,
                message=str(exc_value),
            )
            try:
                dumped = self.dump(path, reason="unhandled-exception")
                log.error("flight recorder dumped", path=str(dumped))
            except Exception:
                pass
            previous_excepthook(exc_type, exc_value, exc_tb)

        sys.excepthook = excepthook

        if threading.current_thread() is not threading.main_thread():
            return  # signal handlers can only be set on the main thread
        try:
            previous_handler = signal.getsignal(signal.SIGTERM)

            def on_sigterm(signum, frame):
                self.record("crash", "sigterm")
                try:
                    self.dump(path, reason="sigterm")
                except Exception:
                    pass
                if callable(previous_handler):
                    previous_handler(signum, frame)
                else:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    os.kill(os.getpid(), signal.SIGTERM)

            signal.signal(signal.SIGTERM, on_sigterm)
        except (ValueError, OSError):
            pass
