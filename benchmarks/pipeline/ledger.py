"""Per-layer cost ledger, timed from outside the program.

The benchmark never edits ``src/``.  To see where wall time goes it
swaps a layer's public call for a timing wrapper — on one instance, on a
class, or on a module — runs the workload, and puts the original back.
Each span keeps its call count, its total time and its self time: total
minus the time of spans that ran inside it.  Self times of nested layers
therefore add up to the wall time the wrapped calls cover, and whatever
is left over is time no layer claimed.

Calls made while :attr:`Ledger.tag` is set are also kept as Chrome trace
events (``chrome://tracing`` / Perfetto), with the tag as their ``args``;
the benchmark sets it only for a deterministic sample of clients, so the
trace stays small.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

_MISSING = object()


class Ledger:
    """Call count, total and self seconds per named span."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.tag: dict | None = None
        self._stack: list[float] = []      # child time of each open span
        self._events: list[tuple[str, float, float, dict]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def _close(self, name: str, stat: list, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed
        if self.tag is not None:
            self._events.append((name, start, elapsed, self.tag))

    @contextmanager
    def span(self, name: str):
        """Time a block the benchmark runs itself."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, stat, start)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a timed call until :meth:`unwrap_all`.

        ``owner`` is an instance (only that object is timed), a class
        (every instance) or a module (calls through the module global).
        """
        original = getattr(owner, attr)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(name, stat, start)

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, timed)

    def unwrap_all(self) -> None:
        """Put every wrapped call back, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap_all()

    # -- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def self_sum(self) -> float:
        """Self seconds of every span: the wall time layers claimed."""
        return sum(stat[2] for stat in self.stats.values())

    @staticmethod
    def write_chrome_trace(path: Path, process: str, *ledgers: "Ledger"):
        """The tagged spans of ``ledgers`` as one Chrome trace file."""
        origin = min(ledger._origin for ledger in ledgers)
        events = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": process},
        }]
        for ledger in ledgers:
            for name, start, elapsed, tag in ledger._events:
                events.append({
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (start - origin) * 1e6,
                    "dur": elapsed * 1e6,
                    "args": tag,
                })
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}
        ))
