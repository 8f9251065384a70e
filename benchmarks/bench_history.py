"""Accumulate per-run ``BENCH_*.json`` artifacts into a trajectory.

Every bench run emits a ``repro-metrics-v1`` snapshot
(``BENCH_throughput.json``, ``BENCH_shard.json``, ``BENCH_worldgen.json``)
— a point measurement that, uploaded alone, tells
you nothing about the trend.  This script appends each artifact it finds
to a cumulative ``BENCH_history.jsonl``: one JSON line per (run, bench)
pair carrying the flattened gauges plus run metadata (timestamp, git
commit, branch, the bench name, the source filename), so the throughput
trajectory across commits is a single file you can plot or diff.

Usage (what CI does after each bench job)::

    python benchmarks/bench_history.py \
        --history benchmarks/out/BENCH_history.jsonl \
        BENCH_worldgen.json benchmarks/out/BENCH_shard.json

Missing input files are skipped with a note (a bench job only produces
its own artifact); malformed ones are recorded as an ``error`` line
rather than crashing the collection step.  Exit status is 0 as long as
at least one artifact was appended, 1 when nothing was.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HISTORY_FORMAT = "repro-bench-history-v1"


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except Exception:
        return None


def run_metadata() -> dict:
    """Where and when this collection ran: commit, branch, CI facts."""
    return {
        "collected_at": time.time(),
        "commit": os.environ.get("GITHUB_SHA") or _git(
            "rev-parse", "HEAD"
        ),
        "branch": os.environ.get("GITHUB_REF_NAME") or _git(
            "rev-parse", "--abbrev-ref", "HEAD"
        ),
        "run_id": os.environ.get("GITHUB_RUN_ID"),
        "job": os.environ.get("GITHUB_JOB"),
    }


def flatten_snapshot(snapshot: dict) -> dict[str, float]:
    """Gauge/counter values by name (labelled series get a suffix)."""
    values: dict[str, float] = {}
    for metric in snapshot.get("metrics", ()):
        for series in metric.get("series", ()):
            if "value" not in series:
                continue   # histograms carry no single headline number
            labels = series.get("labels") or {}
            suffix = "".join(
                f"_{labels[k]}" for k in sorted(labels)
            )
            values[f"{metric['name']}{suffix}"] = series["value"]
    return values


def history_line(path: Path, metadata: dict) -> dict:
    """One JSONL record for a bench artifact (or its failure to parse)."""
    line = {
        "format": HISTORY_FORMAT,
        "bench": path.stem.removeprefix("BENCH_").lower(),
        "source": path.name,
        **metadata,
    }
    try:
        snapshot = json.loads(path.read_text())
        if snapshot.get("format") != "repro-metrics-v1":
            raise ValueError(
                f"unexpected snapshot format {snapshot.get('format')!r}"
            )
        line["values"] = flatten_snapshot(snapshot)
    except (ValueError, OSError) as error:
        line["error"] = f"{type(error).__name__}: {error}"
    return line


def append_history(
    history_path: Path, artifact_paths: list[Path]
) -> tuple[int, int]:
    """Append a line per existing artifact; returns (appended, skipped)."""
    metadata = run_metadata()
    appended = skipped = 0
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a") as history:
        for path in artifact_paths:
            if not path.is_file():
                print(f"bench_history: {path} not found, skipping")
                skipped += 1
                continue
            line = history_line(path, metadata)
            history.write(json.dumps(line, sort_keys=True) + "\n")
            state = "error" if "error" in line else (
                f"{len(line['values'])} values"
            )
            print(f"bench_history: appended {line['bench']} ({state})")
            appended += 1
    return appended, skipped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="append BENCH_*.json snapshots to BENCH_history.jsonl"
    )
    parser.add_argument(
        "artifacts", nargs="+", type=Path, metavar="BENCH_JSON",
        help="bench snapshot files to append (missing ones are skipped)",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=Path(__file__).parent / "out" / "BENCH_history.jsonl",
        metavar="PATH",
        help="cumulative history file (default benchmarks/out/"
        "BENCH_history.jsonl)",
    )
    args = parser.parse_args(argv)
    appended, _ = append_history(args.history, args.artifacts)
    if appended == 0:
        print("bench_history: no artifacts found", file=sys.stderr)
        return 1
    print(f"bench_history: {args.history} now has "
          f"{sum(1 for _ in args.history.open())} line(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
