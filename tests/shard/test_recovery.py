"""Fault isolation: ``kill -9`` one worker, the day still completes.

The coordinator's replay buffer plus the worker's checkpoint make
delivery at-least-once and application exactly-once, so merged output
after a mid-stream SIGKILL is byte-identical to the undisturbed run —
no duplicate sessions, no dropped ones.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.shard import SHARD_CHECKPOINT_FORMAT, ShardCoordinator

from tests.shard.conftest import STREAM_CONFIG


def _coordinator(tmp_path, shard_model_dir, labelled, tracker_filter):
    return ShardCoordinator(
        2,
        checkpoint_dir=tmp_path / "ckpt",
        model_dir=shard_model_dir,
        labelled=labelled,
        stream_config=STREAM_CONFIG,
        tracker_filter=tracker_filter,
        checkpoint_every_batches=2,
    )


def _sigkill(coordinator, shard: int) -> None:
    """SIGKILL one worker and wait for the process to actually die.

    ``os.kill(pid, 0)`` still succeeds on the zombie, so liveness is
    checked through the Process handle (which reaps on ``is_alive``).
    """
    process = coordinator._shards[shard].process
    os.kill(process.pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if not process.is_alive():
            return
        time.sleep(0.05)
    raise AssertionError(f"pid {process.pid} survived SIGKILL")


def test_kill_nine_loses_only_one_window_and_heals(
    tmp_path, shard_model_dir, labelled, tracker_filter, shard_events,
    reference_emissions,
):
    coordinator = _coordinator(
        tmp_path, shard_model_dir, labelled, tracker_filter
    )
    coordinator.start()
    try:
        batch_size = 400
        batches = [
            shard_events[i:i + batch_size]
            for i in range(0, len(shard_events), batch_size)
        ]
        kill_at = len(batches) // 2
        for i, batch in enumerate(batches):
            if i == kill_at:
                _sigkill(coordinator, 0)
                # Next dispatch (or explicit poll) notices the death.
            coordinator.dispatch(batch)
            coordinator.poll()
        result = coordinator.finish()
    finally:
        coordinator.terminate()

    # Exactly-once application: identical output despite the replay.
    assert result.emissions == reference_emissions
    assert result.events_seen == len(shard_events)
    assert result.restarts >= 1
    # Isolation: the undisturbed shard never restarted.
    assert result.per_shard[1]["restarts"] == 0

    # The per-shard checkpoint is the restart artefact and it survives.
    checkpoint = json.loads(
        coordinator.shard_checkpoint_path(0).read_text()
    )
    assert checkpoint["format"] == SHARD_CHECKPOINT_FORMAT
    assert checkpoint["shard_id"] == 0


def test_kill_during_finish_still_completes(
    tmp_path, shard_model_dir, labelled, tracker_filter, shard_events,
    reference_emissions,
):
    coordinator = _coordinator(
        tmp_path, shard_model_dir, labelled, tracker_filter
    )
    coordinator.start()
    try:
        for i in range(0, len(shard_events), 400):
            coordinator.dispatch(shard_events[i:i + 400])
        _sigkill(coordinator, 1)
        result = coordinator.finish()
    finally:
        coordinator.terminate()
    assert result.emissions == reference_emissions
    assert result.restarts >= 1


def test_poll_reports_and_heals_idle_deaths(
    tmp_path, shard_model_dir, labelled, tracker_filter, shard_events,
):
    coordinator = _coordinator(
        tmp_path, shard_model_dir, labelled, tracker_filter
    )
    coordinator.start()
    try:
        coordinator.dispatch(shard_events[:400])
        _sigkill(coordinator, 0)
        restarted = coordinator.poll()
        assert restarted == [0]
        status = coordinator.status()
        assert status["shards"][0]["alive"]
        assert status["shards"][0]["restarts"] == 1
        assert status["restarts"] == 1
        assert coordinator.poll() == []
    finally:
        coordinator.terminate()


#: A coordinator process: start two idle workers, report their pids,
#: then wait to be killed.
_COORDINATOR_CHILD = """
import json, sys, time
from repro.shard import ShardCoordinator

coordinator = ShardCoordinator(
    2, checkpoint_dir=sys.argv[1],
    telemetry_interval_seconds=float(sys.argv[2]),
)
coordinator.start()
print(json.dumps([state.process.pid for state in coordinator._shards]))
sys.stdout.flush()
time.sleep(300)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("State:"):
                    return line.split()[1] != "Z"
    except FileNotFoundError:
        return False
    return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
@pytest.mark.parametrize("telemetry_interval", [0.0, 1.0])
def test_sigterm_to_coordinator_does_not_orphan_workers(
    tmp_path, telemetry_interval
):
    """SIGTERM kills a coordinator without running its ``atexit``
    cleanup, so each idle worker must notice on its own that its parent
    is gone and exit, with or without a telemetry heartbeat."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR_CHILD, str(tmp_path),
         str(telemetry_interval)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    pids: list[int] = []
    try:
        line = child.stdout.readline()
        assert line, "the coordinator exited before its workers were ready"
        pids = json.loads(line)
        assert len(pids) == 2 and all(_running(pid) for pid in pids)
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=30)
        deadline = time.monotonic() + 15
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in pids if _running(pid)]
        assert not survivors, f"workers {survivors} outlived their coordinator"
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
