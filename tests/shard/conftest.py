"""Shared fixtures for the sharded-runtime tests.

One small trained model is exported once per session and every test —
single-process reference and worker fleets alike — serves it, so parity
comparisons always run over byte-identical model files.
"""

from __future__ import annotations

import pytest

from repro.core import SkipGramConfig
from repro.core.pipeline import NetworkObserverProfiler, PipelineConfig
from repro.core.streaming import StreamingConfig, StreamingProfiler
from repro.netobs.flows import HostnameEvent

TEST_SEED = 1234

#: Streaming knobs every run in this package shares.
STREAM_CONFIG = {
    "session_minutes": 20.0,
    "report_interval_minutes": 10.0,
}


@pytest.fixture(scope="session")
def shard_model_dir(tmp_path_factory, labelled, trace, tracker_filter):
    pipeline = NetworkObserverProfiler(
        labelled,
        config=PipelineConfig(
            skipgram=SkipGramConfig(epochs=2, seed=TEST_SEED)
        ),
        tracker_filter=tracker_filter,
    )
    pipeline.train_on_day(trace, 0)
    return str(
        pipeline.export_model_dir(tmp_path_factory.mktemp("shard-model"))
    )


def client_ip(user_id: int) -> str:
    return f"10.0.{user_id // 256}.{user_id % 256}"


@pytest.fixture(scope="session")
def shard_events(trace):
    """Day-1 requests as wire tuples, in global (timestamp, user) order."""
    return [
        (client_ip(r.user_id), r.timestamp, r.hostname, "tls-sni")
        for r in trace.day(1)
    ]


def single_process_emissions(
    model_dir, labelled, tracker_filter, events
) -> list[dict]:
    """The ground truth every fleet result must reproduce exactly."""
    pipeline = NetworkObserverProfiler(
        labelled, tracker_filter=tracker_filter
    )
    pipeline.load_model_dir(model_dir)
    stream = StreamingProfiler(
        config=StreamingConfig(**STREAM_CONFIG),
        tracker_filter=tracker_filter,
    )
    stream.swap_model(pipeline.profiler)
    emissions = []
    for client, timestamp, hostname, source in events:
        emission = stream.ingest(
            HostnameEvent(
                client_ip=client,
                timestamp=timestamp,
                hostname=hostname,
                source=source,
            )
        )
        if emission is not None:
            emissions.append({
                "client": emission.client,
                "timestamp": emission.timestamp,
                "profile": emission.profile.to_payload(),
                "window_hosts": list(emission.window_hosts),
            })
    emissions.sort(key=lambda e: (e["timestamp"], e["client"]))
    return emissions


@pytest.fixture(scope="session")
def reference_emissions(
    shard_model_dir, labelled, tracker_filter, shard_events
):
    emissions = single_process_emissions(
        shard_model_dir, labelled, tracker_filter, shard_events
    )
    assert emissions, "degenerate fixture: no profiles emitted"
    return emissions
