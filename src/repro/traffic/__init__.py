"""Synthetic browsing-traffic substrate.

Substitute for the paper's 1329-user / 600M-connection ISP-vantage dataset:
a generative model of the consumer web (topical sites with Zipf popularity,
CDN/API satellite hostnames, tracker hosts) and of users (latent interest
profiles, topic-coherent Markov sessions, diurnal activity).  The profiling
algorithm only ever consumes hostname request sequences, so reproducing the
co-occurrence statistics of those sequences is what makes the rest of the
reproduction faithful.
"""

from repro.traffic.blocklists import (
    Blocklist,
    FilterStats,
    TrackerFilter,
    build_blocklists,
)
from repro.traffic.events import HostKind, Request, hostnames_of
from repro.traffic.generator import (
    DiurnalModel,
    GenerationCursor,
    StreamingTraceGenerator,
    Trace,
    TraceBatch,
)
from repro.traffic.io import (
    ShardedTraceWriter,
    TraceFormatError,
    iter_trace,
    iter_trace_shards,
    load_trace,
    load_trace_shards,
    save_trace,
)
from repro.traffic.sessions import BrowsingModel, SessionConfig
from repro.traffic.users import (
    LazyUserPopulation,
    PopulationConfig,
    UserPopulation,
    UserProfile,
)
from repro.traffic.web import (
    Site,
    SyntheticWeb,
    VERTICAL_POPULARITY,
    WebConfig,
)

__all__ = [
    "Blocklist",
    "BrowsingModel",
    "DiurnalModel",
    "FilterStats",
    "GenerationCursor",
    "HostKind",
    "LazyUserPopulation",
    "PopulationConfig",
    "Request",
    "SessionConfig",
    "ShardedTraceWriter",
    "Site",
    "StreamingTraceGenerator",
    "SyntheticWeb",
    "Trace",
    "TraceBatch",
    "TraceFormatError",
    "TrackerFilter",
    "UserPopulation",
    "UserProfile",
    "VERTICAL_POPULARITY",
    "WebConfig",
    "build_blocklists",
    "hostnames_of",
    "iter_trace",
    "iter_trace_shards",
    "load_trace",
    "load_trace_shards",
    "save_trace",
]
