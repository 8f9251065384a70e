"""Versioned artifact store: atomic publish, rollback, warm restart.

Every daily retrain is published as an immutable, digest-verified
**generation** (embeddings archive + profiler config);
``LATEST`` names the one that serves.  See ``DESIGN.md`` ("Persistence &
model generations") for the layout and the recovery walkthrough.
"""

from repro.store.artifacts import (
    DRIFT_REPORT_COMPONENT,
    EMBEDDINGS_COMPONENT,
    LATEST_NAME,
    MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
    PROFILER_CONFIG_COMPONENT,
    ArtifactIntegrityError,
    ArtifactStore,
    GenerationNotFoundError,
    GenerationRecord,
    StoreError,
    publish_model,
)

__all__ = [
    "DRIFT_REPORT_COMPONENT",
    "EMBEDDINGS_COMPONENT",
    "LATEST_NAME",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA_VERSION",
    "PROFILER_CONFIG_COMPONENT",
    "ArtifactIntegrityError",
    "ArtifactStore",
    "GenerationNotFoundError",
    "GenerationRecord",
    "StoreError",
    "publish_model",
]
