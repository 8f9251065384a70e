"""``repro doctor``: one-directory debug bundle for post-mortems.

When a long-running observer misbehaves, the facts are scattered: live
metrics behind the admin port, drift reports inside store generations,
traces and snapshots in whatever files the run was started with.
:func:`collect_bundle` gathers everything reachable into a single
directory an operator can attach to a ticket:

================  ==========================================================
file              contents
================  ==========================================================
``metrics.prom``  Prometheus exposition (live scrape or copied snapshot)
``varz.json``     ``/varz`` process snapshot (live only)
``readyz.json``   ``/readyz`` verdict + body, with the HTTP status
``healthz.json``  ``/healthz`` body (live only)
``generations.json``  store manifest list (live route or offline store)
``drift.json``    latest drift report (live route or newest generation)
``slo.json``      ``/slo`` objective states with burn rates (live only)
``alerts.json``   ``/alerts`` firing objectives (live only)
``flight.json``   flight-recorder ring dump (``/flight`` or a dump file)
``profile.collapsed``  on-demand CPU profile, flamegraph.pl format
``trace.json``    Chrome trace copied from ``--trace``
``shards.json``   ``/shards`` fleet state (live only; absence is explicit)
``metrics_fleet.prom``  ``/metrics?scope=fleet`` merged fleet exposition
``traces.json``   ``/trace`` index of reassembled cross-process traces
``shards/``       per-shard checkpoints and worker flight dumps copied
                  from ``--shard-dir`` (the coordinator checkpoint dir)
``config.json``   the resolved CLI configuration of the doctor run target
``bundle.json``   what was collected, from where, and what failed
================  ==========================================================

Every source is optional and every failure is recorded rather than
raised — a half-dead process should still yield a half-full bundle.
Offline runs (no ``admin_url``) record the absence of the live-only
captures (SLO states, alerts, the on-demand profile, fleet state) in
the manifest's ``errors`` map instead of failing; a live process with
no shard coordinator attached records the fleet routes as ``absent``
the same way.

Offline store captures reuse the admin server's store readers, so
``generations.json`` has one shape however it was collected.  Manifest
format: ``repro-doctor-v3`` (plain JSON; nothing here reads it back).
"""

from __future__ import annotations

import json
import shutil
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.obs.logging import get_logger
from repro.obs.server import latest_drift_report, store_generations
from repro.utils.serialization import atomic_write_json, atomic_write_text

log = get_logger("obs.doctor")

#: Admin routes fetched live, mapped to bundle filenames.
_LIVE_ROUTES = (
    ("/metrics", "metrics.prom"),
    ("/healthz", "healthz.json"),
    ("/readyz", "readyz.json"),
    ("/varz", "varz.json"),
    ("/generations", "generations.json"),
    ("/drift/latest", "drift.json"),
    ("/slo", "slo.json"),
    ("/alerts", "alerts.json"),
    ("/flight", "flight.json"),
    ("/shards", "shards.json"),
    ("/metrics?scope=fleet", "metrics_fleet.prom"),
    ("/trace", "traces.json"),
)

#: Live-only captures whose absence an offline bundle must explain.
_LIVE_ONLY = (
    "/slo", "/alerts", "/flight", "/profile", "/shards",
    "/metrics?scope=fleet", "/trace",
)


def _fetch(url: str, timeout: float) -> tuple[int | None, str]:
    """(status, body) for a GET; (None, error) when unreachable.

    Non-200 statuses are *data* here — a 503 ``/readyz`` is exactly what
    a post-mortem wants to capture.
    """
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()
    except (urllib.error.URLError, OSError, ValueError) as error:
        return None, f"{type(error).__name__}: {error}"


def collect_bundle(
    out_dir: str | Path,
    admin_url: str | None = None,
    store=None,
    metrics_path: str | Path | None = None,
    trace_path: str | Path | None = None,
    flight_path: str | Path | None = None,
    config: dict | None = None,
    timeout: float = 5.0,
    profile_seconds: float = 5.0,
    shard_dir: str | Path | None = None,
) -> dict:
    """Assemble a debug bundle in ``out_dir``; returns the bundle manifest.

    ``admin_url`` scrapes a live process — including its ``/slo`` and
    ``/alerts`` states, its flight-recorder ring, and (when
    ``profile_seconds`` > 0) an on-demand CPU profile burst; ``store``
    (an :class:`~repro.store.ArtifactStore`) reads generation manifests
    and drift reports offline; ``metrics_path`` / ``trace_path`` /
    ``flight_path`` copy telemetry files a run already wrote, and
    ``shard_dir`` (a coordinator's checkpoint directory) copies every
    per-shard checkpoint and worker flight dump into ``shards/``.  Live
    routes win over offline sources for the same filename; nothing
    reachable is an empty-but-valid bundle whose manifest says so, with
    live-only captures (SLO, alerts, profile, fleet state) explicitly
    noted absent.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    collected: dict[str, str] = {}     # filename -> source
    errors: dict[str, str] = {}        # source -> what went wrong

    if admin_url is not None:
        base = admin_url.rstrip("/")
        for route, filename in _LIVE_ROUTES:
            status, body = _fetch(base + route, timeout)
            if status is None:
                errors[route] = body
                continue
            if route == "/readyz":
                # Keep the status alongside the body: 503-during-retrain
                # vs 503-no-model is the whole point of the capture.
                try:
                    parsed = json.loads(body)
                except ValueError:
                    parsed = {"raw": body}
                atomic_write_json(
                    out / filename, {"status": status, "body": parsed}
                )
            elif status == 404:
                # Routes that answer "nothing attached" (e.g. /shards
                # without a coordinator) are recorded as explicitly
                # absent, not as scrape failures.
                try:
                    reason = json.loads(body).get("error") or ""
                except ValueError:
                    reason = ""
                errors[route] = (
                    f"absent: {reason}" if reason else "absent: HTTP 404"
                )
                continue
            elif status != 200:
                errors[route] = f"HTTP {status}"
                continue
            else:
                atomic_write_text(out / filename, body)
            collected[filename] = base + route
        if profile_seconds > 0:
            route = (
                f"/profile?seconds={profile_seconds:g}&format=collapsed"
            )
            # The burst blocks server-side for its full duration, so the
            # fetch timeout must outlast it.
            status, body = _fetch(
                base + route, timeout + profile_seconds
            )
            if status == 200:
                atomic_write_text(out / "profile.collapsed", body)
                collected["profile.collapsed"] = base + route
            else:
                errors["/profile"] = (
                    body if status is None else f"HTTP {status}"
                )
    else:
        for route in _LIVE_ONLY:
            errors[route] = "not collected: no live admin endpoint"

    if store is not None:
        try:
            if "generations.json" not in collected:
                atomic_write_json(
                    out / "generations.json", store_generations(store)
                )
                collected["generations.json"] = str(store.root)
            if "drift.json" not in collected:
                found = latest_drift_report(store)
                if found is not None:
                    generation_id, report_path = found
                    shutil.copyfile(report_path, out / "drift.json")
                    collected["drift.json"] = generation_id
        except Exception as error:
            errors["store"] = f"{type(error).__name__}: {error}"

    for source, filename in (
        (metrics_path, "metrics.prom"), (trace_path, "trace.json"),
        (flight_path, "flight.json"),
    ):
        if source is None or filename in collected:
            continue
        source = Path(source)
        if source.is_file():
            shutil.copyfile(source, out / filename)
            collected[filename] = str(source)
        else:
            errors[str(source)] = "file not found"

    if shard_dir is not None:
        shard_dir = Path(shard_dir)
        if shard_dir.is_dir():
            shard_files = sorted(shard_dir.glob("shard-*.json"))
            if shard_files:
                (out / "shards").mkdir(exist_ok=True)
                for source in shard_files:
                    shutil.copyfile(source, out / "shards" / source.name)
                    collected[f"shards/{source.name}"] = str(source)
            else:
                errors[str(shard_dir)] = "no shard-*.json files found"
        else:
            errors[str(shard_dir)] = "directory not found"

    if config is not None:
        atomic_write_json(out / "config.json", _json_safe(config))
        collected["config.json"] = "resolved configuration"

    manifest = {
        "format": "repro-doctor-v3",
        "created_at": time.time(),
        "admin_url": admin_url,
        "collected": collected,
        "errors": errors,
    }
    atomic_write_json(out / "bundle.json", manifest)
    log.info(
        "doctor bundle written",
        out=str(out), files=sorted(collected), errors=sorted(errors),
    )
    return manifest


def _json_safe(config: dict) -> dict:
    """Resolved CLI namespaces may hold Paths and such; stringify them."""
    safe = {}
    for key, value in config.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        elif isinstance(value, (list, tuple)):
            safe[key] = [str(item) for item in value]
        else:
            safe[key] = str(value)
    return safe
