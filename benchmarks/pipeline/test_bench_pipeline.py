"""Tests of the pipeline benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/pipeline

The smoke test runs all four workloads at toy size through ``run.py``;
the rest exercise the output checks and the regression gate directly.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = workloads.SPEC


def applies(entry: dict, workload: str) -> bool:
    return entry["workloads"] == "all" or workload in entry["workloads"]


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    started = time.monotonic()
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--traced",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = time.monotonic() - started
    assert process.returncode == 0, process.stdout + process.stderr
    return out, process.stdout, elapsed


def test_smoke_runs_every_workload_under_a_minute(smoke_run):
    out, stdout, elapsed = smoke_run
    assert elapsed < 60
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    runs = json.loads((out / "BENCH_pipeline.json").read_text())["workloads"]
    assert sorted(runs) == sorted(w["name"] for w in BENCH["workloads"])
    for name, run in runs.items():
        assert run["status"] == "ok", run
        assert run["error_rate"] == 0, run["notes"]
        for key in ("python", "numpy", "blas", "cores_usable"):
            assert key in run["host"]
        assert run["commit"]
        trace = json.loads((out / f"TRACE_pipeline_{name}.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_smoke_emits_every_named_metric_finite_with_its_unit(smoke_run):
    out, _, _ = smoke_run
    runs = json.loads((out / "BENCH_pipeline.json").read_text())["workloads"]
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    expected.update({m["name"]: m["unit"] for m in BENCH["per_layer"]})
    for name, run in runs.items():
        wanted = dict(expected)
        for table in (SPEC["extra_end_to_end"], SPEC["layers"]):
            wanted.update({
                metric: entry["unit"] for metric, entry in table.items()
                if applies(entry, name)
            })
        for metric, unit in wanted.items():
            entry = run["metrics"].get(metric)
            assert entry is not None, f"{name} lacks {metric}"
            assert entry["unit"] == unit, (name, metric)
            assert math.isfinite(entry["value"]), (name, metric)


def test_in_process_ledgers_cover_the_traced_pass(smoke_run):
    out, _, _ = smoke_run
    runs = json.loads((out / "BENCH_pipeline.json").read_text())["workloads"]
    for name in ("wire-sni", "sni-log", "retrain"):
        coverage = runs[name]["metrics"]["run.ledger_coverage"]["value"]
        assert 0.9 <= coverage <= 1.0 + 1e-9, (name, coverage)


def test_corrupted_category_vector_counts_as_a_failure(tmp_path):
    sizes = SPEC["smoke"]["serving"]
    workload = workloads.SniLog(7, sizes, tmp_path, one_in=4)
    workload.setup(None)
    workload.prepare()
    emissions = workload.run_pass(None).emissions
    reference = workloads.reference_profiler(workload.pipeline)

    clean = workloads.Checks()
    workloads.check_categories(emissions, reference, clean)
    assert clean.attempted == len(emissions) and clean.failed == 0

    victim = next(i for i, e in enumerate(emissions) if e.support > 0)
    bad = emissions[victim].categories.copy()
    bad[np.argmax(bad)] *= 0.5
    emissions[victim] = emissions[victim]._replace(categories=bad)
    corrupted = workloads.Checks()
    workloads.check_categories(emissions, reference, corrupted)
    assert corrupted.failed == 1


def _runs(tmp_path: Path, tag: str, values: list[float]) -> list[Path]:
    paths = []
    for i, value in enumerate(values):
        path = tmp_path / tag / str(i) / "BENCH_pipeline.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"workloads": {"sni-log": {
            "status": "ok", "error_rate": 0.0,
            "metrics": {"records_per_s": {"value": value, "unit": "1/s"}},
        }}}))
        paths.append(path)
    return paths


def _verdict(tmp_path, parent, change) -> tuple[str, int]:
    rows = compare.compare(
        compare.load_runs(_runs(tmp_path, "parent", parent)),
        compare.load_runs(_runs(tmp_path, "change", change)),
    )
    (row,) = [r for r in rows if r[0] == "records_per_s"]
    code = compare.main([
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"),
    ])
    return row[4], code


BASE = [1000.0 + 5.0 * ((i * 7) % 5 - 2) for i in range(10)]


def test_compare_flags_a_slowdown_beyond_the_bound(tmp_path):
    bound = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}[
        "records_per_s"
    ]
    slower = 1.0 - max(0.2, bound + 0.05)
    verdict, code = _verdict(tmp_path, BASE, [slower * v for v in BASE])
    assert verdict == "regressed" and code == 1


def test_compare_passes_a_3_percent_wobble(tmp_path):
    wobble = [v * (1.03 if i % 2 else 0.97) for i, v in enumerate(BASE)]
    verdict, code = _verdict(tmp_path, BASE, wobble)
    assert verdict == "unchanged" and code == 0


def test_compare_reports_wide_spread_as_unresolved(tmp_path):
    wide = [v * (1.3 if i % 2 else 0.75) for i, v in enumerate(BASE)]
    verdict, code = _verdict(tmp_path, BASE, wide)
    assert verdict == "unresolved" and code == 0


def test_compare_fails_a_rise_in_error_rate(tmp_path):
    parent = _runs(tmp_path, "parent", BASE)
    change = _runs(tmp_path, "change", BASE)
    payload = json.loads(change[0].read_text())
    payload["workloads"]["sni-log"]["error_rate"] = 0.001
    change[0].write_text(json.dumps(payload))
    assert compare.main(["--parent", *map(str, parent),
                         "--change", *map(str, change)]) == 1


def test_benchmark_json_agrees_with_the_spec():
    assert BENCH["paths"] == ["benchmarks/pipeline"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for metric in BENCH["per_layer"]:
        entry = SPEC["layers"][metric["name"]]
        assert entry["workloads"] == "all", metric["name"]
        assert (entry["unit"], entry["better"]) == (
            metric["unit"], metric["better"]
        )
    assert set(SPEC["digests"]) == {w["name"] for w in BENCH["workloads"]}


def test_fails_fast_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "pipeline",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    process = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py",
         "--workload", "sni-log", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert not process.stdout.strip()
