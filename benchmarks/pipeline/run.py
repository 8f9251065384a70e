"""Pipeline benchmark: four workloads from wire bytes to ads.

    python3 benchmarks/pipeline/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--traced | --trace 0|1] [--smoke] [--out DIR]

Runs each workload (default: all four in ``BENCHMARK.json``) in its own
process with BLAS pinned to one thread and a wall-clock timeout, prints
every metric as ``workload metric value unit``, writes
``<out>/BENCH_pipeline.json`` (plus ``TRACE_pipeline_<workload>.json``
when traced), and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  With more
than one workload the metric keys are ``<workload>/<metric>``.

A workload that crashes or hangs makes the run print no result line
and exit non-zero; one that is skipped (``fleet-1`` below two usable
cores) is left out of the line, and a run with nothing left fails too.
This script imports nothing from the program, so it fails fast in a
directory without ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(name: str, args, seconds: float, timeout: float,
                 scratch: Path) -> dict:
    """One workload in its own process group; a failed run, not a raise."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--out", str(args.out), "--work", str(scratch),
    ] + (["--smoke"] if args.smoke else [])
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", TMPDIR=str(scratch),
    )
    started = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
        error = f"exit status {process.returncode}"
    except subprocess.TimeoutExpired:
        stdout, error = "", f"timed out after {timeout:.0f}s"
    finally:
        # The workload's fleet workers share its process group: nothing
        # it started may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
    lines = stdout.strip().splitlines()
    if process.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            error = "unparsable result line"
    return {
        "workload": name, "status": "failed", "error": error,
        "seconds": time.monotonic() - started,
    }


def units(bench: dict, spec: dict) -> dict[str, str]:
    table = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    table.update({m["name"]: m["unit"] for m in bench["per_layer"]})
    table.update({k: v["unit"] for k, v in spec["extra_end_to_end"].items()})
    table.update({k: v["unit"] for k, v in spec["layers"].items()})
    return table


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes and short runs (the test suite)")
    parser.add_argument("--out", type=Path,
                        default=ROOT / "benchmarks" / "out")
    args = parser.parse_args(argv)
    # The workload runs in its own session: turn SIGTERM into SystemExit
    # so run_workload's cleanup still kills its process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    seconds = args.seconds
    if seconds is None:
        seconds = spec["smoke"]["seconds"] if args.smoke \
            else bench["run_seconds"]
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    scratch = HERE / ".work" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        results = {
            name: run_workload(
                name, args, seconds, spec["timeout_seconds"], scratch
            )
            for name in (args.workload or names)
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    unit_of = units(bench, spec)
    commit = git_commit()
    for name, result in results.items():
        result["commit"] = commit
        result["error_rate"] = (
            result["failed"] / result["attempted"]
            if result.get("attempted") else None
        )
        if result["status"] != "ok":
            print(f"{name} {result['status']}: "
                  f"{result.get('error') or result.get('reason')}")
            continue
        result["metrics"] = {
            metric: {"value": value, "unit": unit_of.get(metric, "")}
            for metric, value in sorted(result["metrics"].items())
        }
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        print(f"{name} error_rate {result['error_rate']:.6g} ratio")
        for note in result.get("notes", []):
            print(f"{name} check failed: {note}")

    (args.out / "BENCH_pipeline.json").write_text(json.dumps({
        "format": "repro-bench-pipeline-v1",
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "workloads": results,
    }, indent=1) + "\n")

    if any(r["status"] == "failed" for r in results.values()):
        return 1
    done = {n: r for n, r in results.items() if r["status"] == "ok"}
    if not done:
        return 1
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, result in done.items():
        for metric in wanted:
            entry = result["metrics"].get(metric["name"])
            if entry is None or not math.isfinite(entry["value"]):
                print(f"{name}: no finite {metric['name']}", file=sys.stderr)
                return 1
            key = metric["name"] if len(done) == 1 \
                else f"{name}/{metric['name']}"
            metrics[key] = entry
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in done.values()),
        "attempted": sum(r["attempted"] for r in done.values()),
        "failed": sum(r["failed"] for r in done.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
