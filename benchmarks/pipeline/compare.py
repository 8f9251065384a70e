"""Regression gate: compare two sets of ``BENCH_pipeline.json`` runs.

    python3 benchmarks/pipeline/compare.py --parent A/ ... --change B/ ...

Each argument is a ``BENCH_pipeline.json`` file or a directory searched
for them.  For every (end-to-end metric, workload) pair — the metrics of
``BENCHMARK.json`` plus the workload-specific ones in ``spec.json`` — it
prints both sides' median and quartiles and a verdict:

* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the runs of either side spread wider than the bound
  (quartile distance over median), unless every change run beats every
  parent run;
* ``improved``: the change wins at least 9 in 10 of the pairs (runs
  paired in order, ties counting for neither) and the medians differ by
  more than the parent's own quartile distance;
* ``unchanged`` otherwise.

``error_rate`` (failed checks over checks attempted) may not rise at
all, and a workload that ran on the parent may not fail on the change.
Exits 1 on any regression, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_runs(paths: list[Path]) -> list[dict]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("BENCH_pipeline.json")))
        else:
            files.append(path)
    if not files:
        raise SystemExit(f"no BENCH_pipeline.json under {paths}")
    return [json.loads(f.read_text())["workloads"] for f in files]


def gated_metrics() -> list[dict]:
    """(name, better, bound, workloads or None for all) of every gate."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    metrics = [dict(m, workloads=None) for m in bench["end_to_end"]]
    metrics += [
        dict(name=name, **entry)
        for name, entry in spec["extra_end_to_end"].items()
    ]
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def beats(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> tuple[str, int]:
    """(verdict, pairs the change won) for one metric on one workload."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(beats(c, p, better) for p, c in zip(parent, change))
    worse = (pm - cm if better == "higher" else cm - pm) / abs(pm)
    if worse > bound:
        return "regressed", wins
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    beats_all = all(beats(c, p, better) for c in change for p in parent)
    if spread > bound and not beats_all:
        return "unresolved", wins
    if (
        beats(cm, pm, better)
        and wins >= 0.9 * min(len(parent), len(change))
        and abs(cm - pm) > p3 - p1
    ):
        return "improved", wins
    return "unchanged", wins


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run[workload]["metrics"][metric]["value"]
        for run in runs
        if run.get(workload, {}).get("status") == "ok"
        and metric in run[workload]["metrics"]
    ]


def compare(parent: list[dict], change: list[dict]) -> list[tuple]:
    """Rows ``(metric, workload, parent, change, verdict, wins)``."""
    rows = []
    workloads = sorted({w for run in parent for w in run})
    for workload in workloads:
        for gate in gated_metrics():
            if gate["workloads"] and workload not in gate["workloads"]:
                continue
            p = values(parent, workload, gate["name"])
            c = values(change, workload, gate["name"])
            if p and c:
                rows.append((gate["name"], workload, p, c, *judge(
                    p, c, gate["better"], gate["bound"]
                )))
        p_err = [r[workload]["error_rate"] for r in parent
                 if r.get(workload, {}).get("error_rate") is not None]
        c_err = [r.get(workload, {}).get("error_rate") for r in change]
        ran_before = any(
            r.get(workload, {}).get("status") == "ok" for r in parent
        )
        failed_now = any(
            r.get(workload, {}).get("status") == "failed" for r in change
        )
        rises = p_err and any(
            e is not None and e > max(p_err) for e in c_err
        )
        rows.append(("error_rate", workload, p_err, [
            e for e in c_err if e is not None
        ], "regressed" if rises or (ran_before and failed_now)
            else "unchanged", None))
    return rows


def cell(values: list[float]) -> str:
    if not values:
        return "-"
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change))
    print(f"{'metric':<16} {'workload':<9} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'wins':>6}  verdict")
    for metric, workload, p, c, result, wins in rows:
        pm = quartiles(p)[1] if p else 0.0
        cm = quartiles(c)[1] if c else 0.0
        delta = f"{(cm - pm) / abs(pm):+.1%}" if pm else "-"
        won = "-" if wins is None else f"{wins}/{min(len(p), len(c))}"
        print(f"{metric:<16} {workload:<9} {cell(p):>30} {cell(c):>30} "
              f"{delta:>8} {won:>6}  {result}")
    return 1 if any(row[4] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
