"""Summarise sets of benchmark runs: medians, quartiles, spreads, drift.

    python3 bench/summarize.py [--json OUT] SET_DIR [SET_DIR ...]

Each SET_DIR holds the standard output of runs of bench/run.py, one file per
run (``*.out``).  For every workload and metric of each set this prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(interquartile distance over the median), next to the metric's bound in
BENCHMARK.json.  With two or more sets, it also gives how much worse each
later set's median is than the first one's, as a share of the first median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import UNBOUNDED

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict:
    """{workload: {"runs": n, "env": env, "metrics": {name: [values]}}}"""
    out: dict = {}
    for path in sorted(directory.glob("*.out")):
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2:
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        entry = out.setdefault(report["env"]["workload"], {"runs": 0, "failed": 0, "env": report["env"],
                                                           "metrics": {}})
        entry["runs"] += 1
        entry["failed"] += result["failed"]
        for name, m in {**result["metrics"], **report.get("unbounded", {})}.items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    return out


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(first: float, later: float, better: str) -> float:
    if not first:
        return 0.0
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sets", nargs="+", type=Path)
    parser.add_argument("--json", type=Path, default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    declared.update({name: {"unit": unit, "better": "lower"} for name, unit in UNBOUNDED.items()})
    sets = [load_set(d) for d in args.sets]
    summary = {"sets": [str(d) for d in args.sets], "workloads": {}}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        rows = {}
        for name, meta in declared.items():
            per_set = [stats(s[workload]["metrics"][name]) for s in sets
                       if workload in s and name in s[workload]["metrics"]]
            if not per_set:
                continue
            row = {"unit": meta["unit"], "bound": meta.get("bound"), "sets": per_set}
            if len(per_set) > 1:
                row["worse_by"] = [worse_by(per_set[0]["median"], p["median"], meta["better"]) for p in per_set[1:]]
            rows[name] = row
            bound = meta.get("bound")
            line = f"{workload:18s} {name:48s} " + "  ".join(
                f"{p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] spread {p['spread']:.4f}" for p in per_set)
            if bound is not None:
                line += f"  bound {bound}"
                spreads_ok = all(p["spread"] <= bound for p in per_set) or name == "setup_s"
                drift_ok = all(w <= bound for w in row.get("worse_by", []))
                if row.get("worse_by"):
                    line += "  worse_by " + " ".join(f"{w:+.4f}" for w in row["worse_by"])
                if not (spreads_ok and drift_ok):
                    line += "  OUT OF BOUND"
                    ok = False
            print(line)
        runs = [s[workload]["runs"] for s in sets if workload in s]
        failed = [s[workload]["failed"] for s in sets if workload in s]
        env = next((s[workload]["env"] for s in sets if workload in s), None)
        summary["workloads"][workload] = {"runs": runs, "failed": failed, "env": env, "metrics": rows}
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
