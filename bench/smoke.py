"""Smoke test of the benchmark itself, on reduced inputs.

    python3 bench/smoke.py

Checks that BENCHMARK.json is well-formed, that bench/layers.json maps every
per-layer metric to declared workloads and to end-to-end metrics (bounded in
BENCHMARK.json or unbounded in the report line), that every workload emits
every declared metric with its declared unit under both ``--trace 0`` and
``--trace 1`` (and passes its output checks), that the report line carries
the unbounded metrics, and that the benchmark refuses to run in a directory
without the tfglass sources.
Exits 0 when all of this holds and prints what failed otherwise.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

from run import UNBOUNDED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_benchmark_json(bench: dict, raw: bytes) -> list[str]:
    errors = []
    if len(raw) > 64 * 1024:
        errors.append("BENCHMARK.json is larger than 64 KiB")
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
        return errors
    cmd = bench["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command must be a list of at most 32 strings of at most 200 characters")
    paths = bench["paths"]
    if not (1 <= len(paths) <= 16 and all(PATH.fullmatch(p) and ".." not in p.split("/")
                                          and not p.startswith("/") for p in paths)):
        errors.append("paths must be 1 to 16 relative directories")
    for c in cmd[1:]:
        if c.startswith("/") or ".." in c.split("/"):
            errors.append(f"command argument {c!r} leaves the checkout")
        elif "/" in c and not any(c == p or c.startswith(p.rstrip("/") + "/") for p in paths):
            errors.append(f"command argument {c!r} names a file outside paths")
    rs = bench["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(bench["workloads"]) <= 8:
        errors.append("need 2 to 8 workloads")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            errors.append(f"workload {w.get('name')}: needs exactly name and a one-line why <= 200 chars")
    if not 1 <= len(bench["end_to_end"]) <= 16:
        errors.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(bench["per_layer"]) <= 128:
        errors.append("need 1 to 128 per-layer metrics")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end-to-end metric {m.get('name')}: needs name, unit, better, bound <= 0.25")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per-layer metric {m.get('name')}: needs exactly name, unit, better")
    names = [x["name"] for x in bench["workloads"] + bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        if not NAME.fullmatch(name):
            errors.append(f"malformed name {name!r}")
    if len(names) != len(set(names)):
        errors.append("names must be unique")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            errors.append(f"metric {m['name']}: malformed unit or better")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (unit s, lower is better) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    return errors


def check_layer_map(bench: dict, layers: dict) -> list[str]:
    errors = []
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]} | set(UNBOUNDED)
    declared = [m["name"] for m in bench["per_layer"]]
    mapped = [name for group in layers["groups"] for name in group["metrics"]]
    if sorted(mapped) != sorted(declared):
        errors.append("layers.json must list every per-layer metric exactly once")
    for group in layers["groups"]:
        for workload, metrics in group["moves"].items():
            if workload not in workloads and workload != "*":
                errors.append(f"layers.json names unknown workload {workload!r}")
            errors += [f"layers.json names unknown metric {m!r}" for m in metrics if m not in e2e]
        errors += [f"layers.json names unknown workload {w!r}" for w in group.get("flat_on", ())
                   if w not in workloads]
    return errors


def run(cmd, cwd) -> tuple[int, list[str]]:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    code, lines = run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--smoke"], ROOT)
    if code != 0 or not lines:
        return [f"{where}: exit {code}" + (f", last line {lines[-1][:300]}" if lines else "")]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        errors.append(f"{where}: attempted/failed must be whole numbers, attempted >= 1")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    unbounded = json.loads(lines[-2])["report"]["unbounded"]
    if {name: m["unit"] for name, m in unbounded.items()} != UNBOUNDED:
        errors.append(f"{where}: report line's unbounded metrics {sorted(unbounded)} differ from {sorted(UNBOUNDED)}")
    if set(metrics) != set(declared):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(declared) - set(metrics))}, extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not NAME.fullmatch(name) or set(m) != {"value", "unit"}:
            errors.append(f"{where}: malformed metric {name!r}")
        elif m["unit"] != declared.get(name):
            errors.append(f"{where}: {name} unit {m['unit']!r} != {declared.get(name)!r}")
        elif not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{where}: {name} value {value!r} is not a finite number")
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and bench/: the benchmark must fail without a result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run([sys.executable, "bench/run.py", "--workload", "limits", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        return [f"bare directory: exit {code} with output {lines[-1:]}"]
    return []


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    bench = json.loads(raw)
    errors = check_benchmark_json(bench, raw)
    if not errors:
        errors += check_layer_map(bench, json.loads((BENCH_DIR / "layers.json").read_text()))
        for w in bench["workloads"]:
            for trace in (0, 1):
                errors += check_run(bench, w["name"], trace)
        errors += check_bare_directory()
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
