"""tfglass benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload limits --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout, never from an installed copy.  With ``--trace 0`` the last
line of standard output carries every end-to-end metric of BENCHMARK.json,
with ``--trace 1`` every per-layer metric.  The line before it is a report
with the run environment, the failure list and ``fail_frac``.  A failed
output check makes the command exit 1; a missing source tree exits 2.

One run lasts about ``--seconds``:
  1. warm-up op;
  2. the timed phase: whole cycles of ops in a closed loop with one client,
     for ``--seconds`` and at least the workload's minimum cycle count (with
     ``--trace 1``: the first half untraced, the second half traced).  Each
     cycle is timed on its own.  Between cycles, at evenly spaced times,
     the run takes SAMPLES set-up samples (fresh processes, from process
     start until tfglass is imported and the workload's inputs are built)
     and SAMPLES runs of the ``tfglass`` command on a reduced copy of the
     inputs, so that their medians see the same stretch of machine time as
     the cycles;
  3. output checks on everything the timed phase produced; the CLI CSVs
     must be byte-identical and match in-process values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

T_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread per process, on every run: the replica pools supply the
# parallelism, and BLAS threads on top of them were measured to slow the
# finite workload down.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

SAMPLES = 6  # set-up samples and CLI runs per run, each
# End-to-end metrics printed in the report line only, with no bound.  On a
# contended core the share of slow time moves the median op of the
# interpreter-bound limits workload from one speed mode to the other, and
# the CLI's imports with it: across ten runs of the same code their spread
# reached 0.29, more than any bound the benchmark may set.
UNBOUNDED = {"op_s.p50": "s", "cli_s": "s"}
ERR_BUDGET = 0.01  # largest stochastic error bar the traced run accepts
CHILD_TIMEOUT = 170.0

CLI_CHILD = """\
import sys, time, json
from tfglass.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps({"main_s": time.perf_counter() - t0}), file=sys.stderr)
sys.exit(code)
"""


def workers() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_tfglass():
    """Import tfglass from this checkout's src/ or exit 2 without a result."""
    if not (SRC / "tfglass" / "__init__.py").is_file():
        print(f"error: no tfglass source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tfglass

    if Path(tfglass.__file__).resolve().parent != (SRC / "tfglass").resolve():
        print(f"error: tfglass imported from {tfglass.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return tfglass


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "smoke" if args.smoke else "full",
        "nproc": os.cpu_count(),
        "workers": workers(),
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def sizes_for(args):
    from workloads import FULL, SMOKE

    return SMOKE if args.smoke else FULL


def setup_child(args):
    """Child of one set-up sample: import, build inputs, report, exit."""
    t0 = time.perf_counter()
    import_tfglass()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, sizes_for(args), workers())
    t2 = time.perf_counter()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawn_time
    print(json.dumps({"setup_s": setup_s, "import_s": t1 - t0, "inputs_s": t2 - t1}))


def setup_sample(args) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-child", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--spawn-time", repr(spawn)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up sample exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Phase:
    ops: list[int]  # ops of each cycle
    cycle_s: list[float]  # wall time of each cycle; side samples run between cycles
    latencies: list[float]

    @property
    def ops_per_s(self) -> float:
        return sum(self.ops) / sum(self.cycle_s)


class SideSamples:
    """Set-up samples and CLI runs, due at evenly spaced times over the run.
    They run between cycles, never inside one, so that their medians see the
    same stretch of machine time as the cycles."""

    def __init__(self, args, wl, workdir: Path, seconds: float):
        self.tasks = [task for _ in range(SAMPLES) for task in ("setup", "cli")]
        start = time.perf_counter()
        self.due = [start + seconds * (i + 0.5) / len(self.tasks) for i in range(len(self.tasks))]
        self.args, self.wl, self.workdir = args, wl, workdir
        self.setups: list[dict] = []
        self.cli: list[tuple] = []  # (wall, time inside main, problems, outputs)

    def run_due(self, final: bool = False):
        while self.tasks and (final or time.perf_counter() >= self.due[0]):
            task = self.tasks.pop(0)
            self.due.pop(0)
            if task == "setup":
                self.setups.append(setup_sample(self.args))
            else:
                self.cli.append(cli_run(self.wl, self.workdir))


def timed_phase(wl, seconds: float, min_cycles: int, first_cycle: int, side: SideSamples) -> Phase:
    """Closed loop, one client: whole cycles until both limits are reached."""
    phase = Phase([], [], [])
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        lat, n = wl.run_cycle(first_cycle + len(phase.ops))
        phase.cycle_s.append(time.perf_counter() - c0)
        phase.ops.append(n)
        phase.latencies.extend(lat)
        if time.perf_counter() - t0 >= seconds and len(phase.ops) >= min_cycles:
            return phase
        side.run_due()


def percentiles(samples) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), deciles[8]


def cli_run(wl, workdir: Path) -> tuple[float, float, list[str], dict]:
    """The workload's `tfglass` commands, one subprocess each, in ``workdir``;
    returns their summed wall time and time inside main, problems and the
    bytes of every file they wrote."""
    wall = main_s = 0.0
    problems, outputs = [], {}
    for argv in wl.cli_commands(workdir):
        inputs = {p.name for p in workdir.iterdir()}
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_CHILD, *argv], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        wall += time.perf_counter() - t0
        outputs.update({p.name: p.read_bytes() for p in workdir.iterdir() if p.name not in inputs})
        if proc.returncode != 0:
            problems.append(f"tfglass {argv[0]} exited with {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            main_s += json.loads(proc.stderr.strip().splitlines()[-1])["main_s"]
    for name in outputs:
        (workdir / name).unlink(missing_ok=True)
    return wall, main_s, problems, outputs


def metric_table(bench: dict, key: str, values: dict) -> dict:
    table = {}
    for m in bench[key]:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} declared in BENCHMARK.json was not measured")
        table[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return table


def run_workload(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    from tracing import Tracer
    from workloads import WORKLOADS

    env = environment(args)
    wl = WORKLOADS[args.workload](args.seed, sizes_for(args), workers())
    wl.warmup()

    OUT.mkdir(exist_ok=True)
    cli_dir = OUT / f"cli-{args.workload}-{os.getpid()}"
    cli_dir.mkdir()
    try:
        t_timed = time.perf_counter()
        side = SideSamples(args, wl, cli_dir, args.seconds)
        tracer = None
        if args.trace:
            half_cycles = math.ceil(wl.min_cycles / 2)
            plain = timed_phase(wl, args.seconds / 2, half_cycles, 0, side)
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_phase(wl, args.seconds / 2, half_cycles, len(plain.ops), side)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
        else:
            plain = timed_phase(wl, args.seconds, wl.min_cycles, 0, side)
            phases = [plain]
        side.run_due(final=True)
        t_checks = time.perf_counter()
        attempted = sum(sum(p.ops) for p in phases)
        failed = wl.check()

        cli = side.cli
        cli_problems = [p for _w, _m, probs, _out in cli for p in probs]
        if not cli_problems:
            if any(out != cli[0][3] for _w, _m, _p, out in cli):
                cli_problems.append("CLI output differs between identical runs")
            for name, data in cli[0][3].items():
                (cli_dir / name).write_bytes(data)
            cli_problems += wl.cli_check(cli_dir)
    finally:
        shutil.rmtree(cli_dir, ignore_errors=True)
    for problem in cli_problems:
        wl.fail(problem)
    attempted += len(cli)
    failed += len(cli) if cli_problems else 0
    setups = side.setups

    p50, p90 = percentiles(plain.latencies)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": plain.ops_per_s,
        "op_s.p50": p50,
        "op_s.p90": p90,
        "cli_s": statistics.median(c[0] for c in cli),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup.import_s": statistics.median(s["import_s"] for s in setups),
        "setup.inputs_s": statistics.median(s["inputs_s"] for s in setups),
        "cli.main.s": statistics.median(c[1] for c in cli),
    }
    if tracer is not None:
        values.update(tracer.layer_metrics(sum(traced.ops), workers()))
        values["trace.overhead_frac"] = 1.0 - traced.ops_per_s / plain.ops_per_s
        over = [e for _s, _p, _d, e in tracer.stochastic if e > ERR_BUDGET]
        if over:
            wl.fail(f"{len(over)} stochastic error bars above the budget {ERR_BUDGET} (max {max(over)})")
            failed += len(over)
        tracer.write(OUT / f"spans-{args.workload}.npz", env)

    metrics = metric_table(bench, "per_layer" if args.trace else "end_to_end", values)
    correct = failed == 0
    report = {
        "env": env,
        "cycle_s": [p.cycle_s for p in phases],
        "cycle_ops": [p.ops for p in phases],
        "wall_s": {"start": t_timed - T_START, "timed": t_checks - t_timed,
                   "checks": time.perf_counter() - t_checks},
        "latency_samples": len(plain.latencies),
        "latencies": plain.latencies,
        "setup_samples": setups,
        "cli_samples": [c[:2] for c in cli],
        "fail_frac": failed / attempted,
        "unbounded": {name: {"value": values[name], "unit": unit} for name, unit in UNBOUNDED.items()},
        "failures": wl.failures,
        "measured": values,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process, one after the other."""
    from workloads import WORKLOADS

    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines:
            print(line)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps({"workloads": results}))
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced input sizes (smoke test)")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawn-time", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child:
        setup_child(args)
        return 0
    import_tfglass()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
