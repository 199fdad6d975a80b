"""The two benchmark workloads, each made of two parts: inputs from a seed,
op cycles, output checks.

``limits`` runs the closed-form parts (phase-diagram rows, then
non-hierarchical models) and ``finite`` the finite-size parts (dense, then
stochastic); one cycle of a workload is one cycle of each of its parts.
Two long workloads rather than four short ones: on a small shared host the
speed of a core drifts over minutes, and a longer run averages more of it.

A part is built once (its inputs: hulls, models, field laws, seeds), then
driven in whole cycles by the runner.  ``run_cycle`` returns the latency
samples it took and the number of ops it completed; ``check`` runs after the
timed phase and returns the number of ops that failed (raised, returned a
non-finite value, or failed an output check).  Every call into tfglass goes
through the package namespace (``tg.name``) so that the traced run sees it.

For the CLI, each part writes its model file into a scratch directory,
names the ``tfglass`` subcommand to run on a reduced copy of its inputs, and
compares the CSV it wrote against values computed in-process.  File names
differ between parts, so both parts of a workload share one directory.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import tfglass as tg

TWO_BLOCK = {"kind": "step", "x": [0.5, 1.0], "jumps": [0.7, 0.3]}
THREE_BLOCK = {"kind": "step", "x": [1 / 3, 2 / 3, 1.0], "jumps": [0.5, 0.3, 0.2]}
REM = {"kind": "step", "x": [1.0], "jumps": [1.0]}

PRESSURE_TOL = 1e-12  # same arithmetic, different code path
GREEDY_TOL = 1e-10  # greedy single chain against the exhaustive max-min
CRITICAL_FIELD_TOL = 1e-4  # transition scan against qgrem_critical_fields
LIMIT_GAP_TOL = 0.15  # |mean - limit| at the largest N
CROSS_METHOD_TOL = 0.01  # dense against 1024-probe stochastic, same replica
CSV_TOL = 1e-12  # CSV floats carry 17 significant digits


def spec_of(doc) -> tg.DistributionSpec:
    return tg.DistributionSpec.from_jumps(doc["jumps"], doc["x"])


def read_csv(path) -> list[list[str]]:
    """Rows of a tfglass CSV, without the manifest comment and the header."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMOKE`` shrinks every workload for the smoke test."""

    betas: int = 21
    gammas: int = 201
    checked_cells: int = 8
    n_exhaustive: int = 6
    n_greedy: int = 12
    greedy_per_exhaustive: int = 3
    model_cycles: int = 128
    exact_N: int = 10
    exact_replicas: int = 8
    conc_N: int = 8
    conc_replicas: int = 200
    stoch_N: int = 12
    stoch_probes: int = 128
    stoch_replicas: int = 4
    stoch_min_cycles: int = 6  # at least 24 replicas per (model, beta) for the limit gap


FULL = Sizes()
SMOKE = Sizes(betas=3, gammas=21, checked_cells=2, n_exhaustive=4, n_greedy=7, model_cycles=4,
              exact_N=6, conc_N=6, stoch_probes=64)


class Workload:
    name = ""
    min_cycles = 1

    def __init__(self, seed: int, sizes: Sizes, workers: int):
        self.seed = seed
        self.sizes = sizes
        self.workers = workers
        self.failures: list[str] = []

    def fail(self, message: str):
        if len(self.failures) < 20:
            self.failures.append(message)

    def warmup(self):
        raise NotImplementedError

    def run_cycle(self, c: int) -> tuple[list[float], int]:
        raise NotImplementedError

    def check(self) -> int:
        raise NotImplementedError

    def cli_args(self, outdir: Path) -> list[str]:
        raise NotImplementedError

    def cli_check(self, outdir: Path) -> list[str]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# closed-form: phase-diagram beta-rows on three hulls plus Gaussian-field rows


@dataclass
class RowResult:
    beta_index: int
    ok: bool
    cells: list  # gamma indices whose pressures are checked
    pressures: list  # per hull: qgrem values at those cells
    scans: list  # per hull: transition_scan output


class ClosedForm(Workload):
    """One op is one beta-row: for each hull, qgrem_pressure and magnetization
    on every gamma of the grid, then transition_scan; plus the Gaussian-field
    pressure-table row (qgrem_pressure and qcrem_pressure) on each hull."""

    name = "closed-form"

    def __init__(self, seed, sizes, workers):
        super().__init__(seed, sizes, workers)
        m = 50
        xs = np.linspace(0.0, 1.0, m + 1)[1:]
        vals = 1.5 * xs - 0.5 * xs * xs
        vals[-1] = 1.0
        self.hulls = (
            (tg.concave_hull(spec_of(TWO_BLOCK)), {}, True),
            (tg.concave_hull(spec_of(THREE_BLOCK)), {}, True),
            (tg.concave_hull(tg.DistributionSpec.piecewise_linear(xs, vals)),
             {"first_order_jump_tol": 0.05, "cluster_gap": 0.3}, False),
        )
        self.betas = [float(b) for b in np.linspace(0.5, 2.5, sizes.betas)]
        self.gammas = [float(g) for g in np.linspace(0.0, 2.0, sizes.gammas)]
        self.fields = [tg.FieldSpec.constant(g) for g in self.gammas]
        self.gauss = tg.FieldSpec.gaussian(1.0, 0.5)
        self.rng = np.random.default_rng([seed, 1])
        self.rows: list[RowResult] = []

    def op(self, bi: int, cells) -> RowResult:
        """Only the pressures of ``cells`` are kept, so that memory does not
        grow with the number of rows a run completes."""
        beta = self.betas[bi]
        row = RowResult(bi, True, cells, [], [])
        for hull, scan_kw, _kinked in self.hulls:
            values = []
            for gamma, field in zip(self.gammas, self.fields):
                p = tg.qgrem_pressure(hull, beta, field).value
                m_z = tg.magnetization(hull, beta, gamma)
                if not (finite(p, m_z) and 0.0 <= m_z <= 1.0):
                    row.ok = False
                values.append(p)
            row.pressures.append([values[gi] for gi in cells])
            row.scans.append(tg.transition_scan(hull, beta, **scan_kw))
            q = tg.qgrem_pressure(hull, beta, self.gauss).value
            c = tg.qcrem_pressure(hull, beta, self.gauss).value
            if not (finite(q, c) and abs(q - c) <= PRESSURE_TOL):
                row.ok = False
                self.fail(f"gaussian row beta={beta}: qgrem {q!r} vs qcrem {c!r}")
        return row

    def pick_cells(self) -> list:
        n = len(self.gammas)
        return [int(gi) for gi in self.rng.choice(n, size=min(self.sizes.checked_cells, n), replace=False)]

    def warmup(self):
        self.op(0, self.pick_cells())

    def run_cycle(self, c):
        lat = []
        for bi in self.rng.permutation(len(self.betas)):
            cells = self.pick_cells()
            t0 = time.perf_counter()
            try:
                row = self.op(int(bi), cells)
            except Exception as exc:  # an op that raises counts as failed
                row = RowResult(int(bi), False, cells, [], [])
                self.fail(f"beta={self.betas[bi]}: {exc!r}")
            lat.append(time.perf_counter() - t0)
            self.rows.append(row)
        return lat, len(self.betas)

    def check(self):
        failed = 0
        for row in self.rows:
            if row.ok:
                row.ok = self._row_correct(row)
            failed += not row.ok
        return failed

    def _row_correct(self, row: RowResult) -> bool:
        beta = self.betas[row.beta_index]
        for (hull, _kw, kinked), values, scan in zip(self.hulls, row.pressures, row.scans):
            for gi, value in zip(row.cells, values):
                want = tg.qcrem_closed_form(hull, beta, self.gammas[gi])
                if abs(value - want) > PRESSURE_TOL:
                    self.fail(f"beta={beta} gamma={self.gammas[gi]}: qgrem {value!r} vs closed form {want!r}")
                    return False
            crit = tg.qgrem_critical_fields(hull, beta)
            firsts = sorted(t.gamma for t in scan if t.order is tg.TransitionOrder.FIRST)
            if kinked:
                located = len(firsts) == hull.m and all(
                    abs(g - c) <= CRITICAL_FIELD_TOL for g, c in zip(firsts, sorted(crit)))
            else:
                located = all(min(abs(g - c) for c in crit) <= CRITICAL_FIELD_TOL for g in firsts)
            if not located:
                self.fail(f"beta={beta}: first-order lines {firsts} vs critical fields {crit}")
                return False
        return True

    def cli_args(self, outdir):
        (outdir / "two-block.json").write_text(json.dumps(TWO_BLOCK))
        return ["phase-diagram", "--model", str(outdir / "two-block.json"), "--beta", "0.5:2.5:21",
                "--gamma", "0:2:201", "--out", str(outdir / "grid.csv")]

    def cli_check(self, outdir):
        hull = self.hulls[0][0]
        problems = []
        grid = read_csv(outdir / "grid.csv")
        if len(grid) != 21 * 201:
            problems.append(f"phase-diagram grid has {len(grid)} rows, want {21 * 201}")
        for beta_s, gamma_s, p_s, m_s in grid:
            beta, gamma = float(beta_s), float(gamma_s)
            p = tg.qgrem_pressure(hull, beta, tg.FieldSpec.constant(gamma)).value
            m_z = tg.magnetization(hull, beta, gamma)
            if abs(float(p_s) - p) > CSV_TOL or abs(float(m_s) - m_z) > CSV_TOL:
                problems.append(f"grid cell beta={beta} gamma={gamma} differs from in-process values")
                break
        lines = {}
        for kind, _rank, beta_s, gamma_s, _order, _jump in read_csv(outdir / "grid-transitions.csv"):
            if kind == "magnetic":
                lines.setdefault(beta_s, []).append(float(gamma_s))
        for beta_s, gammas in lines.items():
            want = sorted(t.gamma for t in tg.transition_scan(hull, float(beta_s)))
            if len(want) != len(gammas) or any(abs(a - b) > CSV_TOL for a, b in zip(sorted(gammas), want)):
                problems.append(f"transition lines at beta={beta_s} differ from in-process scan")
                break
        return problems


# --------------------------------------------------------------------------
# nonhier: seeded random subset-weight models


def random_model(rng, n: int) -> tg.NonHierModel:
    """Random block lengths and 2n weighted subsets; the support size is fixed
    because chain_grem's cost grows with it."""
    lengths = rng.dirichlet(np.ones(n)) + 0.08
    lengths /= lengths.sum()
    full = (1 << n) - 1
    k = 2 * n
    masks = rng.choice(np.arange(1, full + 1), size=k, replace=False)
    raw = rng.dirichlet(np.ones(k))
    total = float(raw.sum())
    weights = {int(m): float(w) / total for m, w in zip(masks, raw)}
    return tg.NonHierModel(n, tuple(float(x) for x in lengths), weights)


def model_doc(model: tg.NonHierModel) -> dict:
    weights = {}
    for mask, a in model.weights.items():
        weights[",".join(str(k + 1) for k in range(model.n) if mask >> k & 1)] = a
    return {"n": model.n, "L": list(model.block_lengths), "weights": weights}


@dataclass
class ModelCase:
    model: tg.NonHierModel
    beta: float
    field: tg.FieldSpec
    exhaustive: bool
    ok: bool = True
    outputs: tuple = ()


class Nonhier(Workload):
    """One op is one model.  Each cycle runs one n=6 model exhaustively
    (classical and quantum max-min, then greedy) and three n=12 models
    through the greedy single-chain reduction only."""

    name = "nonhier"

    def __init__(self, seed, sizes, workers):
        super().__init__(seed, sizes, workers)
        self.rng = np.random.default_rng([seed, 2])
        self.pool = []
        for _ in range(sizes.model_cycles):
            self.pool.append(self._case(sizes.n_exhaustive, True))
            self.pool.extend(self._case(sizes.n_greedy, False) for _ in range(sizes.greedy_per_exhaustive))
        self.done: list[ModelCase] = []
        self.cursor = 0

    def _case(self, n, exhaustive):
        model = random_model(self.rng, n)
        beta = float(self.rng.uniform(0.5, 2.5))
        return ModelCase(model, beta, tg.FieldSpec.constant(float(self.rng.uniform(0.0, 2.0))), exhaustive)

    def op(self, case: ModelCase):
        model, beta, field = case.model, case.beta, case.field
        if case.exhaustive:
            classical, _ = tg.classical_nonhier_pressure(model, beta)
            quantum, _ = tg.quantum_nonhier_pressure(model, beta, field)
        chain = tg.greedy_chain(model)
        greedy = tg.greedy_quantum_pressure(model, beta, field).value
        if case.exhaustive:
            case.outputs = (chain, greedy, classical, quantum)
            return finite(greedy, classical, quantum) and abs(greedy - quantum) <= GREEDY_TOL
        case.outputs = (chain, greedy)
        return finite(greedy)

    def warmup(self):
        self.op(replace(self.pool[0]))

    def run_cycle(self, c):
        lat = []
        per_cycle = 1 + self.sizes.greedy_per_exhaustive
        for _ in range(per_cycle):
            case = replace(self.pool[self.cursor % len(self.pool)])
            self.cursor += 1
            t0 = time.perf_counter()
            try:
                case.ok = self.op(case)
            except Exception as exc:  # an op that raises counts as failed
                case.ok = False
                self.fail(f"model n={case.model.n}: {exc!r}")
            lat.append(time.perf_counter() - t0)
            if not case.ok and case.outputs:
                self.fail(f"model n={case.model.n} beta={case.beta}: greedy differs from max-min")
            self.done.append(case)
        return lat, per_cycle

    def check(self):
        failed = 0
        for case in self.done:
            if case.ok:
                case.ok = self._case_correct(case)
            failed += not case.ok
        return failed

    def _case_correct(self, case: ModelCase) -> bool:
        model, beta, field = case.model, case.beta, case.field
        chain, greedy = case.outputs[:2]
        ghull = tg.chain_grem(model, chain).hull()
        if abs(tg.qgrem_pressure(ghull, beta, field).value - greedy) > PRESSURE_TOL:
            self.fail(f"model n={model.n}: greedy_quantum_pressure disagrees with greedy_chain's hull")
            return False
        if case.exhaustive:
            classical = case.outputs[2]
            if abs(tg.classical_pressure(ghull, beta) - classical) > GREEDY_TOL:
                self.fail(f"model n={model.n} beta={beta}: greedy classical differs from the min over chains")
                return False
            return True
        # the greedy hull dominates every other chain's hull pointwise
        for _ in range(3):
            order = [int(i) + 1 for i in self.rng.permutation(model.n)]
            other = tg.chain_grem(model, tg.Chain.from_order(order)).hull()
            if any(ghull.value_at(y) < other.value_at(y) - PRESSURE_TOL for y in other.support):
                self.fail(f"model n={model.n}: greedy hull does not dominate chain {order}")
                return False
        return True

    def cli_model(self) -> tg.NonHierModel:
        return self.pool[0].model

    def cli_args(self, outdir):
        (outdir / "nonhier-model.json").write_text(json.dumps(model_doc(self.cli_model())))
        return ["nonhier", "--model", str(outdir / "nonhier-model.json"), "--beta", "0.5:2.5:2",
                "--gamma", "0:2:2", "--out", str(outdir / "nonhier.csv")]

    def cli_check(self, outdir):
        model = self.cli_model()
        rows = read_csv(outdir / "nonhier.csv")
        if len(rows) != 4:
            return [f"nonhier CSV has {len(rows)} rows, want 4"]
        ghull = tg.chain_grem(model, tg.greedy_chain(model)).hull()
        for beta_s, gamma_s, classical_s, quantum_s, _d, greedy_s, _order in rows:
            beta, field = float(beta_s), tg.FieldSpec.constant(float(gamma_s))
            want = (tg.classical_nonhier_pressure(model, beta)[0],
                    tg.quantum_nonhier_pressure(model, beta, field)[0],
                    tg.qgrem_pressure(ghull, beta, field).value)
            got = (float(classical_s), float(quantum_s), float(greedy_s))
            if any(abs(a - b) > CSV_TOL for a, b in zip(got, want)):
                return [f"nonhier row beta={beta_s} gamma={gamma_s} differs from in-process values"]
        return []


# --------------------------------------------------------------------------
# finite parts: disorder replicas through the library's drivers


class FinitePart(Workload):
    """One op is one disorder replica, run through the library's drivers with
    ``workers`` pool threads.  A cycle is one finite-size study of a few
    driver calls of similar cost; since the replicas' own latencies are not
    visible from outside the drivers, a latency sample is one driver call."""

    def __init__(self, seed, sizes, workers):
        super().__init__(seed, sizes, workers)
        self.two = spec_of(TWO_BLOCK)
        self.rem = spec_of(REM)
        self.field = tg.FieldSpec.constant(1.0)
        self.failed = 0

    @property
    def csv_name(self) -> str:
        return f"verify-{self.name}.csv"

    def cycle_seed(self, c: int) -> int:
        return self.seed * 1000 + c

    # The CLI's own |mean - limit| assertion is a large-N statement (0.15 at
    # N=12); on the reduced sizes below it is set out of the way and the CSV
    # is compared with the in-process drivers instead.
    def verify_args(self, outdir, extra):
        (outdir / "two-block.json").write_text(json.dumps(TWO_BLOCK))
        return ["verify", "--model", str(outdir / "two-block.json"), "--field", "constant:1.0",
                "--seed", str(self.seed), "--workers", str(self.workers),
                "--out", str(outdir / self.csv_name), "--tol-limit-gap", "1", *extra]

    def cli_expected(self) -> list:
        raise NotImplementedError

    def cli_check(self, outdir):
        rows = read_csv(outdir / self.csv_name)
        got = {(int(n), float(b), int(r)): float(phi) for r, n, b, _law, phi in rows}
        want = {}
        for study in self.cli_expected():
            for row, phis in zip(study.rows, study.replica_phis):
                for r, phi in enumerate(phis):
                    want[(row.N, study.beta, r)] = phi
        if got.keys() != want.keys():
            return [f"verify CSV has {len(got)} replicas, want {len(want)}"]
        if any(abs(got[k] - want[k]) > CSV_TOL for k in want):
            return ["verify CSV replica pressures differ from the in-process drivers"]
        return []


class FiniteExact(FinitePart):
    """A study is convergence_study on the two-block model at N=10 (dense
    path), then a REM concentration_check at N=8, both at beta 1.2.  The N=10
    replica count makes the dense call the slowest driver call of the
    ``finite`` workload, so that its p90 falls among dense eigensolves, the
    steadiest work on a contended core; the 200 small concentration replicas
    are mostly interpreter time, which contention slows most."""

    name = "finite-exact"
    beta = 1.2

    def __init__(self, seed, sizes, workers):
        super().__init__(seed, sizes, workers)
        self.first_study = None  # (cycle seed, replica phis) of the first N=10 study

    def warmup(self):
        tg.convergence_study(self.two, self.field, self.beta, [6], 2, self.seed, workers=self.workers)

    def run_cycle(self, c):
        s = self.sizes
        seed = self.cycle_seed(c)
        t0 = time.perf_counter()
        try:
            study = tg.convergence_study(self.two, self.field, self.beta, [s.exact_N], s.exact_replicas,
                                         seed, workers=self.workers)
            phis = study.replica_phis[0]
            bad = sum(not finite(p) for p in phis)
            self.failed += bad
            if self.first_study is None and bad == 0:
                self.first_study = (seed, phis)
        except Exception as exc:  # a driver that raises fails all its replicas
            self.failed += s.exact_replicas
            self.fail(f"convergence_study seed={seed}: {exc!r}")
        t1 = time.perf_counter()
        try:
            rep = tg.concentration_check(self.rem, self.field, s.conc_N, self.beta, s.conc_replicas,
                                         seed, workers=self.workers)
            if not (rep.passed and finite(rep.mean, rep.std)):
                self.failed += s.conc_replicas
                self.fail(f"concentration_check seed={seed}: fractions {rep.fractions} bounds {rep.bounds}")
        except Exception as exc:
            self.failed += s.conc_replicas
            self.fail(f"concentration_check seed={seed}: {exc!r}")
        return [t1 - t0, time.perf_counter() - t1], s.exact_replicas + s.conc_replicas

    def check(self):
        """The dense pressures of the first study's first two replicas must
        agree with 1024-probe stochastic estimates of the same replicas."""
        if self.first_study is not None:
            seed, phis = self.first_study
            cross = tg.convergence_study(self.two, self.field, self.beta, [self.sizes.exact_N], 2, seed,
                                         method="stochastic", probes=1024, workers=self.workers)
            diff = max(abs(a - b) for a, b in zip(phis, cross.replica_phis[0]))
            if not diff <= CROSS_METHOD_TOL:
                self.fail(f"dense and stochastic pressures differ by {diff} (seed {seed})")
                self.failed += len(phis)
        return self.failed

    def cli_args(self, outdir):
        return self.verify_args(outdir, ["--beta", "1.2", "--N", "6,8", "--replicas", "16", "--method", "exact"])

    def cli_expected(self):
        return [tg.convergence_study(self.two, self.field, 1.2, [6, 8], 16, self.seed, method="exact",
                                     workers=self.workers)]


class FiniteStochastic(FinitePart):
    """A study runs convergence_study at N=12 (Chebyshev trace estimator,
    128 probes) for the REM and the two-block model at beta 0.8 and 1.2, all
    four with the same cycle seed so both betas see the same instances."""

    name = "finite-stochastic"

    def __init__(self, seed, sizes, workers):
        super().__init__(seed, sizes, workers)
        self.min_cycles = sizes.stoch_min_cycles
        self.configs = [(f"{name} beta={beta}", spec, beta)
                        for name, spec in (("REM", self.rem), ("two-block", self.two)) for beta in (0.8, 1.2)]
        self.pooled = {key: [] for key, _spec, _beta in self.configs}
        self.limits = {}

    def warmup(self):
        tg.convergence_study(self.rem, self.field, 1.2, [8], 2, self.seed, probes=8, workers=self.workers)

    def run_cycle(self, c):
        s = self.sizes
        seed = self.cycle_seed(c)
        lat = []
        for key, spec, beta in self.configs:
            t0 = time.perf_counter()
            try:
                study = tg.convergence_study(spec, self.field, beta, [s.stoch_N], s.stoch_replicas, seed,
                                             probes=s.stoch_probes, workers=self.workers)
                self.limits[key] = study.limit
                self.pooled[key].extend(study.replica_phis[0])
            except Exception as exc:  # a driver that raises fails all its replicas
                self.failed += s.stoch_replicas
                self.fail(f"convergence_study {key} seed={seed}: {exc!r}")
            lat.append(time.perf_counter() - t0)
        return lat, len(self.configs) * s.stoch_replicas

    def check(self):
        """|mean - limit| <= 0.15 at N=12, pooled over the run per (model, beta)."""
        for key, phis in self.pooled.items():
            if not phis:
                continue
            bad = sum(not finite(p) for p in phis)
            gap = abs(float(np.mean(phis)) - self.limits[key]) if bad == 0 else math.inf
            if gap > LIMIT_GAP_TOL:
                self.fail(f"{key}: |mean - limit| = {gap} over {len(phis)} replicas")
                bad = len(phis)
            self.failed += bad
        return self.failed

    def cli_args(self, outdir):
        return self.verify_args(outdir, ["--beta", "0.8:1.2:2", "--N", "8,10", "--replicas", "4",
                                         "--method", "stochastic", "--probes", "32"])

    def cli_expected(self):
        return [tg.convergence_study(self.two, self.field, beta, [8, 10], 4, self.seed, method="stochastic",
                                     probes=32, workers=self.workers) for beta in (0.8, 1.2)]


# --------------------------------------------------------------------------
# the workloads: two parts each


class Composite(Workload):
    """A cycle runs one cycle of each part; the parts share the failure list,
    and the CLI runs every part's command on the same directory."""

    parts: tuple = ()

    def __init__(self, seed, sizes, workers):
        super().__init__(seed, sizes, workers)
        self.members = [cls(seed, sizes, workers) for cls in self.parts]
        for member in self.members:
            member.failures = self.failures
        self.min_cycles = max(member.min_cycles for member in self.members)

    def warmup(self):
        for member in self.members:
            member.warmup()

    def run_cycle(self, c):
        lat, ops = [], 0
        for member in self.members:
            member_lat, n = member.run_cycle(c)
            lat.extend(member_lat)
            ops += n
        return lat, ops

    def check(self):
        return sum(member.check() for member in self.members)

    def cli_commands(self, outdir) -> list[list[str]]:
        return [member.cli_args(outdir) for member in self.members]

    def cli_check(self, outdir):
        return [problem for member in self.members for problem in member.cli_check(outdir)]


class Limits(Composite):
    name = "limits"
    parts = (ClosedForm, Nonhier)


class Finite(Composite):
    name = "finite"
    parts = (FiniteExact, FiniteStochastic)


WORKLOADS = {cls.name: cls for cls in (Limits, Finite)}
