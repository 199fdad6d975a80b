"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The finite-size criteria (6 and 8) sample hundreds of disorder replicas and
dominate the runtime (several minutes on two cores).
"""

import math
import time

import numpy as np
import pytest

from tfglass import (
    Chain,
    DistributionSpec,
    FieldSpec,
    TransitionOrder,
    chain_grem,
    classical_pressure,
    concave_hull,
    concentration_check,
    convergence_study,
    greedy_chain,
    magnetization,
    partial_pressures,
    qcrem_closed_form,
    qcrem_pressure,
    qgrem_critical_fields,
    qgrem_pressure,
    quantum_nonhier_pressure,
    sample_instance,
    sign_invariance_check,
    transition_scan,
)
from tfglass.model import ln_2cosh
from tfglass.verify import exact_pressure

from conftest import random_nonhier, random_spec
from oracles import (
    GREM_QUANTUM_B12_G1,
    REM_GAMMA_C_B1,
    REM_PRESSURE_B12,
    diagonal_pressure,
    field_only_pressure,
)

import itertools

SEED = 20240817


def report(num, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_formula_cross_path_agreement():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_ind, worst_cf = 0.0, 0.0
    for _ in range(1000):
        hull = concave_hull(random_spec(rng))
        beta = float(rng.uniform(0.05, 3.0))
        gamma = float(rng.uniform(0.0, 3.0))
        # Theorem-style max against the indicator form over critical fields
        val = qgrem_pressure(hull, beta, FieldSpec.constant(gamma)).value
        gcs = qgrem_critical_fields(hull, beta)
        phi = partial_pressures(hull, beta).phi
        para = float(ln_2cosh(beta * gamma))
        indicator = sum(
            p_l if gamma < gc else L_l * para
            for p_l, gc, L_l in zip(phi, gcs, hull.lengths)
        )
        worst_ind = max(worst_ind, abs(val - indicator))
        # variational truncated formula against the derivative-inverse closed form
        qc = qcrem_pressure(hull, beta, FieldSpec.constant(gamma)).value
        cf = qcrem_closed_form(hull, beta, gamma)
        worst_cf = max(worst_cf, abs(qc - cf))
    elapsed = time.perf_counter() - t0
    ok = worst_ind <= 1e-12 and worst_cf <= 1e-10 and elapsed < 10.0
    report(1, ok, f"max |max-form - indicator| = {worst_ind:.2e} (tol 1e-12), "
                  f"max |variational - closed| = {worst_cf:.2e} (tol 1e-10), {elapsed:.1f}s")


def test_criterion_2_classical_reduction_at_zero_field():
    rng = np.random.default_rng(SEED + 1)
    zero_laws = (FieldSpec.constant(0.0), FieldSpec.discrete([(0.0, 1.0)]))
    worst = 0.0
    for _ in range(1000):
        hull = concave_hull(random_spec(rng))
        beta = float(rng.uniform(0.0, 3.0))
        want = classical_pressure(hull, beta)
        for law in zero_laws:
            worst = max(worst, abs(qgrem_pressure(hull, beta, law).value - want))
            worst = max(worst, abs(qcrem_pressure(hull, beta, law).value - want))
    report(2, worst <= 1e-12, f"max |quantum(0) - classical| = {worst:.2e} (tol 1e-12)")


def test_criterion_3_worked_scalars():
    # frozen oracle values are independent mpmath evaluations (tests/oracles.py)
    rem = concave_hull(DistributionSpec.rem())
    grem = concave_hull(DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0]))
    rem_phi = qgrem_pressure(rem, 1.2, FieldSpec.constant(1.0)).value
    grem_res = qgrem_pressure(grem, 1.2, FieldSpec.constant(1.0))
    (gamma_c,) = qgrem_critical_fields(rem, 1.0)
    errs = (
        abs(rem_phi - REM_PRESSURE_B12),
        abs(grem_res.value - GREM_QUANTUM_B12_G1),
        abs(gamma_c - REM_GAMMA_C_B1),
    )
    cut_ok = grem_res.argmax == 1  # block 1 classical, block 2 paramagnetic
    ok = max(errs) <= 1e-6 and cut_ok
    report(3, ok, f"REM pressure err {errs[0]:.1e}, two-block err {errs[1]:.1e} "
                  f"(cut K=1 {'ok' if cut_ok else 'WRONG'}), critical field err {errs[2]:.1e} (tol 1e-6)")


def test_criterion_4_per_length_concavity():
    rng = np.random.default_rng(SEED + 2)
    violations = 0
    for _ in range(10_000):
        hull = concave_hull(random_spec(rng, normalized=bool(rng.integers(0, 2))))
        beta = float(rng.uniform(0.01, 4.0))
        d = partial_pressures(hull, beta).per_length
        if any(b >= a for a, b in zip(d, d[1:])):
            violations += 1
    report(4, violations == 0, f"{violations} violations in 10,000 randomized hulls")


def test_criterion_5_nonhierarchical_single_chain_reduction():
    rng = np.random.default_rng(SEED + 3)
    t0 = time.perf_counter()
    betas = (0.5, 1.0, 1.5, 2.5)
    gammas = (0.0, 0.5, 1.0, 2.0)
    worst = 0.0
    dominance_violations = 0
    for n in (2, 3, 4, 5):
        for _ in range(50):
            model = random_nonhier(rng, n=n)
            ghull = chain_grem(model, greedy_chain(model)).hull()
            for beta in betas:
                for gamma in gammas:
                    field = FieldSpec.constant(gamma)
                    want, _ = quantum_nonhier_pressure(model, beta, field)
                    got = qgrem_pressure(ghull, beta, field).value
                    worst = max(worst, abs(got - want))
            for perm in itertools.permutations(range(1, n + 1)):
                other = chain_grem(model, Chain.from_order(perm)).hull()
                for y in other.support:
                    if ghull.value_at(y) < other.value_at(y) - 1e-12:
                        dominance_violations += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and dominance_violations == 0 and elapsed < 120.0
    report(5, ok, f"max |max-min - greedy| = {worst:.2e} (tol 1e-10), "
                  f"{dominance_violations} dominance violations, {elapsed:.0f}s (< 120s)")


def test_criterion_6_finite_size_consistency():
    t0 = time.perf_counter()
    field = FieldSpec.constant(1.0)
    details = []
    ok = True
    for name, spec, limit in (
        ("REM", DistributionSpec.rem(), REM_PRESSURE_B12),
        ("two-block", DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0]), GREM_QUANTUM_B12_G1),
    ):
        study = convergence_study(spec, field, 1.2, [6, 12], replicas=400,
                                  seed=SEED + 4, workers=2)
        assert study.limit == pytest.approx(limit, abs=1e-9)
        gap6, gap12 = study.rows[0].gap, study.rows[1].gap
        ok = ok and gap12 <= 0.15 and gap12 < gap6
        details.append(f"{name}: |mean - limit| = {gap12:.3f} at N=12 (tol 0.15), "
                       f"gap N=6 {gap6:.3f} -> N=12 {gap12:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1200.0
    report(6, ok, "; ".join(details) + f"; {elapsed:.0f}s (< 1200s)")


def test_criterion_7_sign_invariance_of_diagonal():
    inst = sample_instance(DistributionSpec.rem(), FieldSpec.constant(1.0), 8, SEED + 5)
    dev = sign_invariance_check(inst, 1.2, patterns=20, seed=SEED + 5)
    report(7, dev <= 1e-8, f"max relative diagonal deviation over 20 flip patterns = {dev:.2e} (tol 1e-8)")


def test_criterion_8_concentration_bounds():
    spec = DistributionSpec.rem()
    field = FieldSpec.constant(1.0)
    details = []
    ok = True
    for N in (8, 12):
        for beta in (0.8, 1.2):
            rep = concentration_check(spec, field, N, beta, replicas=500,
                                      seed=SEED + 6, workers=2)
            ok = ok and rep.passed
            details.append(
                f"N={N} beta={beta}: fractions {'/'.join(f'{f:.3f}' for f in rep.fractions)}"
                f" vs bounds {'/'.join(f'{b + s:.3f}' for b, s in zip(rep.bounds, rep.slacks))}"
            )
    report(8, ok, "; ".join(details))


def test_criterion_9_gibbs_lower_bounds():
    # The field-only bound carries the exact finite-size cross term
    # -beta * mean(U) / N from the Gibbs principle (see field_only_pressure):
    # the bare paramagnetic sum is not a valid finite-N bound.
    rng = np.random.default_rng(SEED + 7)
    worst = -math.inf
    for i in range(1000):
        N = int(rng.choice([4, 5, 6, 8]))
        pick = rng.integers(0, 3)
        if pick == 0:
            spec = DistributionSpec.rem()
        elif pick == 1:
            cut = int(rng.integers(1, N))
            spec = DistributionSpec.from_jumps(
                rng.dirichlet(np.ones(2)), [cut / N, 1.0]
            )
        else:
            cut = int(rng.integers(1, N))
            spec = random_nonhier(rng, n=2)
            spec = type(spec)(2, (cut / N, 1.0 - cut / N), spec.weights)
        law = rng.integers(0, 3)
        if law == 0:
            field = FieldSpec.constant(float(rng.uniform(0.0, 2.0)))
        elif law == 1:
            field = FieldSpec.gaussian(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.0, 1.0)))
        else:
            field = FieldSpec.empirical(rng.uniform(-1.5, 1.5, 5))
        inst = sample_instance(spec, field, N, SEED + 100 + i)
        beta = float(rng.uniform(0.1, 2.5))
        phi = exact_pressure(inst, beta)
        slack = min(phi - diagonal_pressure(inst, beta), phi - field_only_pressure(inst, beta))
        worst = max(worst, -slack)
    report(9, worst <= 1e-10, f"worst bound violation over 1,000 instances = {worst:.2e} (tol 1e-10)")


def test_criterion_10_phase_diagram_shape():
    # three-block model: three first-order magnetic lines, ordered
    grem3 = concave_hull(DistributionSpec.from_jumps([0.5, 0.3, 0.2], [1 / 3, 2 / 3, 1.0]))
    ok = True
    details = []
    for beta in (0.8, 1.2, 2.0):
        scan = transition_scan(grem3, beta)
        gcs = qgrem_critical_fields(grem3, beta)
        three_first = (len(scan) == 3
                       and all(t.order is TransitionOrder.FIRST for t in scan)
                       and all(a > b for a, b in zip(gcs, gcs[1:])))
        located = np.allclose(sorted(t.gamma for t in scan), sorted(gcs), atol=1e-4)
        ok = ok and three_first and located
    details.append("three-block scan: 3 first-order lines at the critical fields, "
                   "Gamma_c(1) > Gamma_c(2) > Gamma_c(3), at beta in {0.8, 1.2, 2}")

    # fine piecewise-linear stand-in for a smooth profile with positive final
    # slope: two second-order lines, magnetization continuous across the right
    # one at the discretization scale
    m = 50
    xs = np.linspace(0.0, 1.0, m + 1)[1:]
    vals = 1.5 * xs - 0.5 * xs * xs
    vals[-1] = 1.0
    crem = concave_hull(DistributionSpec.piecewise_linear(xs, vals))
    beta = 1.2
    scan = transition_scan(crem, beta, first_order_jump_tol=0.05, cluster_gap=0.3)
    two_second = len(scan) == 2 and all(t.order is TransitionOrder.SECOND for t in scan)
    right = max(scan, key=lambda t: t.gamma)
    jump = abs(magnetization(crem, beta, right.gamma + 1e-3)
               - magnetization(crem, beta, right.gamma - 1e-3))
    continuous = jump <= 2.0 / m
    ok = ok and two_second and continuous
    details.append(f"fine-hull scan: {len(scan)} second-order lines, "
                   f"m_z change across right line {jump:.4f} <= {2.0 / m}")
    report(10, ok, "; ".join(details))
