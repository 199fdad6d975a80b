"""Quantum pressures, critical fields, magnetization, transition scan."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tfglass import (
    DistributionSpec,
    DomainError,
    FieldSpec,
    TransitionOrder,
    ValidationError,
    classical_pressure,
    concave_hull,
    crem_truncated_pressure,
    magnetization,
    paramagnetic_pressure,
    qcrem_closed_form,
    qcrem_pressure,
    qgrem_critical_fields,
    qgrem_pressure,
    transition_scan,
)
from tfglass import classical
from tfglass.classical import partial_pressures
from tfglass.model import LN2, FieldLaw, hull_from_points, ln_2cosh

from conftest import random_field, random_spec, step_specs
from oracles import (
    GREM_QUANTUM_B12_G1,
    REM_GAMMA_C_B1,
    kink_cut_pressure,
    loop_classical_pressure,
    loop_qgrem_pressure,
    mp_gamma_c,
    mp_qgrem,
)

REM = concave_hull(DistributionSpec.rem())
GREM = concave_hull(DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0]))
GREM3 = concave_hull(DistributionSpec.from_jumps([0.5, 0.3, 0.2], [1 / 3, 2 / 3, 1.0]))


def smooth_hull(n_segments, coeff=0.5):
    """Fine piecewise-linear discretization of A(x) = (1+c)x - c x^2 (concave)."""
    xs = np.linspace(0.0, 1.0, n_segments + 1)[1:]
    values = (1.0 + coeff) * xs - coeff * xs * xs
    values[-1] = 1.0
    return concave_hull(DistributionSpec.piecewise_linear(xs, values))


class TestQgremPressure:
    def test_worked_two_block_case(self):
        res = qgrem_pressure(GREM, 1.2, FieldSpec.constant(1.0))
        assert res.value == pytest.approx(GREM_QUANTUM_B12_G1, abs=1e-12)
        assert (res.argmax, GREM.m) == (1, 2)  # block 1 classical, block 2 paramagnetic

    def test_zero_field_reduces_to_classical(self, rng):
        for _ in range(120):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 3.0))
            res = qgrem_pressure(hull, beta, FieldSpec.constant(0.0))
            assert res.value == pytest.approx(classical_pressure(hull, beta), abs=1e-12)
            assert res.argmax == hull.m

    def test_infinite_temperature(self, rng):
        for _ in range(30):
            hull = concave_hull(random_spec(rng))
            res = qgrem_pressure(hull, 0.0, random_field(rng))
            assert res.value == pytest.approx(LN2, abs=1e-12)

    def test_dominates_both_pure_strategies(self, rng):
        for _ in range(150):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 3.0))
            field = random_field(rng)
            val = qgrem_pressure(hull, beta, field).value
            assert val >= classical_pressure(hull, beta) - 1e-12
            assert val >= paramagnetic_pressure(field, beta) - 1e-12

    def test_strong_field_goes_fully_paramagnetic(self):
        res = qgrem_pressure(GREM, 1.2, FieldSpec.constant(25.0))
        assert res.argmax == 0
        assert res.value == pytest.approx(paramagnetic_pressure(FieldSpec.constant(25.0), 1.2))

    def test_monotone_in_field_strength(self, rng):
        for _ in range(40):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.1, 2.5))
            vals = [qgrem_pressure(hull, beta, FieldSpec.constant(g)).value
                    for g in np.linspace(0.0, 3.0, 20)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_mpmath_oracle(self, rng):
        for _ in range(60):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 3.0))
            gamma = float(rng.uniform(0.0, 3.0))
            p = paramagnetic_pressure(FieldSpec.constant(gamma), beta)
            want, want_k = mp_qgrem(hull.increments, hull.lengths, beta, p)
            res = qgrem_pressure(hull, beta, FieldSpec.constant(gamma))
            assert res.value == pytest.approx(float(want), abs=1e-12)
            assert res.argmax == want_k


class TestOneCutRule:
    """The cut K decides the pressure and the magnetization alike; ties go
    paramagnetic."""

    @pytest.mark.parametrize("law", ["constant", "gaussian", "discrete", "empirical"])
    def test_beta_zero_is_paramagnetic(self, rng, law):
        # every segment ties at beta = 0: phi_l = L_l ln 2 = L_l p, for every
        # law, also where the probabilities or the sample mean round
        for _ in range(200):
            hull = concave_hull(random_spec(rng, max_blocks=30))
            if law == "constant":
                field = FieldSpec.constant(float(rng.uniform(0.0, 3.0)))
            elif law == "gaussian":
                field = FieldSpec.gaussian(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 1.5)))
            elif law == "discrete":
                probs = rng.dirichlet(np.ones(int(rng.integers(1, 6))))
                field = FieldSpec.discrete(zip(rng.uniform(-2.0, 2.0, probs.size), probs))
            else:
                field = FieldSpec.empirical(rng.uniform(-2.0, 2.0, int(rng.integers(1, 50))))
            res = qgrem_pressure(hull, 0.0, field)
            assert res.argmax == 0  # every block paramagnetic
            assert res.value == paramagnetic_pressure(field, 0.0) == math.log(2.0)

    def test_magnetization_takes_the_pressure_cut(self, rng):
        for _ in range(60):
            hull = concave_hull(random_spec(rng, max_blocks=30))
            for beta in rng.uniform(0.1, 4.0, 3):
                beta = float(beta)
                gammas = [*qgrem_critical_fields(hull, beta), *map(float, rng.uniform(0.0, 3.0, 5))]
                for gamma in gammas:
                    k = qgrem_pressure(hull, beta, FieldSpec.constant(gamma)).argmax
                    y_k = hull.support[k - 1] if k else 0.0
                    assert magnetization(hull, beta, gamma) == (1.0 - y_k) * math.tanh(beta * gamma)


class TestCriticalFields:
    def test_rem_worked_value(self):
        (gc,) = qgrem_critical_fields(REM, 1.0)
        assert gc == pytest.approx(REM_GAMMA_C_B1, abs=1e-12)

    def test_strictly_decreasing(self, rng):
        for _ in range(100):
            hull = concave_hull(random_spec(rng))
            gcs = qgrem_critical_fields(hull, float(rng.uniform(0.1, 3.0)))
            assert all(b < a for a, b in zip(gcs, gcs[1:]))

    def test_matches_mpmath(self, rng):
        for _ in range(40):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.1, 3.0))
            want = [float(v) for v in mp_gamma_c(hull.increments, hull.lengths, beta)]
            assert qgrem_critical_fields(hull, beta) == pytest.approx(want, abs=1e-11)

    def test_beta_zero_rejected(self):
        with pytest.raises(DomainError):
            qgrem_critical_fields(REM, 0.0)

    def test_large_beta_does_not_overflow(self):
        # arcosh(exp(x)) with x = d_l - ln 2 far above the exp overflow at 709
        for hull in (REM, GREM, GREM3):
            for beta in (1.0, 1e2, 1e3):
                want = [float(v) for v in mp_gamma_c(hull.increments, hull.lengths, beta)]
                got = qgrem_critical_fields(hull, beta)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_flat_segment_flips_at_exactly_zero(self):
        # a flat segment's phi_l / L_l can miss ln 2 by an ulp; arcosh turns
        # that into a critical field of about 3e-8 instead of 0
        for y in np.linspace(0.05, 0.95, 91):
            hull = concave_hull(DistributionSpec.step([y, 1.0], [1.0, 1.0]))
            for beta in (0.5, 1.2, 3.0):
                want = [float(v) for v in mp_gamma_c(hull.increments, hull.lengths, beta)]
                assert qgrem_critical_fields(hull, beta) == pytest.approx(want, abs=1e-11)

    def test_indicator_form_equals_maximum(self, rng):
        # cross-check of the two formulations of the constant-field pressure
        for _ in range(200):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.05, 3.0))
            gamma = float(rng.uniform(0.0, 3.0))
            gcs = qgrem_critical_fields(hull, beta)
            phi = partial_pressures(hull, beta).phi
            para = float(ln_2cosh(beta * gamma))
            indicator = sum(
                phi_l if gamma < gc_l else L_l * para
                for phi_l, gc_l, L_l in zip(phi, gcs, hull.lengths)
            )
            val = qgrem_pressure(hull, beta, FieldSpec.constant(gamma)).value
            assert indicator == pytest.approx(val, abs=1e-12)


class TestQcremPressure:
    def test_agrees_with_cut_formula_on_step_hulls(self, rng):
        for _ in range(150):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 3.0))
            field = random_field(rng)
            a = qgrem_pressure(hull, beta, field)
            b = qcrem_pressure(hull, beta, field)
            assert b.value == pytest.approx(a.value, abs=1e-12)

    def test_feasible_points_are_lower_bounds(self, rng):
        for _ in range(60):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 3.0))
            field = random_field(rng)
            val = qcrem_pressure(hull, beta, field).value
            assert val >= classical_pressure(hull, beta) - 1e-12
            assert val >= paramagnetic_pressure(field, beta) - 1e-12

    def test_matches_kink_loop_oracle(self, rng):
        for _ in range(300):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 3.0))
            field = random_field(rng)
            want, want_z = kink_cut_pressure(hull, beta, paramagnetic_pressure(field, beta))
            res = qcrem_pressure(hull, beta, field)
            assert res.value == pytest.approx(want, abs=1e-12)
            assert res.argmax == want_z

    def test_argmax_is_cut_point(self):
        res = qcrem_pressure(GREM, 1.2, FieldSpec.constant(1.0))
        assert res.argmax == pytest.approx(0.5)
        assert res.argmax == GREM.support[0]  # the cut K = 1: block 1 classical, block 2 paramagnetic


class TestClosedForm:
    def test_matches_variational_on_random_inputs(self, rng):
        for _ in range(250):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 3.0))
            gamma = float(rng.uniform(0.0, 3.0))
            want = qcrem_pressure(hull, beta, FieldSpec.constant(gamma)).value
            assert qcrem_closed_form(hull, beta, gamma) == pytest.approx(want, abs=1e-10)

    def test_zero_field_branch(self, rng):
        for _ in range(30):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 3.0))
            assert qcrem_closed_form(hull, beta, 0.0) == pytest.approx(
                classical_pressure(hull, beta), abs=1e-12
            )

    def test_large_field_branch(self):
        # p(beta gamma) >= t: third branch returns the paramagnet verbatim
        val = qcrem_closed_form(GREM, 1.2, 30.0)
        assert val == pytest.approx(float(ln_2cosh(1.2 * 30.0)), abs=1e-12)


class TestMagnetization:
    def test_zero_field(self):
        assert magnetization(GREM, 1.2, 0.0) == 0.0

    def test_saturation_at_large_field(self):
        assert magnetization(GREM, 1.2, 30.0) == pytest.approx(math.tanh(1.2 * 30.0))

    def test_saturates_at_a_huge_field_without_a_numpy_warning(self):
        # beta gamma = 1e308 is finite, but numpy's scalar -2|x| in ln 2cosh overflows with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert magnetization(GREM, 1e8, 1e300) == 1.0
            res = qgrem_pressure(GREM, 1e8, FieldSpec.constant(1e300))
        assert res.value == 1e308 and res.argmax == 0

    def test_numpy_scalar_beta_saturates_without_a_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert magnetization(GREM, np.float64(1e8), 1e300) == 1.0
            assert magnetization(GREM, 1e8, np.float64(1e300)) == 1.0

    def test_bounded(self, rng):
        for _ in range(150):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.05, 3.0))
            gamma = float(rng.uniform(0.0, 4.0))
            mz = magnetization(hull, beta, gamma)
            assert -1e-15 <= mz <= math.tanh(beta * gamma) + 1e-15

    def test_continuous_at_branch_boundaries_for_fine_hulls(self):
        # the outer branch boundaries of a near-smooth profile: the jump is a
        # discretization artifact bounded by the segment length
        hull = smooth_hull(20000)
        beta = 1.2
        d = partial_pressures(hull, beta).per_length
        for level in (d[0], d[-1]):  # p = t and p = s crossings
            gamma_c = math.acosh(math.exp(level - LN2)) / beta
            jump = abs(magnetization(hull, beta, gamma_c + 1e-6)
                       - magnetization(hull, beta, gamma_c - 1e-6))
            assert jump < 1e-4

    def test_jumps_at_critical_fields_for_kinked_hulls(self):
        beta = 1.2
        gc1, gc2 = qgrem_critical_fields(GREM, beta)
        for gc, L in ((gc1, 0.5), (gc2, 0.5)):
            jump = magnetization(GREM, beta, gc + 1e-9) - magnetization(GREM, beta, gc - 1e-9)
            assert jump == pytest.approx(L * math.tanh(beta * gc), abs=1e-6)

    def test_is_field_derivative_of_pressure(self, rng):
        # m_z = (1/beta) dPhi/dGamma away from the critical fields
        for _ in range(40):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.3, 2.5))
            gamma = float(rng.uniform(0.05, 3.0))
            gcs = qgrem_critical_fields(hull, beta)
            if any(abs(gamma - gc) < 1e-4 for gc in gcs):
                continue
            h = 1e-7
            hi = qcrem_closed_form(hull, beta, gamma + h)
            lo = qcrem_closed_form(hull, beta, gamma - h)
            fd = (hi - lo) / (2 * h * beta)
            assert magnetization(hull, beta, gamma) == pytest.approx(fd, abs=1e-6)


class TestTransitionScan:
    def test_rem_single_first_order_line(self):
        beta = 1.0
        scan = transition_scan(REM, beta)
        assert len(scan) == 1
        (tr,) = scan
        assert tr.order is TransitionOrder.FIRST
        assert tr.gamma == pytest.approx(REM_GAMMA_C_B1, abs=1e-5)
        assert tr.jump == pytest.approx(math.tanh(beta * tr.gamma), abs=1e-4)

    def test_two_block_hull_has_two_lines(self):
        beta = 1.2
        scan = transition_scan(GREM, beta)
        assert [t.order for t in scan] == [TransitionOrder.FIRST, TransitionOrder.FIRST]
        want = sorted(qgrem_critical_fields(GREM, beta))
        assert [t.gamma for t in scan] == pytest.approx(want, abs=1e-5)

    def test_fine_discretized_smooth_hull_reports_second_order_band_edges(self):
        # 50-segment stand-in for a smooth profile: individual micro-jumps are
        # discretization artifacts; with the jump tolerance lifted above their
        # size and clustering on, only the two band edges remain, second order.
        hull = smooth_hull(50, coeff=1.0)  # slope 2 at 0, 0 at 1
        scan = transition_scan(
            hull, 1.2, first_order_jump_tol=0.05, cluster_gap=0.3
        )
        assert len(scan) == 2
        assert all(t.order is TransitionOrder.SECOND for t in scan)
        # right edge sits at the p = t crossing
        d = partial_pressures(hull, 1.2).per_length
        gamma_r = math.acosh(math.exp(d[0] - LN2)) / 1.2
        assert scan[-1].gamma == pytest.approx(gamma_r, abs=0.05)
        # magnetization is continuous across it at the discretization scale
        jump = abs(magnetization(hull, 1.2, scan[-1].gamma + 1e-3)
                   - magnetization(hull, 1.2, scan[-1].gamma - 1e-3))
        assert jump <= 2.0 / 50

    def test_beta_zero_rejected(self):
        with pytest.raises(DomainError):
            transition_scan(REM, 0.0)

    def test_large_beta_one_first_order_line_per_block(self):
        # tanh(beta gamma) is flat at every critical field, so jumps of
        # L_l < 1 must still stand out of the smooth-change budget
        beta = 1e3
        for hull in (REM, GREM, GREM3):
            scan = transition_scan(hull, beta)
            assert [t.order for t in scan] == [TransitionOrder.FIRST] * hull.m
            want = sorted(qgrem_critical_fields(hull, beta))
            assert [t.gamma for t in scan] == pytest.approx(want, abs=1e-4)

    def test_lines_are_the_exact_critical_fields(self, rng):
        for _ in range(40):
            hull = concave_hull(random_spec(rng))
            for beta in (0.3, 1.2, 5.0, 1e3):
                scan = transition_scan(hull, beta)
                gcs = qgrem_critical_fields(hull, beta)[::-1]  # increasing gamma
                assert len(scan) == hull.m
                for tr, gc, L in zip(scan, gcs, hull.lengths[::-1]):
                    assert tr.gamma == pytest.approx(gc, abs=1e-12)
                    assert tr.jump == pytest.approx(L * math.tanh(beta * gc), abs=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("keyword", ["first_order_jump_tol", "second_order_slope_tol", "cluster_gap"])
    def test_non_finite_tolerance_rejected(self, keyword, value):
        # every comparison with nan is false, so a nan jump tolerance would
        # write the REM's first-order line (jump 0.795) as second order
        with pytest.raises(ValidationError, match="finite"):
            transition_scan(REM, 1.0, **{keyword: value})

    def test_rounded_collinear_runs_give_one_line_each(self):
        # four segments, the last flat; the second's two runs tie before rounding
        xs = [1 / 9, 1 / 6, 7 / 18, 7 / 12, 23 / 36, 25 / 36, 7 / 9, 17 / 18, 1.0]
        values = [k / 61 for k in (12, 16, 32, 46, 50, 52, 55, 61, 61)]
        scan = transition_scan(concave_hull(DistributionSpec.step(xs, values)), 1.2)
        assert len(scan) == 3
        assert sum(abs(t.gamma - 1.23748) < 1e-5 for t in scan) == 1

    def test_flat_tail_has_one_line(self):
        hull = concave_hull(DistributionSpec.step([0.08, 1.0], [1.0, 1.0]))
        for beta in (0.3, 0.5, 1.2, 5.0, 1e3):
            (tr,) = transition_scan(hull, beta)
            assert tr.gamma == pytest.approx(qgrem_critical_fields(hull, beta)[0], abs=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda v: qgrem_critical_fields(GREM, v),
    lambda v: magnetization(GREM, v, 1.0),
    lambda v: magnetization(GREM, 1.2, v),
    lambda v: qcrem_closed_form(GREM, 1.2, v),
], ids=["critical-fields-beta", "magnetization-beta", "magnetization-gamma", "closed-form-gamma"])
def test_non_finite_argument_rejected(call, value):
    with pytest.raises(DomainError):
        call(value)


def test_hull_of_a_reduced_model_is_rejected():
    # a hull spanning [0, 0.5] carries only half the spins
    hull = hull_from_points([(0.5, 0.5)])
    assert hull.span == 0.5
    with pytest.raises(ValidationError, match=r"hull spanning \[0, 1\]"):
        qgrem_pressure(hull, 1.2, FieldSpec.constant(1.0))


@pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
def test_closed_form_names_a_bad_beta_as_qgrem_pressure_does(beta):
    # the closed form formed p(beta * gamma) first, so a nan or infinite beta read as its overflow
    for call in (lambda: qcrem_closed_form(GREM, beta, 1.0),
                 lambda: qgrem_pressure(GREM, beta, FieldSpec.constant(1.0))):
        with pytest.raises(DomainError, match="beta must be finite and >= 0"):
            call()


def test_warm_cache_matches_cold_bitwise():
    """One segment table serves every field of a beta-row; every value, cut
    and transition is the one a freshly built table gives (the hulls and the
    grid of the limits benchmark)."""
    hulls = [(GREM, {}), (GREM3, {}), (smooth_hull(50), {"first_order_jump_tol": 0.05, "cluster_gap": 0.3})]
    betas = np.linspace(0.5, 2.5, 21)
    gammas = np.linspace(0.0, 2.0, 201)

    def cold(fn, *args, **kwargs):
        classical._table.cache_clear()
        return fn(*args, **kwargs)

    for hull, scan_kw in hulls:
        for beta in betas:
            for gamma in gammas:
                field = FieldSpec.constant(gamma)
                assert qgrem_pressure(hull, beta, field) == cold(qgrem_pressure, hull, beta, field)
                assert magnetization(hull, beta, gamma) == cold(magnetization, hull, beta, gamma)
            assert transition_scan(hull, beta, **scan_kw) == cold(transition_scan, hull, beta, **scan_kw)


EXTREME_BETAS = (0.0, 1e-8, 0.5, 1.2, 2.5, 1e3)


def random_hull(rng, rounded_runs):
    """A hull of 1-50 segments with random kinks and falling slopes (the last
    one flat now and then).  With ``rounded_runs`` every segment is given as
    a run of 1-4 breakpoints, collinear before rounding."""
    m = int(rng.integers(1, 51))
    xs = np.cumsum(rng.dirichlet(np.ones(m)))
    slopes = np.sort(rng.uniform(0.0, 3.0, m))[::-1]
    if m > 1 and rng.random() < 0.2:
        slopes[-1] = 0.0
    values = np.cumsum(slopes * np.diff(xs, prepend=0.0))
    xs, values = xs / xs[-1], values / values[-1]
    xs[-1] = values[-1] = 1.0
    points, x0, v0 = [], 0.0, 0.0
    for x1, v1 in zip(xs, values):
        steps = int(rng.integers(1, 5)) if rounded_runs else 1
        points += [(x0 + (x1 - x0) * j / steps, v0 + (v1 - v0) * j / steps) for j in range(1, steps)]
        points.append((x1, v1))
        x0, v0 = x1, v1
    return hull_from_points(points)


def extreme_fields(rng, hull, beta):
    """Constant fields at every critical field, one ulp either side and at
    random strengths, then Gaussian and discrete laws."""
    gammas = list(rng.uniform(0.0, 3.0, 4))
    if beta > 0.0:
        for gc in qgrem_critical_fields(hull, beta):
            gammas += [gc, math.nextafter(gc, math.inf)] + ([math.nextafter(gc, 0.0)] if gc > 0.0 else [])
    laws = [FieldSpec.constant(g) for g in gammas]
    laws += [FieldSpec.gaussian(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 1.5))),
             FieldSpec.discrete(list(zip(rng.uniform(-2.0, 2.0, 3), rng.dirichlet(np.ones(3)))))]
    return laws


def assert_cell_is_the_summation_loop(hull, beta, field):
    value, k, y_k = loop_qgrem_pressure(hull, beta, field)
    res = qgrem_pressure(hull, beta, field)
    assert (res.value.hex(), res.argmax) == (value.hex(), k)
    qres = qcrem_pressure(hull, beta, field)
    assert (qres.value.hex(), qres.argmax.hex()) == (value.hex(), y_k.hex())
    if beta > 0.0 and field.law is FieldLaw.CONSTANT:
        m_z = (1.0 - y_k) * math.tanh(beta * field.gamma)
        assert magnetization(hull, beta, field.gamma).hex() == m_z.hex()


class TestPrefixSums:
    """A cell reads phi_1 + ... + phi_K off the table's prefix sums: the same
    additions in the same order as the summation loop, bit for bit."""

    def test_cell_path_matches_the_summation_loop_at_the_extremes(self, rng):
        for i in range(24):
            hull = random_hull(rng, rounded_runs=i % 2 == 1)
            for beta in EXTREME_BETAS:
                table = partial_pressures(hull, beta)
                assert classical_pressure(hull, beta).hex() == table.prefix[-1].hex()
                assert table.prefix[-1].hex() == loop_classical_pressure(hull, beta).hex()
                for field in extreme_fields(rng, hull, beta):
                    assert_cell_is_the_summation_loop(hull, beta, field)

    @given(step_specs(max_blocks=8), st.floats(1e-8, 1e3), st.floats(0.0, 5.0))
    def test_matches_the_summation_loop_for_beta_from_1e_8_to_1e3(self, spec, beta, gamma):
        assert_cell_is_the_summation_loop(concave_hull(spec), beta, FieldSpec.constant(gamma))


class TestHugeBeta:
    """No nan or inf: a flat segment adds no quadratic term even where beta^2
    overflows, and a p(beta gamma) that overflows is a DomainError."""

    FLAT = concave_hull(DistributionSpec.from_jumps([1.0, 0.0], [0.5, 1.0]))

    def test_flat_segment_keeps_classical_pressures_finite(self):
        phi = partial_pressures(self.FLAT, 1e200).phi
        assert phi[1] == 0.5 * LN2
        assert math.isfinite(classical_pressure(self.FLAT, 1e200))
        for z in (0.5, 0.75, 1.0):
            assert math.isfinite(crem_truncated_pressure(self.FLAT, 1e200, z)), z
        assert crem_truncated_pressure(self.FLAT, 1e200, 1.0) == classical_pressure(self.FLAT, 1e200)

    @pytest.mark.parametrize("field", [
        FieldSpec.constant(1e200),
        FieldSpec.discrete([(1e200, 0.5), (1.0, 0.5)]),
        FieldSpec.gaussian(1e200, 1.0),
        FieldSpec.gaussian(0.0, 1e200),
        FieldSpec.empirical([1e200, 1.0]),
    ], ids=["constant", "discrete", "gaussian-mean", "gaussian-spread", "empirical"])
    def test_overflowing_paramagnet_is_a_domain_error(self, field):
        with warnings.catch_warnings():  # and no numpy overflow warning comes first
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                paramagnetic_pressure(field, 1e200)
            with pytest.raises(DomainError, match="overflows"):
                qgrem_pressure(self.FLAT, 1e200, field)

    def test_overflowing_closed_form_is_a_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            qcrem_closed_form(self.FLAT, 1e200, 1e200)
        assert math.isfinite(qcrem_closed_form(self.FLAT, 1e200, 1.0))
