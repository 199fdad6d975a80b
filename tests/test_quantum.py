"""Quantum pressures, critical fields, magnetization, transition scan."""

import math

import numpy as np
import pytest

from tfglass import (
    BlockPhase,
    DistributionSpec,
    DomainError,
    FieldSpec,
    TransitionOrder,
    ValidationError,
    classical_pressure,
    concave_hull,
    magnetization,
    paramagnetic_pressure,
    qcrem_closed_form,
    qcrem_pressure,
    qgrem_critical_fields,
    qgrem_pressure,
    transition_scan,
)
from tfglass import classical, quantum
from tfglass.classical import partial_pressures
from tfglass.model import LN2, ln_2cosh

from conftest import random_field, random_spec
from oracles import (
    GREM_QUANTUM_B12_G1,
    REM_GAMMA_C_B1,
    kink_cut_pressure,
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
        assert res.argmax == 1
        assert res.block_phases == (BlockPhase.CLASSICAL, BlockPhase.PARAMAGNETIC)

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
        assert set(res.block_phases) == {BlockPhase.PARAMAGNETIC}

    def test_phases_are_monotone(self, rng):
        for _ in range(100):
            hull = concave_hull(random_spec(rng))
            res = qgrem_pressure(hull, float(rng.uniform(0.1, 3.0)),
                                 FieldSpec.constant(float(rng.uniform(0, 3))))
            tags = [p is BlockPhase.PARAMAGNETIC for p in res.block_phases]
            assert tags == sorted(tags)

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
        assert res.block_phases == (BlockPhase.CLASSICAL, BlockPhase.PARAMAGNETIC)


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


def test_warm_cache_matches_cold_bitwise():
    """One segment table serves every field of a beta-row; every value, cut
    and transition is the one a freshly built table gives (the hulls and the
    grid of the limits benchmark)."""
    hulls = [(GREM, {}), (GREM3, {}), (smooth_hull(50), {"first_order_jump_tol": 0.05, "cluster_gap": 0.3})]
    betas = np.linspace(0.5, 2.5, 21)
    gammas = np.linspace(0.0, 2.0, 201)

    def cold(fn, *args, **kwargs):
        classical._table.cache_clear()
        quantum._phases.cache_clear()
        return fn(*args, **kwargs)

    for hull, scan_kw in hulls:
        for beta in betas:
            for gamma in gammas:
                field = FieldSpec.constant(gamma)
                assert qgrem_pressure(hull, beta, field) == cold(qgrem_pressure, hull, beta, field)
                assert magnetization(hull, beta, gamma) == cold(magnetization, hull, beta, gamma)
            assert transition_scan(hull, beta, **scan_kw) == cold(transition_scan, hull, beta, **scan_kw)
