"""Profiles, concave envelopes, field laws."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tfglass import (
    ConcaveHull,
    DistributionSpec,
    DomainError,
    FieldSpec,
    ValidationError,
    concave_hull,
    paramagnetic_pressure,
    qgrem_pressure,
    sample_weights,
)
from tfglass.model import hull_from_points, ln_2cosh

from conftest import float_bits, random_spec, step_specs
from oracles import (
    PARA_B12_G1,
    brute_force_hull,
    exact_hull_vertices,
    four_list_hull,
    jump_heights,
    mp_gaussian_paramagnetic,
    right_derivative,
)

# four runs of breakpoints, each collinear before rounding: slopes 108/61, 72/61, 36/61, 0
ROUNDED_RUNS = (
    [Fraction(1, 9), Fraction(1, 6), Fraction(7, 18), Fraction(7, 12), Fraction(23, 36),
     Fraction(25, 36), Fraction(7, 9), Fraction(17, 18), Fraction(1)],
    [Fraction(k, 61) for k in (12, 16, 32, 46, 50, 52, 55, 61, 61)],
)

# breakpoints with a collinear run, and the envelope with one segment per run;
# the second set's values carry the rounding of a computed profile
COLLINEAR_RUNS = [
    ([1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6, 1.0], [1 / 3, 1 / 2, 2 / 3, 5 / 6, 1.0, 1.0],
     (1 / 6, 5 / 6, 1.0), (2.0, 1.0, 0.0)),
    ([0.025, 0.05, 0.075, 0.25, 0.375, 0.475, 0.65, 0.75, 0.775, 1.0],
     [0.07500000000000001, 0.15000000000000002, 0.17500000000000002, 0.35, 0.475, 0.575,
      0.75, 0.75, 0.75, 0.75],
     (0.05, 0.65, 1.0), (3.0, 1.0, 0.0)),
]


def rational_collinear_runs(rng):
    """1-4 runs of 1-4 breakpoints each, with integer slopes falling from run
    to run and rational spacings, scaled to end at (1, 1) when not flat."""
    x, v, points = Fraction(0), Fraction(0), []
    for slope in sorted(rng.choice(10, size=int(rng.integers(1, 5)), replace=False), reverse=True):
        for _ in range(int(rng.integers(1, 5))):
            dx = Fraction(int(rng.integers(1, 6)), int(rng.choice([3, 6, 7, 9, 12, 36])))
            x, v = x + dx, v + int(slope) * dx
            points.append((x, v))
    return [(px / x, pv / max(v, Fraction(1))) for px, pv in points]


class TestDistributionSpec:
    def test_step_accessors(self):
        spec = DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0])
        assert jump_heights(spec) == pytest.approx((0.7, 0.3))
        assert spec.value_at(0.2) == 0.0
        assert spec.value_at(0.5) == pytest.approx(0.7)
        assert spec.value_at(0.75) == pytest.approx(0.7)
        assert spec.value_at(1.0) == pytest.approx(1.0)

    def test_piecewise_linear_interpolates(self):
        spec = DistributionSpec.piecewise_linear([0.5, 1.0], [0.25, 1.0])
        assert spec.value_at(0.25) == pytest.approx(0.125)
        assert spec.value_at(0.75) == pytest.approx(0.625)

    @pytest.mark.parametrize(
        "xs,values",
        [
            ([0.5, 0.5, 1.0], [0.2, 0.4, 1.0]),  # duplicate x
            ([0.5, 0.9], [0.2, 1.0]),  # last x not 1
            ([0.5, 1.0], [0.7, 0.4]),  # decreasing values
            ([0.0, 1.0], [0.5, 1.0]),  # x = 0 not allowed
            ([0.5, 1.0], [0.2, 0.8]),  # normalized but A(1) != 1
        ],
    )
    def test_rejects_malformed(self, xs, values):
        with pytest.raises(ValidationError):
            DistributionSpec.step(xs, values)

    @pytest.mark.parametrize("make", [
        lambda: DistributionSpec.step([0.5, 1.0], [math.nan, 1.0]),
        lambda: DistributionSpec.step([0.5, 1.0], [0.5, math.nan]),
        lambda: DistributionSpec.piecewise_linear([0.5, 1.0], [0.2, math.nan], normalized=False),
        lambda: DistributionSpec.from_jumps([math.nan, 0.5]),
    ], ids=["first-value", "last-value", "unnormalized", "jump"])
    def test_rejects_nan_values(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_unnormalized_flag_permits_partial_mass(self):
        spec = DistributionSpec.step([0.5, 1.0], [0.2, 0.8], normalized=False)
        assert spec.total == pytest.approx(0.8)


class TestConcaveHull:
    def test_two_block_touching_profile_is_its_own_hull(self):
        hull = concave_hull(DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0]))
        assert hull.support == pytest.approx((0.5, 1.0))
        assert hull.increments == pytest.approx((0.7, 0.3))
        assert hull.slopes == pytest.approx((1.4, 0.6))

    def test_inverted_profile_collapses_to_chord(self):
        hull = concave_hull(DistributionSpec.from_jumps([0.3, 0.7], [0.5, 1.0]))
        assert hull.support == pytest.approx((1.0,))
        assert hull.increments == pytest.approx((1.0,))
        assert hull.slopes == pytest.approx((1.0,))

    def test_single_level(self):
        hull = concave_hull(DistributionSpec.rem())
        assert hull.support == (1.0,)
        assert hull.slopes == (1.0,)

    def test_matches_brute_force_on_random_profiles(self, rng):
        for _ in range(150):
            spec = random_spec(rng, normalized=bool(rng.integers(0, 2)))
            hull = concave_hull(spec)
            chain = brute_force_hull(spec.points)
            assert len(chain) - 1 == hull.m
            for (x, v), y_l in zip(chain[1:], hull.support):
                assert x == pytest.approx(y_l, abs=1e-12)
                assert v == pytest.approx(hull.value_at(y_l), abs=1e-9)

    def test_invariants_on_random_profiles(self, rng):
        for _ in range(200):
            spec = random_spec(rng)
            hull = concave_hull(spec)
            # envelope majorizes the profile and touches it on the support
            for x, v in spec.points:
                assert hull.value_at(x) >= v - 1e-12
            assert all(b < a for a, b in zip(hull.slopes, hull.slopes[1:]))
            assert hull.total == pytest.approx(spec.total, abs=1e-12)
            assert sum(hull.lengths) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ConcaveHull((0.5, 1.0), (0.2, 0.8))  # increasing slopes 0.4, 1.6

    @pytest.mark.parametrize("support, increments", [
        ((0.5, 0.5), (0.7, 0.3)),  # a repeated kink: zero length
        ((0.0, 1.0), (0.7, 0.3)),  # a kink at 0
        ((5e-324, 1.0), (1.0, 0.0)),  # the slope 1 / 5e-324 overflows
        ((0.5, 1.0), (0.7,)),  # one increment short
        ((), ()),
    ])
    def test_kinks_must_give_positive_lengths_and_finite_slopes(self, support, increments):
        with pytest.raises(ValidationError):
            ConcaveHull(support, increments)

    def test_lengths_and_slopes_are_derived_from_the_fields(self):
        hull = ConcaveHull([0.5, 1.0], [0.7, 0.3])
        assert (hull.support, hull.increments) == ((0.5, 1.0), (0.7, 0.3))
        assert hull.lengths == (0.5, 1.0 - 0.5) and hull.slopes == (0.7 / 0.5, 0.3 / 0.5)

    def test_fields_lengths_and_slopes_bitwise_equal_to_four_list_oracle(self, rng):
        # random profiles, normalized or not, collinear runs, and rational
        # runs rounded to floats
        point_sets = [random_spec(rng, normalized=bool(rng.integers(0, 2))).points for _ in range(300)]
        point_sets += [list(zip(xs, values)) for xs, values, _, _ in COLLINEAR_RUNS]
        point_sets.append(list(zip(*[[float(p) for p in col] for col in ROUNDED_RUNS])))
        point_sets += [[(float(x), float(v)) for x, v in rational_collinear_runs(np.random.default_rng(seed))]
                       for seed in range(300)]
        for points in point_sets:
            hull = hull_from_points(points)
            got = float_bits(hull.support, hull.increments, hull.lengths, hull.slopes)
            assert got == float_bits(*four_list_hull(points)), points

    def test_freezing_temperatures_are_derived_bitwise(self, rng):
        # beta_l = sqrt(2 ln 2 / gamma_l), inf on a flat segment: every other hull ends in one
        for k in range(200):
            points = random_spec(rng, normalized=bool(rng.integers(0, 2))).points
            if k % 2:
                points = [(0.8 * x, v) for x, v in points] + [(1.0, points[-1][1])]
            hull = hull_from_points(points)
            assert (hull.slopes[-1] == 0.0) == bool(k % 2)
            want = [math.sqrt(2.0 * math.log(2.0) / g) if g > 0.0 else math.inf for g in hull.slopes]
            assert float_bits(hull.freeze_betas) == float_bits(want)

    @pytest.mark.parametrize("xs, values, support, slopes", COLLINEAR_RUNS)
    def test_collinear_run_is_one_segment(self, xs, values, support, slopes):
        hull = hull_from_points(zip(xs, values))
        assert hull.support == pytest.approx(support, abs=1e-12)
        assert hull.slopes == pytest.approx(slopes, abs=1e-12)

    def test_rounded_collinear_runs_give_one_segment_each(self):
        # at float resolution two of the runs' slopes differ in the last bit
        hull = hull_from_points(zip(*[[float(p) for p in col] for col in ROUNDED_RUNS]))
        assert len(exact_hull_vertices(zip(*ROUNDED_RUNS))) == hull.m == 4
        assert hull.support == pytest.approx((1 / 9, 23 / 36, 17 / 18, 1.0), abs=1e-15)

    def test_no_spurious_kink_on_rounded_rational_runs(self):
        for seed in range(300):
            points = rational_collinear_runs(np.random.default_rng(seed))
            hull = hull_from_points([(float(x), float(v)) for x, v in points])
            kinks = [float(x) for x, _ in exact_hull_vertices(points)]
            assert hull.support == pytest.approx(kinks, abs=1e-15), seed

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", range(4))  # support[0], support[1], increments[0], increments[1]
    def test_non_finite_field_rejected(self, entry, bad):
        numbers = [0.5, 1.0, 0.7, 0.3]
        numbers[entry] = bad
        with pytest.raises(ValidationError):
            ConcaveHull(numbers[:2], numbers[2:])

    @given(step_specs())
    def test_envelope_properties(self, spec):
        hull = concave_hull(spec)
        for x, v in spec.points:
            assert hull.value_at(x) >= v - 1e-12
        for y in hull.support:
            # support points touch the profile
            assert hull.value_at(y) == pytest.approx(spec.value_at(y), abs=1e-12)
        assert all(b < a for a, b in zip(hull.slopes, hull.slopes[1:]))
        assert hull.total == pytest.approx(spec.total, abs=1e-12)


class TestRightDerivative:
    def test_examples(self):
        hull = concave_hull(DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0]))
        assert right_derivative(hull, 0.2) == pytest.approx(1.4)
        assert right_derivative(hull, 0.5) == pytest.approx(0.6)  # right limit at the kink
        rem = concave_hull(DistributionSpec.rem())
        for x in (0.0, 0.3, 0.99):
            assert right_derivative(rem, x) == pytest.approx(1.0)

    def test_finite_difference_cross_check(self, rng):
        for _ in range(50):
            hull = concave_hull(random_spec(rng))
            x = float(rng.uniform(0.0, 0.999))
            h = 1e-9
            fd = (hull.value_at(min(x + h, 1.0)) - hull.value_at(x)) / h
            assert right_derivative(hull, x) == pytest.approx(fd, abs=1e-4)

    def test_domain(self):
        hull = concave_hull(DistributionSpec.rem())
        with pytest.raises(DomainError):
            right_derivative(hull, 1.0)
        with pytest.raises(DomainError):
            right_derivative(hull, -0.1)


class TestParamagneticPressure:
    def test_zero_field_gives_ln2(self):
        for beta in (0.0, 0.7, 3.0):
            assert paramagnetic_pressure(FieldSpec.constant(0.0), beta) == pytest.approx(math.log(2))

    def test_beta_zero_gives_ln2_exactly_for_rounded_probabilities(self):
        # 0.9999999999999999 * ln 2 rounds below ln 2, and a cut K > 0 followed
        for field in (FieldSpec.discrete([(0.7078, 0.9999999999999999)]),
                      FieldSpec.discrete([(0.3, 0.1), (1.7, 0.2), (-0.4, 0.7)]),
                      FieldSpec.empirical([0.3, -1.2, 2.0])):
            assert paramagnetic_pressure(field, 0.0) == math.log(2.0)
        res = qgrem_pressure(concave_hull(DistributionSpec.rem()), 0.0,
                             FieldSpec.discrete([(0.7078, 0.9999999999999999)]))
        assert res.argmax == 0 and res.value == math.log(2.0)

    def test_constant_scalar(self):
        assert paramagnetic_pressure(FieldSpec.constant(1.0), 1.2) == pytest.approx(PARA_B12_G1, abs=1e-12)

    def test_symmetric_discrete_equals_constant(self):
        # cosh only sees |b|
        f = FieldSpec.discrete([(1.0, 0.5), (-1.0, 0.5)])
        assert paramagnetic_pressure(f, 1.2) == pytest.approx(PARA_B12_G1, abs=1e-12)

    def test_gaussian_matches_quadrature_oracle(self):
        for mean, sd, beta in [(0.0, 1.0, 1.2), (0.5, 0.7, 0.8), (-1.0, 2.0, 2.0)]:
            want = float(mp_gaussian_paramagnetic(mean, sd, beta))
            got = paramagnetic_pressure(FieldSpec.gaussian(mean, sd), beta)
            assert got == pytest.approx(want, abs=1e-10)

    def test_gaussian_narrow_law_matches_quadrature_oracle(self):
        # the folded density is a bump of width beta*sigma at |beta*mu|
        for sd in (1e-6, 1e-4, 1e-3, 0.02, 0.05, 0.3, 1.0, 5.0):
            for mean in (0.0, 0.5, 3.0, -2.0):
                want = float(mp_gaussian_paramagnetic(mean, sd, 1.0))
                got = paramagnetic_pressure(FieldSpec.gaussian(mean, sd), 1.0)
                assert got == pytest.approx(want, abs=1e-10), (mean, sd)

    @pytest.mark.parametrize("mean", [0.3, -1.7, 2.5])
    def test_narrow_gaussian_keeps_its_precision_up_to_the_point_mass_cut(self, mean):
        # a quadrature interval of width 24 sigma formed from the rounded endpoints |mu| +- 12 sigma
        # loses ulp(mu) / sigma relative: 6.2e-12 at |mu| / sigma = 3e5
        for ratio in (1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 9e5):
            sd = abs(mean) / ratio
            want = float(mp_gaussian_paramagnetic(mean, sd, 1.0))
            got = paramagnetic_pressure(FieldSpec.gaussian(mean, sd), 1.0)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (mean, ratio)

    def test_gaussian_far_narrower_than_its_mean_is_its_point_mass(self):
        # the quadrature's width |mu| + 12 sigma - (|mu| - 12 sigma) rounds away once
        # sigma nears the ulp of mu: at sigma = 1e-20 it would read |mu| = 1.0 alone
        for sd in (1e-7, 1e-9, 1e-12, 1e-17, 1e-20):
            for mean in (0.5, 1.2, -3.0):
                want = float(mp_gaussian_paramagnetic(mean, sd, 1.0))
                got = paramagnetic_pressure(FieldSpec.gaussian(mean, sd), 1.0)
                assert got == pytest.approx(want, rel=1e-12), (mean, sd)

    @pytest.mark.parametrize("mean, sd, beta", [(1e200, 1.0, 1.0), (-1e300, 1.0, 1.0), (1e150, 1e-10, 1e150)])
    def test_gaussian_with_a_huge_mean_is_its_absolute_value(self, mean, sd, beta):
        # squaring mu / sigma would overflow; the value is |beta mu|
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = paramagnetic_pressure(FieldSpec.gaussian(mean, sd), beta)
        assert got == pytest.approx(abs(beta * mean), rel=1e-15)

    @pytest.mark.parametrize("field, want", [
        (FieldSpec.constant(1e300), 1e308),
        (FieldSpec.discrete([(1e300, 0.5), (-1e300, 0.5)]), 1e308),
        (FieldSpec.empirical([1e300, -1e300]), 1e308),
        (FieldSpec.empirical([1e300, 0.0]), 5e307),
    ])
    def test_field_near_the_float_limit_is_finite_without_a_numpy_warning(self, field, want):
        # beta |b| = 1e308 is finite, but numpy's scalar -2|x| in ln 2cosh overflows with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = paramagnetic_pressure(field, 1e8)
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("x", [np.float64(1e308), np.float64(-1.7e308), np.array(1e308), np.float64(0.7)])
    def test_numpy_scalar_takes_the_float_path_without_a_warning(self, x):
        # Python's abs keeps only a Python float out of numpy's scalar -2|x|, which overflows past 9e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ln_2cosh(x)
        assert float_bits([got]) == float_bits([ln_2cosh(float(x))])

    def test_empirical_is_sample_mean(self):
        samples = [0.3, -1.2, 2.0]
        want = np.mean([float(ln_2cosh(1.1 * s)) for s in samples])
        assert paramagnetic_pressure(FieldSpec.empirical(samples), 1.1) == pytest.approx(want)

    @given(st.floats(min_value=0.0, max_value=400.0))
    def test_ln2cosh_stable_and_bounded(self, x):
        val = float(ln_2cosh(x))
        assert math.log(2) <= val + 1e-12
        assert val <= math.log(2) + x + 1e-12
        assert math.isfinite(val)

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            paramagnetic_pressure(FieldSpec.constant(1.0), -0.5)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_rejected(self, beta):
        for field in (FieldSpec.constant(1.0), FieldSpec.gaussian(0.5, 1.0)):
            with pytest.raises(DomainError):
                paramagnetic_pressure(field, beta)


class TestFieldSpecValidation:
    def test_discrete_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            FieldSpec.discrete([(1.0, 0.6), (-1.0, 0.5)])

    def test_negative_constant_rejected(self):
        with pytest.raises(ValidationError):
            FieldSpec.constant(-1.0)

    def test_empty_empirical_rejected(self):
        with pytest.raises(ValidationError):
            FieldSpec.empirical([])

    @pytest.mark.parametrize("make", [
        lambda v: FieldSpec.constant(v),
        lambda v: FieldSpec.gaussian(v, 1.0),
        lambda v: FieldSpec.gaussian(0.0, v),
        lambda v: FieldSpec.discrete([(v, 1.0)]),
        lambda v: FieldSpec.discrete([(1.0, 0.5), (2.0, v)]),
        lambda v: FieldSpec.empirical([0.5, v]),
    ], ids=["gamma", "mean", "stddev", "atom-value", "atom-probability", "sample"])
    def test_non_finite_parameters_rejected(self, make):
        for v in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                make(v)


class TestSampleWeights:
    def test_deterministic_and_law_shaped(self):
        f = FieldSpec.discrete([(1.0, 0.25), (2.0, 0.75)])
        a = sample_weights(f, 1000, np.random.default_rng(5))
        b = sample_weights(f, 1000, np.random.default_rng(5))
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {1.0, 2.0}
        assert abs(np.mean(a == 2.0) - 0.75) < 0.05

    def test_constant(self):
        f = FieldSpec.constant(1.5)
        assert np.array_equal(sample_weights(f, 4, np.random.default_rng(0)), np.full(4, 1.5))
