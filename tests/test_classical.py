"""Classical pressures: partial pressures, truncation, freezing boundary."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tfglass import (
    ConcaveHull,
    DistributionSpec,
    DomainError,
    classical,
    classical_pressure,
    concave_hull,
    crem_truncated_pressure,
    freezing_boundary,
    partial_pressures,
)

from conftest import random_spec, step_specs
from oracles import (
    GREM_CLASSICAL_B12,
    GREM_PHI1_B12,
    GREM_PHI2_B12,
    REM_PRESSURE_B12,
    REM_TRUNCATED_B12_Z05,
    mp_classical,
    mp_partial_pressure,
)

REM = concave_hull(DistributionSpec.rem())
GREM = concave_hull(DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0]))
LN2 = math.log(2.0)


class TestPartialPressures:
    def test_rem_unfrozen(self):
        table = partial_pressures(REM, 1.0)
        assert table.phi[0] == pytest.approx(0.5 + LN2, abs=1e-12)
        assert table.frozen == (False,)
        assert table.freeze_beta[0] == pytest.approx(math.sqrt(2 * LN2))

    def test_rem_frozen(self):
        table = partial_pressures(REM, 1.2)
        assert table.phi[0] == pytest.approx(REM_PRESSURE_B12, abs=1e-12)
        assert table.frozen == (True,)

    def test_two_block_mixed(self):
        table = partial_pressures(GREM, 1.2)
        assert table.freeze_beta[0] == pytest.approx(0.99509309008895194, abs=1e-12)
        assert table.freeze_beta[1] == pytest.approx(1.5200298029533777, abs=1e-12)
        assert table.frozen == (True, False)
        assert table.phi[0] == pytest.approx(GREM_PHI1_B12, abs=1e-12)
        assert table.phi[1] == pytest.approx(GREM_PHI2_B12, abs=1e-12)

    def test_matches_mpmath_on_random_hulls(self, rng):
        for _ in range(80):
            hull = concave_hull(random_spec(rng, normalized=False))
            beta = float(rng.uniform(0.0, 3.0))
            want = [float(mp_partial_pressure(a, l, beta))
                    for a, l in zip(hull.increments, hull.lengths)]
            got = partial_pressures(hull, beta).phi
            assert got == pytest.approx(want, abs=1e-12)

    def test_freezing_temperatures_increase(self, rng):
        for _ in range(50):
            hull = concave_hull(random_spec(rng))
            fb = partial_pressures(hull, 1.0).freeze_beta
            assert all(b2 > b1 for b1, b2 in zip(fb, fb[1:]))

    def test_per_length_strictly_decreasing(self, rng):
        # discrete concavity of the per-length contributions
        for _ in range(300):
            hull = concave_hull(random_spec(rng, normalized=bool(rng.integers(0, 2))))
            beta = float(rng.uniform(0.01, 4.0))
            d = partial_pressures(hull, beta).per_length
            assert all(b < a for a, b in zip(d, d[1:]))

    @given(st.data(), st.one_of(st.just(0.0), st.floats(1e-3, 4.0)))
    def test_per_length_concavity_property(self, data, beta):
        hull = concave_hull(data.draw(step_specs()))
        d = partial_pressures(hull, beta).per_length
        if beta == 0.0:
            # at infinite temperature every segment contributes ln 2 per length
            assert all(abs(v - LN2) < 1e-12 for v in d)
            return
        for (a, b), (g1, g2) in zip(zip(d, d[1:]), zip(hull.slopes, hull.slopes[1:])):
            if g1 - g2 > 1e-9:
                assert b < a
            else:
                # slopes tied at float resolution: allow equal contributions
                assert b <= a + 1e-12


class TestTableMemo:
    """partial_pressures builds one table per (hull, beta) and shares it."""

    def test_repeated_calls_return_the_same_table(self):
        assert partial_pressures(GREM, 1.2) is partial_pressures(GREM, 1.2)

    def test_equal_hulls_give_equal_tables(self):
        twin = concave_hull(DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0]))
        assert twin is not GREM and twin == GREM
        classical._table.cache_clear()
        cold = partial_pressures(twin, 1.2)
        assert partial_pressures(GREM, 1.2) == cold

    def test_hull_built_from_lists_is_hashable(self):
        lists = ConcaveHull(list(GREM.support), list(GREM.increments))
        assert lists == GREM and hash(lists) == hash(GREM)
        assert partial_pressures(lists, 0.7) == partial_pressures(GREM, 0.7)

    def test_real_beta_types_share_one_table(self):
        classical._table.cache_clear()
        tables = [partial_pressures(GREM, b) for b in (1, 1.0, np.float64(1.0), np.array(1.0))]
        assert all(t is tables[0] for t in tables)
        assert classical._table.cache_info().misses == 1
        assert tables[0].beta == 1.0 and type(tables[0].beta) is float

    def test_per_length_and_total_are_computed_once(self):
        table = partial_pressures(GREM, 0.9)
        assert table.per_length is table.per_length
        assert table.total == float(sum(table.phi))

    def test_table_reads_lengths_off_the_hull(self):
        assert "lengths" not in [f.name for f in dataclasses.fields(classical.PartialPressureTable)]
        table = partial_pressures(GREM, 0.9)
        assert table.per_length == tuple(p / L for p, L in zip(table.phi, GREM.lengths))

    def test_equal_hulls_share_one_hash_and_one_table(self):
        names = [f.name for f in dataclasses.fields(ConcaveHull)]
        twins = [
            concave_hull(DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0])),
            ConcaveHull(*(list(getattr(GREM, name)) for name in names)),
            dataclasses.replace(GREM),
            copy.deepcopy(GREM),
            pickle.loads(pickle.dumps(GREM)),
        ]
        assert all(twin is not GREM and twin == GREM and hash(twin) == hash(GREM) for twin in twins)
        classical._table.cache_clear()
        tables = [partial_pressures(hull, 1.3) for hull in [GREM] + twins]
        assert all(t is tables[0] for t in tables)
        info = classical._table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(twins), 1)

    def test_fields_repr_and_hash_value_are_the_dataclass_ones(self):
        names = ["support", "increments"]  # lengths and slopes are derived from these
        assert [f.name for f in dataclasses.fields(ConcaveHull)] == names
        shown = ", ".join(f"{name}={getattr(GREM, name)!r}" for name in names)
        assert repr(GREM) == f"ConcaveHull({shown})"
        assert hash(GREM) == hash(tuple(getattr(GREM, name) for name in names))

    def test_prefix_sums_add_left_to_right(self, rng):
        for _ in range(50):
            hull = concave_hull(random_spec(rng, max_blocks=12))
            for beta in (0.0, 1e-8, 0.7, 1.9, 1e3):
                table = partial_pressures(hull, beta)
                assert len(table.prefix) == hull.m + 1 and table.prefix[0] == 0.0
                for k in range(1, hull.m + 1):
                    assert table.prefix[k] == table.prefix[k - 1] + table.phi[k - 1]

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bad_beta_raises_whatever_the_cache_holds(self, beta, warm):
        classical._table.cache_clear()
        if warm:  # the table of 1.0 and, for a finite beta, that of -beta are cached
            partial_pressures(GREM, 1.0)
            if math.isfinite(beta):
                partial_pressures(GREM, -beta)
        before = classical._table.cache_info()
        with pytest.raises(DomainError):
            partial_pressures(GREM, beta)
        assert classical._table.cache_info() == before


class TestClassicalPressure:
    def test_infinite_temperature_is_entropy(self, rng):
        for _ in range(20):
            hull = concave_hull(random_spec(rng))
            assert classical_pressure(hull, 0.0) == pytest.approx(LN2, abs=1e-14)

    def test_worked_values(self):
        assert classical_pressure(GREM, 1.2) == pytest.approx(GREM_CLASSICAL_B12, abs=1e-12)
        assert classical_pressure(REM, 1.2) == pytest.approx(REM_PRESSURE_B12, abs=1e-12)

    def test_continuity_in_beta(self, rng):
        # includes betas straddling freezing points
        for _ in range(60):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.choice(partial_pressures(hull, 1.0).freeze_beta))
            for b0 in (float(rng.uniform(0.0, 3.0)), beta):
                jump = abs(classical_pressure(hull, b0 + 1e-6) - classical_pressure(hull, b0))
                assert jump < 1e-4

    def test_pointwise_smaller_envelope_has_larger_pressure(self, rng):
        # Slepian direction at the formula level: lowering the envelope
        # pointwise at fixed total mass cannot decrease the pressure.
        for _ in range(100):
            spec_hi = random_spec(rng)
            vals_hi = [v for _, v in spec_hi.points]
            xs = [x for x, _ in spec_hi.points]
            # scale early values down by a non-decreasing factor reaching 1
            theta = np.sort(rng.uniform(0.4, 1.0, len(xs)))
            theta[-1] = 1.0
            vals_lo = [v * t for v, t in zip(vals_hi, theta)]
            spec_lo = DistributionSpec.step(xs, vals_lo)
            hull_hi, hull_lo = concave_hull(spec_hi), concave_hull(spec_lo)
            for y in set(hull_hi.support) | set(hull_lo.support):
                assert hull_lo.value_at(y) <= hull_hi.value_at(y) + 1e-12
            beta = float(rng.uniform(0.0, 3.0))
            assert classical_pressure(hull_lo, beta) >= classical_pressure(hull_hi, beta) - 1e-12


class TestFreezingBoundary:
    def test_examples(self):
        assert freezing_boundary(REM, 1.2) == 1.0
        assert freezing_boundary(REM, 1.0) == 0.0
        assert freezing_boundary(GREM, 1.2) == 0.5
        assert freezing_boundary(GREM, 0.0) == 0.0

    def test_exact_slope_equality_excluded(self):
        # beta with 2 ln2 / beta^2 == first slope: strict sup leaves it out
        beta_eq = math.sqrt(2 * LN2 / 1.4)
        assert freezing_boundary(GREM, beta_eq) == 0.0

    def test_monotone_in_beta(self, rng):
        for _ in range(30):
            hull = concave_hull(random_spec(rng))
            xs = [freezing_boundary(hull, b) for b in np.linspace(0.1, 4.0, 25)]
            assert all(b >= a for a, b in zip(xs, xs[1:]))

    def test_freezing_betas_match_the_table(self, rng):
        # at beta = beta_l, as the table computes it, the boundary is the last
        # kink the table marks frozen
        for _ in range(100):
            hull = concave_hull(random_spec(rng, max_blocks=30))
            for beta_l in partial_pressures(hull, 1.0).freeze_beta:
                if math.isfinite(beta_l):
                    frozen = partial_pressures(hull, beta_l).frozen
                    last = max((l for l, f in enumerate(frozen) if f), default=None)
                    want = 0.0 if last is None else hull.support[last]
                    assert freezing_boundary(hull, beta_l) == want


class TestTruncatedPressure:
    def test_zero_truncation_is_zero(self, rng):
        for _ in range(20):
            hull = concave_hull(random_spec(rng))
            assert crem_truncated_pressure(hull, float(rng.uniform(0, 3)), 0.0) == 0.0

    def test_full_truncation_matches_classical(self, rng):
        for _ in range(120):
            hull = concave_hull(random_spec(rng, normalized=bool(rng.integers(0, 2))))
            beta = float(rng.uniform(0.0, 3.5))
            assert crem_truncated_pressure(hull, beta, 1.0) == pytest.approx(
                classical_pressure(hull, beta), abs=1e-12
            )

    def test_rem_worked_value(self):
        assert crem_truncated_pressure(REM, 1.2, 0.5) == pytest.approx(
            REM_TRUNCATED_B12_Z05, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            crem_truncated_pressure(REM, 1.0, 1.5)
        with pytest.raises(DomainError):
            crem_truncated_pressure(REM, 1.0, -0.1)

    def test_continuity_in_z(self, rng):
        for _ in range(60):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 2.5))
            z = float(rng.uniform(0.0, 1.0 - 2e-6))
            jump = abs(
                crem_truncated_pressure(hull, beta, z + 1e-6)
                - crem_truncated_pressure(hull, beta, z)
            )
            assert jump < 1e-4

    def test_concave_and_nondecreasing_in_z(self, rng):
        # The per-length contributions decrease across segments, so the
        # truncated pressure is concave in the truncation point (and it is
        # non-decreasing because every contribution is positive).
        zs = np.linspace(0.0, 1.0, 101)
        for _ in range(60):
            hull = concave_hull(random_spec(rng))
            beta = float(rng.uniform(0.0, 3.0))
            vals = np.array([crem_truncated_pressure(hull, beta, z) for z in zs])
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all(np.diff(vals, 2) <= 1e-10)

    def test_unnormalized_hull_supported(self):
        hull = concave_hull(DistributionSpec.step([0.5, 1.0], [0.2, 0.6], normalized=False))
        val = crem_truncated_pressure(hull, 1.1, 1.0)
        assert val == pytest.approx(classical_pressure(hull, 1.1), abs=1e-13)
        assert val == pytest.approx(float(mp_classical(hull.increments, hull.lengths, 1.1)), abs=1e-12)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda b: partial_pressures(REM, b),
    lambda b: freezing_boundary(REM, b),
    lambda b: crem_truncated_pressure(REM, b, 0.5),
], ids=["partial-pressures", "freezing-boundary", "truncated-pressure"])
def test_non_finite_beta_rejected(call, beta):
    with pytest.raises(DomainError):
        call(beta)
