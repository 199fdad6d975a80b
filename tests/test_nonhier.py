"""Subset-weight models: chains, induced hierarchies, greedy reduction."""

import itertools
import json
import math

import numpy as np
import pytest

from tfglass import (
    CapacityError,
    Chain,
    DistributionSpec,
    FieldSpec,
    NonHierModel,
    ValidationError,
    chain_grem,
    classical_nonhier_pressure,
    classical_pressure,
    concave_hull,
    greedy_chain,
    greedy_quantum_pressure,
    greedy_reduction,
    paramagnetic_pressure,
    qgrem_critical_fields,
    quantum_nonhier_pressure,
    transition_scan,
)
from tfglass.cli import main
from tfglass.model import hull_from_points, ln_2cosh
from tfglass.nonhier import indices_of, mask_of, model_hull
from tfglass.verify import limiting_pressure

from conftest import float_bits, random_field, random_nonhier
from oracles import (
    chain_min_pressures,
    four_list_hull,
    loop_chain_grem,
    loop_cumulative_weights,
    maxmin_candidates,
    minchain_classical_pressure,
    scan_greedy_chain,
)

LN2 = math.log(2.0)

MODEL2 = NonHierModel.from_subsets(
    (0.5, 0.5), {(1,): 0.2, (2,): 0.3, (1, 2): 0.5}
)


class TestModelAndChainValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            NonHierModel.from_subsets((0.5, 0.5), {(1,): 0.2, (2,): 0.2})

    def test_lengths_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            NonHierModel.from_subsets((0.5, 0.6), {(1, 2): 1.0})

    def test_chain_must_nest(self):
        with pytest.raises(ValidationError):
            Chain((mask_of([1]), mask_of([2, 3])))

    def test_chain_unit_steps(self):
        with pytest.raises(ValidationError):
            Chain((mask_of([1, 2]),))

    def test_from_order_roundtrip(self):
        chain = Chain.from_order([2, 1, 3])
        assert chain.order == (2, 1, 3)
        assert chain.terminal == mask_of([1, 2, 3])

    @pytest.mark.parametrize("order", [[0], [-1], [2, 0], [1, -3]])
    def test_from_order_rejects_indices_below_one(self, order):
        with pytest.raises(ValidationError, match="1-based"):
            Chain.from_order(order)

    def test_from_subsets_rejects_index_zero(self):
        with pytest.raises(ValidationError, match="1-based"):
            NonHierModel.from_subsets((0.5, 0.5), {(0,): 0.5, (1, 2): 0.5})

    @pytest.mark.parametrize("lengths, weights", [
        ((0.5, 0.5), {1: math.nan, 2: 0.5, 3: 0.5}),
        ((math.nan, 0.5), {1: 0.2, 2: 0.3, 3: 0.5}),
    ], ids=["nan-weight", "nan-length"])
    def test_non_finite_rejected(self, lengths, weights):
        with pytest.raises(ValidationError):
            NonHierModel(2, lengths, weights)

    def test_json_format(self):
        model = NonHierModel.from_json_dict(
            {"n": 2, "L": [0.5, 0.5], "weights": {"1": 0.2, "2": 0.3, "1,2": 0.5}}
        )
        assert model.weights == MODEL2.weights
        with pytest.raises(ValidationError):
            NonHierModel.from_json_dict({"n": 2, "L": [0.5, 0.5], "weights": {"2,1": 1.0}})


class TestChainGrem:
    def test_worked_example_both_orders(self):
        red = chain_grem(MODEL2, Chain.from_order([1, 2]))
        assert red.weights == pytest.approx((0.2, 0.8))
        assert red.endpoints == pytest.approx((0.5, 1.0))
        red = chain_grem(MODEL2, Chain.from_order([2, 1]))
        assert red.weights == pytest.approx((0.3, 0.7))

    def test_full_chain_weights_partition(self, rng):
        for _ in range(60):
            model = random_nonhier(rng)
            perm = rng.permutation(np.arange(1, model.n + 1))
            red = chain_grem(model, Chain.from_order(perm))
            assert sum(red.weights) == pytest.approx(1.0, abs=1e-12)
            assert red.endpoints[-1] == pytest.approx(1.0, abs=1e-12)

    def test_partial_chain(self):
        red = chain_grem(MODEL2, Chain.from_order([2]))
        assert red.weights == pytest.approx((0.3,))
        assert red.endpoints == pytest.approx((0.5,))
        hull = red.hull()
        assert hull.span == pytest.approx(0.5)

    def test_full_chain_spec_is_step_profile(self):
        red = chain_grem(MODEL2, Chain.from_order([1, 2]))
        spec = DistributionSpec.step(red.endpoints, np.cumsum(red.weights))
        assert spec.points == ((0.5, 0.2), (1.0, 1.0))

    def test_bitwise_equal_to_loop(self, rng):
        # dense models put many subsets in one step, where summation order shows
        for n in range(1, 9):
            raw = rng.dirichlet(np.ones((1 << n) - 1))
            dense = NonHierModel(n, tuple([1.0 / n] * n),
                                 {m: float(w) for m, w in enumerate(raw / raw.sum(), start=1)})
            for model in (random_nonhier(rng, n=n), dense):
                for _ in range(4):
                    perm = [int(i) + 1 for i in rng.permutation(n)]
                    for chain in (Chain.from_order(perm), Chain.from_order(perm[:rng.integers(0, n)])):
                        assert chain_grem(model, chain) == loop_chain_grem(model, chain)

    def test_chain_outside_model_rejected(self):
        with pytest.raises(ValidationError):
            chain_grem(MODEL2, Chain.from_order([1, 2, 3]))


class TestClassicalNonHier:
    def test_single_block_is_plain_hierarchical(self):
        model = NonHierModel.from_subsets((1.0,), {(1,): 1.0})
        val, chain = classical_nonhier_pressure(model, 1.2)
        rem = concave_hull(DistributionSpec.rem())
        assert val == pytest.approx(classical_pressure(rem, 1.2), abs=1e-14)
        assert chain.order == (1,)

    def test_two_block_minimum_matches_greedy(self):
        for beta in (0.5, 1.2, 2.5):
            val, _ = classical_nonhier_pressure(MODEL2, beta)
            greedy_hull = chain_grem(MODEL2, greedy_chain(MODEL2)).hull()
            assert val == pytest.approx(classical_pressure(greedy_hull, beta), abs=1e-12)

    def test_symmetric_model_all_chains_equal(self):
        # weights depend only on |J| and lengths are equal: permutation symmetry
        model = NonHierModel.from_subsets(
            (1 / 3, 1 / 3, 1 / 3),
            {(1,): 0.1, (2,): 0.1, (3,): 0.1,
             (1, 2): 0.15, (1, 3): 0.15, (2, 3): 0.15, (1, 2, 3): 0.25},
        )
        vals = [
            classical_pressure(chain_grem(model, Chain.from_order(p)).hull(), 1.3)
            for p in itertools.permutations((1, 2, 3))
        ]
        assert max(vals) - min(vals) < 1e-12

    def test_capacity_gate(self):
        n = 21
        model = NonHierModel(n, tuple([1.0 / n] * n), {(1 << n) - 1: 1.0})
        with pytest.raises(CapacityError):
            classical_nonhier_pressure(model, 1.0)
        with pytest.raises(CapacityError):
            quantum_nonhier_pressure(model, 1.0, FieldSpec.constant(1.0))


class TestCumulativeWeights:
    def test_bitwise_equal_to_loop(self, rng):
        for n in range(1, 13):
            sparse = random_nonhier(rng, n=n)
            raw = rng.dirichlet(np.ones((1 << n) - 1))
            dense = NonHierModel(n, tuple([1.0 / n] * n),
                                 {m: float(w) for m, w in enumerate(raw / raw.sum(), start=1)})
            for model in (sparse, dense):
                assert np.array_equal(model.cumulative_weights(), loop_cumulative_weights(model))


class TestGreedyChain:
    def test_two_block_example_absorbs_everything_at_once(self):
        # slopes: {1} -> 0.4, {2} -> 0.6, {1,2} -> 1.0; one round takes all
        chain = greedy_chain(MODEL2)
        assert chain.order == (1, 2)  # ascending completion of the single round
        hull = chain_grem(MODEL2, chain).hull()
        assert hull.m == 1
        assert hull.slopes == pytest.approx((1.0,))

    def test_rounded_tie_gives_one_segment(self):
        # {2} and {1,2} tie at slope 1 before rounding: one round, one kink,
        # one transition line
        model = NonHierModel.from_subsets([0.5, 0.5], {(2,): 0.5, (1,): 1 / 6, (1, 2): 1 / 3})
        _, hull, kink_sets = greedy_reduction(model)
        assert hull.m == 1 and kink_sets == (mask_of([1, 2]),)
        assert len(transition_scan(hull, 1.2)) == 1

    def test_rounded_tie_takes_the_union_in_one_round(self):
        # the slope of {1,2} rounds to just below that of {2}; within 1e-12
        # relative they tie, and the larger set wins
        model = NonHierModel.from_subsets([0.5, 0.5], {(2,): 0.5, (1,): 1 / 6, (1, 2): 1 / 3})
        for chain in (greedy_chain(model), scan_greedy_chain(model)):
            assert chain.order == (1, 2) and chain.sets == (mask_of([1]), mask_of([1, 2]))

    def test_hierarchical_special_case_recovers_identity_chain(self, rng):
        # weights only on prefixes {1..k}: the model is already hierarchical
        for n in (2, 3, 4):
            lengths = rng.dirichlet(np.ones(n)) + 0.1
            lengths /= lengths.sum()
            raw = rng.dirichlet(np.ones(n)) + 0.05
            raw /= raw.sum()
            # make prefix slopes strictly decreasing so the hierarchy is strict
            raw = np.sort(raw)[::-1] + np.linspace(0.2, 0.0, n)
            raw /= raw.sum()
            weights = {tuple(range(1, k + 2)): float(raw[k]) for k in range(n)}
            model = NonHierModel.from_subsets(lengths, weights)
            hull_greedy = chain_grem(model, greedy_chain(model)).hull()
            hull_identity = chain_grem(model, Chain.from_order(range(1, n + 1))).hull()
            assert hull_greedy.support == pytest.approx(hull_identity.support)
            assert hull_greedy.increments == pytest.approx(hull_identity.increments)

    def test_hull_dominates_every_chain_pointwise(self, rng):
        for _ in range(40):
            model = random_nonhier(rng, max_blocks=4)
            dom = chain_grem(model, greedy_chain(model)).hull()
            for perm in itertools.permutations(range(1, model.n + 1)):
                other = chain_grem(model, Chain.from_order(perm)).hull()
                for y in other.support:
                    assert dom.value_at(y) >= other.value_at(y) - 1e-12

    def test_minimizes_pressure_over_chains(self, rng):
        for _ in range(25):
            model = random_nonhier(rng, max_blocks=4)
            ghull = chain_grem(model, greedy_chain(model)).hull()
            for beta in (0.4, 1.0, 1.7, 3.0):
                val, _ = classical_nonhier_pressure(model, beta)
                assert classical_pressure(ghull, beta) == pytest.approx(val, abs=1e-12)


class TestQuantumNonHier:
    def test_zero_field_equals_classical(self, rng):
        # the full terminal set is always feasible at zero field, so the
        # values agree (the argmax itself can be a smaller set when trailing
        # blocks carry no weight)
        for _ in range(25):
            model = random_nonhier(rng, max_blocks=4)
            beta = float(rng.uniform(0.0, 2.5))
            qval, _ = quantum_nonhier_pressure(model, beta, FieldSpec.constant(0.0))
            cval, _ = classical_nonhier_pressure(model, beta)
            assert qval == pytest.approx(cval, abs=1e-12)

    def test_infinite_temperature(self, rng):
        model = random_nonhier(rng, n=3)
        val, _ = quantum_nonhier_pressure(model, 0.0, FieldSpec.constant(1.3))
        assert val == pytest.approx(LN2, abs=1e-12)

    def test_strong_field_empties_d(self):
        val, d_mask = quantum_nonhier_pressure(MODEL2, 1.2, FieldSpec.constant(20.0))
        assert d_mask == 0
        assert val == pytest.approx(float(np.log(2 * np.cosh(24.0))), abs=1e-12)

    def test_sandwich_bounds(self, rng):
        for _ in range(25):
            model = random_nonhier(rng, max_blocks=4)
            beta = float(rng.uniform(0.0, 2.5))
            field = FieldSpec.constant(float(rng.uniform(0.0, 2.0)))
            qval, _ = quantum_nonhier_pressure(model, beta, field)
            cval, _ = classical_nonhier_pressure(model, beta)
            from tfglass import paramagnetic_pressure

            assert qval >= cval - 1e-12
            assert qval >= paramagnetic_pressure(field, beta) - 1e-12

    def test_single_chain_reduction_small(self, rng):
        # max-min over every terminal set equals the greedy chain's cut formula
        for _ in range(15):
            model = random_nonhier(rng, max_blocks=4)
            for beta in (0.5, 1.5):
                for gamma in (0.0, 1.0):
                    field = FieldSpec.constant(gamma)
                    want, _ = quantum_nonhier_pressure(model, beta, field)
                    got = greedy_quantum_pressure(model, beta, field).value
                    assert got == pytest.approx(want, abs=1e-10)

    def test_matches_exhaustive_search(self, rng):
        # every chain (classical) and every terminal set with every chain
        # ending there (quantum), searched independently of the greedy chain
        for n in range(1, 7):
            for _ in range(6):
                model = random_nonhier(rng, n=n)
                fields = [FieldSpec.constant(0.0), FieldSpec.constant(float(rng.uniform(0.0, 2.5))),
                          random_field(rng), random_field(rng)]
                for beta in (0.0, 0.3, 1.2, 5.0):
                    cval, _ = classical_nonhier_pressure(model, beta)
                    assert cval == pytest.approx(minchain_classical_pressure(model, beta), abs=1e-12)
                    inner = chain_min_pressures(model, beta)
                    for field in fields:
                        cand = maxmin_candidates(model, inner, paramagnetic_pressure(field, beta))
                        qval, d_mask = quantum_nonhier_pressure(model, beta, field)
                        assert qval == pytest.approx(max(cand.values()), abs=1e-12)
                        assert cand[d_mask] == pytest.approx(qval, abs=1e-12)

    def test_indices_helpers(self):
        assert indices_of(mask_of([3, 1])) == (1, 3)
        assert indices_of(0) == ()


def _tie_heavy_models(rng, n):
    """Equal block lengths with small-integer weights, on random subsets and
    on the singletons, and a random Dirichlet model, all on n blocks."""
    full = (1 << n) - 1
    k = int(rng.integers(1, min(8, full) + 1))
    masks = [int(m) for m in rng.choice(np.arange(1, full + 1), size=k, replace=False)]
    ints = rng.integers(1, 4, k).astype(float)
    yield NonHierModel(n, tuple([1.0 / n] * n), dict(zip(masks, ints / ints.sum())))
    ints = rng.integers(1, 4, n).astype(float)
    yield NonHierModel(n, tuple([1.0 / n] * n), {1 << b: float(w) for b, w in enumerate(ints / ints.sum())})
    yield random_nonhier(rng, n=n)


class TestGreedyChainTables:
    def test_matches_scalar_scan(self, rng):
        # the union of two maximal-slope sets is maximal too, so only slopes
        # equal up to rounding (equal lengths, integer weights) leave the
        # index-tuple tie-break to decide a round
        for n in range(1, 11):
            for _ in range(8):
                for model in _tie_heavy_models(rng, n):
                    assert greedy_chain(model) == scan_greedy_chain(model)
        for n in (12, 14, 16):
            for model in _tie_heavy_models(rng, n):
                assert greedy_chain(model) == scan_greedy_chain(model)

    def test_round_set_holds_every_tied_superset(self, rng):
        # a round's tied sets are the strict supersets of the previous round
        # set whose marginal slope lies within 1e-12 relative of the maximum.
        # Their union lies in that band too, so it is the largest tied set and
        # no tie-break among them is left to decide; the greedy chain runs
        # through these unions, each completed in ascending order.  Slopes
        # come from the loop tables, not the package's.
        models = [m for n in range(1, 11) for _ in range(4) for m in _tie_heavy_models(rng, n)]
        models += [random_nonhier(rng, max_blocks=8) for _ in range(40)]
        for model in models:
            chain, hull, kink_sets = greedy_reduction(model)
            atilde = loop_cumulative_weights(model)
            current, rounds = 0, []
            while current != model.full_mask:
                rest = model.full_mask & ~current
                slope = {current | sub: (atilde[current | sub] - atilde[current])
                         / (model.subset_length(current | sub) - model.subset_length(current))
                         for sub in range(1, rest + 1) if sub & ~rest == 0}
                band = (1.0 - 1e-12) * max(slope.values())
                union = 0
                for cand, s in slope.items():
                    if s >= band:
                        union |= cand
                assert slope[union] >= band
                assert union in chain.sets
                rounds.append(union)
                current = union
            assert chain == Chain.from_order(
                [i for prev, r in zip([0] + rounds, rounds) for i in indices_of(r & ~prev)])
            assert set(kink_sets) <= set(rounds)
            points = [(model.subset_length(r), atilde[r]) for r in rounds]
            assert hull == hull_from_points(points)
            got = float_bits(hull.support, hull.increments, hull.lengths, hull.slopes)
            assert got == float_bits(*four_list_hull(points))

    def test_reduction_hull_is_the_greedy_chain_hull(self, rng):
        # the round points alone span the envelope of every chain set, and
        # each kink is read off the round set that lies on it.  Two rounds
        # whose slopes tie up to rounding may stay separate kinks in one hull
        # and merge in the other, so the envelopes are compared at the union
        # of their kinks, which bounds their distance everywhere.
        for n in range(1, 11):
            for _ in range(8):
                for model in _tie_heavy_models(rng, n):
                    chain, hull, kink_sets = greedy_reduction(model)
                    assert chain == greedy_chain(model)
                    want = chain_grem(model, chain).hull()
                    assert hull.span == want.span
                    for y in hull.support + want.support:
                        assert hull.value_at(y) == pytest.approx(want.value_at(y), abs=1e-14)
                    assert len(kink_sets) == hull.m and set(kink_sets) <= set(chain.sets)
                    assert [model.subset_length(d) for d in kink_sets] == list(hull.support)

    def test_length_table_bitwise_equal_to_subset_length(self, rng):
        for n in range(1, 13):
            lengths = rng.dirichlet(np.ones(n))
            lengths /= lengths.sum()
            model = NonHierModel(n, tuple(float(l) for l in lengths), {(1 << n) - 1: 1.0})
            want = np.array([model.subset_length(k) for k in range(1 << n)])
            assert float_bits(model.subset_lengths()) == float_bits(want)


@pytest.mark.parametrize("law", ["constant", "gaussian"])
def test_beta_zero_leaves_every_block_paramagnetic(rng, law):
    # every segment of the greedy hull ties with the paramagnet at beta = 0
    for _ in range(100):
        model = random_nonhier(rng)
        if law == "constant":
            field = FieldSpec.constant(float(rng.uniform(0.0, 3.0)))
        else:
            field = FieldSpec.gaussian(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 1.5)))
        value, d_mask = quantum_nonhier_pressure(model, 0.0, field)
        assert d_mask == 0
        assert value == paramagnetic_pressure(field, 0.0)


def _model_doc(model):
    """The model file of a NonHierModel: JSON floats round-trip exactly."""
    return {"n": model.n, "L": list(model.block_lengths),
            "weights": {",".join(map(str, indices_of(mask))): a for mask, a in model.weights.items()}}


class TestModelHull:
    def test_each_kind_gives_the_hull_of_its_limits(self, rng):
        spec = DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0])
        assert model_hull(spec) == concave_hull(spec)
        for _ in range(20):
            model = random_nonhier(rng)
            assert model_hull(model) == greedy_reduction(model)[1]

    def test_other_types_are_rejected(self):
        for bad in (None, concave_hull(DistributionSpec.rem()), {"n": 1}):
            with pytest.raises(ValidationError, match="unsupported spec type"):
                model_hull(bad)

    def test_limiting_pressure_is_bitwise_the_max_min(self, rng):
        for _ in range(30):
            model = random_nonhier(rng, max_blocks=6)
            field, beta = random_field(rng), float(rng.uniform(0.0, 3.0))
            want, _ = quantum_nonhier_pressure(model, beta, field)
            assert limiting_pressure(model, field, beta).hex() == want.hex()


class TestPhaseDiagramAgainstMaxMin:
    """`phase-diagram` on a non-hierarchical model against the exhaustive
    max-min over terminal sets D and the chains ending there, which shares
    no code with the greedy hull: m_z is its field derivative over beta, and
    each critical field is where its maximizing D changes."""

    H = 1e-5  # central-difference step; its error is O(H^2) plus rounding over H, near 1e-11
    AWAY = 1e-3  # cells this close to a critical field are skipped: m_z jumps there

    @staticmethod
    def maxmin(model, inner, beta, gamma):
        cand = maxmin_candidates(model, inner, float(ln_2cosh(beta * gamma)))
        best = max(cand, key=cand.get)
        return cand[best], best

    def test_magnetization_and_critical_fields(self, rng, tmp_path):
        betas, gammas = "0.5:2.5:5", "0:2.5:26"
        cells = crit_fields = 0
        for k in range(24):
            model = random_nonhier(rng, n=2 + k % 5)  # n = 2..6
            path, out = tmp_path / f"nh{k}.json", tmp_path / f"nh{k}.csv"
            path.write_text(json.dumps(_model_doc(model)))
            assert main(["phase-diagram", "--model", str(path), "--beta", betas, "--gamma", gammas,
                         "--out", str(out)]) == 0
            rows = [list(map(float, line.split(","))) for line in out.read_text().splitlines()[2:]]
            hull = model_hull(model)
            for beta in sorted({r[0] for r in rows}):
                inner = chain_min_pressures(model, beta)
                crit = qgrem_critical_fields(hull, beta)
                for _, gamma, _, m_z in (r for r in rows if r[0] == beta):
                    if min(abs(gamma - gc) for gc in crit) < self.AWAY:
                        continue
                    hi = self.maxmin(model, inner, beta, gamma + self.H)[0]
                    lo = self.maxmin(model, inner, beta, gamma - self.H)[0]
                    assert m_z == pytest.approx((hi - lo) / (2 * self.H * beta), abs=1e-8), (k, beta, gamma)
                    cells += 1
                for gc, slope in zip(crit, hull.slopes):
                    if slope > 0.0:
                        below = self.maxmin(model, inner, beta, gc * (1 - 1e-7))[1]
                        above = self.maxmin(model, inner, beta, gc * (1 + 1e-7))[1]
                        assert below != above, (k, beta, gc)
                        crit_fields += 1
        assert cells > 2500 and crit_fields > 150
