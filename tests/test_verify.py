"""Finite-size sampling, exact and stochastic pressures, concentration."""

import dataclasses
import itertools
import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tfglass import (
    CapacityError,
    DistributionSpec,
    DomainError,
    FieldSpec,
    NonHierModel,
    ValidationError,
    concentration_check,
    convergence_study,
    exact_pressure,
    sample_instance,
    sign_invariance_check,
    stochastic_pressure,
)
from tfglass import verify
from tfglass.model import ln_2cosh, sample_weights
from tfglass.verify import (
    EXACT_MAX_N,
    STACK_BYTES,
    STOCH_MAX_N,
    TRUNCATION_EPS,
    FiniteInstance,
    StochasticPressure,
    _stochastic_traces,
)

from oracles import (
    absolute_chebyshev_degree,
    cascade_potential,
    coo_hamiltonian,
    dense_hamiltonian,
    dense_quadratic_forms,
    diagonal_pressure,
    exact_spectrum,
    field_only_pressure,
    forward_stochastic_pressure,
    scipy_exact_pressure,
    sparse_hamiltonian,
    subset_potential,
)

LN2 = math.log(2.0)

REM_SPEC = DistributionSpec.rem()
GREM_SPEC = DistributionSpec.from_jumps([0.5, 0.5], [0.5, 1.0])
ZERO_SPEC = DistributionSpec.step([1.0], [0.0], normalized=False)  # U identically 0
CONST1 = FieldSpec.constant(1.0)


class TestSampleInstance:
    def test_deterministic_replay(self):
        a = sample_instance(GREM_SPEC, CONST1, 6, 123)
        b = sample_instance(GREM_SPEC, CONST1, 6, 123)
        c = sample_instance(GREM_SPEC, CONST1, 6, 124)
        assert np.array_equal(a.potential, b.potential)
        assert np.array_equal(a.field_weights, b.field_weights)
        assert not np.array_equal(a.potential, c.potential)

    def test_rem_variance(self):
        # 2^N i.i.d. values with variance N
        R, N = 4000, 2
        draws = np.array([sample_instance(REM_SPEC, CONST1, N, s).potential for s in range(R)])
        var = draws.var(axis=0)
        se = N * math.sqrt(2.0 / R)
        assert np.all(np.abs(var - N) < 3.5 * se)

    def test_shared_prefix_covariance(self):
        # two-block model at N=2: configurations sharing the first spin have
        # covariance N * A(1/2) = 1
        R = 100_000
        draws = np.array([sample_instance(GREM_SPEC, CONST1, 2, s).potential for s in range(R)])
        emp = np.mean(draws[:, 0] * draws[:, 1])  # sigma = (+,+) vs (+,-)
        se = math.sqrt((2.0 * 2.0 + 1.0) / R)
        assert abs(emp - 1.0) < 3.0 * se
        # no shared prefix: independent
        emp0 = np.mean(draws[:, 0] * draws[:, 3])
        assert abs(emp0) < 3.0 * math.sqrt(4.0 / R)

    def test_covariance_matrix_matches_profile(self):
        # full pairwise check at small N against N * A(overlap)
        spec = DistributionSpec.from_jumps([0.6, 0.4], [0.5, 1.0])
        N, R = 4, 30_000
        draws = np.array([sample_instance(spec, CONST1, N, s).potential for s in range(R)])
        emp = draws.T @ draws / R
        idx = np.arange(1 << N)
        for i in idx:
            for j in idx:
                if i == j:
                    q = 1.0
                else:
                    q = (N - 1 - int(np.floor(np.log2(i ^ j)))) / N  # common-prefix length
                want = N * spec.value_at(q)
                se = math.sqrt((N * N + want * want) / R)
                assert abs(emp[i, j] - want) < 4.0 * se

    def test_empty_block_rejected(self):
        spec = DistributionSpec.step([0.05, 0.1, 1.0], [0.3, 0.6, 1.0])
        with pytest.raises(ValidationError):
            sample_instance(spec, CONST1, 10, 0)

    def test_piecewise_linear_uses_resolution_n(self):
        spec = DistributionSpec.piecewise_linear([1.0], [1.0])  # A(x) = x
        inst = sample_instance(spec, CONST1, 4, 9)
        assert inst.potential.shape == (16,)
        # identity profile at resolution N: all N levels carry weight 1/N
        sib = sample_instance(spec, CONST1, 4, 9)
        assert np.array_equal(inst.potential, sib.potential)

    def test_unsupported_spec_type(self):
        with pytest.raises(ValidationError, match="unsupported spec type str"):
            sample_instance("rem", CONST1, 4, 1)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            sample_instance(REM_SPEC, CONST1, 21, 0)


class TestOneSampler:
    """sample_instance and sparse_hamiltonian against the builders they replaced, bitwise."""

    HIERARCHICAL = {
        "rem": REM_SPEC,
        "two-block": GREM_SPEC,
        "piecewise-linear": DistributionSpec.piecewise_linear([0.3, 0.6, 1.0], [0.5, 1.0, 1.0]),
        "zero-jump": ZERO_SPEC,
        "unnormalized": DistributionSpec.step([0.25, 0.5, 1.0], [0.2, 0.2, 0.7], normalized=False),
    }
    NONHIER = {
        "non-adjacent": NonHierModel.from_subsets([0.25, 0.25, 0.5], {(1, 3): 0.5, (2,): 0.2, (1, 2, 3): 0.3}),
        "four-blocks": NonHierModel.from_subsets(
            [0.25] * 4, {(2, 4): 0.3, (1, 2, 3): 0.25, (1,): 0.1, (1, 2, 4): 0.15, (3, 4): 0.2}),
    }

    @staticmethod
    def assert_same_draws(spec, reference, N, seed):
        # the reference's generator then draws the field weights: equal
        # weights mean the sampler consumed exactly the reference's draws
        field = FieldSpec.gaussian(0.1, 1.0)
        inst = sample_instance(spec, field, N, seed)
        rng = np.random.default_rng(seed)
        assert inst.potential.tobytes() == reference(spec, N, rng).tobytes()
        assert inst.field_weights.tobytes() == sample_weights(field, N, rng).tobytes()

    @pytest.mark.parametrize("N", [4, 8, 12])
    @pytest.mark.parametrize("name", HIERARCHICAL)
    def test_hierarchical_potential_equals_the_cascade(self, name, N):
        for r in range(3):
            self.assert_same_draws(self.HIERARCHICAL[name], cascade_potential, N, [r, N])

    @pytest.mark.parametrize("N", [8, 12])
    @pytest.mark.parametrize("name", NONHIER)
    def test_nonhier_potential_equals_the_subset_sampler(self, name, N):
        for r in range(3):
            self.assert_same_draws(self.NONHIER[name], subset_potential, N, [r, N])

    @pytest.mark.parametrize("N", range(1, 13))
    def test_csr_arrays_equal_the_coo_build(self, N):
        for field in (CONST1, FieldSpec.constant(0.0), FieldSpec.gaussian(0.1, 1.0)):
            inst = sample_instance(REM_SPEC, field, N, [N, 1])
            got, want = sparse_hamiltonian(inst), coo_hamiltonian(inst)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestNumpyExactPath:
    """The exact path's numpy kernels against the scipy calls they replaced, bitwise."""

    MODELS = {  # spec, smallest N that gives every block a spin
        "rem": (REM_SPEC, 1),
        "two-block": (GREM_SPEC, 2),
        "non-hierarchical": (NonHierModel.from_subsets([0.5, 0.5], {(1,): 0.2, (2,): 0.3, (1, 2): 0.5}), 2),
    }
    FIELDS = {
        "constant": CONST1,
        "gaussian": FieldSpec.gaussian(0.1, 1.0),
        "discrete": FieldSpec.discrete([(0.0, 0.5), (2.0, 0.5)]),  # zero weights: signed zeros
    }

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("model", MODELS)
    def test_dense_stack_equals_toarray(self, model, field):
        spec, n_min = self.MODELS[model]
        for N in range(n_min, 11):
            insts = [sample_instance(spec, self.FIELDS[field], N, [N, r]) for r in range(2)]
            for inst, H in zip(insts, verify._dense(insts)):
                assert H.tobytes() == dense_hamiltonian(inst).tobytes(), N

    def test_dense_keeps_toarray_zeros(self):
        # toarray adds each entry to a zeroed slot, so -0.0 entries read +0.0
        inst = FiniteInstance(2, np.array([-0.0, 1.0, -0.0, 2.0]), np.array([0.0, -0.0]), 0)
        assert verify._dense([inst])[0].tobytes() == dense_hamiltonian(inst).tobytes()

    @pytest.mark.parametrize("beta", [0.0, 1e-8, 0.3, 1.2, 8.0, 1e3])
    def test_log_sum_exp_equals_scipy(self, beta):
        from scipy.special import logsumexp

        cases = [(verify._spectra([sample_instance(spec, CONST1, N, [N, r]) for r in range(3)]), N)
                 for spec in (REM_SPEC, GREM_SPEC) for N in (4, 8, 10)]
        ties = np.array([[-2.0, 0.5, -2.0, 1.0], [3.0, 3.0, 3.0, 3.0], [-0.0, 0.0, 1.0, 0.0]])
        cases += [(ties, 2), (ties[0], 2), (exact_spectrum(sample_instance(ZERO_SPEC, FieldSpec.constant(0.0), 6, 1)), 6)]
        for levels, N in cases:
            got = verify._pressure_from_levels(levels, beta, N)
            want = logsumexp(-beta * levels, axis=-1) / N
            assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestFiniteInstanceChecks:
    @pytest.mark.parametrize("N", [STOCH_MAX_N + 1])
    def test_size_outside_the_gate_is_a_capacity_error(self, N):
        with pytest.raises(CapacityError):
            FiniteInstance(N, np.zeros(4), np.zeros(2), 0)

    def test_no_spins_is_a_validation_error(self):
        # one rule for N: an instance rejects N = 0 as sample_instance and the drivers do (exit 2,
        # not the capacity exit 4)
        with pytest.raises(ValidationError, match="N=0"):
            FiniteInstance(0, np.zeros(1), np.zeros(0), 0)

    @pytest.mark.parametrize("field, value", [
        ("potential", np.zeros(15)),
        ("potential", np.zeros((4, 4))),
        ("field_weights", np.ones(3)),
    ])
    def test_wrong_shape_is_a_validation_error(self, field, value):
        inst = sample_instance(REM_SPEC, CONST1, 4, 0)
        with pytest.raises(ValidationError, match="shapes"):
            exact_pressure(replace(inst, **{field: value}), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["potential", "field_weights"])
    def test_non_finite_entry_is_a_validation_error(self, field, bad):
        inst = sample_instance(REM_SPEC, CONST1, 4, 0)
        values = getattr(inst, field).copy()
        values[1] = bad
        with pytest.raises(ValidationError, match="finite"):
            exact_pressure(replace(inst, **{field: values}), 1.0)
        with pytest.raises(ValidationError, match="finite"):
            stochastic_pressure(replace(inst, **{field: values}), 1.0, 4)


class TestFiniteEntryChecks:
    """Every finite-size entry rejects a beta outside [0, inf), as the closed forms do, and the
    drivers an unknown method, before any replica is drawn.  Without the checks a nan beta gave a
    nan pressure or a passing report, beta = -1 gave numbers, and an unknown method ran the
    stochastic path."""

    @pytest.fixture
    def no_replicas(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a replica was drawn")

        monkeypatch.setattr(verify, "sample_instance", draw)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
    def test_bad_beta_is_a_domain_error(self, beta, no_replicas):
        inst = sample_instance(GREM_SPEC, CONST1, 6, 1)
        calls = [lambda: exact_pressure(inst, beta), lambda: stochastic_pressure(inst, beta, 8),
                 lambda: sign_invariance_check(inst, beta),
                 lambda: concentration_check(GREM_SPEC, CONST1, 4, beta, 200, 1),
                 lambda: convergence_study(GREM_SPEC, CONST1, beta, [6], 2, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DomainError, match="beta must be finite and >= 0"):
                    call()

    def test_beta_too_large_for_the_instance_is_a_domain_error(self):
        # beta (lambda - lo) overflowed at beta = 1e308: exact_pressure gave inf, the stochastic
        # estimate nan, and the sign check 0.0, a pass, each after numpy overflow warnings
        inst = sample_instance(GREM_SPEC, CONST1, 6, 1)
        calls = [lambda: exact_pressure(inst, 1e308), lambda: stochastic_pressure(inst, 1e308, 8),
                 lambda: sign_invariance_check(inst, 1e308),
                 lambda: concentration_check(GREM_SPEC, CONST1, 4, 1e308, 200, 1),
                 lambda: convergence_study(GREM_SPEC, CONST1, 1e308, [6], 2, 1),
                 lambda: convergence_study(GREM_SPEC, CONST1, 1e308, [11], 2, 1, probes=8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DomainError, match="too large for this instance"):
                    call()

    def test_largest_accepted_beta_gives_finite_values(self):
        # the bound is 4 beta (max|U| + sum|b|) finite: twice the spectral width, with room for rounding
        inst = sample_instance(GREM_SPEC, CONST1, 6, 1)
        scale = float(np.abs(inst.potential).max()) + float(np.abs(inst.field_weights).sum())
        beta = sys.float_info.max / (4.0 * scale) * (1.0 - 1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [exact_pressure(inst, beta), stochastic_pressure(inst, beta, 8).value,
                      sign_invariance_check(inst, beta, patterns=3)]
            with pytest.raises(DomainError):
                exact_pressure(inst, 2.0 * beta)
        assert all(map(math.isfinite, values))

    @pytest.mark.parametrize("probes", [0, -1])
    def test_no_probes_on_the_stochastic_path_is_rejected_before_any_draw(self, probes, no_replicas):
        # the N = 12 instance was drawn before the probe count was read
        for method in ("stochastic", "auto"):  # auto takes the stochastic path above N = 10
            with pytest.raises(ValidationError, match="at least one probe"):
                convergence_study(GREM_SPEC, CONST1, 1.2, [12], 2, 1, method=method, probes=probes)
            with pytest.raises(ValidationError, match="at least one probe"):
                concentration_check(GREM_SPEC, CONST1, 12, 1.2, 200, 1, method=method, probes=probes)

    def test_dense_path_ignores_the_probe_count(self):
        want = convergence_study(GREM_SPEC, CONST1, 1.2, [6], 2, 1, method="exact")
        assert convergence_study(GREM_SPEC, CONST1, 1.2, [6], 2, 1, method="exact", probes=0) == want
        assert convergence_study(GREM_SPEC, CONST1, 1.2, [6], 2, 1, probes=0) == want  # auto at N <= 10

    @pytest.mark.parametrize("method", ["dense", "Exact", ""])
    def test_unknown_method_is_a_validation_error(self, method, no_replicas):
        with pytest.raises(ValidationError, match="method"):
            convergence_study(GREM_SPEC, CONST1, 1.2, [6], 2, 1, method=method, probes=8)
        with pytest.raises(ValidationError, match="method"):
            concentration_check(GREM_SPEC, CONST1, 4, 1.2, 200, 1, method=method, probes=8)


def first_error(Ns, beta, method, probes):
    """(class, message) of the first check that a driver request fails, or None: the range of every N,
    beta, then the method and each N's path in N order (auto is dense at N <= 10)."""
    for N in Ns:
        if N < 1:
            return ValidationError, f"N must be >= 1, got N={N}"
        if N > STOCH_MAX_N:
            return CapacityError, f"sampling gated at N <= {STOCH_MAX_N}, got N={N}"
    if not beta >= 0.0:
        return DomainError, "beta must be finite and >= 0"
    if method not in ("auto", "exact", "stochastic"):
        return ValidationError, f"method must be auto, exact or stochastic, got {method!r}"
    for N in Ns:
        if method == "exact" or (method == "auto" and N <= 10):
            if N > EXACT_MAX_N:
                return CapacityError, f"dense diagonalization gated at N <= {EXACT_MAX_N}; use stochastic_pressure"
        elif probes < 1:
            return ValidationError, "need at least one probe"
    return None


def first_error_at_each_N_s_turn(Ns, beta, method, probes):
    """What a request failed before any draw when each N's path was checked at its own turn: every N's
    range, beta, then the method and the first N's probes.  Its exact gate came after its first draw."""
    error = first_error(Ns, beta, "auto", 1)  # the range and beta alone: auto with a probe passes every path
    if error is None:
        error = first_error(Ns[:1], beta, method, probes)
    return None if error and error[1].startswith("dense diagonalization") else error


class TestRequestRule:
    """Both drivers check a whole request before any replica is drawn.  The exact gate and the
    probe count were read when an N's turn came: `--N 10,14 --method exact --replicas 200` ran every
    N = 10 replica before exiting 4, and `--N 10,12 --probes 0` before exiting 2."""

    class Drawn(Exception):
        pass

    @pytest.fixture
    def sentinel(self, monkeypatch):
        def draw(*args, **kwargs):
            raise self.Drawn

        monkeypatch.setattr(verify, "sample_instance", draw)

    def run_grid(self, n_lists, driver):
        """Every request of the grid raises its first error without a draw, or reaches the sentinel."""
        outcomes = set()
        for Ns, method, probes, beta in itertools.product(n_lists, ["auto", "exact", "stochastic", "dense"],
                                                          [-1, 0, 8], [1.2, math.nan]):
            want = first_error(Ns, beta, method, probes)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(self.Drawn if want is None else want[0]) as raised:
                    driver(Ns, beta, method, probes)
            request = (Ns, beta, method, probes)
            if want is not None:  # a typed error: the sentinel was never reached, so nothing was drawn
                assert str(raised.value) == want[1], request
                early = first_error_at_each_N_s_turn(Ns, beta, method, probes)
                assert early is None or early == want, request
            outcomes.add(want and want[1].split(",")[0])  # the check, without the N it names
        assert len(outcomes) == 7  # each of the six checks fails somewhere in the grid, and some requests pass

    def test_convergence_study(self, sentinel):
        self.run_grid([[6], [11], [13], [14], [21], [0], [-1], [6, 12], [6, 14], [10, 12], [10, 14], [11, 14],
                       [14, 6], [13, 21], [6, 0], [-1, 21], [21, -1]],
                      lambda Ns, beta, method, probes: convergence_study(GREM_SPEC, CONST1, beta, Ns, 2, 1,
                                                                         method=method, probes=probes))

    def test_concentration_check(self, sentinel):
        self.run_grid([[N] for N in (-1, 0, 6, 11, 13, 14, 21)],
                      lambda Ns, beta, method, probes: concentration_check(GREM_SPEC, CONST1, Ns[0], beta, 200, 1,
                                                                           method=method, probes=probes))


class TestExactPressure:
    def test_diagonal_limit_matches_direct_sum(self):
        # zero field: the Hamiltonian is diagonal
        inst = sample_instance(REM_SPEC, FieldSpec.constant(0.0), 8, 11)
        assert exact_pressure(inst, 1.3) == pytest.approx(diagonal_pressure(inst, 1.3), abs=1e-10)

    def test_pure_field_closed_form(self):
        # U = 0: tensor-product spectrum, pressure is ln 2 cosh(beta Gamma) at any N
        for N in (2, 5, 8):
            inst = sample_instance(ZERO_SPEC, CONST1, N, 3)
            for beta in (0.5, 1.2, 3.0):
                assert exact_pressure(inst, beta) == pytest.approx(
                    float(ln_2cosh(beta)), abs=1e-12
                )

    def test_infinite_temperature(self):
        inst = sample_instance(REM_SPEC, CONST1, 6, 5)
        assert exact_pressure(inst, 0.0) == pytest.approx(LN2, abs=1e-13)

    def test_capacity_gate(self):
        inst = sample_instance(REM_SPEC, CONST1, 14, 0)
        with pytest.raises(CapacityError):
            exact_pressure(inst, 1.0)

    def test_gibbs_lower_bounds(self, rng):
        N = 6
        for s in range(50):
            # breakpoints on the 1/N lattice so no block is empty
            n_blocks = int(rng.integers(1, 4))
            cuts = sorted(rng.choice(np.arange(1, N), size=n_blocks - 1, replace=False))
            xs = [c / N for c in cuts] + [1.0]
            jumps = rng.dirichlet(np.ones(n_blocks))
            spec = DistributionSpec.from_jumps(jumps, xs)
            inst = sample_instance(spec, FieldSpec.constant(float(rng.uniform(0, 2))), N, s)
            beta = float(rng.uniform(0.1, 2.5))
            phi = exact_pressure(inst, beta)
            assert phi >= diagonal_pressure(inst, beta) - 1e-10
            assert phi >= field_only_pressure(inst, beta) - 1e-10

    def test_convex_in_beta(self):
        inst = sample_instance(GREM_SPEC, CONST1, 8, 17)
        eigs = exact_spectrum(inst)
        lo = eigs.min()
        betas = np.linspace(0.0, 3.0, 61)
        phis = [(-b * lo + math.log(np.exp(-b * (eigs - lo)).sum())) / inst.N for b in betas]
        assert np.all(np.diff(phis, 2) >= -1e-9)


class TestStochasticPressure:
    def test_agrees_with_exact_within_three_error_bars(self):
        for seed in (1, 2, 3):
            inst = sample_instance(REM_SPEC, CONST1, 10, seed)
            want = exact_pressure(inst, 1.2)
            est = stochastic_pressure(inst, 1.2, probes=96, seed=seed + 100)
            assert est.converged
            assert abs(est.value - want) <= 3.0 * est.error

    def test_pure_field_closed_form_within_error_bar(self):
        inst = sample_instance(ZERO_SPEC, FieldSpec.constant(0.7), 9, 4)
        est = stochastic_pressure(inst, 1.1, probes=64, seed=8)
        assert abs(est.value - float(ln_2cosh(1.1 * 0.7))) <= 3.0 * max(est.error, 1e-12)

    def test_zero_probes_rejected(self):
        inst = sample_instance(REM_SPEC, CONST1, 6, 0)
        with pytest.raises(ValidationError):
            stochastic_pressure(inst, 1.0, probes=0)

    def test_tol_below_the_error_is_flagged_not_silent(self):
        inst = sample_instance(REM_SPEC, CONST1, 8, 2)
        est = stochastic_pressure(inst, 2.0, probes=32, seed=1)
        flagged = stochastic_pressure(inst, 2.0, probes=32, seed=1, tol=0.5 * est.error)
        assert est.converged and not flagged.converged
        assert stochastic_pressure(inst, 2.0, probes=32, seed=1, tol=est.error).converged
        assert flagged.value == est.value and flagged.error == est.error

    def test_deterministic_for_fixed_seed(self):
        inst = sample_instance(REM_SPEC, CONST1, 8, 2)
        a = stochastic_pressure(inst, 1.2, probes=32, seed=5)
        b = stochastic_pressure(inst, 1.2, probes=32, seed=5)
        assert a == b

    def test_value_is_a_python_float(self):
        est = stochastic_pressure(sample_instance(REM_SPEC, CONST1, 6, 1), 1.2, probes=8, seed=1)
        assert type(est.value) is float and type(est.error) is float and type(est.degree) is int

    def test_glass_phase_replicas_within_three_error_bars(self):
        # the beta = 8 reproducer: the Chebyshev estimator returned a
        # non-finite replica and finite ones at 10.8, 13.9 and 12.5 here
        study = convergence_study(REM_SPEC, CONST1, 8.0, [9], 4, seed=3, method="stochastic", probes=16)
        for r, phi in enumerate(study.replica_phis[0]):
            inst = sample_instance(REM_SPEC, CONST1, 9, [3, 9, r + 1])
            est = stochastic_pressure(inst, 8.0, 16, seed=[3, 9, r + 1])
            assert phi == est.value
            assert abs(phi - exact_pressure(inst, 8.0)) <= 3.0 * est.error, r


class TestDegenerateSpectra:
    """Spectra where the Gershgorin bound lo is the smallest eigenvalue, or
    where the Krylov space closes after a few steps."""

    def test_zero_width_spectrum_is_exact(self):
        inst = sample_instance(ZERO_SPEC, FieldSpec.constant(0.0), 6, 1)  # H = 0
        for beta in (0.5, 8.0):
            est = stochastic_pressure(inst, beta, 16, seed=2)
            assert (est.error, est.degree) == (0.0, 0)
            assert est.value == pytest.approx(exact_pressure(inst, beta), abs=1e-15)

    def test_zero_field_within_the_bracket_of_exact(self):
        # a diagonal H: every Rademacher probe gives the trace exactly, so the
        # whole error is the bracket, and lo = min U is the ground state
        for N in (8, 10):
            inst = sample_instance(REM_SPEC, FieldSpec.constant(0.0), N, 4)
            for beta in (0.5, 1.2, 4.0, 8.0):
                est = stochastic_pressure(inst, beta, 32, seed=1)
                assert 0.0 < est.error <= 2.0 * TRUNCATION_EPS
                assert abs(est.value - exact_pressure(inst, beta)) <= est.error, (N, beta)

    def test_breakdown_is_an_exact_gauss_rule(self):
        # U = 0 with unit fields at N = 2: the Krylov space of every probe
        # closes (b_k = 0) within three steps and lo = -2 is an eigenvalue
        inst = sample_instance(ZERO_SPEC, CONST1, 2, 1)
        lo, log_g, log_r, steps = _stochastic_traces(inst, [0.5, 8.0], 16, 3)
        assert lo == -2.0 and steps <= 3
        assert np.array_equal(log_g, log_r)
        for beta in (0.5, 1.2, 8.0):
            est = stochastic_pressure(inst, beta, 64, seed=3)
            assert abs(est.value - exact_pressure(inst, beta)) <= 3.0 * est.error, beta

    def test_pure_field_closes_the_bracket(self):
        # U = 0: N + 1 distinct levels, the lowest at lo
        inst = sample_instance(ZERO_SPEC, FieldSpec.constant(0.7), 9, 4)
        for beta in (1.2, 8.0):
            est = stochastic_pressure(inst, beta, 64, seed=8)
            assert est.degree <= 10
            assert abs(est.value - exact_pressure(inst, beta)) <= 3.0 * est.error, beta


class TestLanczosBracket:
    """Each probe's Gauss rule is a lower and its Gauss-Radau rule an upper
    bound of z^T exp(-beta (H - lo)) z."""

    @pytest.mark.parametrize("spec, field", [(REM_SPEC, CONST1), (GREM_SPEC, FieldSpec.gaussian(1.0, 0.5))],
                             ids=["rem-constant", "two-block-gaussian"])
    def test_bracket_holds_against_dense_eigh(self, spec, field):
        betas = [0.5, 1.2, 4.0, 8.0]
        for N in (8, 10):
            inst = sample_instance(spec, field, N, [N, 7])
            exact = dense_quadratic_forms(inst, betas, 16, 5)
            calls = [(betas, _stochastic_traces(inst, betas, 16, 5))]
            calls += [([beta], _stochastic_traces(inst, [beta], 16, 5)) for beta in betas]
            for grid, (lo, log_g, log_r, _steps) in calls:
                want = np.log(exact[[betas.index(b) for b in grid]])
                assert np.all(log_g <= want + 1e-12), (N, grid)
                assert np.all(want <= log_r + 1e-12), (N, grid)

    def test_seeded_sweep_within_three_error_bars(self):
        # one spectrum per instance serves every beta, the glass phase included
        for spec in (REM_SPEC, GREM_SPEC):
            for N in (8, 10, 12):
                inst = sample_instance(spec, CONST1, N, [N, 21])
                levels = exact_spectrum(inst)
                for beta in (0.8, 1.2, 2.5, 8.0):
                    want = float(verify._pressure_from_levels(levels, beta, N))
                    est = stochastic_pressure(inst, beta, probes=64, seed=N)
                    assert abs(est.value - want) <= 3.0 * est.error, (N, beta)

    def test_bracket_within_the_budget_at_N14(self):
        inst = sample_instance(REM_SPEC, CONST1, 14, 1)
        lo, log_g, log_r, steps = _stochastic_traces(inst, [1.2], 32, 1)
        assert np.max(log_r - log_g) / 14 <= TRUNCATION_EPS


class TestUnsortedFlipTable:
    """The stochastic path multiplies by the flip table, row i holding (i, U_i) and
    then the spin flips from spin 1 on, against the sorted CSR arrays it replaced.
    Only each row's summation order differs.  The Gauss rules (the values) move
    by rounding; the Gauss-Radau rule, whose node sits at the Gershgorin bound,
    is more sensitive, so for it the tests require the same stopping steps and
    every bracket within the budget."""

    @staticmethod
    def rules(csr, inst, beta):
        b_abs = float(np.abs(inst.field_weights).sum())
        lo, hi = float(inst.potential.min()) - b_abs, float(inst.potential.max()) + b_abs
        q = 2.0 * np.random.default_rng([inst.N, 3]).integers(0, 2, size=(1 << inst.N, 32)) - 1.0
        node = lo - 1e-10 * max(abs(lo), abs(hi))
        return verify._lanczos_rules(csr, q, node, lo, [beta], TRUNCATION_EPS * inst.N, 1)

    @pytest.mark.parametrize("spec, field", [(REM_SPEC, CONST1), (GREM_SPEC, FieldSpec.gaussian(1.0, 0.5))],
                             ids=["rem-constant", "two-block-gaussian"])
    def test_values_within_1e13_and_equal_step_counts(self, spec, field):
        for N in (8, 10, 12, 14):
            inst = sample_instance(spec, field, N, [N, 17])
            H = sparse_hamiltonian(inst)
            cols, data = verify._entries(inst)
            assert np.shares_memory(cols.ravel(), cols) and np.shares_memory(data.ravel(), data)  # no copy
            for beta in (0.8, 1.2, 3.0, 8.0):
                log_g, log_r, steps = self.rules((H.indptr, cols.ravel(), data.ravel()), inst, beta)
                want_g, _, want_steps = self.rules((H.indptr, H.indices, H.data), inst, beta)
                assert steps == want_steps, (N, beta)
                np.testing.assert_allclose(log_g, want_g, rtol=1e-13, atol=0.0)
                assert np.all(log_r - log_g <= TRUNCATION_EPS * N), (N, beta)


class TestChebyshevMoments:
    """The estimator against the Chebyshev estimator it replaced, kept as the
    forward-recurrence oracle, on the same probes."""

    def test_matches_forward_recurrence_per_replica(self):
        # at the absolute degree the Chebyshev values are exact to rounding at
        # these betas, and the Gauss mean sits within the bracket budget
        for N in (8, 10, 12):
            for beta in (0.8, 1.2):
                for replica, spec in ((1, REM_SPEC), (2, GREM_SPEC)):
                    inst = sample_instance(spec, CONST1, N, [N, replica])
                    est = stochastic_pressure(inst, beta, probes=128, seed=replica)
                    want = forward_stochastic_pressure(inst, beta, 128, replica, absolute_chebyshev_degree(inst, beta))
                    assert abs(est.value - want) <= TRUNCATION_EPS, (N, beta, replica)

    def test_beta_grid_within_the_budget_of_single_beta_calls(self):
        # a grid runs every probe until all its betas are bracketed, so its
        # rules sit within TRUNCATION_EPS per spin of each single-beta call's
        inst = sample_instance(GREM_SPEC, CONST1, 10, 5)
        lo, log_g, log_r, _steps = _stochastic_traces(inst, [0.8, 1.2], 96, 4)
        for row, beta in enumerate((0.8, 1.2)):
            lo_1, g_1, r_1, _ = _stochastic_traces(inst, [beta], 96, 4)
            assert lo_1 == lo
            assert np.max(np.abs(log_g[row] - g_1[0])) <= TRUNCATION_EPS * inst.N, beta
            assert np.max(r_1[0] - log_g[row]) <= TRUNCATION_EPS * inst.N, beta

    def test_error_bar_covers_exact_where_cancellation_dominates(self):
        for seed in (1, 2):
            inst = sample_instance(REM_SPEC, CONST1, 10, seed)
            est = stochastic_pressure(inst, 2.5, probes=128, seed=seed)
            assert abs(est.value - exact_pressure(inst, 2.5)) <= est.error


class TestDegreeRule:
    """The stopping rule behind ``degree``, the largest Lanczos step count:
    every probe stops once its bracket is within TRUNCATION_EPS per spin."""

    GRID = [
        (name, spec, N, beta, seed)
        for name, spec in (("rem", REM_SPEC), ("two-block", GREM_SPEC))
        for N in (8, 10, 12)
        for beta in (0.3, 0.8, 1.2, 2.5)
        for seed in (1, 2, 3)
    ]

    @staticmethod
    def degree(inst, betas):
        return _stochastic_traces(inst, betas, 32, 0)[3]

    def test_values_within_1e6_of_the_absolute_degree(self):
        # the Chebyshev oracle loses accuracy to cancellation above beta = 1.2
        for name, spec, N, beta, seed in self.GRID:
            if beta > 1.2:
                continue
            inst = sample_instance(spec, CONST1, N, [N, seed])
            est = stochastic_pressure(inst, beta, probes=64, seed=seed)
            ref = forward_stochastic_pressure(inst, beta, 64, seed, absolute_chebyshev_degree(inst, beta))
            assert abs(est.value - ref) <= 1e-6, (name, N, beta, seed)

    def test_every_probe_within_the_budget_for_every_beta(self):
        for name, spec, N, _beta, seed in self.GRID[::4]:
            inst = sample_instance(spec, CONST1, N, [N, seed])
            lo, log_g, log_r, steps = _stochastic_traces(inst, [0.3, 0.8, 1.2, 2.5], 32, seed)
            assert np.all(log_r - log_g <= TRUNCATION_EPS * N), (name, N, seed)
            assert np.all(log_r >= log_g - 1e-12), (name, N, seed)  # equal to rounding once converged

    def test_fewer_steps_than_the_chebyshev_matvecs(self):
        # the capped Chebyshev degree D cost ceil(D / 2) matvecs per probe
        for name, spec, N, beta, seed in self.GRID + [(n, s, N, 8.0, r) for n, s, N, _b, r in self.GRID[::4]]:
            inst = sample_instance(spec, CONST1, N, [N, seed])
            assert self.degree(inst, [beta]) < math.ceil(absolute_chebyshev_degree(inst, beta) / 2), (name, N, beta)

    def test_beta_grid_takes_the_largest_degree(self):
        inst = sample_instance(GREM_SPEC, CONST1, 10, 5)
        singles = [self.degree(inst, [beta]) for beta in (0.3, 1.2, 0.8)]
        assert self.degree(inst, [0.3, 1.2, 0.8]) == max(singles) == singles[1]

    @pytest.mark.parametrize("spec", [REM_SPEC, GREM_SPEC], ids=["rem", "two-block"])
    def test_matvec_saving_at_N12(self, spec):
        # the budget Chebyshev degrees of these instances were 33-35 at
        # beta = 0.8 and 44-47 at beta = 1.2, that is 17-18 and 22-24 matvecs
        for r in range(1, 6):
            inst = sample_instance(spec, CONST1, 12, [12, r])
            assert self.degree(inst, [0.8]) <= 12, r
            assert self.degree(inst, [1.2]) <= 15, r

    def test_truncation_part_of_the_error_is_guaranteed(self):
        # the error bar holds the widest bracket, which bounds how far the
        # Gauss mean can sit below the mean of the probes' quadratic forms
        for seed in (1, 2, 3):
            inst = sample_instance(REM_SPEC, CONST1, 10, seed)
            est = stochastic_pressure(inst, 1.2, 64, seed=1)
            lo, log_g, log_r, _steps = _stochastic_traces(inst, [1.2], 64, 1)
            assert est.error * inst.N >= float(np.max(log_r - log_g)) > 0.0, seed


class TestSignInvariance:
    def test_random_flip_patterns_leave_diagonal_fixed(self):
        inst = sample_instance(GREM_SPEC, CONST1, 6, 21)
        dev = sign_invariance_check(inst, 1.0, patterns=20, seed=3)
        assert dev <= 1e-8

    def test_flipping_all_signs(self):
        from dataclasses import replace

        from tfglass.verify import _exp_diag

        inst = sample_instance(REM_SPEC, CONST1, 8, 33)
        base, anchor = _exp_diag(inst, 1.0)
        flipped, _ = _exp_diag(replace(inst, field_weights=-inst.field_weights), 1.0, anchor)
        assert np.max(np.abs(flipped - base) / base) <= 1e-8

    def test_zero_field_at_large_beta_is_zero_without_warnings(self):
        # off the ground state both diagonals underflow to 0: 0/0 warned, and max(0.0, nan) kept 0.0
        inst = sample_instance(GREM_SPEC, FieldSpec.constant(0.0), 6, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sign_invariance_check(inst, 1000.0, patterns=5) == 0.0

    def test_a_nan_deviation_fails_the_contract(self, monkeypatch):
        # a nan in the first flipped diagonal must reach the result, whatever later patterns give
        exp_diag, calls = verify._exp_diag, []

        def nan_once(inst, beta, anchor=None):
            diag, anchor_out = exp_diag(inst, beta, anchor)
            if anchor is not None and not calls:
                calls.append(anchor)
                diag = diag.copy()
                diag[3] = math.nan
            return diag, anchor_out

        monkeypatch.setattr(verify, "_exp_diag", nan_once)
        dev = sign_invariance_check(sample_instance(GREM_SPEC, CONST1, 6, 1), 1.0, patterns=3)
        assert calls and not dev <= 1e-8

    def test_off_diagonals_do_change_sign(self):
        # the invariance is a statement about diagonals only
        inst = sample_instance(REM_SPEC, CONST1, 2, 1)
        H = dense_hamiltonian(inst)
        H2 = dense_hamiltonian(
            type(inst)(inst.N, inst.potential, -inst.field_weights, inst.seed)
        )
        assert np.allclose(np.diag(H), np.diag(H2))
        off = H - np.diag(np.diag(H))
        assert np.allclose(H2 - np.diag(np.diag(H2)), -off)
        assert np.any(off != 0)


class TestConcentration:
    def test_needs_replicas(self):
        with pytest.raises(ValidationError):
            concentration_check(REM_SPEC, CONST1, 6, 1.0, replicas=100, seed=0)

    @pytest.mark.parametrize("N, error", [(-4, ValidationError), (0, ValidationError), (21, CapacityError)])
    def test_spin_count_outside_the_gate(self, N, error):
        # N = -4 would reach numpy's negative-dimension error before sample_instance's check
        with pytest.raises(error, match=f"N={N}"):
            concentration_check(REM_SPEC, CONST1, N, 1.0, replicas=200, seed=0)

    def test_report_keeps_what_is_read(self):
        fields = [f.name for f in dataclasses.fields(verify.ConcentrationReport)]
        assert fields == ["mean", "std", "fractions", "bounds", "slacks"]

    def test_infinite_temperature_is_deterministic(self):
        rep = concentration_check(REM_SPEC, CONST1, 4, 0.0, replicas=200, seed=1)
        assert rep.fractions == (0.0, 0.0, 0.0)
        assert rep.passed

    def test_bounds_hold_at_small_sizes(self):
        rep = concentration_check(GREM_SPEC, CONST1, 6, 1.2, replicas=250, seed=2)
        assert rep.passed
        assert all(b > 0 for b in rep.bounds)

    def test_spread_shrinks_with_n(self):
        a = concentration_check(REM_SPEC, CONST1, 4, 1.0, replicas=300, seed=3)
        b = concentration_check(REM_SPEC, CONST1, 8, 1.0, replicas=300, seed=3)
        assert b.std < a.std


class TestConvergenceStudy:
    def test_pure_paramagnet_control_has_zero_gap(self):
        study = convergence_study(ZERO_SPEC, CONST1, 1.2, [4, 6], replicas=5, seed=0)
        for row in study.rows:
            assert row.gap == pytest.approx(0.0, abs=1e-12)
        assert study.limit == pytest.approx(float(ln_2cosh(1.2)), abs=1e-12)

    def test_deterministic_aggregate(self):
        a = convergence_study(REM_SPEC, CONST1, 1.2, [5], replicas=8, seed=42)
        b = convergence_study(REM_SPEC, CONST1, 1.2, [5], replicas=8, seed=42)
        assert a == b

    def test_workers_do_not_change_the_result(self):
        a = convergence_study(REM_SPEC, CONST1, 1.0, [6], replicas=10, seed=7)
        b = convergence_study(REM_SPEC, CONST1, 1.0, [6], replicas=10, seed=7, workers=2)
        assert a == b

    def test_non_finite_stochastic_replica_raises(self, monkeypatch):
        # a nan replica must not be averaged in: the driver stops on it
        def nan_for_the_last(inst, beta, probes, *, seed=0, tol=None):
            value = math.nan if seed == [3, 9, 4] else 1.0
            return StochasticPressure(value, math.inf, False, probes, 0)

        monkeypatch.setattr(verify, "stochastic_pressure", nan_for_the_last)
        with pytest.raises(CapacityError, match=r"N=9, beta=8.0, replica seed \[3, 9, 4\]"):
            convergence_study(REM_SPEC, CONST1, 8.0, [9], 4, seed=3, method="stochastic", probes=16)

    def test_freeze_field_freezes_weights(self):
        f = FieldSpec.gaussian(0.0, 1.0)
        study = convergence_study(ZERO_SPEC, f, 1.0, [4], replicas=6, seed=9, freeze_field=True)
        # zero potential: Phi_N is a function of the (frozen) weights only
        assert len(set(study.replica_phis[0])) == 1

    def test_rows_leave_the_limit_to_the_study(self):
        assert [f.name for f in dataclasses.fields(verify.ConvergenceRow)] == ["N", "mean", "std", "gap"]

    @pytest.mark.parametrize("replicas", [0, 1])
    def test_needs_two_replicas(self, replicas):
        # one replica has no spread (ddof=1) and none has no mean
        with pytest.raises(ValidationError, match="at least 2 replicas"):
            convergence_study(REM_SPEC, CONST1, 1.2, [4], replicas=replicas, seed=0)


class TestStackedReplicas:
    """The drivers' exact path: one eigvalsh per stack of replicas."""

    @pytest.mark.parametrize("freeze", [False, True], ids=["resampled", "frozen"])
    def test_replicas_equal_exact_pressure_bitwise(self, freeze):
        # 40 replicas at N = 8 are three stacks (16, 16, 8): reversed or
        # mis-sliced stacks put a value in another replica's place
        field = FieldSpec.gaussian(1.0, 0.5)
        for N, replicas in ((4, 6), (8, 40), (10, 3)):
            study = convergence_study(GREM_SPEC, field, 1.2, [N], replicas, seed=5, freeze_field=freeze)
            frozen = np.asarray(sample_weights(field, N, np.random.default_rng([5, N, 0])), dtype=float)
            want = []
            for r in range(replicas):
                inst = sample_instance(GREM_SPEC, field, N, [5, N, r + 1])
                if freeze:
                    inst = replace(inst, field_weights=frozen)
                want.append(exact_pressure(inst, 1.2))
            assert study.replica_phis[0] == tuple(want), N

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stacks_hold_at_most_stack_bytes(self, monkeypatch, workers):
        # sixteen N = 8 matrices or one N = 10 matrix (8 MB) per eigensolve
        # call, whatever the number of workers
        sizes = []
        spectra = verify._spectra

        def recording(insts):
            sizes.append((insts[0].N, len(insts)))
            return spectra(insts)

        monkeypatch.setattr(verify, "_spectra", recording)
        convergence_study(REM_SPEC, CONST1, 1.2, [8], 40, seed=1, workers=workers)
        convergence_study(REM_SPEC, CONST1, 1.2, [10], 2, seed=1, workers=workers)
        assert sorted(sizes) == [(8, 8), (8, 16), (8, 16), (10, 1), (10, 1)]
        assert STACK_BYTES == 8 * 4**10

    def test_workers_do_not_change_stacked_results(self):
        a = convergence_study(REM_SPEC, CONST1, 1.2, [8], 40, seed=13, workers=1)
        b = convergence_study(REM_SPEC, CONST1, 1.2, [8], 40, seed=13, workers=2)
        assert a == b
        c = concentration_check(REM_SPEC, CONST1, 8, 1.2, 200, seed=13, workers=1)
        d = concentration_check(REM_SPEC, CONST1, 8, 1.2, 200, seed=13, workers=2)
        assert c == d

    def test_drivers_share_one_worker_pool(self, monkeypatch):
        # the second driver call runs on the threads the first one started
        draw, seen = verify.sample_instance, []

        def recording(*args):
            seen[-1].add(threading.current_thread())
            return draw(*args)

        monkeypatch.setattr(verify, "sample_instance", recording)
        for _ in range(2):
            seen.append(set())
            convergence_study(REM_SPEC, CONST1, 1.2, [6], 6, seed=3, method="stochastic", probes=4, workers=2)
        assert seen[1] and seen[1] <= seen[0]
        assert threading.current_thread() not in seen[0]

    def test_within_1e13_of_single_matrix_scipy_solver(self):
        for N in (6, 8, 10):
            study = convergence_study(REM_SPEC, CONST1, 1.2, [N], 3, seed=2)
            for r, phi in enumerate(study.replica_phis[0]):
                inst = sample_instance(REM_SPEC, CONST1, N, [2, N, r + 1])
                assert abs(phi - scipy_exact_pressure(inst, 1.2)) <= 1e-13, (N, r)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="non-negative integer"):
            convergence_study(REM_SPEC, CONST1, 1.2, [4], 2, seed=seed)
        with pytest.raises(ValidationError, match="non-negative integer"):
            concentration_check(REM_SPEC, CONST1, 4, 1.2, 200, seed=seed)


@pytest.mark.parametrize("seed", [-1, [3, -1], 1.5, "3"], ids=["negative", "negative-part", "float", "str"])
def test_library_seeds_must_be_non_negative_integers(seed):
    inst = sample_instance(REM_SPEC, CONST1, 4, 1)
    with pytest.raises(ValidationError, match="non-negative integer"):
        sample_instance(REM_SPEC, CONST1, 4, seed)
    with pytest.raises(ValidationError, match="non-negative integer"):
        stochastic_pressure(inst, 1.0, 4, seed=seed)
    with pytest.raises(ValidationError, match="non-negative integer"):
        sign_invariance_check(inst, 1.0, seed=seed)
