"""Finite-size ground truth: sampled disorder, exact and stochastic pressures.

One disorder realization fixes 2^N energies built from the hierarchical
Gaussian cascade (level k contributes sqrt(N a_k) times a standard Gaussian
indexed by the length-ceil(x_k N) spin prefix) and N field weights.  The
Hamiltonian on the configuration space is diagonal in the energies with
-b_j connecting configurations that differ by one spin flip.

Two evaluation paths coexist.  The exact path diagonalizes densely and is
gated at N <= 14.  The stochastic path estimates Tr exp(-beta H) with
Rademacher probes and a Chebyshev expansion of the exponential on the
Gershgorin interval, reporting a probe-variance error bar plus the polynomial
truncation error; it only needs matrix-vector products and is gated at
N <= 20.  Convergence and concentration drivers pick the path by dimension.

The exact path solves a stack of replicas per pool task, at most STACK_BYTES
of matrices (one at N = 10, sixteen at N = 8), in one numpy eigvalsh call,
which releases the GIL (scipy's holds it), so pool threads run in parallel.
Replica seeds derive from (seed, replica index) and stacks are cut by N and
replica count only, so aggregates do not depend on scheduling or workers.

scipy is imported inside the functions that build or solve a Hamiltonian,
so importing tfglass for the closed-form limits never loads it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, ValidationError
from .model import (
    DistributionSpec,
    FieldSpec,
    ProfileKind,
    concave_hull,
    ln_2cosh,
    sample_weights,
)
from .nonhier import NonHierModel, indices_of, quantum_nonhier_pressure
from .quantum import qgrem_pressure

if TYPE_CHECKING:
    import scipy.sparse

EXACT_MAX_N = 14
STOCH_MAX_N = 20
STACK_BYTES = 8 << 20  # bytes of dense Hamiltonians per eigensolve call: one N = 10 matrix
TILE_COLS = 32  # probe columns per Chebyshev tile: 1 MB per vector block at N = 12
TRUNCATION_EPS = 1e-6  # per spin: guaranteed Chebyshev truncation term of the default degree
CONCENTRATION_T_VALUES = (1.0, 2.0, 3.0)  # deviations t*beta/sqrt(N) tested against 2 exp(-t^2/4)


@dataclass(frozen=True)
class FiniteInstance:
    """One disorder realization on N spins: 2^N energies plus field weights."""

    N: int
    potential: np.ndarray
    field_weights: np.ndarray
    seed: object


def _block_boundaries(xs, N):
    """ceil(x_k * N) per breakpoint, with float fuzz absorbed."""
    bounds = [math.ceil(x * N - 1e-9) for x in xs]
    prev = 0
    for x, b in zip(xs, bounds):
        if b <= prev:
            raise ValidationError(
                f"block ending at x={x} is empty at N={N}; increase N"
            )
        prev = b
    return bounds


def _hierarchical_potential(spec: DistributionSpec, N: int, rng) -> np.ndarray:
    if spec.kind is ProfileKind.PIECEWISE_LINEAR:
        points = [(k / N, spec.value_at(k / N)) for k in range(1, N + 1)]
    else:
        points = list(spec.points)
    bounds = _block_boundaries([x for x, _ in points], N)
    values = [v for _, v in points]
    jumps = np.diff([0.0] + values)
    U = np.zeros(1 << N)
    for n_k, a_k in zip(bounds, jumps):
        if a_k <= 0.0:
            continue
        g = rng.standard_normal(1 << n_k)
        U += math.sqrt(N * a_k) * np.repeat(g, 1 << (N - n_k))
    return U


def _nonhier_potential(model: NonHierModel, N: int, rng) -> np.ndarray:
    cum = np.cumsum(model.block_lengths)
    bounds = _block_boundaries(cum, N)
    widths = np.diff([0] + bounds)
    U = np.zeros(1 << N)
    conf = np.arange(1 << N, dtype=np.int64)
    for mask in sorted(model.weights):
        a_j = model.weights[mask]
        idx = np.zeros(1 << N, dtype=np.int64)
        total_width = 0
        for k in indices_of(mask):
            w_k = int(widths[k - 1])
            block_bits = (conf >> (N - bounds[k - 1])) & ((1 << w_k) - 1)
            idx = (idx << w_k) | block_bits
            total_width += w_k
        g = rng.standard_normal(1 << total_width)
        U += math.sqrt(N * a_j) * g[idx]
    return U


def sample_instance(spec, field: FieldSpec, N: int, seed) -> FiniteInstance:
    """Draw one disorder realization; bit-identical replay for a fixed seed.

    Piecewise-linear profiles are sampled through their step representation at
    resolution N.  Raises when the block rounding ceil(x_k N) leaves a block
    without spins.
    """
    if N < 1:
        raise ValidationError("N must be >= 1")
    if N > STOCH_MAX_N:
        raise CapacityError(f"sampling gated at N <= {STOCH_MAX_N}")
    rng = _rng(seed)
    if isinstance(spec, NonHierModel):
        U = _nonhier_potential(spec, N, rng)
    elif isinstance(spec, DistributionSpec):
        U = _hierarchical_potential(spec, N, rng)
    else:
        raise ValidationError(f"unsupported spec type {type(spec).__name__}")
    b = sample_weights(field, N, rng)
    return FiniteInstance(N, U, np.asarray(b, dtype=float), seed)


def sparse_hamiltonian(inst: FiniteInstance) -> scipy.sparse.csr_matrix:
    """2^N x 2^N Hamiltonian: energies on the diagonal, -b_j on single flips."""
    import scipy.sparse

    dim = 1 << inst.N
    idx = np.arange(dim)
    rows = [idx]
    cols = [idx]
    data = [inst.potential]
    for j in range(inst.N):
        rows.append(idx)
        cols.append(idx ^ (1 << (inst.N - 1 - j)))
        data.append(np.full(dim, -inst.field_weights[j]))
    return scipy.sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


def dense_hamiltonian(inst: FiniteInstance) -> np.ndarray:
    return sparse_hamiltonian(inst).toarray()


def _check_exact(inst: FiniteInstance):
    if inst.N > EXACT_MAX_N:
        raise CapacityError(
            f"dense diagonalization gated at N <= {EXACT_MAX_N}; "
            "use stochastic_pressure"
        )


def _spectra(insts) -> np.ndarray:
    """Spectra of equal-size instances, one row each, from one stacked eigvalsh
    (bitwise equal to per-matrix calls); ``toarray(out=slot)`` zeroes the slot."""
    _check_exact(insts[0])
    dim = 1 << insts[0].N
    stack = np.empty((len(insts), dim, dim))
    for inst, slot in zip(insts, stack):
        sparse_hamiltonian(inst).toarray(out=slot)
    return np.linalg.eigvalsh(stack)


def _pressure_from_levels(levels: np.ndarray, beta: float, N: int):
    """(1/N) ln sum_i exp(-beta levels_i) along the last axis, overflow-safe."""
    from scipy.special import logsumexp

    return logsumexp(-beta * levels, axis=-1) / N


def exact_spectrum(inst: FiniteInstance) -> np.ndarray:
    return _spectra([inst])[0]


def exact_pressure(inst: FiniteInstance, beta: float) -> float:
    """(1/N) ln Tr exp(-beta H) from the full spectrum."""
    return float(_pressure_from_levels(_spectra([inst]), beta, inst.N)[0])


def diagonal_pressure(inst: FiniteInstance, beta: float) -> float:
    """Field-free lower bound: (1/N) ln sum_sigma exp(-beta U(sigma))."""
    return float(_pressure_from_levels(inst.potential, beta, inst.N))


def field_only_pressure(inst: FiniteInstance, beta: float) -> float:
    """Gibbs lower bound from the pure-field trial state.

    The product state of the field-only Hamiltonian has a uniform diagonal in
    the configuration basis, so the variational principle gives exactly

        Phi_N >= (1/N) [ sum_j ln 2 cosh(beta b_j) - beta * mean_sigma U(sigma) ].

    The potential average is the finite-size cross term; it vanishes as
    N -> infinity but cannot be dropped at finite N (a constant shift of U
    shifts Phi_N by exactly that amount).
    """
    cross = beta * float(inst.potential.mean())
    return (float(np.sum(ln_2cosh(beta * inst.field_weights))) - cross) / inst.N


@dataclass(frozen=True)
class StochasticPressure:
    value: float
    error: float
    converged: bool
    probes: int
    degree: int


def _chebyshev_degree(a: float, budget: float) -> int:
    """Degree of the Chebyshev series of exp(-a (x + 1)) on [-1, 1]: the
    smallest D whose coefficient tail 2 sum_{k>D} ive(k, a), a bound on the
    sup error, is at most ``budget``, capped where the terms themselves fall
    below 1e-18 (plus 5), which sits under float64 rounding."""
    from scipy.special import ive

    k_max = int(a + 40.0 * math.sqrt(a + 1.0) + 60)
    terms = ive(np.arange(k_max + 1), a)
    keep = np.nonzero(terms > 1e-18)[0]
    cap = int(keep[-1]) + 5 if keep.size else 8
    tails = 2.0 * np.cumsum(terms[::-1])[::-1]  # tails[k] = 2 sum_{j>=k} ive(j, a)
    fits = np.nonzero(tails[1:] <= budget)[0]
    return min(cap, max(1, int(fits[0]))) if fits.size else cap


def _chebyshev_moments(H2, z, steps):
    """Moments mu_0 .. mu_2steps of every probe column of z from ``steps``
    sparse matvecs, with H2 = 2 H~ in CSR form.

    z must be C-contiguous and is overwritten.  The matvec accumulates into
    its output, so t_prev <- 2 H~ t - t_prev needs only a sign flip of t_prev
    and no temporary.
    """
    from scipy.sparse._sparsetools import csr_matvecs

    def matvec_into(out, x):  # out += H2 @ x
        csr_matvecs(*H2.shape, x.shape[1], H2.indptr, H2.indices, H2.data, x.ravel(), out.ravel())

    def dots(x, y):  # column-wise inner products
        return np.einsum("ij,ij->j", x, y)

    mu = np.empty((2 * steps + 1, z.shape[1]))
    t_prev, t_cur = z, np.zeros_like(z)
    matvec_into(t_cur, z)
    t_cur *= 0.5  # t_1 = H~ z
    mu[0] = dots(z, z)
    mu[1] = dots(z, t_cur)
    mu[2] = 2.0 * dots(t_cur, t_cur) - mu[0]
    for k in range(2, steps + 1):
        np.negative(t_prev, out=t_prev)
        matvec_into(t_prev, t_cur)
        t_prev, t_cur = t_cur, t_prev  # t_cur = t_k
        mu[2 * k - 1] = 2.0 * dots(t_cur, t_prev) - mu[1]
        mu[2 * k] = 2.0 * dots(t_cur, t_cur) - mu[0]
    return mu


def _stochastic_traces(inst, betas, probes, seed, poly_degree=None):
    """Hutchinson estimates of Tr exp(-beta (H - lo)) for several betas.

    The kernel polynomial method (Weisse, Wellein, Alvermann and Fehske,
    Rev. Mod. Phys. 78, 275 (2006)): with H~ the Hamiltonian scaled onto
    [-1, 1] and t_k = T_k(H~) z, each Rademacher probe z yields its Chebyshev
    moments mu_k = z^T t_k from the doubling identities

        mu_2k = 2 <t_k, t_k> - mu_0,    mu_2k+1 = 2 <t_k+1, t_k> - mu_1,

    so degree D costs ceil(D/2) sparse matvecs.  The moments do not depend on
    beta: the trace sample of every beta is its coefficient vector times the
    same moment matrix.  Probes are drawn in blocks capped at 2^24 entries
    (the draws, hence the probes of a given seed, do not depend on the
    tiling) and walked in tiles of TILE_COLS columns, so the recurrence runs
    in place on cache-sized arrays.  The default degree is the largest of
    the betas' budget degrees (below).  Returns per-beta (trace_mean,
    trace_stderr, sup_err, lo, log L) with the anchor lo = Gershgorin lower
    bound and L the diagonal sum below, plus the polynomial degree used.
    """
    from scipy.special import ive, logsumexp

    if probes < 1:
        raise ValidationError("need at least one probe")
    if poly_degree is not None and poly_degree < 1:
        raise ValidationError("polynomial degree must be >= 1")
    if inst.N > STOCH_MAX_N:
        raise CapacityError(f"stochastic path gated at N <= {STOCH_MAX_N}")
    rng = _rng(seed)
    dim = 1 << inst.N
    b_abs = float(np.abs(inst.field_weights).sum())
    lo = float(inst.potential.min()) - b_abs
    hi = float(inst.potential.max()) + b_abs
    # Peierls-Bogoliubov: Tr exp(-beta (H - lo)) >= L = sum_sigma exp(-beta (U(sigma) - lo))
    log_ls = [float(logsumexp(-beta * (inst.potential - lo))) for beta in betas]
    if hi - lo < 1e-12:
        # Zero-width spectrum: H = lo * identity, trace is exact.
        return [(float(dim), 0.0, 0.0, lo, log_l) for log_l in log_ls], 0
    half = 0.5 * (hi - lo)
    center = 0.5 * (hi + lo)

    # 2 H~, so that one accumulating matvec writes 2 H~ t - t_prev in place
    H2 = sparse_hamiltonian(inst)
    H2.setdiag((inst.potential - center))
    H2 = H2.multiply(2.0 / half).tocsr()

    a_vals = [beta * half for beta in betas]
    # per beta, the truncation term dim * tail / (N L) stays at or below TRUNCATION_EPS
    budgets = [TRUNCATION_EPS * inst.N * math.exp(log_l) / dim for log_l in log_ls]
    degree = poly_degree or max(map(_chebyshev_degree, a_vals, budgets))
    ks = np.arange(degree + 1)
    coeffs = []
    sup_errs = []
    x_grid = np.cos(np.linspace(0.0, math.pi, 2049))
    for a in a_vals:
        c = np.where(ks == 0, 1.0, 2.0) * ((-1.0) ** ks) * ive(ks, a)
        approx = np.polynomial.chebyshev.chebval(x_grid, c)
        sup_errs.append(float(np.max(np.abs(approx - np.exp(-a * (x_grid + 1.0))))))
        coeffs.append(c)

    steps = (degree + 1) // 2  # ceil(degree / 2) matvecs per probe tile
    block = max(1, min(probes, (1 << 24) // dim))
    tiles = []
    done = 0
    while done < probes:
        p = min(block, probes - done)
        Z = rng.integers(0, 2, size=(dim, p)).astype(float) * 2.0 - 1.0
        for j in range(0, p, TILE_COLS):
            tiles.append(_chebyshev_moments(H2, np.ascontiguousarray(Z[:, j:j + TILE_COLS]), steps))
        done += p
    moments = np.hstack(tiles)[: degree + 1]

    out = []
    for c, sup_err, log_l in zip(coeffs, sup_errs, log_ls):
        samples = c @ moments  # one trace sample per probe
        mean = float(samples.mean())
        stderr = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else math.inf
        out.append((mean, stderr, sup_err, lo, log_l))
    return out, degree


def stochastic_pressure(
    inst: FiniteInstance,
    beta: float,
    probes: int,
    poly_degree: int | None = None,
    *,
    seed=0,
    tol: float | None = None,
) -> StochasticPressure:
    """Trace-estimated pressure with an error bar.

    The error combines the probe-variance standard error, relative to the
    estimated trace, with the polynomial truncation bound: sup error times
    dimension, relative to the Peierls-Bogoliubov lower bound L of the trace,
    so that part holds whatever the probes drew.  The default degree keeps
    that part at or below TRUNCATION_EPS per spin.  When ``tol`` is given and
    the budget cannot reach it, the result is flagged (converged=False)
    instead of silently degraded.
    """
    results, degree = _stochastic_traces(inst, [beta], probes, seed, poly_degree)
    mean, stderr, sup_err, lo, log_l = results[0]
    if mean <= 0.0:
        return StochasticPressure(math.nan, math.inf, False, probes, degree)
    value = (-beta * lo + math.log(mean)) / inst.N
    # dim * sup_err / L in logs: L underflows at large beta * sum |b_j|
    log_trunc = inst.N * math.log(2.0) + math.log(sup_err) - log_l if sup_err > 0.0 else -math.inf
    trunc = math.exp(log_trunc) if log_trunc < 700.0 else math.inf
    error = (stderr / mean + trunc) / inst.N
    converged = tol is None or error <= tol
    return StochasticPressure(value, error, converged, probes, degree)


def _exp_diag(inst: FiniteInstance, beta: float, anchor: float | None = None):
    """Diagonal of exp(-beta (H - anchor)) via a full eigendecomposition."""
    _check_exact(inst)
    w, V = np.linalg.eigh(dense_hamiltonian(inst))
    if anchor is None:
        anchor = float(w.min())
    return (V * V) @ np.exp(-beta * (w - anchor)), anchor


def sign_invariance_check(inst: FiniteInstance, beta: float, patterns: int = 1, seed=0) -> float:
    """Max relative change of diag exp(-beta H) under random sign flips of b_j.

    The diagonal depends on the field weights only through their absolute
    values, so the return value is floating-point noise (contract: <= 1e-8).
    """
    rng = _rng(seed)
    base, anchor = _exp_diag(inst, beta)
    worst = 0.0
    for _ in range(patterns):
        signs = rng.integers(0, 2, inst.N) * 2.0 - 1.0
        flipped = replace(inst, field_weights=inst.field_weights * signs)
        diag, _ = _exp_diag(flipped, beta, anchor=anchor)
        worst = max(worst, float(np.max(np.abs(diag - base) / base)))
    return worst


def _replica_phis(spec, field, N, beta, seeds, frozen_weights, method, probes, workers) -> np.ndarray:
    """Pressures of the replicas drawn from ``seeds``, one pool task per stack or stochastic replica."""
    def draw(seed):
        inst = sample_instance(spec, field, N, seed)
        return inst if frozen_weights is None else replace(inst, field_weights=frozen_weights)

    def stochastic(seed):
        value = stochastic_pressure(draw(seed), beta, probes, seed=seed).value
        if not math.isfinite(value):
            # at large beta the alternating Chebyshev sum on the Gershgorin
            # interval cancels below its own rounding
            raise CapacityError(
                f"stochastic trace estimate is not finite at N={N}, beta={beta}, "
                f"replica seed {seed}; use method='exact' (N <= {EXACT_MAX_N})"
            )
        return value

    def exact(chunk):  # one stack
        return _pressure_from_levels(_spectra([draw(seed) for seed in chunk]), beta, N)

    if method == "exact" or (method == "auto" and N <= 10):
        k = max(1, STACK_BYTES >> (2 * N + 3))  # a matrix holds 4^N 8-byte entries
        return np.concatenate(_pool_map(exact, [seeds[i:i + k] for i in range(0, len(seeds), k)], workers))
    return np.array(_pool_map(stochastic, seeds, workers))


def _pool_map(fn, items, workers):
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


@dataclass(frozen=True)
class ConcentrationReport:
    N: int
    beta: float
    replicas: int
    mean: float
    std: float
    t_values: tuple[float, ...]
    thresholds: tuple[float, ...]
    fractions: tuple[float, ...]
    bounds: tuple[float, ...]
    slacks: tuple[float, ...]
    passed_per_t: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return all(self.passed_per_t)


def concentration_check(
    spec,
    field: FieldSpec,
    N: int,
    beta: float,
    replicas: int,
    seed,
    *,
    method: str = "auto",
    probes: int = 128,
    workers: int | None = None,
) -> ConcentrationReport:
    """Empirical tail test of the Gaussian concentration bound 2 exp(-t^2/4).

    The field weights are sampled once and held fixed across replicas (the
    concentration statement conditions on the field); only the Gaussian
    potential is resampled.  Each exceedance fraction must stay below its
    bound plus three binomial standard deviations.
    """
    if replicas < 200:
        raise ValidationError("concentration check needs at least 200 replicas")
    seed = _seed_int(seed)
    frozen = np.asarray(sample_weights(field, N, np.random.default_rng([seed, 0])), dtype=float)
    seeds = [[seed, r + 1] for r in range(replicas)]
    phis = _replica_phis(spec, field, N, beta, seeds, frozen, method, probes, workers)
    mean = float(phis.mean())
    devs = np.abs(phis - mean)
    thresholds, fractions, bounds, slacks, passed = [], [], [], [], []
    for t in CONCENTRATION_T_VALUES:
        thr = t * beta / math.sqrt(N)
        # 1e-12 floor: a deterministic pressure (beta = 0) must not register
        # exceedances through ulp noise of the mean
        frac = float(np.mean(devs > thr + 1e-12))
        bound = 2.0 * math.exp(-t * t / 4.0)
        slack = 3.0 * math.sqrt(bound * (1.0 - bound) / replicas) if bound < 1.0 else 0.0
        thresholds.append(thr)
        fractions.append(frac)
        bounds.append(bound)
        slacks.append(slack)
        passed.append(frac <= bound + slack)
    return ConcentrationReport(
        N, beta, replicas, mean, float(phis.std(ddof=1)),
        CONCENTRATION_T_VALUES, tuple(thresholds), tuple(fractions),
        tuple(bounds), tuple(slacks), tuple(passed),
    )


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)) and seed >= 0:
        return int(seed)
    raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def _rng(seed) -> np.random.Generator:
    """Generator for a library seed: a non-negative integer or a sequence of them."""
    for part in seed if isinstance(seed, (list, tuple, np.ndarray)) else [seed]:
        _seed_int(part)
    return np.random.default_rng(seed)


def limiting_pressure(spec, field: FieldSpec, beta: float) -> float:
    """Limit value predicted by the closed formulas for the given model."""
    if isinstance(spec, NonHierModel):
        return quantum_nonhier_pressure(spec, beta, field)[0]
    if isinstance(spec, DistributionSpec):
        return qgrem_pressure(concave_hull(spec), beta, field).value
    raise ValidationError(f"unsupported spec type {type(spec).__name__}")


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    mean: float
    std: float
    limit: float
    gap: float


@dataclass(frozen=True)
class ConvergenceStudy:
    beta: float
    limit: float
    rows: tuple[ConvergenceRow, ...]
    replica_phis: tuple[tuple[float, ...], ...]  # aligned with rows


def convergence_study(
    spec,
    field: FieldSpec,
    beta: float,
    Ns,
    replicas: int,
    seed,
    *,
    freeze_field: bool = False,
    method: str = "auto",
    probes: int = 128,
    workers: int | None = None,
) -> ConvergenceStudy:
    """Sampled finite-size pressures against the limiting formula, per N.

    By default both the potential and the field weights are resampled per
    replica; ``freeze_field`` holds the weights fixed (per N) instead.  No
    assertions here: the table reports means, spreads and gaps.
    """
    if replicas < 2:
        raise ValidationError("convergence study needs at least 2 replicas for a spread")
    seed = _seed_int(seed)
    limit = limiting_pressure(spec, field, beta)
    rows, phis_all = [], []
    for N in Ns:
        frozen = None
        if freeze_field:
            frozen = np.asarray(sample_weights(field, N, np.random.default_rng([seed, N, 0])), dtype=float)
        seeds = [[seed, N, r + 1] for r in range(replicas)]
        phis = _replica_phis(spec, field, N, beta, seeds, frozen, method, probes, workers)
        mean = float(phis.mean())
        rows.append(ConvergenceRow(N, mean, float(phis.std(ddof=1)), limit, abs(mean - limit)))
        phis_all.append(tuple(float(p) for p in phis))
    return ConvergenceStudy(beta, limit, tuple(rows), tuple(phis_all))
