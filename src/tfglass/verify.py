"""Finite-size ground truth: sampled disorder, exact and stochastic pressures.

One disorder realization fixes N field weights and 2^N energies, a sum of
independent Gaussian layers: a level (J, a_J) contributes sqrt(N a_J) times a
standard Gaussian indexed by the spins of the blocks in J.  One sampler serves
both model kinds: a non-hierarchical model lists its weighted subsets, and a
hierarchical profile is the special case of the prefix levels J = {1..k},
with a_k its jumps and block k ending at spin ceil(x_k N).  The Hamiltonian is
one flip table: row i holds the energy at column i, then -b_j at column i with
spin j flipped.  The exact path adds it into a dense stack; the stochastic
path hands it to the CSR matvec kernel as is, with a row stride of N + 1.

Two evaluation paths coexist.  The exact path diagonalizes densely and is
gated at N <= 13.  The stochastic path needs only matrix-vector products and
is gated at N <= 20: per Rademacher probe, Lanczos quadrature brackets
z^T exp(-beta H) z between a Gauss and a Gauss-Radau rule, to TRUNCATION_EPS
per spin.  Convergence and concentration drivers pick the path by dimension.

The exact path solves a stack of replicas per pool task, at most STACK_BYTES
of matrices (one at N = 10, sixteen at N = 8), in one numpy eigvalsh call,
which releases the GIL (scipy's holds it), so pool threads run in parallel.
Replica seeds derive from (seed, replica index) and stacks are cut by N and
replica count only, so aggregates do not depend on scheduling or workers.

The exact path is numpy alone.  scipy is imported only by the stochastic
path, for its in-place CSR matvec kernel ``csr_matvecs``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, ValidationError
from .model import DistributionSpec, FieldSpec, ProfileKind, sample_weights
from .nonhier import NonHierModel, indices_of, model_hull
from .quantum import qgrem_pressure

EXACT_MAX_N = 13  # one REM exact_pressure at N = 13: 72 s, 1,080 MB peak RSS
STOCH_MAX_N = 20
STACK_BYTES = 8 << 20  # bytes of dense Hamiltonians per eigensolve call: one N = 10 matrix
TILE_COLS = 32  # probe columns per Lanczos tile: 1 MB per vector block at N = 12
TRUNCATION_EPS = 1e-6  # per spin: width of each probe's Gauss/Gauss-Radau bracket at its last step
CONCENTRATION_T_VALUES = (1.0, 2.0, 3.0)  # deviations t*beta/sqrt(N) tested against 2 exp(-t^2/4)
LIMIT_ROUNDING = 1e-12  # relative rounding of a replica pressure: about dim * eps of eigvalsh at N = 13
MAX_LIMIT = 1e150  # replica statistics square the pressures, which must stay finite


@dataclass(frozen=True)
class FiniteInstance:
    """One disorder realization on N spins: 2^N energies plus field weights."""

    N: int
    potential: np.ndarray
    field_weights: np.ndarray
    seed: object

    def __post_init__(self):
        # safety: a short potential or a non-finite entry would surface as a
        # scipy ValueError or a LinAlgError deep inside a solver
        _check_N(self.N)
        U, b = np.asarray(self.potential, dtype=float), np.asarray(self.field_weights, dtype=float)
        if U.shape != (1 << self.N,) or b.shape != (self.N,):
            raise ValidationError(f"need 2^N energies and N field weights at N={self.N}, "
                                  f"got shapes {U.shape} and {b.shape}")
        if not (np.isfinite(U).all() and np.isfinite(b).all()):
            raise ValidationError("energies and field weights must be finite")
        object.__setattr__(self, "potential", U)
        object.__setattr__(self, "field_weights", b)


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


def _potential(N: int, ends, levels, rng) -> np.ndarray:
    """Energies of the 2^N configurations: one Gaussian layer per level, in draw order.

    A level is (1-based block indices J, a_J); block k ends at spin ends[k-1],
    and spin 1 is a configuration's top bit.  With one axis per block, the
    draw for J spans J's axes and broadcasts over the rest, so every level
    costs one pass over the configurations.
    """
    widths = np.diff([0] + ends)
    U = np.zeros(1 << N)
    blocks_view = U.reshape([1 << int(w) for w in widths])
    for blocks, a_j in levels:
        shape = [1 << int(w) if k in blocks else 1 for k, w in enumerate(widths, 1)]
        blocks_view += math.sqrt(N * a_j) * rng.standard_normal(math.prod(shape)).reshape(shape)
    return U


def _check_N(N: int):
    """Reject a spin count outside 1..STOCH_MAX_N, before anything is drawn or sized by it."""
    if N < 1:
        raise ValidationError(f"N must be >= 1, got N={N}")
    if N > STOCH_MAX_N:
        raise CapacityError(f"sampling gated at N <= {STOCH_MAX_N}, got N={N}")


def _check_beta(beta: float):
    """Reject a beta outside [0, inf), as the closed forms do: a nan, infinite or negative
    beta would otherwise give a number (or a warning) instead of an error."""
    if not 0.0 <= beta < math.inf:
        raise DomainError("beta must be finite and >= 0")


def _check_dense(N: int):
    if N > EXACT_MAX_N:
        raise CapacityError(f"dense diagonalization gated at N <= {EXACT_MAX_N}; use stochastic_pressure")


def _dense_path(N: int, method: str, probes: int) -> bool:
    """Whether the drivers solve N densely (auto: N <= 10); raises on a bad method, a gated N or no probes."""
    if method not in ("auto", "exact", "stochastic"):
        raise ValidationError(f"method must be auto, exact or stochastic, got {method!r}")
    dense = method == "exact" or (method == "auto" and N <= 10)
    if dense:
        _check_dense(N)
    elif probes < 1:
        raise ValidationError("need at least one probe")
    return dense


def _check_scale(inst: FiniteInstance, beta: float):
    """Reject a beta that the solvers cannot take on this instance, before any eigensolve or
    Lanczos step.  They form beta (lambda - lo) for eigen- and Ritz values lambda in [lo, hi], and
    hi - lo is at most twice the Gershgorin scale max|U| + sum|b|; one more factor 2 covers rounding."""
    _check_beta(beta)
    scale = float(np.abs(inst.potential).max()) + float(np.abs(inst.field_weights).sum())
    if not math.isfinite(4.0 * beta * scale):
        raise DomainError(f"beta={beta:g} is too large for this instance: beta times its spectral scale "
                          f"{scale:.6g} overflows")


def sample_instance(spec, field: FieldSpec, N: int, seed) -> FiniteInstance:
    """Draw one disorder realization; bit-identical replay for a fixed seed.

    Piecewise-linear profiles are sampled through their step representation at
    resolution N.  Raises when the block rounding ceil(x_k N) leaves a block
    without spins.
    """
    _check_N(N)
    rng = _rng(seed)
    if isinstance(spec, NonHierModel):
        ends = _block_boundaries(np.cumsum(spec.block_lengths), N)
        levels = [(indices_of(mask), spec.weights[mask]) for mask in sorted(spec.weights)]
    elif isinstance(spec, DistributionSpec):
        points = spec.points
        if spec.kind is ProfileKind.PIECEWISE_LINEAR:
            points = [(k / N, spec.value_at(k / N)) for k in range(1, N + 1)]
        ends = _block_boundaries([x for x, _ in points], N)
        jumps = np.diff([0.0] + [v for _, v in points])
        levels = [(range(1, k + 1), a_k) for k, a_k in enumerate(jumps, 1) if a_k > 0.0]
    else:
        raise ValidationError(f"unsupported spec type {type(spec).__name__}")
    U = _potential(N, ends, levels, rng)
    return FiniteInstance(N, U, sample_weights(field, N, rng), seed)


def _entries(inst: FiniteInstance):
    """Columns and values of H's rows: row i holds (i, U_i), then (i with spin j flipped, -b_j)."""
    masks = np.concatenate([[0], 1 << np.arange(inst.N - 1, -1, -1)]).astype(np.int32)
    cols = np.arange(1 << inst.N, dtype=np.int32)[:, None] ^ masks  # int32 holds: N <= 20
    data = np.empty(cols.shape)  # C order, as cols: the CSR matvec reads both raveled, without a copy
    data[:, 0], data[:, 1:] = inst.potential, -inst.field_weights
    return cols, data


def _dense(insts) -> np.ndarray:
    """H of equal-size instances in one (k, 2^N, 2^N) stack: each slot is zeroed and gets
    each entry of the flip table added, as scipy's CSR ``toarray()`` does, so they are bitwise equal."""
    _check_dense(insts[0].N)
    dim = 1 << insts[0].N
    stack = np.empty((len(insts), dim, dim))
    for inst, slot in zip(insts, stack):
        cols, data = _entries(inst)
        slot.fill(0.0)
        slot[cols[:, :1], cols] += data
    return stack


def _spectra(insts) -> np.ndarray:
    """Spectra of equal-size instances, one row each, from one stacked eigvalsh
    (bitwise equal to per-matrix calls)."""
    return np.linalg.eigvalsh(_dense(insts))


def _pressure_from_levels(levels: np.ndarray, beta: float, N: int):
    """(1/N) ln sum_i exp(-beta levels_i) along the last axis, in scipy's logsumexp arithmetic:
    the m maxima of x = -beta levels leave the sum s of exp(x - max); ln = log1p(s / m) + ln m + max."""
    x = -beta * levels
    top = x.max(axis=-1, keepdims=True)
    rest = np.exp(np.where(x == top, -np.inf, x) - top).sum(axis=-1)
    count = (x == top).sum(axis=-1, dtype=float)
    return (np.log1p(rest / count) + np.log(count) + top[..., 0]) / N


def exact_pressure(inst: FiniteInstance, beta: float) -> float:
    """(1/N) ln Tr exp(-beta H) from the full spectrum."""
    _check_scale(inst, beta)
    return float(_pressure_from_levels(_spectra([inst]), beta, inst.N)[0])


@dataclass(frozen=True)
class StochasticPressure:
    value: float
    error: float
    converged: bool
    probes: int
    degree: int  # the largest Lanczos step count: matvecs per probe


def _quadrature_rules(alpha, off, node, lo, betas):
    """ln of the Gauss and Gauss-Radau rules for e_1^T exp(-beta (T - lo)) e_1.

    Row c of ``alpha`` and ``off`` holds column c's Lanczos coefficients after
    k steps: a_1 .. a_k and b_1 .. b_k, b_k coupling T_k to the next step.
    The Radau rule extends T_k by a row whose diagonal
    a + b_k^2 e_k^T (T_k - a)^{-1} e_k puts an eigenvalue at the node a
    (Golub and Meurant, Matrices, Moments and Quadrature, 2010, ch. 6).
    """
    m, k = alpha.shape
    i = np.arange(k)
    T = np.zeros((m, k + 1, k + 1))
    T[:, i, i] = alpha
    T[:, i + 1, i] = T[:, i, i + 1] = off
    theta, V = np.linalg.eigh(T[:, :k, :k])
    T[:, k, k] = node + off[:, -1] ** 2 * np.sum(V[:, -1] ** 2 / (theta - node), axis=-1)
    theta_r, V_r = np.linalg.eigh(T)
    exponent = -np.asarray(betas, dtype=float)[:, None, None]

    def log_rule(nodes, weights):  # ln sum_i w_i exp(-beta (nodes_i - lo)), overflow-safe
        x = np.where(weights > 0.0, exponent * (nodes - lo), -np.inf)
        top = x.max(axis=-1)
        return top + np.log(np.einsum("bmk,mk->bm", np.exp(x - top[..., None]), weights))

    return log_rule(theta, V[:, 0] ** 2), log_rule(theta_r, V_r[:, 0] ** 2)


def _lanczos_rules(csr, q, node, lo, betas, budget, first_check):
    """ln G and ln R, shape (len(betas), columns), of every probe column of q.

    ``csr`` holds H's CSR arrays (indptr, indices, data), columns unsorted.
    One Lanczos recurrence per column, one in-place sparse matvec per step
    (q is overwritten), no reorthogonalization: the Gauss rule stays accurate
    when the basis loses orthogonality (Golub and Strakos, Numer. Algorithms
    8, 241 (1994)).  A column stops at the first step from ``first_check`` on
    where ln R - ln G <= ``budget`` for every beta, or at a breakdown
    (b_k = 0), where its Gauss rule is exact and equals the Radau rule.
    """
    from scipy.sparse._sparsetools import csr_matvecs

    def dots(x, y):  # column-wise inner products
        return np.einsum("ij,ij->j", x, y)

    dim, cols = q.shape
    chunk = 1 << 14
    log_norm = np.log(dots(q, q))
    q /= np.exp(0.5 * log_norm)
    q_prev, b = np.zeros_like(q), np.zeros(cols)
    alphas, offs = [], []
    log_g, log_r = np.empty((len(betas), cols)), np.empty((len(betas), cols))
    active = np.ones(cols, dtype=bool)
    for step in range(1, dim + 1):  # in exact arithmetic the Krylov space is full by step dim
        q_prev *= -b
        csr_matvecs(dim, dim, cols, *csr, q.ravel(), q_prev.ravel())
        a = dots(q, q_prev)
        for i in range(0, dim, chunk):  # by rows: a * q allocates one chunk, not a full block
            q_prev[i:i + chunk] -= a * q[i:i + chunk]
        b = np.sqrt(dots(q_prev, q_prev))
        alphas.append(a)
        offs.append(b)
        if step >= first_check or not np.all(b[active] > 0.0):
            g, r = _quadrature_rules(np.array(alphas).T[active], np.array(offs).T[active], node, lo, betas)
            log_g[:, active], log_r[:, active] = g, r
            active[np.flatnonzero(active)[np.all(r - g <= budget, axis=0)]] = False
            if not active.any():
                break
        q_prev *= 1.0 / np.where(b > 0.0, b, 1.0)
        q, q_prev = q_prev, q
    return log_g + log_norm, log_r + log_norm, step


def _stochastic_traces(inst, betas, probes, seed):
    """Bracketed Hutchinson samples of Tr exp(-beta (H - lo)) for several betas.

    Stochastic Lanczos quadrature (Ubaru, Chen and Saad, SIAM J. Matrix Anal.
    Appl. 38, 1075 (2017)).  exp(-beta (x - lo)) has positive even and
    negative odd derivatives, so each probe's Gauss rule is a lower bound and
    its Gauss-Radau rule with a node at or below the spectrum an upper bound.
    The node is the Gershgorin bound lo, lowered by 1e-10 of the spectral
    scale so that rounding cannot put a Ritz value on it (lo is the ground
    state when U or the field is zero).  T_k does not depend on beta: one run
    per probe serves every beta.  Probes are drawn in blocks capped at 2^24
    entries and walked in tiles of TILE_COLS columns.  Returns lo, the
    (len(betas), probes) arrays ln G and ln R, and the largest step count.
    """
    if probes < 1:
        raise ValidationError("need at least one probe")
    rng = _rng(seed)
    dim = 1 << inst.N
    b_abs = float(np.abs(inst.field_weights).sum())
    lo = float(inst.potential.min()) - b_abs
    hi = float(inst.potential.max()) + b_abs
    if hi - lo < 1e-12:
        # Zero-width spectrum: H = lo * identity, every probe gives z^T z = dim exactly.
        exact = np.full((len(betas), probes), math.log(dim))
        return lo, exact, exact, 0
    import scipy.sparse._sparsetools  # first: loaded after an array, its lifelong objects pin freed heap
    cols, data = _entries(inst)  # row pointer: stride N + 1, int32 as 21 * 2^20 < 2^31
    csr = np.arange(0, cols.size + 1, inst.N + 1, dtype=np.int32), cols.ravel(), data.ravel()
    node = lo - 1e-10 * max(abs(lo), abs(hi))
    block = max(1, min(probes, (1 << 24) // dim))
    log_g, log_r, steps, first_check = [], [], 0, 1
    done = 0
    while done < probes:
        p = min(block, probes - done)
        Z = 2.0 * rng.integers(0, 2, size=(dim, p)) - 1.0  # two (dim, p) arrays at most, not three
        for j in range(0, p, TILE_COLS):
            tile = np.ascontiguousarray(Z[:, j:j + TILE_COLS])
            g, r, k = _lanczos_rules(csr, tile, node, lo, betas, TRUNCATION_EPS * inst.N, first_check)
            # a check costs two small eigensolves per column: later tiles
            # check from one step before the previous tile stopped
            first_check = k - 1
            log_g.append(g)
            log_r.append(r)
            steps = max(steps, k)
        done += p
        del Z, tile  # before the next draw, so that two blocks are never live at once
    return lo, np.hstack(log_g), np.hstack(log_r), steps


def stochastic_pressure(
    inst: FiniteInstance,
    beta: float,
    probes: int,
    *,
    seed=0,
    tol: float | None = None,
) -> StochasticPressure:
    """Trace-estimated pressure with an error bar.

    The value is the mean of the probes' Gauss rules.  The error is the
    probe standard error relative to that mean plus the widest bracket
    ln(R / G), which bounds how far the mean sits below the probes' exact
    quadratic forms.  ``degree`` is the largest Lanczos step count.  With
    ``tol``, an error above it is flagged (converged=False), not hidden.
    """
    _check_scale(inst, beta)
    lo, log_g, log_r, steps = _stochastic_traces(inst, [beta], probes, seed)
    shift = float(log_g.max())
    samples = np.exp(log_g[0] - shift)  # trace samples over exp(shift): no overflow at any beta
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1)) / math.sqrt(probes) if probes > 1 else math.inf
    value = (-beta * lo + shift + math.log(mean)) / inst.N
    error = (stderr / mean + float(np.max(log_r - log_g))) / inst.N
    return StochasticPressure(value, error, tol is None or error <= tol, probes, steps)


def _exp_diag(inst: FiniteInstance, beta: float, anchor: float | None = None):
    """Diagonal of exp(-beta (H - anchor)) via a full eigendecomposition."""
    w, V = np.linalg.eigh(_dense([inst])[0])
    if anchor is None:
        anchor = float(w.min())
    return (V * V) @ np.exp(-beta * (w - anchor)), anchor


def sign_invariance_check(inst: FiniteInstance, beta: float, patterns: int = 1, seed=0) -> float:
    """Max relative change of diag exp(-beta H) under random sign flips of b_j.

    The diagonal depends on the field weights only through their absolute
    values, so the return value is floating-point noise (contract: <= 1e-8).
    """
    _check_scale(inst, beta)
    rng = _rng(seed)
    base, anchor = _exp_diag(inst, beta)
    worst = 0.0
    for _ in range(patterns):
        signs = rng.integers(0, 2, inst.N) * 2.0 - 1.0
        flipped = replace(inst, field_weights=inst.field_weights * signs)
        diag, _ = _exp_diag(flipped, beta, anchor=anchor)
        # equal entries are never divided (0/0 where both underflow); a nan or inf ratio reaches the result
        dev = np.divide(np.abs(diag - base), base, out=np.zeros_like(base), where=diag != base)
        worst = float(np.max(dev, initial=worst))
    return worst


def _replica_phis(spec, field, N, beta, root, replicas, freeze, dense, probes, workers) -> np.ndarray:
    """Pressures of the replicas drawn from seeds [*root, r + 1] on the path ``_dense_path`` chose, one pool
    task per stack or stochastic replica.  With ``freeze`` all take the weights drawn from [*root, 0]."""
    seeds = [[*root, r + 1] for r in range(replicas)]
    frozen = sample_weights(field, N, np.random.default_rng([*root, 0])).astype(float) if freeze else None

    def draw(seed):
        inst = sample_instance(spec, field, N, seed)
        inst = inst if frozen is None else replace(inst, field_weights=frozen)
        _check_scale(inst, beta)
        return inst

    def stochastic(seed):
        value = stochastic_pressure(draw(seed), beta, probes, seed=seed).value
        if not math.isfinite(value):
            # safety: the quadrature rules are finite for finite instances,
            # but a nan replica must never be averaged in
            raise CapacityError(
                f"stochastic trace estimate is not finite at N={N}, beta={beta}, "
                f"replica seed {seed}; use method='exact' (N <= {EXACT_MAX_N})"
            )
        return value

    def exact(chunk):  # one stack
        return _pressure_from_levels(_spectra([draw(seed) for seed in chunk]), beta, N)

    if dense:
        k = max(1, STACK_BYTES >> (2 * N + 3))  # a matrix holds 4^N 8-byte entries
        return np.concatenate(_pool_map(exact, [seeds[i:i + k] for i in range(0, len(seeds), k)], workers))
    return np.array(_pool_map(stochastic, seeds, workers))


# One pool per worker count for the process, so threads and their malloc arenas are
# reused.  No pool task calls a driver, so a task never waits on its own pool.
_pool = lru_cache(maxsize=None)(ThreadPoolExecutor)


def _pool_map(fn, items, workers):
    if workers and workers > 1:
        return list(_pool(workers).map(fn, items))
    return [fn(item) for item in items]


@dataclass(frozen=True)
class ConcentrationReport:
    mean: float
    std: float
    fractions: tuple[float, ...]  # one per CONCENTRATION_T_VALUES entry, as are bounds and slacks
    bounds: tuple[float, ...]
    slacks: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return all(f <= b + s for f, b, s in zip(self.fractions, self.bounds, self.slacks))


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
    _check_N(N)
    _check_beta(beta)
    dense = _dense_path(N, method, probes)
    phis = _replica_phis(spec, field, N, beta, [seed], replicas, True, dense, probes, workers)
    mean = float(phis.mean())
    devs = np.abs(phis - mean)
    # 1e-12 floor: ulp noise of the mean must not count as exceedances of a deterministic pressure (beta = 0)
    fractions = tuple(float((devs > t * beta / math.sqrt(N) + 1e-12).mean()) for t in CONCENTRATION_T_VALUES)
    bounds = tuple(2.0 * math.exp(-t * t / 4.0) for t in CONCENTRATION_T_VALUES)
    slacks = tuple(3.0 * math.sqrt(b * (1.0 - b) / replicas) if b < 1.0 else 0.0 for b in bounds)
    return ConcentrationReport(mean, float(phis.std(ddof=1)), fractions, bounds, slacks)


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
    return qgrem_pressure(model_hull(spec), beta, field).value


def check_limit_range(limit: float, beta: float, tol: float):
    """Reject a limit (at ``beta``) whose gap cannot be checked against the absolute tolerance ``tol``:
    its rounding, LIMIT_ROUNDING relative, must stay a hundred times below tol, and squares of
    pressures near it must not overflow.  So |limit| <= min(1e10 tol, MAX_LIMIT), else DomainError."""
    bound = min(tol / (100.0 * LIMIT_ROUNDING), MAX_LIMIT)
    if not abs(limit) <= bound:  # a nan tolerance fails too
        raise DomainError(f"verify supports limits up to {bound:.3g} in size at gap tolerance {tol:g}, "
                          f"got {limit:.6g} at beta={beta:g}")


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    mean: float
    std: float
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
    for N in Ns:  # every N before any replica runs
        _check_N(N)
    limit = limiting_pressure(spec, field, beta)
    paths = [_dense_path(N, method, probes) for N in Ns]
    rows, phis_all = [], []
    for N, dense in zip(Ns, paths):
        phis = _replica_phis(spec, field, N, beta, [seed, N], replicas, freeze_field, dense, probes, workers)
        mean = float(phis.mean())
        rows.append(ConvergenceRow(N, mean, float(phis.std(ddof=1)), abs(mean - limit)))
        phis_all.append(tuple(float(p) for p in phis))
    return ConvergenceStudy(beta, limit, tuple(rows), tuple(phis_all))
