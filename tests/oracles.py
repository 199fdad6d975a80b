"""Independent oracles the tests compare against.

Everything here deliberately avoids the package's own code paths: the hull
oracle enumerates chains over point subsets instead of scanning, the
pressure oracles recompute the closed forms in mpmath arbitrary precision,
the cut-point oracle maximizes the truncated pressure over the kinks instead
of summing partial pressures, the trace oracle runs the Chebyshev
recurrence forward over every degree (the estimator the package used before
Lanczos quadrature), the quadratic-form oracle takes each probe's
z^T exp(-beta (H - lo)) z from a dense eigendecomposition, the dense oracle
diagonalizes one matrix at a time with scipy, and the non-hierarchical oracles
search every chain instead of building the greedy one, build it by a
scalar scan over supersets instead of table lookups (ranking a round's
tied sets by size and index tuple instead of taking their union), or
absorb a chain's weights step by step instead of in one pass.  The summation oracles add
phi_1..phi_K one by one in a loop, as the package did before its segment
table carried prefix sums.  The exact hull scans
`fractions.Fraction` points with no tolerance, the four-list hull is the
stack scan the package ran while `ConcaveHull` stored lengths and slopes
as fields (each taken from its two stack vertices), and the disorder and
Hamiltonian references are the builders the package used before one
sampler served both model kinds: the hierarchical cascade by repetition,
the subset sampler by per-block bit extraction, and the COO detour to CSR.

The helpers at the end are conveniences that only tests call: the dense
spectrum and Hamiltonian, the two Gibbs lower bounds of a finite instance,
the envelope's right derivative and a step profile's jump heights.  Unlike
the oracles above they run on the package's own paths.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction

import mpmath as mp
import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import ive

from tfglass import (
    Chain,
    chain_grem,
    classical_pressure,
    crem_truncated_pressure,
    paramagnetic_pressure,
    partial_pressures,
)
from tfglass.errors import DomainError
from tfglass.model import _SUM_TOL, ProfileKind, ln_2cosh
from tfglass.nonhier import ReducedGrem, indices_of
from tfglass.verify import _pressure_from_levels, _spectra, sparse_hamiltonian

mp.mp.dps = 40

LN2 = mp.log(2)


def _chain_value(chain, x):
    """Piecewise-linear interpolation through chain vertices (starting at (0,0))."""
    for (x0, v0), (x1, v1) in zip(chain, chain[1:]):
        if x0 <= x <= x1:
            return v0 + (v1 - v0) * (x - x0) / (x1 - x0)
    raise AssertionError(f"x={x} outside chain domain")


def brute_force_hull(points):
    """Upper concave envelope by exhaustive search over vertex subsets.

    Candidate chains run from (0,0) to the last point through any subset of
    interior points with strictly decreasing slopes and no input point above
    them; the envelope is the pointwise-minimal candidate (fewest vertices on
    ties, which merges collinear runs).  Returns the vertex list including
    (0,0).
    """
    pts = [(0.0, 0.0)] + sorted((float(x), float(v)) for x, v in points)
    interior = pts[1:-1]
    last = pts[-1]
    candidates = []
    for bits in range(1 << len(interior)):
        chain = [pts[0]] + [p for i, p in enumerate(interior) if bits >> i & 1] + [last]
        slopes = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(chain, chain[1:])]
        if any(s2 >= s1 for s1, s2 in zip(slopes, slopes[1:])):
            continue
        if all(v <= _chain_value(chain, x) + 1e-12 for x, v in pts):
            candidates.append(chain)
    assert candidates, "no valid concave majorant chain found"
    grid = np.linspace(0.0, last[0], 401)
    values = [np.array([_chain_value(c, x) for x in grid]) for c in candidates]
    order = sorted(range(len(candidates)), key=lambda i: (values[i].sum(), len(candidates[i])))
    best = order[0]
    for i in range(len(candidates)):
        assert np.all(values[best] <= values[i] + 1e-9), "envelope is not pointwise minimal"
    return candidates[best]


def exact_hull_vertices(points):
    """Kinks (x, A) of the upper concave envelope of {(0,0)} + points, in
    exact rational arithmetic: a vertex is popped on a left turn or a
    collinear triple, with no tolerance."""
    verts = [(Fraction(0), Fraction(0))]
    for x2, v2 in ((Fraction(x), Fraction(v)) for x, v in points):
        while len(verts) >= 2:
            (x0, v0), (x1, v1) = verts[-2], verts[-1]
            if (x1 - x0) * (v2 - v0) - (v1 - v0) * (x2 - x0) < 0:
                break
            verts.pop()
        verts.append((x2, v2))
    return verts[1:]


def four_list_hull(points):
    """(support, increments, lengths, slopes) of the envelope, as four lists.

    The stack scan `hull_from_points` ran while `ConcaveHull` stored all four
    tuples: each length and slope is taken from the two stack vertices it
    spans, not from the hull's stored kinks and rises.
    """
    verts = [(0.0, 0.0)]
    for x2, v2 in ((float(x), float(v)) for x, v in points):
        while len(verts) >= 2:
            (x0, v0), (x1, v1) = verts[-2], verts[-1]
            if ((x1 - x0) * (v2 - v0) - (v1 - v0) * (x2 - x0) >= 0.0
                    or (v1 - v0) / (x1 - x0) - (v2 - v1) / (x2 - x1) <= _SUM_TOL * abs(v1 - v0) / (x1 - x0)):
                verts.pop()
            else:
                break
        verts.append((x2, v2))
    support, increments, lengths, slopes = [], [], [], []
    for (x0, v0), (x1, v1) in zip(verts, verts[1:]):
        support.append(x1)
        increments.append(v1 - v0)
        lengths.append(x1 - x0)
        slopes.append((v1 - v0) / (x1 - x0))
    return tuple(support), tuple(increments), tuple(lengths), tuple(slopes)


def mp_ln2cosh(x):
    return mp.log(2 * mp.cosh(mp.mpf(x)))


def mp_partial_pressure(abar, length, beta):
    """Single-segment partial pressure in arbitrary precision."""
    abar, length, beta = mp.mpf(abar), mp.mpf(length), mp.mpf(beta)
    if abar == 0:
        return length * LN2
    gamma = abar / length
    beta_l = mp.sqrt(2 * LN2 / gamma)
    if beta <= beta_l:
        return beta**2 * abar / 2 + length * LN2
    return beta * mp.sqrt(2 * LN2 * abar * length)


def mp_classical(abars, lengths, beta):
    return sum(mp_partial_pressure(a, l, beta) for a, l in zip(abars, lengths))


def mp_qgrem(abars, lengths, beta, p):
    """max over K = 0..m of the cut formula; returns (value, argmax K)."""
    p = mp.mpf(p)
    best, best_k = p, 0
    acc = mp.mpf(0)
    y = mp.mpf(0)
    for k, (a, l) in enumerate(zip(abars, lengths), start=1):
        acc += mp_partial_pressure(a, l, beta)
        y += mp.mpf(l)
        val = acc + (1 - y) * p
        if val > best:
            best, best_k = val, k
    return best, best_k


def mp_gamma_c(abars, lengths, beta):
    beta = mp.mpf(beta)
    out = []
    for a, l in zip(abars, lengths):
        d = mp_partial_pressure(a, l, beta) / mp.mpf(l)
        # d >= ln 2, with equality on a flat segment up to the last digit
        out.append(mp.acosh(max(mp.exp(d) / 2, 1)) / beta)
    return out


def kink_cut_pressure(hull, beta, p):
    """max over z in {0} and the hull kinks of crem_truncated_pressure(z) + (1 - z) p.

    Returns (value, maximizing z), ties going to the leftmost z: the
    truncated-pressure formula evaluated as written, one truncated pressure
    per kink.
    """
    best, best_z = p, 0.0
    for y in hull.support:
        val = crem_truncated_pressure(hull, beta, y) + (1.0 - y) * p
        if val > best:
            best, best_z = val, y
    return best, best_z


def loop_classical_pressure(hull, beta):
    """The sum of the partial pressures, added left to right in a loop."""
    acc = 0.0
    for phi_l in partial_pressures(hull, beta).phi:
        acc += phi_l
    return acc


def loop_qgrem_pressure(hull, beta, field):
    """The step formula with the cut scanned and phi_1..phi_K added in the
    same loop: (value, K, y_K).  A segment joins the cut while
    phi_l > L_l p, so a tie goes paramagnetic."""
    p = paramagnetic_pressure(field, beta)
    k, acc = 0, 0.0
    for phi_l, L_l in zip(partial_pressures(hull, beta).phi, hull.lengths):
        if not phi_l > L_l * p:
            break
        k, acc = k + 1, acc + phi_l
    y_k = hull.support[k - 1] if k else 0.0
    return acc + (1.0 - y_k) * p, k, y_k


def _chain_pressure(model, order, beta):
    return classical_pressure(chain_grem(model, Chain.from_order(order)).hull(), beta)


def minchain_classical_pressure(model, beta):
    """Minimum over all n! full chains of the induced classical pressure."""
    return min(_chain_pressure(model, perm, beta)
               for perm in itertools.permutations(range(1, model.n + 1)))


def chain_min_pressures(model, beta):
    """{D: min over the |D|! chains ending at D of the reduced classical pressure}.

    One entry per terminal set D, including 0 (the empty chain) with value 0.
    """
    out = {0: 0.0}
    for d_mask in range(1, 1 << model.n):
        out[d_mask] = min(_chain_pressure(model, perm, beta)
                          for perm in itertools.permutations(indices_of(d_mask)))
    return out


def maxmin_candidates(model, inner, p):
    """Max-min candidate of each D: inner[D] plus p times the length outside D."""
    return {d: v + (1.0 - model.subset_length(d)) * p for d, v in inner.items()}


def scan_greedy_chain(model):
    """The greedy chain by a scalar scan over every strict superset of each
    round.  Slopes within 1e-12 relative of the round maximum tie; the tied
    sets are ranked by the key (set size, negated index tuple)."""
    atilde = loop_cumulative_weights(model)
    lengths = [model.subset_length(m) for m in range(1 << model.n)]
    current, order = 0, []
    while current != model.full_mask:
        rest = model.full_mask & ~current
        slopes = []
        sub = rest
        while sub:
            cand = current | sub
            slopes.append(((atilde[cand] - atilde[current]) / (lengths[cand] - lengths[current]), cand))
            sub = (sub - 1) & rest
        top = max(slope for slope, _ in slopes)
        best = max((bin(cand).count("1"), tuple(-i for i in indices_of(cand)), cand)
                   for slope, cand in slopes if slope >= (1.0 - 1e-12) * top)[-1]
        order.extend(indices_of(best & ~current))
        current = best
    return Chain.from_order(order)


def loop_chain_grem(model, chain):
    """chain_grem step by step: each chain set absorbs, in weight-dict order,
    every subset inside it but not inside the previous set."""
    weights, endpoints = [], []
    prev = 0
    for mask in chain.sets:
        a_k = 0.0
        for sub, a in model.weights.items():
            if sub & ~mask == 0 and sub & ~prev != 0:
                a_k += a
        weights.append(a_k)
        endpoints.append(model.subset_length(mask))
        prev = mask
    return ReducedGrem(tuple(weights), tuple(endpoints))


def loop_cumulative_weights(model):
    """atilde[S] = sum of a_I over I subset of S: the zeta transform bit by bit, mask by mask."""
    size = 1 << model.n
    acc = np.zeros(size)
    for mask, a in model.weights.items():
        acc[mask] = a
    for k in range(model.n):
        bit = 1 << k
        for mask in range(size):
            if mask & bit:
                acc[mask] += acc[mask ^ bit]
    return acc


def mp_gaussian_paramagnetic(mean, stddev, beta):
    """E[ln 2 cosh(beta b)] for Gaussian b by adaptive quadrature."""
    mean, stddev, beta = mp.mpf(mean), mp.mpf(stddev), mp.mpf(beta)
    if stddev == 0:
        return mp_ln2cosh(beta * mean)
    density = lambda t: mp.exp(-t**2 / 2) / mp.sqrt(2 * mp.pi)
    return mp.quad(lambda t: density(t) * mp_ln2cosh(beta * (mean + stddev * t)), [-mp.inf, mp.inf])


def _gershgorin(inst):
    """(lo, half): the lower end and half-width of the Gershgorin interval."""
    b_abs = float(np.abs(inst.field_weights).sum())
    lo, hi = float(inst.potential.min()) - b_abs, float(inst.potential.max()) + b_abs
    return lo, 0.5 * (hi - lo)


def absolute_chebyshev_degree(inst, beta):
    """The degree rule without a budget: the last Chebyshev coefficient of
    exp(-beta (H - lo)) on the Gershgorin interval above 1e-18, plus 5."""
    ive_k = ive(np.arange(2000), beta * _gershgorin(inst)[1])
    return int(np.nonzero(ive_k > 1e-18)[0][-1]) + 5


def rademacher_probes(N, probes, seed):
    """The package's probes for a seed: Rademacher blocks of at most 2^24
    entries, drawn in turn and joined column-wise into one (2^N, probes)
    array."""
    dim = 1 << N
    rng = np.random.default_rng(seed)
    chunk = max(1, min(probes, (1 << 24) // dim))
    blocks = []
    done = 0
    while done < probes:
        p = min(chunk, probes - done)
        blocks.append(rng.integers(0, 2, size=(dim, p)).astype(float) * 2.0 - 1.0)
        done += p
    return np.hstack(blocks)


def dense_quadratic_forms(inst, betas, probes, seed):
    """z^T exp(-beta (H - lo)) z of every probe, one row per beta, with lo the
    Gershgorin lower bound, from numpy's eigh of the dense Hamiltonian built
    here entry by entry."""
    N, dim = inst.N, 1 << inst.N
    H = np.diag(inst.potential)
    idx = np.arange(dim)
    for j in range(N):
        H[idx, idx ^ (1 << (N - 1 - j))] = -inst.field_weights[j]
    levels, V = np.linalg.eigh(H)
    proj = (V.T @ rademacher_probes(N, probes, seed)) ** 2
    lo = _gershgorin(inst)[0]
    return np.array([np.exp(-beta * (levels - lo)) @ proj for beta in betas])


def forward_chebyshev_traces(inst, betas, probes, seed, degree):
    """Hutchinson samples of Tr exp(-beta (H - lo)), one array per beta, and lo.

    The forward form of the estimator: the probes Z run T_k(H~) Z for
    k = 1 .. degree and accumulates c_k T_k(H~) Z per beta, then takes z^T acc
    per probe.  Probes are those the package draws for the same seed
    (``rademacher_probes``); the Hamiltonian is built here from the
    instance's potential and field weights.
    """
    N, U, b = inst.N, inst.potential, inst.field_weights
    dim = 1 << N
    lo = float(U.min()) - float(np.abs(b).sum())
    hi = float(U.max()) + float(np.abs(b).sum())
    half, center = 0.5 * (hi - lo), 0.5 * (hi + lo)
    idx = np.arange(dim)
    rows = np.concatenate([idx] * (N + 1))
    cols = np.concatenate([idx] + [idx ^ (1 << (N - 1 - j)) for j in range(N)])
    data = np.concatenate([U - center] + [np.full(dim, -b[j]) for j in range(N)])
    Hs = scipy.sparse.csr_matrix((data / half, (rows, cols)), shape=(dim, dim))

    ks = np.arange(degree + 1)
    coeffs = [np.where(ks == 0, 1.0, 2.0) * (-1.0) ** ks * ive(ks, beta * half) for beta in betas]
    Z = rademacher_probes(N, probes, seed)
    t_prev, t_cur = Z, Hs @ Z
    accs = [c[0] * t_prev + c[1] * t_cur for c in coeffs]
    for k in range(2, degree + 1):
        t_prev, t_cur = t_cur, 2.0 * (Hs @ t_cur) - t_prev
        for acc, c in zip(accs, coeffs):
            acc += c[k] * t_cur
    return [np.einsum("ij,ij->j", Z, acc) for acc in accs], lo


def forward_stochastic_pressure(inst, beta, probes, seed, degree):
    """(1/N) ln of the forward trace estimate: the pressure without error bar."""
    (samples,), lo = forward_chebyshev_traces(inst, [beta], probes, seed, degree)
    return (-beta * lo + math.log(float(samples.mean()))) / inst.N


def scipy_exact_pressure(inst, beta):
    """(1/N) ln Tr exp(-beta H) from scipy's eigvalsh (LAPACK dsyevr) on a
    dense Hamiltonian filled here entry by entry: the single-matrix solver
    the package used before its exact path moved to stacked numpy calls."""
    N, dim = inst.N, 1 << inst.N
    H = np.diag(inst.potential)
    idx = np.arange(dim)
    for j in range(N):
        H[idx, idx ^ (1 << (N - 1 - j))] = -inst.field_weights[j]
    levels = scipy.linalg.eigvalsh(H)
    lo = float(levels.min())
    return (-beta * lo + math.log(float(np.exp(-beta * (levels - lo)).sum()))) / N


def _block_ends(xs, N):
    return [math.ceil(x * N - 1e-9) for x in xs]


def cascade_potential(spec, N, rng):
    """Hierarchical energies level by level: level k adds sqrt(N a_k) times
    2^(end of block k) Gaussians, each repeated over the configurations that
    share that spin prefix; zero jumps draw nothing."""
    points = spec.points
    if spec.kind is ProfileKind.PIECEWISE_LINEAR:
        points = [(k / N, spec.value_at(k / N)) for k in range(1, N + 1)]
    jumps = np.diff([0.0] + [v for _, v in points])
    U = np.zeros(1 << N)
    for n_k, a_k in zip(_block_ends([x for x, _ in points], N), jumps):
        if a_k > 0.0:
            g = rng.standard_normal(1 << n_k)
            U += math.sqrt(N * a_k) * np.repeat(g, 1 << (N - n_k))
    return U


def subset_potential(model, N, rng):
    """Non-hierarchical energies subset by subset, in ascending mask order:
    each block's spins are cut out of the configuration index one block at a
    time and concatenated into the index of the subset's Gaussian draw."""
    ends = _block_ends(np.cumsum(model.block_lengths), N)
    widths = np.diff([0] + ends)
    conf = np.arange(1 << N, dtype=np.int64)
    U = np.zeros(1 << N)
    for mask in sorted(model.weights):
        idx = np.zeros(1 << N, dtype=np.int64)
        total_width = 0
        for k in indices_of(mask):
            w_k = int(widths[k - 1])
            idx = (idx << w_k) | ((conf >> (N - ends[k - 1])) & ((1 << w_k) - 1))
            total_width += w_k
        U += math.sqrt(N * model.weights[mask]) * rng.standard_normal(1 << total_width)[idx]
    return U


def coo_hamiltonian(inst):
    """The sparse Hamiltonian by way of COO triplets (int64 rows and columns,
    the diagonal block first, then one block per spin flip), converted to CSR
    by scipy."""
    dim = 1 << inst.N
    idx = np.arange(dim)
    rows = [idx] * (inst.N + 1)
    cols = [idx] + [idx ^ (1 << (inst.N - 1 - j)) for j in range(inst.N)]
    data = [inst.potential] + [np.full(dim, -inst.field_weights[j]) for j in range(inst.N)]
    return scipy.sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )


# Frozen worked scalars (mpmath, 40 digits, formulas above).  The printed
# six-decimal targets they correspond to: 1.412893, 1.286836, 1.479296,
# 1.085039, 0.706446.
REM_PRESSURE_B12 = 1.4128920270185696        # 1.2 * sqrt(2 ln 2)
PARA_B12_G1 = 1.2868361521539497             # ln 2 cosh(1.2)
GREM_PHI1_B12 = 0.8358781956747196           # frozen segment of a=(0.7,0.3)
GREM_PHI2_B12 = 0.5625735902799727           # unfrozen segment
GREM_CLASSICAL_B12 = 1.3984517859546923
GREM_QUANTUM_B12_G1 = 1.4792962717516945     # K=1 cut
REM_GAMMA_C_B1 = 1.0850385019483878          # arcosh(exp(1/2))
REM_TRUNCATED_B12_Z05 = 0.7064460135092848


def exact_spectrum(inst):
    return _spectra([inst])[0]


def dense_hamiltonian(inst):
    return sparse_hamiltonian(inst).toarray()


def diagonal_pressure(inst, beta):
    """Field-free lower bound: (1/N) ln sum_sigma exp(-beta U(sigma))."""
    return float(_pressure_from_levels(inst.potential, beta, inst.N))


def field_only_pressure(inst, beta):
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


def right_derivative(hull, x):
    """Right derivative of the envelope at x in [0, span).

    Piecewise constant and non-increasing: at a kink y_l it returns the slope
    of the segment starting there.
    """
    if not 0.0 <= x < hull.span:
        raise DomainError(f"x={x} outside [0, {hull.span})")
    i = bisect_right(hull.support, x)
    return hull.slopes[i]


def jump_heights(spec):
    vals = [v for _, v in spec.points]
    return tuple(np.diff([0.0] + vals))
