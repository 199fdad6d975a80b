"""Independent oracles the tests compare against.

Everything here deliberately avoids the package's own code paths: the hull
oracle enumerates chains over point subsets instead of scanning, the
pressure oracles recompute the closed forms in mpmath arbitrary precision,
the cut-point oracle maximizes the truncated pressure over the kinks instead
of summing partial pressures, the trace oracle runs the Chebyshev
recurrence forward over every degree, the degree oracles sum the Bessel
tail of one degree directly, the dense oracle diagonalizes one
matrix at a time with scipy, and the non-hierarchical oracles
search every chain instead of building the greedy one, build it by a
scalar scan over supersets instead of table lookups, or absorb a chain's
weights step by step instead of in one pass.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import ive

from tfglass import Chain, chain_grem, classical_pressure, crem_truncated_pressure
from tfglass.nonhier import ReducedGrem, indices_of

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
    """The greedy chain by a scalar scan: every strict superset of each round,
    ranked by the key (slope, set size, negated index tuple)."""
    atilde = loop_cumulative_weights(model)
    lengths = [model.subset_length(m) for m in range(1 << model.n)]
    current, order = 0, []
    while current != model.full_mask:
        rest = model.full_mask & ~current
        best = None
        sub = rest
        while sub:
            cand = current | sub
            slope = (atilde[cand] - atilde[current]) / (lengths[cand] - lengths[current])
            key = (slope, bin(cand).count("1"), tuple(-i for i in indices_of(cand)))
            if best is None or key > best[0]:
                best = (key, cand)
            sub = (sub - 1) & rest
        order.extend(indices_of(best[1] & ~current))
        current = best[1]
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


def guaranteed_truncation(inst, beta, degree):
    """dim * 2 sum_{k > degree} ive(k, beta half) / (N L) with the diagonal
    sum L = sum_sigma exp(-beta (U(sigma) - lo)) <= Tr exp(-beta (H - lo)):
    a bound on the per-spin pressure error of a degree-``degree`` series."""
    lo, half = _gershgorin(inst)
    tail = 2.0 * math.fsum(ive(np.arange(degree + 1, degree + 2000), beta * half))
    diag_sum = math.fsum(np.exp(-beta * (inst.potential - lo)))
    return (1 << inst.N) * tail / (inst.N * diag_sum)


def forward_chebyshev_traces(inst, betas, probes, seed, degree):
    """Hutchinson samples of Tr exp(-beta (H - lo)), one array per beta, and lo.

    The forward form of the estimator: every probe block Z runs T_k(H~) Z for
    k = 1 .. degree and accumulates c_k T_k(H~) Z per beta, then takes z^T acc
    per probe.  Probes are the Rademacher blocks of at most 2^24 entries that
    the package draws for the same seed; the Hamiltonian is built here from
    the instance's potential and field weights.
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
    rng = np.random.default_rng(seed)
    chunk = max(1, min(probes, (1 << 24) // dim))
    samples = [[] for _ in betas]
    done = 0
    while done < probes:
        p = min(chunk, probes - done)
        Z = rng.integers(0, 2, size=(dim, p)).astype(float) * 2.0 - 1.0
        t_prev, t_cur = Z, Hs @ Z
        accs = [c[0] * t_prev + c[1] * t_cur for c in coeffs]
        for k in range(2, degree + 1):
            t_prev, t_cur = t_cur, 2.0 * (Hs @ t_cur) - t_prev
            for acc, c in zip(accs, coeffs):
                acc += c[k] * t_cur
        for out, acc in zip(samples, accs):
            out.append(np.einsum("ij,ij->j", Z, acc))
        done += p
    return [np.concatenate(s) for s in samples], lo


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
