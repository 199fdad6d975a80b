"""Quantum limiting pressures, critical fields, magnetization, transitions.

With a transversal field the limit becomes a variational formula: each block
of the hierarchy either keeps its classical partial pressure or surrenders its
share of spins to the quantum paramagnet.  For step profiles the optimum is a
cut index K over hull kinks,

    max_K  sum_{l<=K} phi_l(beta) + (1 - y_K) p(beta),

and for general profiles a cut point z in [0, 1] of the truncated pressure.
Because the truncated pressure is piecewise linear in z between hull kinks,
the supremum is always attained on the finite kink set and both formulas are
evaluated exactly, with no numerical search.

For a constant field of strength gamma the cut condition for block l reads
p(beta * gamma) >= phi_l / L_l, giving the critical fields

    gamma_c(l) = arcosh(exp(phi_l / L_l) / 2) / beta,

strictly decreasing in l.  The transversal magnetization follows from the
generalized inverse of z -> d(Phi)/dz and jumps by L_l * tanh(beta gamma) at
each critical field of a kinked hull; for finely discretized smooth hulls
those jumps shrink with the segment lengths and the transition turns second
order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .classical import classical_pressure, crem_truncated_pressure, partial_pressures
from .errors import DomainError, ValidationError
from .model import LN2, ConcaveHull, FieldSpec, ln_2cosh, paramagnetic_pressure


class BlockPhase(enum.Enum):
    CLASSICAL = "classical"
    PARAMAGNETIC = "paramagnetic"


class TransitionOrder(enum.Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class QuantumPressureResult:
    """Value of the variational formula plus the maximizer that attained it.

    ``argmax`` is the cut index K (step formula) or the cut point z (truncated
    formula); ``block_phases`` tags each hull segment left of the cut as
    classical, right of it as paramagnetic.
    """

    value: float
    argmax: float
    block_phases: tuple[BlockPhase, ...]


@dataclass(frozen=True)
class Transition:
    gamma: float
    order: TransitionOrder
    jump: float


def _require_full_span(hull: ConcaveHull):
    if abs(hull.span - 1.0) > 1e-12:
        raise ValidationError("quantum formulas need a hull spanning [0, 1]")


def _phases(m: int, cut: int) -> tuple[BlockPhase, ...]:
    return tuple(
        BlockPhase.CLASSICAL if l < cut else BlockPhase.PARAMAGNETIC for l in range(m)
    )


def qgrem_pressure(hull: ConcaveHull, beta: float, field: FieldSpec) -> QuantumPressureResult:
    """Step-profile quantum pressure: best cut over hull kinks.

    K = 0 (every block paramagnetic) is a legitimate cut and wins for strong
    fields; ties are resolved toward the smallest K.
    """
    _require_full_span(hull)
    p = paramagnetic_pressure(field, beta)
    table = partial_pressures(hull, beta)
    best_val, best_k = p, 0  # K = 0: empty classical part
    acc = 0.0
    for k, (phi_l, y_l) in enumerate(zip(table.phi, hull.support), start=1):
        acc += phi_l
        val = acc + (1.0 - y_l) * p
        if val > best_val:
            best_val, best_k = val, k
    return QuantumPressureResult(best_val, best_k, _phases(hull.m, best_k))


def _acosh_exp(x: float) -> float:
    """arcosh(exp(x)) for x >= 0 (clamped at 0) without overflowing exp."""
    x = max(0.0, x)
    return x + math.log1p(math.sqrt(-math.expm1(-2.0 * x)))


def qgrem_critical_fields(hull: ConcaveHull, beta: float) -> tuple[float, ...]:
    """Field strengths at which each block flips into transversal order.

    Strictly decreasing in the block index: the steepest (most glassy) block
    resists the field longest.  Undefined at beta = 0.
    """
    _require_full_span(hull)
    if beta <= 0.0:
        raise DomainError("critical fields need beta > 0")
    out = []
    for d_l in partial_pressures(hull, beta).per_length:
        # exp(d_l)/2 = exp(d_l - ln2) >= 1 since d_l >= ln2 for every segment
        out.append(_acosh_exp(d_l - LN2) / beta)
    return tuple(out)


def qcrem_pressure(hull: ConcaveHull, beta: float, field: FieldSpec) -> QuantumPressureResult:
    """Truncated-pressure formula: best cut point z over {0} and the hull kinks.

    On step profiles this agrees with qgrem_pressure; ties go to the leftmost
    maximizing z.
    """
    _require_full_span(hull)
    p = paramagnetic_pressure(field, beta)
    best_val, best_z, best_k = p, 0.0, 0
    for k, y_l in enumerate(hull.support, start=1):
        val = crem_truncated_pressure(hull, beta, y_l) + (1.0 - y_l) * p
        if val > best_val:
            best_val, best_z, best_k = val, y_l, k
    return QuantumPressureResult(best_val, best_z, _phases(hull.m, best_k))


def _cut_point(hull: ConcaveHull, per_length: tuple[float, ...], p: float) -> float:
    """Generalized inverse of the truncated pressure's z-derivative at level p.

    The derivative takes the value phi_l / L_l on segment l and decreases.
    Returns the left endpoint of the first segment whose derivative is <= p
    (leftmost point of a flat stretch, kink position at a jump), the full span
    when every segment stays above p.
    """
    for i, d_l in enumerate(per_length):
        if d_l <= p:
            return 0.0 if i == 0 else hull.support[i - 1]
    return hull.span


def qcrem_closed_form(hull: ConcaveHull, beta: float, gamma: float) -> float:
    """Constant-field pressure through the derivative inverse, no maximization.

    Three regimes split by the derivative's boundary values s (at z=1) and
    t (at z=0): fully classical below s, fully paramagnetic above t, and a
    mixed cut g in between.
    """
    _require_full_span(hull)
    if gamma < 0.0:
        raise DomainError("gamma must be >= 0")
    p = float(ln_2cosh(beta * gamma))
    per_length = partial_pressures(hull, beta).per_length
    s, t = per_length[-1], per_length[0]
    if p <= s:
        return classical_pressure(hull, beta)
    if p >= t:
        return p
    g = _cut_point(hull, per_length, p)
    return crem_truncated_pressure(hull, beta, g) + (1.0 - g) * p


def magnetization(hull: ConcaveHull, beta: float, gamma: float) -> float:
    """Specific transversal magnetization m_z = (1 - g) tanh(beta gamma).

    g is the cut point at paramagnetic level p(beta gamma): g = 1 gives the
    classical phase (m_z = 0), g = 0 the saturated paramagnet tanh(beta gamma).
    At a critical field the paramagnetic side is taken, matching the >=
    convention of the indicator form of the pressure.
    """
    _require_full_span(hull)
    if beta <= 0.0:
        raise DomainError("magnetization needs beta > 0")
    if gamma < 0.0:
        raise DomainError("gamma must be >= 0")
    p = float(ln_2cosh(beta * gamma))
    per_length = partial_pressures(hull, beta).per_length
    g = _cut_point(hull, per_length, p)
    return (1.0 - g) * math.tanh(beta * gamma)


def transition_scan(
    hull: ConcaveHull,
    beta: float,
    *,
    gamma_max: float | None = None,
    grid_points: int = 4096,
    jump_window: float = 1e-6,
    first_order_jump_tol: float = 1e-3,
    second_order_slope_tol: float = 1e-2,
    slope_window: float = 1e-3,
    cluster_gap: float | None = None,
) -> tuple[Transition, ...]:
    """Locate and classify the magnetic transitions at fixed beta.

    The scan works on magnetization values only: a uniform gamma grid flags
    cells whose m_z change exceeds the smooth-slope budget, each flagged cell
    is bisected down to ``jump_window``, and the concentrated jump decides the
    order.  A jump above ``first_order_jump_tol`` is first order; otherwise a
    change of dm_z/dgamma above ``second_order_slope_tol`` (measured over
    ``slope_window`` on each side) marks second order, and candidates failing
    both are discarded as numerical dust.

    Finely discretized smooth profiles produce a staircase of micro-jumps,
    one per hull kink, that a continuum model would not have.  Passing
    ``cluster_gap`` groups such candidates closer than the gap (after the
    first-order test) into one band and reports only the band edges, each
    second order: the physical transition lines of the underlying smooth
    model.  All thresholds are configurable because the split between orders
    is a resolution statement, not an intrinsic property of a piecewise-linear
    hull.
    """
    _require_full_span(hull)
    if beta <= 0.0:
        raise DomainError("transition scan needs beta > 0")
    per_length = partial_pressures(hull, beta).per_length

    def m_z(g: float) -> float:
        p = float(ln_2cosh(beta * g))
        return (1.0 - _cut_point(hull, per_length, p)) * math.tanh(beta * g)

    if gamma_max is None:
        t = per_length[0]
        gamma_max = 1.25 * _acosh_exp(t - LN2) / beta + 0.1

    gammas = [gamma_max * i / grid_points for i in range(grid_points + 1)]
    # m_z on the grid, with ln 2cosh taken over the whole grid at once
    tanhs = [math.tanh(beta * g) for g in gammas]
    paras = ln_2cosh(beta * np.array(gammas)).tolist()
    vals = [(1.0 - _cut_point(hull, per_length, p)) * h for p, h in zip(paras, tanhs)]

    # between jumps the cut point is fixed, so a cell's smooth change of m_z
    # is at most its tanh increment (beta times its width at most, and far
    # less once beta gamma >> 1)
    candidates = []
    for (g0, g1), (v0, v1), (h0, h1) in zip(zip(gammas, gammas[1:]), zip(vals, vals[1:]),
                                            zip(tanhs, tanhs[1:])):
        if abs(v1 - v0) <= 1.5 * (h1 - h0) + 1e-12:
            continue
        lo, hi, vlo, vhi = g0, g1, v0, v1
        while hi - lo > jump_window:
            mid = 0.5 * (lo + hi)
            vm = m_z(mid)
            if abs(vm - vlo) >= abs(vhi - vm):
                hi, vhi = mid, vm
            else:
                lo, vlo = mid, vm
        star = 0.5 * (lo + hi)
        jump = m_z(star + 0.5 * jump_window) - m_z(star - 0.5 * jump_window)
        if candidates and star - candidates[-1][0] < 4.0 * jump_window:
            continue
        candidates.append((star, jump))

    firsts = [(g, j) for g, j in candidates if abs(j) >= first_order_jump_tol]
    smalls = [(g, j) for g, j in candidates if abs(j) < first_order_jump_tol]

    found = [Transition(g, TransitionOrder.FIRST, j) for g, j in firsts]

    def slope_jump(g: float) -> float:
        d, w = jump_window, slope_window
        left = (m_z(g - d) - m_z(g - d - w)) / w
        right = (m_z(g + d + w) - m_z(g + d)) / w
        return right - left

    groups: list[list[tuple[float, float]]] = []
    for cand in smalls:
        if cluster_gap is not None and groups and cand[0] - groups[-1][-1][0] <= cluster_gap:
            groups[-1].append(cand)
        else:
            groups.append([cand])
    for grp in groups:
        if len(grp) >= 2:
            found.append(Transition(grp[0][0], TransitionOrder.SECOND, grp[0][1]))
            found.append(Transition(grp[-1][0], TransitionOrder.SECOND, grp[-1][1]))
        else:
            g, j = grp[0]
            if abs(slope_jump(g)) >= second_order_slope_tol:
                found.append(Transition(g, TransitionOrder.SECOND, j))

    return tuple(sorted(found, key=lambda tr: tr.gamma))
