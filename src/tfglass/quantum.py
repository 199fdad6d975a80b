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
generalized inverse of z -> d(Phi)/dz.  It is smooth between critical fields
and jumps by exactly L_l * tanh(beta gamma_c(l)) at each one, which is where
the transition lines sit.  For finely discretized smooth hulls those jumps
shrink with the segment lengths and the transition turns second order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
    resists the field longest.  A flat segment (d_l = ln 2) flips at exactly
    0.  Undefined at beta = 0.
    """
    _require_full_span(hull)
    if not 0.0 < beta < math.inf:
        raise DomainError("critical fields need a finite beta > 0")
    per_length = partial_pressures(hull, beta).per_length
    # exp(d_l)/2 = exp(d_l - ln2) >= 1 since d_l >= ln2 for every segment
    return tuple(_acosh_exp(d_l - LN2) / beta if g_l > 0.0 else 0.0
                 for d_l, g_l in zip(per_length, hull.slopes))


def qcrem_pressure(hull: ConcaveHull, beta: float, field: FieldSpec) -> QuantumPressureResult:
    """Truncated-pressure formula: best cut point z over {0} and the hull kinks.

    The truncated pressure at kink y_K is sum_{l<=K} phi_l, so this is the
    step formula with its cut index K mapped to the cut point y_K (0 for
    K = 0); ties go to the leftmost maximizing z.
    """
    res = qgrem_pressure(hull, beta, field)
    cut = hull.support[res.argmax - 1] if res.argmax else 0.0
    return QuantumPressureResult(res.value, cut, res.block_phases)


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
    if not 0.0 <= gamma < math.inf:
        raise DomainError("gamma must be finite and >= 0")
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
    if not 0.0 < beta < math.inf:
        raise DomainError("magnetization needs a finite beta > 0")
    if not 0.0 <= gamma < math.inf:
        raise DomainError("gamma must be finite and >= 0")
    p = float(ln_2cosh(beta * gamma))
    per_length = partial_pressures(hull, beta).per_length
    g = _cut_point(hull, per_length, p)
    return (1.0 - g) * math.tanh(beta * gamma)


def transition_scan(
    hull: ConcaveHull,
    beta: float,
    *,
    first_order_jump_tol: float = 1e-3,
    second_order_slope_tol: float = 1e-2,
    cluster_gap: float | None = None,
) -> tuple[Transition, ...]:
    """The magnetic transitions at fixed beta, classified, in increasing gamma.

    m_z is smooth between critical fields.  At the critical field gamma_c of a
    segment with positive slope it jumps by L_l tanh(beta gamma_c) and its
    slope by L_l beta sech^2(beta gamma_c); a flat segment is paramagnetic at
    every gamma > 0.  A jump of at least ``first_order_jump_tol`` is first
    order, a smaller one second order if its slope jump reaches
    ``second_order_slope_tol``, and dropped otherwise.

    Finely discretized smooth profiles produce one micro-jump per hull kink,
    which a continuum model would not have.  ``cluster_gap`` groups the
    sub-first-order jumps closer than the gap into a band and reports only
    its edges, second order: the transition lines of the underlying smooth
    model.  The thresholds are arguments because the split between orders is
    a resolution statement, not a property of a piecewise-linear hull.
    """
    tols = (first_order_jump_tol, second_order_slope_tol, 0.0 if cluster_gap is None else cluster_gap)
    if not all(map(math.isfinite, tols)):
        raise ValidationError("transition tolerances and cluster_gap must be finite")
    found, groups = [], []
    crit = zip(qgrem_critical_fields(hull, beta), hull.lengths, hull.slopes)
    for gc, L_l, g_l in reversed(list(crit)):  # increasing gamma
        if g_l == 0.0:
            continue
        jump = L_l * math.tanh(beta * gc)
        e = math.exp(-2.0 * beta * gc)  # sech^2 x = 4 e^-2x / (1 + e^-2x)^2 cannot overflow
        cand = (gc, jump, 4.0 * L_l * beta * e / (1.0 + e) ** 2)
        if jump >= first_order_jump_tol:
            found.append(Transition(gc, TransitionOrder.FIRST, jump))
        elif cluster_gap is not None and groups and gc - groups[-1][-1][0] <= cluster_gap:
            groups[-1].append(cand)
        else:
            groups.append([cand])
    for grp in groups:  # a band reports its two edges, a lone jump only itself
        if len(grp) >= 2 or grp[0][2] >= second_order_slope_tol:
            found += [Transition(g, TransitionOrder.SECOND, j) for g, j, _ in {grp[0], grp[-1]}]
    return tuple(sorted(found, key=lambda tr: tr.gamma))
