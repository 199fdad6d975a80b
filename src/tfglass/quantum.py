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

Since phi_l / L_l strictly decreases in l, the maximizer is a threshold: K
counts the leading segments with phi_l > L_l p, and a tie goes paramagnetic
(at beta = 0 every segment ties, so K = 0).  The pressure, the closed form
and the magnetization all take their cut from this one rule, ``_cut``.

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

from .classical import PartialPressureTable, crem_truncated_pressure, partial_pressures
from .errors import DomainError, ValidationError
from .model import LN2, ConcaveHull, FieldSpec, ln_2cosh, paramagnetic_pressure


class TransitionOrder(enum.Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class QuantumPressureResult:
    """Value of the variational formula plus the maximizer that attained it.

    ``argmax`` is the cut index K (step formula) or the cut point z = y_K
    (truncated formula): hull segments 1..K keep their classical partial
    pressure, segments K+1..m are paramagnetic.
    """

    value: float
    argmax: float


@dataclass(frozen=True, slots=True)
class Transition:
    """One magnetic transition line at fixed beta.  Slotted (56 bytes, about
    half the size with an instance dict): phase diagrams keep a few per beta."""

    gamma: float
    order: TransitionOrder
    jump: float


def _require_full_span(hull: ConcaveHull):
    if abs(hull.span - 1.0) > 1e-12:
        raise ValidationError("quantum formulas need a hull spanning [0, 1]")


def _cut(hull: ConcaveHull, table: PartialPressureTable, p: float) -> tuple[int, float]:
    """The optimal cut K and its kink y_K (y_0 = 0) at paramagnetic level p.

    K is the number of leading segments with phi_l > L_l p: the per-length
    contributions strictly decrease, so these form a prefix, and a segment
    that ties with the paramagnet goes paramagnetic.
    """
    k = 0
    for phi_l, L_l in zip(table.phi, hull.lengths):
        if not phi_l > L_l * p:
            break
        k += 1
    return k, hull.support[k - 1] if k else 0.0


def qgrem_pressure(hull: ConcaveHull, beta: float, field: FieldSpec) -> QuantumPressureResult:
    """Step-profile quantum pressure: best cut over hull kinks.

    The cut K comes from ``_cut``: K = 0 (every block paramagnetic) wins for
    strong fields and at beta = 0, and a tie goes toward the smaller K.  The
    value is sum_{l<=K} phi_l + (1 - y_K) p, the sum read off the table's
    prefix sums.
    """
    _require_full_span(hull)
    p = paramagnetic_pressure(field, beta)
    table = partial_pressures(hull, beta)
    k, y_k = _cut(hull, table, p)
    return QuantumPressureResult(table.prefix[k] + (1.0 - y_k) * p, k)


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
    return QuantumPressureResult(res.value, cut)


def qcrem_closed_form(hull: ConcaveHull, beta: float, gamma: float) -> float:
    """Constant-field pressure as the truncated pressure at the optimal cut.

    The cut point g = y_K comes from the same rule as ``qgrem_pressure``; the
    value is crem_truncated_pressure(g) + (1 - g) p, a second value formula.
    g = 1 is the fully classical phase, g = 0 the paramagnet p.
    """
    _require_full_span(hull)
    if not 0.0 <= gamma < math.inf:
        raise DomainError("gamma must be finite and >= 0")
    table = partial_pressures(hull, beta)  # checks beta before p is formed from it
    p = float(ln_2cosh(beta * gamma))
    if not math.isfinite(p):
        raise DomainError("the paramagnetic pressure p(beta * gamma) overflows")
    _, g = _cut(hull, table, p)
    return crem_truncated_pressure(hull, beta, g) + (1.0 - g) * p


def magnetization(hull: ConcaveHull, beta: float, gamma: float) -> float:
    """Specific transversal magnetization m_z = (1 - g) tanh(beta gamma).

    g = y_K is the cut point at paramagnetic level p(beta gamma), with K the
    cut of ``qgrem_pressure``: g = 1 gives the classical phase (m_z = 0), g = 0
    the saturated paramagnet tanh(beta gamma).  At a critical field the
    paramagnetic side is taken, as in the pressure's cut.
    """
    _require_full_span(hull)
    if not 0.0 < beta < math.inf:
        raise DomainError("magnetization needs a finite beta > 0")
    if not 0.0 <= gamma < math.inf:
        raise DomainError("gamma must be finite and >= 0")
    _, g = _cut(hull, partial_pressures(hull, beta), float(ln_2cosh(beta * gamma)))
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
