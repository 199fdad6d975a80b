"""Limiting pressures of the classical hierarchical models.

Each hull segment contributes a partial pressure

    phi_l(beta) = beta^2 abar_l / 2 + L_l ln 2        for beta <= beta_l,
    phi_l(beta) = beta * sqrt(2 ln 2 * abar_l * L_l)  for beta >  beta_l,

with freezing temperature beta_l = sqrt(2 ln 2 / gamma_l).  The total pressure
is the sum over segments; the formula is valid verbatim when the increments do
not add up to one, which reduced non-hierarchical models rely on.

Equivalently, per unit length a segment contributes
min(beta sqrt(2 ln2 g), ln2 + beta^2 g / 2) at slope g, which makes the
per-length partial pressures strictly decreasing across segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DomainError
from .model import LN2, ConcaveHull

_TWO_LN2 = 2.0 * LN2
_TABLE_CACHE_SIZE = 16  # (hull, beta) tables kept; one phase-diagram beta-row reuses one per hull


@dataclass(frozen=True)
class PartialPressureTable:
    """Per-segment pressure contributions at a fixed inverse temperature."""

    beta: float
    phi: tuple[float, ...]
    freeze_beta: tuple[float, ...]
    frozen: tuple[bool, ...]
    lengths: tuple[float, ...]

    @cached_property
    def total(self) -> float:
        return float(sum(self.phi))

    @cached_property
    def per_length(self) -> tuple[float, ...]:
        """phi_l / L_l, the per-length contributions (strictly decreasing in l)."""
        return tuple(p / l for p, l in zip(self.phi, self.lengths))


def partial_pressures(hull: ConcaveHull, beta: float) -> PartialPressureTable:
    """Evaluate every segment's partial pressure at inverse temperature beta.

    The table depends on (hull, beta) only, so it is built once and shared:
    a field or a gamma grid enters the quantum formulas through p(beta gamma)
    alone.  Any real beta (int, numpy scalar, 0-d array) keys as its float.
    """
    if not 0.0 <= beta < math.inf:
        raise DomainError("beta must be finite and >= 0")
    return _table(hull, float(beta))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table(hull: ConcaveHull, beta: float) -> PartialPressureTable:
    phi, fbeta, frozen = [], [], []
    for a_l, L_l, g_l in zip(hull.increments, hull.lengths, hull.slopes):
        b_l = math.sqrt(_TWO_LN2 / g_l) if g_l > 0.0 else math.inf
        is_frozen = beta > b_l
        if is_frozen:
            phi.append(beta * math.sqrt(_TWO_LN2 * a_l * L_l))
        else:
            phi.append(0.5 * beta * beta * a_l + L_l * LN2)
        fbeta.append(b_l)
        frozen.append(is_frozen)
    return PartialPressureTable(beta, tuple(phi), tuple(fbeta), tuple(frozen), hull.lengths)


def classical_pressure(hull: ConcaveHull, beta: float) -> float:
    """Limiting pressure of the classical model: sum of the partial pressures."""
    return partial_pressures(hull, beta).total


def freezing_boundary(hull: ConcaveHull, beta: float) -> float:
    """Largest kink up to which the envelope slope exceeds 2 ln2 / beta^2.

    This is where the frozen (condensed) part of the hierarchy ends: 0 when no
    segment is frozen, span when all are.  At exact slope equality a segment
    does not qualify (the defining inequality is strict), which keeps the
    truncated pressure continuous in beta.  beta = 0 returns 0 by convention.
    """
    if not 0.0 <= beta < math.inf:
        raise DomainError("beta must be finite and >= 0")
    if beta == 0.0:
        return 0.0
    threshold = _TWO_LN2 / (beta * beta)
    boundary = 0.0
    for y_l, g_l in zip(hull.support, hull.slopes):
        if g_l > threshold:
            boundary = y_l
        else:
            break
    return boundary


def crem_truncated_pressure(hull: ConcaveHull, beta: float, z: float) -> float:
    """Pressure of the model truncated at overlap z.

    Closed form for piecewise-constant slopes: the frozen stretch [0, x(beta)]
    integrates beta * sqrt(2 ln2 * slope) segment by segment, the remainder
    (if z reaches past x(beta)) contributes the quadratic-plus-entropy terms.
    At z = span this reproduces classical_pressure exactly.
    """
    if not 0.0 <= beta < math.inf:
        raise DomainError("beta must be finite and >= 0")
    if not 0.0 <= z <= hull.span + 1e-15:
        raise DomainError(f"z={z} outside [0, {hull.span}]")
    x_beta = freezing_boundary(hull, beta)
    cut = min(x_beta, z)
    val = 0.0
    prev = 0.0
    for y_l, g_l in zip(hull.support, hull.slopes):
        if prev >= cut:
            break
        seg = min(y_l, cut) - prev
        val += beta * math.sqrt(_TWO_LN2 * g_l) * seg
        prev = y_l
    if z > x_beta:
        val += 0.5 * beta * beta * (hull.value_at(z) - hull.value_at(x_beta))
        val += LN2 * (z - x_beta)
    return val
