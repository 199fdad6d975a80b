"""Limiting pressures of the classical hierarchical models.

Each hull segment contributes a partial pressure

    phi_l(beta) = beta^2 abar_l / 2 + L_l ln 2        for beta <= beta_l,
    phi_l(beta) = beta * sqrt(2 ln 2 * abar_l * L_l)  for beta >  beta_l,

with freezing temperature beta_l = sqrt(2 ln 2 / gamma_l), hull.freeze_betas.
The total pressure is the sum over segments, valid verbatim when the
increments do not add up to one, which reduced non-hierarchical models rely on.

Equivalently, per unit length a segment contributes
min(beta sqrt(2 ln2 g), ln2 + beta^2 g / 2) at slope g, which makes the
per-length partial pressures strictly decreasing across segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError
from .model import LN2, ConcaveHull

_TWO_LN2 = 2.0 * LN2
_TABLE_CACHE_SIZE = 16  # (hull, beta) tables kept; one phase-diagram beta-row reuses one per hull


@dataclass(frozen=True)
class PartialPressureTable:
    """Per-segment pressure contributions at a fixed inverse temperature."""

    phi: tuple[float, ...]
    frozen: tuple[bool, ...]
    per_length: tuple[float, ...]  # phi_l / L_l, strictly decreasing in l
    prefix: tuple[float, ...]  # 0.0, phi_1, phi_1 + phi_2, ...: added left to right

    @property
    def total(self) -> float:
        return self.prefix[-1]


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
    frozen = tuple([beta > b_l for b_l in hull.freeze_betas])
    # a flat segment (a_l = 0) skips the quadratic term, which is 0, or nan where beta^2 overflows
    phi = tuple([beta * math.sqrt(_TWO_LN2 * a_l * L_l) if is_frozen
                 else (0.5 * beta * beta * a_l if a_l else 0.0) + L_l * LN2
                 for a_l, L_l, is_frozen in zip(hull.increments, hull.lengths, frozen)])
    per_length = tuple([p / L_l for p, L_l in zip(phi, hull.lengths)])
    return PartialPressureTable(phi, frozen, per_length, tuple(accumulate(phi, initial=0.0)))


def classical_pressure(hull: ConcaveHull, beta: float) -> float:
    """Limiting pressure of the classical model: sum of the partial pressures."""
    return partial_pressures(hull, beta).total


def crem_truncated_pressure(hull: ConcaveHull, beta: float, z: float) -> float:
    """Pressure of the model truncated at overlap z.

    Closed form for piecewise-constant slopes: the frozen stretch [0, x(beta)]
    integrates beta * sqrt(2 ln2 * slope) segment by segment, the remainder
    (if z reaches past x(beta)) contributes the quadratic-plus-entropy terms.
    x(beta) is the last kink of the leading segments that ``partial_pressures``
    flags frozen (beta > beta_l strictly, so beta = 0 freezes nothing).  At
    z = span this reproduces classical_pressure exactly.
    """
    if not 0.0 <= beta < math.inf:
        raise DomainError("beta must be finite and >= 0")
    if not 0.0 <= z <= hull.span + 1e-15:
        raise DomainError(f"z={z} outside [0, {hull.span}]")
    k = partial_pressures(hull, beta).frozen.count(True)
    x_beta = hull.support[k - 1] if k else 0.0
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
        if rise := hull.value_at(z) - hull.value_at(x_beta):  # flat: skip the inf * 0 of beta^2 overflow
            val += 0.5 * beta * beta * rise
        val += LN2 * (z - x_beta)
    return val
