"""Covariance profiles, their concave envelopes, and transversal field laws.

The energy landscape of a hierarchical Gaussian spin glass is fixed by a
non-decreasing profile A on [0, 1]: the covariance of two configurations with
overlap q is N * A(q).  Every limiting formula downstream consumes not A
itself but its concave envelope, summarised by the kink positions y_l, the
increments abar_l, the segment lengths L_l and the slopes gamma_l = abar_l/L_l.

The transversal field enters all formulas only through the scalar
p(beta) = E[ln 2 cosh(beta * b)], the pressure of the free quantum paramagnet,
which is computed here for the supported field laws.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ValidationError

LN2 = math.log(2.0)

_SUM_TOL = 1e-12


class ProfileKind(enum.Enum):
    STEP = "step"
    PIECEWISE_LINEAR = "piecewise_linear"


def _json_number(value, what: str) -> float:
    """A number read from a JSON document: an int or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _json_numbers(values, what: str) -> list[float]:
    """A list of numbers read from a JSON document, each checked as _json_number."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{what} must be a list of numbers, got {values!r}")
    return [_json_number(v, f"each of {what}") for v in values]


def ln_2cosh(x):
    """ln(2 cosh(x)), overflow-safe for large |x|. Works on scalars and arrays."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax))


@dataclass(frozen=True)
class DistributionSpec:
    """A non-decreasing covariance profile given by its breakpoints.

    ``points`` lists (x_k, A(x_k)) with 0 < x_1 < ... < x_n = 1.  A step
    profile is right-continuous with jumps a_k = A(x_k) - A(x_{k-1}); a
    piecewise-linear profile interpolates between breakpoints with A(0) = 0.
    ``normalized`` requires A(1) = 1; reduced models may carry total weight
    below one.
    """

    kind: ProfileKind
    points: tuple[tuple[float, float], ...]
    normalized: bool = True

    def __post_init__(self):
        if not self.points:
            raise ValidationError("profile needs at least one breakpoint")
        xs = [float(x) for x, _ in self.points]
        vals = [float(v) for _, v in self.points]
        if any(not (0.0 < x <= 1.0) for x in xs):
            raise ValidationError("breakpoints must lie in (0, 1]")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        if xs[-1] != 1.0:
            raise ValidationError("last breakpoint must be exactly 1")
        # negated comparisons, so that a NaN value fails them too
        if not vals[0] >= 0.0 or any(not b >= a for a, b in zip(vals, vals[1:])):
            raise ValidationError("profile values must be non-negative and non-decreasing")
        if self.normalized and abs(vals[-1] - 1.0) > _SUM_TOL:
            raise ValidationError(f"normalized profile must reach 1 at x=1, got {vals[-1]!r}")
        if vals[-1] > 1.0 + _SUM_TOL:
            raise ValidationError("profile values must not exceed 1")
        object.__setattr__(self, "points", tuple((x, v) for x, v in zip(xs, vals)))

    @classmethod
    def step(cls, xs, values, normalized=True) -> "DistributionSpec":
        return cls(ProfileKind.STEP, tuple(zip(xs, values)), normalized)

    @classmethod
    def from_jumps(cls, jumps, xs=None, normalized=True) -> "DistributionSpec":
        """Step profile with jump heights ``jumps``; breakpoints default to equal spacing."""
        jumps = list(jumps)
        if xs is None:
            n = len(jumps)
            xs = [(k + 1) / n for k in range(n)]
        values = np.cumsum(jumps)
        return cls(ProfileKind.STEP, tuple(zip(xs, values)), normalized)

    @classmethod
    def piecewise_linear(cls, xs, values, normalized=True) -> "DistributionSpec":
        return cls(ProfileKind.PIECEWISE_LINEAR, tuple(zip(xs, values)), normalized)

    @classmethod
    def rem(cls) -> "DistributionSpec":
        """Single fully-uncorrelated level: one unit jump at x = 1."""
        return cls(ProfileKind.STEP, ((1.0, 1.0),))

    @property
    def total(self) -> float:
        return self.points[-1][1]

    def value_at(self, x: float) -> float:
        """A(x) for 0 <= x <= 1 (right-continuous for step profiles)."""
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"x={x} outside [0, 1]")
        xs = [p for p, _ in self.points]
        vals = [v for _, v in self.points]
        if self.kind is ProfileKind.STEP:
            i = bisect_right(xs, x)
            return 0.0 if i == 0 else vals[i - 1]
        return float(np.interp(x, [0.0] + xs, [0.0] + vals))


@dataclass(frozen=True)
class ConcaveHull:
    """Concave envelope of a profile, as segments between its kinks.

    The fields are the kinks y_1 < ... < y_m (y_0 = 0 implicit) and the
    increments abar_l.  The lengths L_l = y_l - y_{l-1} and the slopes
    gamma_l = abar_l / L_l are derived once, at construction; the slopes are
    strictly decreasing because collinear breakpoints are merged into one
    segment.  For reduced models the domain may end before 1: span = y_m.
    """

    support: tuple[float, ...]
    increments: tuple[float, ...]

    def __post_init__(self):
        # tuples, so that partial_pressures can key its cache on the hull
        support, increments = tuple(self.support), tuple(self.increments)
        if not support or len(increments) != len(support):
            raise ValidationError("hull fields must be non-empty and of equal length")
        if not all(map(math.isfinite, support + increments)):
            raise ValidationError("hull fields must be finite")
        lengths = tuple(y - y0 for y0, y in zip((0.0,) + support, support))
        if any(l <= 0 for l in lengths):
            raise ValidationError("kinks must be positive and strictly increasing")
        if any(a < 0 for a in increments):
            raise ValidationError("increments must be non-negative")
        slopes = tuple(a / L for a, L in zip(increments, lengths))
        if not all(map(math.isfinite, slopes)) or any(b >= a for a, b in zip(slopes, slopes[1:])):
            raise ValidationError("hull slopes must be finite and strictly decreasing")
        # hashed once, not per memo lookup; object.__setattr__ keeps attribute reads fast, vars() would not
        for name, value in (("support", support), ("increments", increments), ("lengths", lengths),
                            ("slopes", slopes), ("_hash", hash((support, increments)))):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return self._hash

    @property
    def m(self) -> int:
        return len(self.support)

    @property
    def span(self) -> float:
        return self.support[-1]

    @property
    def total(self) -> float:
        return float(sum(self.increments))

    def value_at(self, y: float) -> float:
        """Envelope value at y (piecewise-linear interpolation)."""
        if not 0.0 <= y <= self.span + 1e-15:
            raise DomainError(f"y={y} outside [0, {self.span}]")
        prev_y, acc = 0.0, 0.0
        for y_l, a_l, g_l in zip(self.support, self.increments, self.slopes):
            if y <= y_l:
                return acc + g_l * (y - prev_y)
            prev_y, acc = y_l, acc + a_l
        return acc


def hull_from_points(points) -> ConcaveHull:
    """Concave envelope of {(0,0)} followed by the given (x, A(x)) breakpoints.

    One left-to-right stack scan over points with increasing x.  The top
    vertex is popped while the cross product says left turn or collinear, or
    while the divided slopes through it fail to decrease by more than
    _SUM_TOL relative (points collinear before rounding tie only to float
    resolution).  So a collinear run gives one segment, and the slopes come
    out strictly decreasing.
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
    xs, vs = zip(*verts)  # the hull is the stack's x's and its rises
    return ConcaveHull(xs[1:], tuple([b - a for a, b in zip(vs, vs[1:])]))


def concave_hull(spec: DistributionSpec) -> ConcaveHull:
    """Smallest concave majorant of the profile.

    For step and piecewise-linear profiles alike, the envelope is determined
    by the breakpoint set, so both reduce to an upper hull of the points
    {(0,0)} + spec.points.
    """
    return hull_from_points(spec.points)


class FieldLaw(enum.Enum):
    CONSTANT = "constant"
    DISCRETE = "discrete"
    GAUSSIAN = "gaussian"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class FieldSpec:
    """Law of the i.i.d. transversal field weights b_j.

    All four variants have a finite first absolute moment, which is what the
    limit theorems require.
    """

    law: FieldLaw
    gamma: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    mean: float = 0.0
    stddev: float = 0.0
    samples: tuple[float, ...] = ()

    def __post_init__(self):
        numbers = (self.gamma, self.mean, self.stddev, *self.samples, *sum(self.atoms, ()))
        if not all(map(math.isfinite, numbers)):
            raise ValidationError("field law parameters must be finite")
        if self.law is FieldLaw.CONSTANT:
            if self.gamma < 0.0:
                raise ValidationError("constant field strength must be >= 0")
        elif self.law is FieldLaw.DISCRETE:
            if not self.atoms:
                raise ValidationError("discrete law needs at least one atom")
            probs = [p for _, p in self.atoms]
            if any(p < 0 for p in probs):
                raise ValidationError("atom probabilities must be >= 0")
            if abs(sum(probs) - 1.0) > _SUM_TOL:
                raise ValidationError(f"atom probabilities must sum to 1, got {sum(probs)!r}")
        elif self.law is FieldLaw.GAUSSIAN:
            if self.stddev < 0.0:
                raise ValidationError("gaussian stddev must be >= 0")
        elif self.law is FieldLaw.EMPIRICAL:
            if not self.samples:
                raise ValidationError("empirical law needs at least one sample")

    @classmethod
    def constant(cls, gamma: float) -> "FieldSpec":
        return cls(FieldLaw.CONSTANT, gamma=float(gamma))

    @classmethod
    def discrete(cls, atoms) -> "FieldSpec":
        return cls(FieldLaw.DISCRETE, atoms=tuple((float(v), float(p)) for v, p in atoms))

    @classmethod
    def gaussian(cls, mean: float, stddev: float) -> "FieldSpec":
        return cls(FieldLaw.GAUSSIAN, mean=float(mean), stddev=float(stddev))

    @classmethod
    def empirical(cls, samples) -> "FieldSpec":
        return cls(FieldLaw.EMPIRICAL, samples=tuple(float(s) for s in samples))

    def label(self) -> str:
        """Compact deterministic description, used in CSV columns."""
        if self.law is FieldLaw.CONSTANT:
            return format(self.gamma, ".17g")
        if self.law is FieldLaw.DISCRETE:
            return "discrete:" + ";".join(
                f"{format(v, '.17g')}@{format(p, '.17g')}" for v, p in self.atoms
            )
        if self.law is FieldLaw.GAUSSIAN:
            return f"gaussian:{format(self.mean, '.17g')};{format(self.stddev, '.17g')}"
        return f"empirical:n={len(self.samples)}"


@lru_cache(maxsize=1)
def _leggauss():
    return np.polynomial.legendre.leggauss(256)


def _gaussian_ln2cosh_mean(mu: float, sigma: float) -> float:
    """E[ln 2 cosh(Y)] for Y ~ N(mu, sigma^2).

    Split as E|Y| + E[log1p(exp(-2|Y|))]: the first term is closed form, the
    second is smooth and bounded, so Gauss-Legendre on the folded density
    reaches machine precision.  (Plain Gauss-Hermite converges poorly here
    because ln 2 cosh bends sharply at 0 when sigma is large.)
    """
    mean_abs = sigma * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * (mu / sigma) ** 2)
    mean_abs += mu * math.erf(mu / (sigma * math.sqrt(2.0)))
    # remainder integrand decays like exp(-2t): truncate where it underflows,
    # and to the folded density's bump at |mu| +- 12 sigma, so a narrow law
    # still gets all the nodes
    lower = max(0.0, abs(mu) - 12.0 * sigma)
    upper = min(30.0, abs(mu) + 12.0 * sigma)
    if upper <= lower:
        return mean_abs
    x, w = _leggauss()
    t = lower + 0.5 * (upper - lower) * (x + 1.0)
    folded = (
        np.exp(-0.5 * ((t - mu) / sigma) ** 2) + np.exp(-0.5 * ((t + mu) / sigma) ** 2)
    ) / (sigma * math.sqrt(2.0 * math.pi))
    remainder = 0.5 * (upper - lower) * float(w @ (np.log1p(np.exp(-2.0 * t)) * folded))
    return mean_abs + remainder


def paramagnetic_pressure(field: FieldSpec, beta: float) -> float:
    """E[ln 2 cosh(beta * b)]: the pressure of the free quantum paramagnet.

    Atoms and samples average ln 2 cosh(beta b) - ln 2 and add ln 2 once, so
    beta = 0 gives ln 2 exactly however the probabilities or the mean round.
    """
    if not 0.0 <= beta < math.inf:
        raise DomainError("beta must be finite and >= 0")
    if field.law is FieldLaw.CONSTANT:
        return float(ln_2cosh(beta * field.gamma))
    if field.law is FieldLaw.DISCRETE:
        return LN2 + float(sum(p * (ln_2cosh(beta * v) - LN2) for v, p in field.atoms))
    if field.law is FieldLaw.GAUSSIAN:
        mu, sigma = beta * field.mean, beta * field.stddev
        if sigma == 0.0:
            return float(ln_2cosh(mu))
        return _gaussian_ln2cosh_mean(mu, sigma)
    return LN2 + float(np.mean(ln_2cosh(beta * np.asarray(field.samples)) - LN2))


def sample_weights(field: FieldSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. field weights from the law."""
    if field.law is FieldLaw.CONSTANT:
        return np.full(n, field.gamma)
    if field.law is FieldLaw.DISCRETE:
        vals = np.array([v for v, _ in field.atoms])
        probs = np.array([p for _, p in field.atoms])
        return rng.choice(vals, size=n, p=probs / probs.sum())
    if field.law is FieldLaw.GAUSSIAN:
        return field.mean + field.stddev * rng.standard_normal(n)
    return rng.choice(np.asarray(field.samples), size=n, replace=True)
