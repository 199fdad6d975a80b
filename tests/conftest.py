"""Shared generators and hypothesis settings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from tfglass import DistributionSpec, FieldSpec, NonHierModel

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def step_specs(draw, max_blocks=6):
    """Hypothesis strategy: step profiles with healthy separations."""
    n = draw(st.integers(1, max_blocks))
    lengths = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    xs = np.cumsum(np.asarray(lengths) / sum(lengths))
    xs[-1] = 1.0
    jumps = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    jumps /= jumps.sum()
    if draw(st.booleans()):
        return DistributionSpec.from_jumps(jumps, xs)
    return DistributionSpec.from_jumps(jumps * draw(st.floats(0.3, 0.999)), xs, normalized=False)


def random_spec(rng: np.random.Generator, max_blocks: int = 6, normalized: bool = True,
                min_jump: float = 0.02, min_length: float = 0.05) -> DistributionSpec:
    """Random step profile with well-separated breakpoints and jumps.

    The floors keep segment geometry healthy so strict slope comparisons are
    meaningful at float precision.
    """
    n = int(rng.integers(1, max_blocks + 1))
    lengths = rng.dirichlet(np.ones(n)) + min_length
    xs = np.cumsum(lengths / lengths.sum())
    xs[-1] = 1.0
    jumps = rng.dirichlet(np.ones(n)) + min_jump
    jumps /= jumps.sum()
    if not normalized:
        jumps *= rng.uniform(0.3, 1.0)
    return DistributionSpec.from_jumps(jumps, xs, normalized=normalized)


def random_nonhier(rng: np.random.Generator, n: int | None = None, max_blocks: int = 5) -> NonHierModel:
    """Random subset-weight model with a sparse-ish support."""
    if n is None:
        n = int(rng.integers(2, max_blocks + 1))
    lengths = rng.dirichlet(np.ones(n)) + 0.08
    lengths /= lengths.sum()
    full = (1 << n) - 1
    n_support = int(rng.integers(1, min(6, full) + 1))
    masks = rng.choice(np.arange(1, full + 1), size=n_support, replace=False)
    raw = rng.dirichlet(np.ones(n_support))
    weights = {int(m): float(w) for m, w in zip(masks, raw) if w > 0}
    # renormalize exactly after dropping zero draws
    total = sum(weights.values())
    weights = {m: w / total for m, w in weights.items()}
    return NonHierModel(n, tuple(float(l) for l in lengths), weights)


def random_field(rng: np.random.Generator) -> FieldSpec:
    kind = rng.integers(0, 4)
    if kind == 0:
        return FieldSpec.constant(float(rng.uniform(0.0, 2.5)))
    if kind == 1:
        k = int(rng.integers(1, 4))
        probs = rng.dirichlet(np.ones(k))
        vals = rng.uniform(-2.0, 2.0, k)
        return FieldSpec.discrete(list(zip(vals, probs)))
    if kind == 2:
        return FieldSpec.gaussian(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 1.5)))
    return FieldSpec.empirical(rng.uniform(-2.0, 2.0, int(rng.integers(1, 12))))


def float_bits(*columns):
    """The exact bits of every float in each column (float.hex also tells -0.0 from 0.0)."""
    return tuple(tuple(float(v).hex() for v in col) for col in columns)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
