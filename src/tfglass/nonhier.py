"""Non-hierarchical models: subset weights, chains, max-min pressure, greedy reduction.

Here the Gaussian energy attaches an independent layer to every nonempty
subset J of the n spin blocks, with weight a_J.  A chain of nested subsets
hierarchizes the model: the chain step k absorbs the weight of every subset
that fits inside A_k but not inside A_{k-1}, so the weights of a full chain
always repartition the total.  The classical pressure is the minimum over
full chains of the induced hierarchical pressure; with a transversal field
the limit becomes a max over terminal sets D of a min over chains ending at
D, plus the paramagnetic share of the blocks outside D.

A single chain suffices: greedily absorbing the superset with the largest
marginal slope produces a chain whose hull dominates every other chain's
hull pointwise, so the min over chains and the max-min are both read off
that one hull, whose kinks are the greedy rounds (classical pressure, cut
formula; D is the round set at the winning cut); no chain is enumerated.

Subsets are bitmasks over blocks 0..n-1 (bit k = block k+1 of the 1-based
file format).  `greedy_reduction` reads weights and lengths from tables over
all 2^n masks, one vectorised slope scan per round; it is gated at n <= 20,
like `sample_instance`'s N, where it takes under a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

import numpy as np

from .classical import classical_pressure
from .errors import CapacityError, ValidationError
from .model import (_SUM_TOL, ConcaveHull, DistributionSpec, FieldSpec, _json_number, _json_numbers,
                    concave_hull, hull_from_points)
from .quantum import qgrem_pressure

GREEDY_MAX_BLOCKS = 20


def mask_of(indices) -> int:
    """Bitmask of 1-based block indices."""
    mask = 0
    for i in indices:
        if int(i) < 1:
            raise ValidationError(f"block indices are 1-based, got {i!r}")
        mask |= 1 << (int(i) - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """1-based block indices of a bitmask, ascending."""
    # from a list: tuple(generator) shrinks tuples that CPython's free lists then hoard
    return tuple([k + 1 for k in range(int(mask).bit_length()) if mask >> k & 1])


def _subset_sums(n: int, values: Mapping[int, float]) -> np.ndarray:
    """table[S] = sum of values[I] over the masks I inside S, for every mask S.

    Zeta transform, bit 0 first: pass k adds each set without bit k into the
    same set with it, through a (rest, bit k, lower bits) view of the table.
    Fed the singletons, it adds the blocks of S in ascending order, as
    `subset_length` does, so the block-length table is bitwise equal to it.
    """
    acc = np.zeros(1 << n)
    for mask, a in values.items():
        acc[mask] = a
    for k in range(n):
        cube = acc.reshape(-1, 2, 1 << k)
        cube[:, 1] += cube[:, 0]
    return acc


@dataclass(frozen=True)
class NonHierModel:
    """Block lengths plus a weight for every nonempty subset of blocks."""

    n: int
    block_lengths: tuple[float, ...]
    weights: Mapping[int, float]  # bitmask -> a_J, nonzero entries only

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one block")
        if len(self.block_lengths) != self.n:
            raise ValidationError("block_lengths must have one entry per block")
        if not all(0.0 < l < math.inf for l in self.block_lengths):
            raise ValidationError("block lengths must be positive and finite")
        if abs(sum(self.block_lengths) - 1.0) > _SUM_TOL:
            raise ValidationError("block lengths must sum to 1")
        full = (1 << self.n) - 1
        clean = {}
        for mask, a in dict(self.weights).items():
            if not 0 < mask <= full:
                raise ValidationError(f"subset mask {mask} outside 1..{full}")
            if not 0.0 <= a < math.inf:
                raise ValidationError("subset weights must be finite and >= 0")
            if a > 0:
                clean[int(mask)] = float(a)
        if abs(math.fsum(clean.values()) - 1.0) > _SUM_TOL:
            raise ValidationError("subset weights must sum to 1")
        object.__setattr__(self, "weights", clean)

    @classmethod
    def from_subsets(cls, block_lengths, subset_weights) -> "NonHierModel":
        """Build from {(1-based index tuple): weight}."""
        n = len(tuple(block_lengths))
        weights = {mask_of(idx): w for idx, w in subset_weights.items()}
        return cls(n, tuple(float(l) for l in block_lengths), weights)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NonHierModel":
        """Parse the file format {"n": ..., "L": [...], "weights": {"1,3": ...}}.

        Subset keys are sorted comma-joined 1-based block indices, each once.
        """
        try:
            n, raw, lengths = doc["n"], doc["weights"], doc["L"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad non-hierarchical model document: {exc}") from exc
        lengths = tuple(_json_numbers(lengths, "block lengths L"))
        if isinstance(n, bool) or not isinstance(n, int) or not isinstance(raw, dict):
            raise ValidationError("n must be an integer and weights an object of subset keys")
        weights = {}
        for key, val in raw.items():
            try:
                idx = [int(tok) for tok in str(key).split(",")]
            except ValueError as exc:
                raise ValidationError(f"bad subset entry {key!r}: {val!r}") from exc
            a = _json_number(val, f"weight of subset {key!r}")
            if idx != sorted(set(idx)) or any(i < 1 or i > n for i in idx) or mask_of(idx) in weights:
                raise ValidationError(f"subset key {key!r} must be sorted distinct indices in 1..{n}, "
                                      "each subset once")
            weights[mask_of(idx)] = a
        return cls(n, lengths, weights)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def subset_length(self, mask: int) -> float:
        return float(sum(l for k, l in enumerate(self.block_lengths) if mask >> k & 1))

    def cumulative_weights(self) -> np.ndarray:
        """atilde[S] = sum of a_I over I subset of S, for every mask S."""
        return _subset_sums(self.n, self.weights)

    def subset_lengths(self) -> np.ndarray:
        """length[S] = sum of the block lengths in S, for every mask S."""
        return _subset_sums(self.n, {1 << k: l for k, l in enumerate(self.block_lengths)})


@dataclass(frozen=True)
class Chain:
    """Nested subsets growing by one block per step: ``order`` lists the distinct 1-based
    blocks as they join, and the bitmask A_k = sets[k-1] holds the first k; terminal is A_m.
    The implicit A_0 is empty; an empty order is the chain ending at the empty set (terminal 0).
    """

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple([int(i) for i in self.order])
        if len(set(order)) != len(order):
            raise ValidationError(f"chain order repeats a block: {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "sets", tuple(accumulate([mask_of((i,)) for i in order], int.__or__)))
        object.__setattr__(self, "terminal", self.sets[-1] if order else 0)

    @classmethod
    def from_order(cls, order) -> "Chain":
        """Chain adding the given 1-based block indices one at a time."""
        return cls(tuple(order))


@dataclass(frozen=True)
class ReducedGrem:
    """Hierarchical weights and endpoints induced on a chain.

    weights[k] collects a_D over subsets D inside A_{k+1} but not inside A_k;
    endpoints[k] is the covered block length.  For chains ending at the full
    block set this is an ordinary (normalized) step profile; chains ending
    early leave the remaining weight and length out.
    """

    weights: tuple[float, ...]
    endpoints: tuple[float, ...]

    def hull(self) -> ConcaveHull:
        """Concave envelope over [0, covered length]; works for partial chains."""
        return hull_from_points(zip(self.endpoints, np.cumsum(self.weights)))


def chain_grem(model: NonHierModel, chain: Chain) -> ReducedGrem:
    """Hierarchical model a chain induces: absorbed weights and endpoints.

    One pass over the weights: a subset inside the terminal set is absorbed at
    the largest chain position among its blocks, the first chain set holding
    it, so for a full chain the absorbed weights partition the total exactly.
    """
    if chain.terminal & ~model.full_mask:
        raise ValidationError("chain references blocks outside the model")
    position = {i: k for k, i in enumerate(chain.order)}
    weights = [0.0] * len(chain.order)
    for sub, a in model.weights.items():
        if sub & ~chain.terminal == 0:
            weights[max(position[i] for i in indices_of(sub))] += a
    return ReducedGrem(tuple(weights), tuple([model.subset_length(mask) for mask in chain.sets]))


def greedy_reduction(model: NonHierModel) -> tuple[Chain, ConcaveHull, tuple[int, ...]]:
    """Greedy chain, its concave envelope, and the chain set at each kink.

    Starting from the empty set, each round picks the strict superset S of the
    current set C maximizing the incremental slope
    (weight inside S - weight inside C) / (length of S - length of C);
    slopes within _SUM_TOL relative of the maximum tie, and the round takes
    the union of the tied sets: the weight inside S is supermodular in S and
    the length modular, so in exact arithmetic the maximizers are closed
    under union, and their union is the maximal maximizer.  The new blocks
    of each round join the chain in ascending order, completing the support
    sets to unit steps.

    Weight and length of every mask sit in tables, so a round is one slope
    vector over the strict supersets and one OR over its maximizers.

    Maximizing the marginal slope (rather than the total mean slope of the
    union) is what makes the induced envelope pass through every round's
    support point with decreasing slopes, hence dominate every other chain's
    envelope pointwise: a total-slope rule can absorb supersets that add
    length but no weight and lose both dominance and pressure minimality.
    Any chain set inside a round lies on or under the round's chord, so the
    envelope is the hull of the round points alone.  kink_sets[k] is the round
    set of length hull.support[k], an exact match as the hull copies its kinks
    from those points (rounds merged as float near-ties drop out).
    """
    n = model.n
    if n > GREEDY_MAX_BLOCKS:
        raise CapacityError(f"greedy chain gated at n <= {GREEDY_MAX_BLOCKS} (got n = {n})")
    atilde, lengths = model.cumulative_weights(), model.subset_lengths()
    masks = np.arange(1 << n)
    current, order, rounds = 0, [], {}
    while current != model.full_mask:
        cand = masks[(masks & current) == current][1:]  # strict supersets; [0] is current
        slope = (atilde[cand] - atilde[current]) / (lengths[cand] - lengths[current])
        best = int(np.bitwise_or.reduce(cand[slope >= (1.0 - _SUM_TOL) * slope.max()]))
        order.extend(indices_of(best & ~current))
        rounds[float(lengths[best])] = best
        current = best
    hull = hull_from_points([(x, atilde[s]) for x, s in rounds.items()])
    return Chain(order), hull, tuple(rounds[y] for y in hull.support)


def model_hull(spec) -> ConcaveHull:
    """The hull whose cut formula gives every limit of the model: a profile's concave
    envelope, or the greedy chain's hull of a non-hierarchical model."""
    if isinstance(spec, DistributionSpec):
        return concave_hull(spec)
    if isinstance(spec, NonHierModel):
        return greedy_reduction(spec)[1]
    raise ValidationError(f"unsupported spec type {type(spec).__name__}")


def greedy_chain(model: NonHierModel) -> Chain:
    """Chain of `greedy_reduction`: absorb the superset of maximal marginal slope."""
    return greedy_reduction(model)[0]


def classical_nonhier_pressure(model: NonHierModel, beta: float) -> tuple[float, Chain]:
    """Minimum over full chains of the induced pressure: the greedy chain's value, and the chain."""
    chain, hull, _ = greedy_reduction(model)
    return classical_pressure(hull, beta), chain


def quantum_nonhier_pressure(model: NonHierModel, beta: float, field: FieldSpec) -> tuple[float, int]:
    """Max over terminal sets D of the min over chains ending at D.

    Each candidate is the reduced pressure on the blocks of D plus the
    paramagnetic pressure of the remaining length.  The greedy chain's cut
    formula attains the maximum; D (a bitmask) is the greedy round set at the
    winning cut point, 0 when every block is paramagnetic.
    """
    _, hull, kink_sets = greedy_reduction(model)
    res = qgrem_pressure(hull, beta, field)
    return res.value, kink_sets[res.argmax - 1] if res.argmax else 0


def greedy_quantum_pressure(model: NonHierModel, beta: float, field: FieldSpec):
    """Quantum pressure of the hierarchical model the greedy chain induces."""
    return qgrem_pressure(greedy_reduction(model)[1], beta, field)
