"""Shared test helpers: independent brute-force oracles and battery generators.

``brute_best_value`` deliberately avoids the library's solver machinery (no
canonical tie order, no zero-cost pass) so it can serve as independent ground
truth for derived expected values.  ``reference_best_subset`` and
``reference_forcing_gap_scan`` are the slow reference for the ranked exact
solver: plain enumeration with the canonical tie order, then a zero-cost pass.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator
from fractions import Fraction

from budgetmech.domain import Instance, SetValuation
from budgetmech.packing import FeasibilityFamily, PackingSolution, canonical_prefers
from budgetmech.valuation import random_subadditive


def brute_best_value(
    valuation: SetValuation,
    costs: tuple[int, ...],
    budget: int,
    family: FeasibilityFamily | None = None,
    include: int | None = None,
    exclude: int | None = None,
) -> Fraction:
    """Plain enumeration of the best feasible set's value."""
    n = len(costs)
    best = Fraction(0)
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            s = frozenset(combo)
            if family is not None and s not in family.subsets:
                continue
            if include is not None and include not in s:
                continue
            if exclude is not None and exclude in s:
                continue
            if sum(costs[i] for i in s) > budget:
                continue
            value = valuation.value(s)
            if value > best:
                best = value
    return best


def random_instances(n: int, k: int, count: int, seed: int):
    """Random subadditive-table instances with uniform grid costs."""
    rng = random.Random(seed)
    for _ in range(count):
        v = random_subadditive(n, rng)
        costs = tuple(rng.randrange(k + 1) for _ in range(n))
        yield Instance(n, v, k, costs)


def _candidate_sets(
    n: int, family: FeasibilityFamily | None, universe: frozenset[int]
) -> Iterator[frozenset[int]]:
    if family is not None:
        for s in family.subsets:
            if s <= universe:
                yield s
    else:
        members = sorted(universe)
        for r in range(len(members) + 1):
            for combo in itertools.combinations(members, r):
                yield frozenset(combo)


def _zero_cost_pass(
    chosen: frozenset[int],
    instance: Instance,
    family: FeasibilityFamily | None,
    universe: frozenset[int],
    banned: frozenset[int],
) -> frozenset[int]:
    """Fold in zero-cost agents one at a time while feasibility is preserved."""
    out = chosen
    for i in sorted(universe - banned):
        if instance.costs[i] != 0 or i in out:
            continue
        grown = out | {i}
        if family is None or family.contains(grown):
            out = grown
    return out


def reference_best_subset(
    instance: Instance,
    family: FeasibilityFamily | None,
    universe: frozenset[int],
    include: int | None = None,
    exclude: int | None = None,
) -> PackingSolution | None:
    """Best feasible subset of ``universe`` by plain enumeration, ties broken by
    ``canonical_prefers``, then grown by a zero-cost pass."""
    v = instance.valuation
    best: PackingSolution | None = None
    for s in _candidate_sets(instance.n, family, universe):
        if include is not None and include not in s:
            continue
        if exclude is not None and exclude in s:
            continue
        if sum(instance.costs[i] for i in s) > instance.budget:
            continue
        val = v.value(s)
        if best is None or val > best.value or (val == best.value and canonical_prefers(s, best.chosen)):
            best = PackingSolution(s, val)
    if best is None:
        return None
    banned = frozenset() if exclude is None else frozenset((exclude,))
    chosen = _zero_cost_pass(best.chosen, instance, family, universe, banned)
    if chosen != best.chosen:
        best = PackingSolution(chosen, v.value(chosen))
    return best


def reference_forcing_gap_scan(
    valuation: SetValuation, family: FeasibilityFamily | None, n: int
) -> tuple[Fraction | float, tuple[frozenset[int], int] | None]:
    """``packing.forcing_gap_scan`` over ``reference_best_subset``."""
    if family is None:
        return Fraction(1), None
    inst = Instance(n, valuation, 0, (0,) * n)
    gap, witness = Fraction(1), None
    for mask in range(1, 2**n):
        universe = frozenset(i for i in range(n) if mask >> i & 1)
        base = reference_best_subset(inst, family, universe)
        if base is None or base.value == 0:
            continue
        for i in sorted(universe):
            forced = reference_best_subset(inst, family, universe, include=i)
            if forced is None or forced.value == 0:
                return math.inf, (universe, i)
            ratio = base.value / forced.value
            if ratio > gap:
                gap, witness = ratio, (universe, i)
    return gap, witness
