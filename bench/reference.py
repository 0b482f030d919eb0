"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports budgetmech.  Valuations are the benchmark's own tuples
of ``Fraction``s indexed by subset bitmask, outcome tables are read as plain
``profile -> (allocation, payments)`` rows, and every comparison is exact
integer or ``Fraction`` arithmetic.  ``math.inf`` appears only as the marker
for an unbounded ratio, never in arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Values = Sequence[Fraction]  # V(S) by bitmask of S
Row = tuple[tuple[int, ...], Sequence[int], Sequence[int]]  # profile, allocation, payments


def members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of(agents: Iterable[int]) -> int:
    mask = 0
    for i in agents:
        mask |= 1 << i
    return mask


def is_monotone_subadditive(values: Values, n: int) -> bool:
    full = 1 << n
    if values[0] != 0 or any(v < 0 for v in values):
        return False
    if any(values[m] > values[m | 1 << i] for m in range(full) for i in range(n)):
        return False
    return all(values[a | b] <= values[a] + values[b] for a in range(full) for b in range(full))


def is_additive(values: Values, n: int) -> bool:
    return all(
        values[m] == sum((values[1 << i] for i in members(m)), Fraction(0)) for m in range(1 << n)
    )


def best_value(values: Values, costs: Sequence[int], budget: int, family: Iterable[int] | None = None) -> Fraction:
    """Largest value of a budget-feasible set, by plain enumeration (no tie order)."""
    candidates = range(1 << len(costs)) if family is None else family
    best = Fraction(0)
    for mask in candidates:
        if values[mask] > best and sum(costs[i] for i in members(mask)) <= budget:
            best = values[mask]
    return best


def ratio(opt: Fraction, achieved: Fraction) -> Fraction | float:
    """Optimum over achieved value: 1 when both are zero, unbounded when only achieved is."""
    if achieved == 0:
        return Fraction(1) if opt == 0 else math.inf
    return opt / achieved


def ratios_by_profile(rows: Iterable[Row], values: Values, budget: int, family=None) -> dict:
    """Approximation ratio of every table row against the enumerated optimum."""
    return {
        profile: ratio(best_value(values, profile, budget, family), values[mask_of(i for i, x in enumerate(alloc) if x)])
        for profile, alloc, _ in rows
    }


def at_most_phi(r: Fraction | float) -> bool:
    """r <= (1 + sqrt 5) / 2, decided on integers: phi is the positive root of
    x^2 = x + 1, so a nonnegative a/b lies at or below it iff a^2 <= a*b + b^2."""
    if r == math.inf:
        return False
    a, b = r.numerator, r.denominator
    return a >= 0 and a * a <= a * b + b * b


class PaymentFolds:
    """IR, NP and BF over a whole outcome table, plus each agent's set of
    (selected, payment) results per declared cost, from which best-case and
    worst-case utilities follow for any true cost."""

    def __init__(self, rows: Iterable[Row], n: int, k: int):
        self.n, self.k = n, k
        self.ir = self.np = self.bf = True
        self.results: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for profile, alloc, pay in rows:
            if sum(pay) > k:
                self.bf = False
            for i in range(n):
                if alloc[i] and pay[i] < profile[i]:
                    self.ir = False
                if not alloc[i] and pay[i] != 0:
                    self.np = False
                self.results.setdefault((i, profile[i]), set()).add((alloc[i], pay[i]))

    def utilities(self, i: int, declared: int, true_cost: int) -> list[int]:
        return [p - true_cost * x for x, p in self.results[(i, declared)]]

    def best_case(self, i: int, declared: int, true_cost: int) -> int:
        return max(self.utilities(i, declared, true_cost))

    def worst_case(self, i: int, declared: int, true_cost: int) -> int:
        return min(self.utilities(i, declared, true_cost))

    def dominance(self, case) -> bool:
        grid = range(self.k + 1)
        return all(
            case(i, t, t) >= case(i, d, t) for i in range(self.n) for t in grid for d in grid
        )

    @property
    def bnom(self) -> bool:
        return self.dominance(self.best_case)

    @property
    def wnom(self) -> bool:
        return self.dominance(self.worst_case)

    def confirms(self, prop: str, witness, table) -> bool:
        """Whether a reported counterexample is one, read off the table itself."""
        agent, t, d, profile = witness.agent, witness.true_cost, witness.declared, tuple(witness.profile)
        if profile not in table:
            return False
        alloc, pay = table[profile]
        if prop == "bf":
            return sum(pay) > self.k
        if prop == "ir":
            return alloc[agent] == 1 and pay[agent] < profile[agent]
        if prop == "np":
            return alloc[agent] == 0 and pay[agent] != 0
        if prop == "bnom":
            return profile[agent] == d and pay[agent] - t * alloc[agent] > self.best_case(agent, t, t)
        if prop == "wnom":
            return profile[agent] == t and pay[agent] - t * alloc[agent] < self.worst_case(agent, d, t)
        raise ValueError(f"no reference rule for {prop!r}")


def forcing_gap(values: Values, family: Sequence[int], n: int) -> Fraction | float:
    """Worst loss from forcing one agent of a universe into that universe's
    best family member, by plain enumeration of the family."""
    gap = Fraction(1)
    for universe in range(1, 1 << n):
        inside = [s for s in family if s & ~universe == 0]
        base = max(values[s] for s in inside)
        if base == 0:
            continue
        for i in members(universe):
            forced = max((values[s] for s in inside if s >> i & 1), default=Fraction(0))
            if forced == 0:
                return math.inf
            gap = max(gap, base / forced)
    return gap
