"""Tick-denominated money, cost grids, outcomes, and utility arithmetic.

All money in this package is an integer count of grid ticks: a grid of
resolution ``k`` splits the budget into ``k`` ticks, so the budget itself is
the integer ``k`` and every admissible cost or payment lies in ``0..k``.
Set values are exact fractions.  Keeping both exact means profile equality,
ticket matching, and golden-ratio comparisons never touch floating point.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Protocol

Ticks = int


class GuardExceeded(Exception):
    """An exhaustive enumeration would exceed the desk-scale guard; refuse, never sample."""


class OracleClassError(Exception):
    """A solver or mechanism was handed a valuation outside its declared class."""


class SetValuation(Protocol):
    """Anything that maps subsets of ``range(n)`` to exact nonnegative values."""

    n: int

    def value(self, subset: Iterable[int]) -> Fraction: ...


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class CostGrid:
    """Finite cost domain ``{0, 1, ..., k}`` ticks; the budget equals ``k`` ticks.

    0 and ``k`` are always admissible: the ticket profiles used by the
    mechanisms are built from exactly those two endpoints.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("grid resolution must be a positive integer")

    @property
    def budget(self) -> Ticks:
        return self.k

    def points(self) -> range:
        return range(self.k + 1)

    def profile_count(self, n: int) -> int:
        return (self.k + 1) ** n


def enumerate_profiles(grid: CostGrid, n: int) -> Iterator[tuple[Ticks, ...]]:
    """Yield every cost profile on the grid exactly once, in lexicographic tick order."""
    if n < 1:
        raise ValueError("need at least one agent")
    return itertools.product(grid.points(), repeat=n)


@dataclass(frozen=True)
class Outcome:
    """Paired allocation and payment vectors, both indexed by original agent."""

    allocation: tuple[int, ...]
    payments: tuple[Ticks, ...]

    def __post_init__(self) -> None:
        if len(self.allocation) != len(self.payments):
            raise ValueError("allocation and payments must have equal length")
        if any(x not in (0, 1) for x in self.allocation):
            raise ValueError("allocation entries must be 0 or 1")
        if any(p < 0 for p in self.payments):
            raise ValueError("payments must be nonnegative")

    def selected(self) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(self.allocation) if x)

    def total_payment(self) -> Ticks:
        return sum(self.payments)


@dataclass(frozen=True)
class Instance:
    """A procurement instance: agents, valuation oracle, budget, declared costs."""

    n: int
    valuation: SetValuation
    budget: Ticks
    costs: tuple[Ticks, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one agent")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if len(self.costs) != self.n:
            raise ValueError("cost profile length must equal the agent count")
        if any(c < 0 or c > self.budget for c in self.costs):
            raise ValueError("declared costs must lie in [0, budget] ticks")


def utility(true_cost: Ticks, outcome: Outcome, agent: int) -> Fraction:
    """Quasi-linear utility of ``agent``: payment minus true cost if selected."""
    if not 0 <= agent < len(outcome.allocation):
        raise IndexError(f"agent {agent} out of range")
    return Fraction(outcome.payments[agent] - true_cost * outcome.allocation[agent])


def compare_ratio_to_phi(num: Fraction | int, den: Fraction | int) -> Ordering:
    """Order ``num/den`` against the golden ratio using integer arithmetic only.

    With ``d = 2*num - den``: the ratio is below the golden ratio iff ``d < 0``
    or ``d*d < 5*den*den`` (the golden ratio is the positive root of
    ``x*x = x + 1``).  Exact equality cannot occur for rationals but is
    reported for completeness.
    """
    num = Fraction(num)
    den = Fraction(den)
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num < 0:
        raise ValueError("numerator must be nonnegative")
    d = 2 * num - den
    if d < 0:
        return Ordering.LESS
    lhs = d * d
    rhs = 5 * den * den
    if lhs < rhs:
        return Ordering.LESS
    if lhs == rhs:
        return Ordering.EQUAL
    return Ordering.GREATER


def ratio_below_phi(num: Fraction | int, den: Fraction | int) -> bool:
    """True iff ``num/den`` is strictly below the golden ratio."""
    return compare_ratio_to_phi(num, den) is Ordering.LESS
