"""Valuation oracles (additive and explicit table) and exhaustive class checks.

Oracles are immutable and hashable, values are exact ``Fraction``s, and the
class checkers enumerate every relevant pair of subsets rather than sampling.
Table oracles are capped at 12 agents; beyond that the checkers refuse.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from .domain import GuardExceeded

TABLE_AGENT_CAP = 12

CLASSES = ("additive", "submodular", "subadditive", "monotone", "normalized")


def as_fraction(value: Fraction | int | str) -> Fraction:
    f = Fraction(value)
    if f < 0:
        raise ValueError(f"valuations must be nonnegative, got {f}")
    return f


def _mask_of(subset: Iterable[int], n: int) -> int:
    mask = 0
    for i in subset:
        if not 0 <= i < n:
            raise ValueError(f"agent {i} out of range for n={n}")
        mask |= 1 << i
    return mask


def _set_of(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class AdditiveValuation:
    """V(S) is the sum of per-agent values."""

    values: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, subset: Iterable[int]) -> Fraction:
        total = Fraction(0)
        for i in subset:
            total += self.values[i]
        return total


@dataclass(frozen=True)
class TableValuation:
    """V given by an explicit entry for every subset, indexed by bitmask.

    The table must be monotone: the exact packing solver relies on it.
    """

    n: int
    by_mask: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        by_mask, n = self.by_mask, self.n
        for mask in range(2**n):
            for i in range(n):
                if mask >> i & 1:
                    continue
                if by_mask[mask] > by_mask[mask | 1 << i]:
                    raise ValueError(
                        "table is not monotone: "
                        f"V({set(_set_of(mask)) or '{}'}) > V({set(_set_of(mask | 1 << i))})"
                    )

    def value(self, subset: Iterable[int]) -> Fraction:
        return self.by_mask[_mask_of(subset, self.n)]


ValuationOracle = AdditiveValuation | TableValuation


def make_additive(values: Iterable[Fraction | int | str]) -> AdditiveValuation:
    return AdditiveValuation(tuple(as_fraction(v) for v in values))


def make_table(
    entries: Mapping[frozenset[int] | tuple[int, ...], Fraction | int | str],
    n: int | None = None,
) -> TableValuation:
    """Build a table oracle, validating totality, normalization, and monotonicity."""
    sets = {frozenset(s): as_fraction(v) for s, v in entries.items()}
    if n is None:
        n = max((max(s) + 1 for s in sets if s), default=0)
    if n > TABLE_AGENT_CAP:
        raise GuardExceeded(f"table oracles support at most {TABLE_AGENT_CAP} agents, got {n}")
    if len(sets) != 2**n:
        missing = next(
            _set_of(m) for m in range(2**n) if _set_of(m) not in sets
        )
        raise ValueError(f"table is not total: missing entry for {set(missing) or '{}'}")
    by_mask = tuple(sets[_set_of(m)] for m in range(2**n))
    if by_mask[0] != 0:
        raise ValueError(f"table is not normalized: V(empty set) = {by_mask[0]}")
    return TableValuation(n, by_mask)  # checks monotonicity


def check_class(
    oracle: ValuationOracle, cls: str
) -> tuple[bool, tuple[frozenset[int], frozenset[int]] | None]:
    """Exhaustively test class membership; returns the first violating pair if any."""
    if cls not in CLASSES:
        raise ValueError(f"unknown valuation class {cls!r}")
    n = oracle.n
    if n > TABLE_AGENT_CAP:
        raise GuardExceeded(f"class checking enumerates subset pairs; n={n} exceeds {TABLE_AGENT_CAP}")
    vals = [oracle.value(_set_of(m)) for m in range(2**n)]

    if cls == "normalized":
        if vals[0] != 0:
            return False, (frozenset(), frozenset())
        return True, None

    if cls == "monotone":
        for t in range(2**n):
            s = t
            while s:
                s = (s - 1) & t
                if vals[s] > vals[t]:
                    return False, (_set_of(s), _set_of(t))
        return True, None

    if cls == "additive":
        for a in range(2**n):
            comp = (2**n - 1) ^ a
            b = comp
            while b:
                if vals[a | b] != vals[a] + vals[b]:
                    return False, (_set_of(a), _set_of(b))
                b = (b - 1) & comp
        return True, None

    if cls == "subadditive":
        for a in range(2**n):
            for b in range(2**n):
                if vals[a | b] > vals[a] + vals[b]:
                    return False, (_set_of(a), _set_of(b))
        return True, None

    # submodular
    for a in range(2**n):
        for b in range(2**n):
            if vals[a | b] > vals[a] + vals[b] - vals[a & b]:
                return False, (_set_of(a), _set_of(b))
    return True, None


def singleton_order(oracle: ValuationOracle, n: int) -> tuple[int, ...]:
    """Agents sorted by singleton value descending, ties by ascending index.

    Entry ``k`` is the original index of the agent placed at position ``k``.
    """
    return tuple(sorted(range(n), key=lambda i: oracle.value((i,)), reverse=True))


# Random instance generators used by tests and the CLI table command.


def random_additive(n: int, rng: random.Random, max_value: int = 12) -> AdditiveValuation:
    return make_additive(rng.randint(0, max_value) for _ in range(n))


def random_coverage(n: int, rng: random.Random, universe: int = 6, max_weight: int = 5) -> TableValuation:
    """Weighted-coverage table: monotone submodular by construction."""
    weights = [Fraction(rng.randint(1, max_weight)) for _ in range(universe)]
    covers = [
        frozenset(e for e in range(universe) if rng.random() < 0.5) for _ in range(n)
    ]
    entries = {}
    for mask in range(2**n):
        covered = frozenset().union(*(covers[i] for i in _set_of(mask)))
        entries[_set_of(mask)] = sum((weights[e] for e in covered), Fraction(0))
    return make_table(entries, n)


def random_truncated_additive(n: int, rng: random.Random, max_value: int = 8) -> TableValuation:
    """Table ``V(S) = min(sum of per-agent values, cap)``: monotone subadditive."""
    base = [Fraction(rng.randint(0, max_value)) for _ in range(n)]
    total = sum(base, Fraction(0))
    cap = Fraction(rng.randint(1, max(1, int(total)))) if total > 0 else Fraction(1)
    entries = {
        _set_of(mask): min(sum((base[i] for i in _set_of(mask)), Fraction(0)), cap)
        for mask in range(2**n)
    }
    return make_table(entries, n)


def random_subadditive(n: int, rng: random.Random) -> TableValuation:
    """A random monotone subadditive table (coverage or truncated-additive shape)."""
    if rng.random() < 0.5:
        return random_coverage(n, rng)
    return random_truncated_additive(n, rng)
