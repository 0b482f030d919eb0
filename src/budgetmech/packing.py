"""Budget-feasible packing: exact ranked search, knapsack DP, budgeted greedy, forcing gaps.

Every solver resolves value ties with one canonical strict total order --
higher cardinality first, then lexicographically smallest sorted member
tuple -- and always folds zero-cost agents into its output when that keeps
the solution feasible.  The exact solver ranks every subset of a valuation
once, in that order after value, and then returns the first ranked subset
that fits each instance.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import TypeVar

from .domain import GuardExceeded, Instance, OracleClassError, SetValuation
from .valuation import AdditiveValuation, check_class

EXACT_AGENT_CAP = 20
GAP_AGENT_CAP = 12


@dataclass(frozen=True)
class PackingSolution:
    chosen: frozenset[int]
    value: Fraction


@dataclass(frozen=True)
class FeasibilityFamily:
    """An explicit set of feasible subsets of ``range(n)``.

    The empty set must be a member so the packing problem is always feasible;
    downward closure is not assumed.
    """

    n: int
    subsets: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if frozenset() not in self.subsets:
            raise ValueError("feasibility family must contain the empty set")
        for s in self.subsets:
            if any(not 0 <= i < self.n for i in s):
                raise ValueError(f"family member {set(s)} out of range for n={self.n}")

    @classmethod
    def from_iterable(cls, n: int, sets: Iterable[Iterable[int]]) -> "FeasibilityFamily":
        return cls(n, frozenset(frozenset(s) for s in sets))

    @classmethod
    def free(cls, n: int) -> "FeasibilityFamily":
        """The unrestricted family of all subsets (materialized; small n only)."""
        members = frozenset(
            frozenset(c)
            for r in range(n + 1)
            for c in itertools.combinations(range(n), r)
        )
        return cls(n, members)

    def contains(self, subset: frozenset[int]) -> bool:
        return subset in self.subsets


def canonical_prefers(a: frozenset[int], b: frozenset[int]) -> bool:
    """True if ``a`` precedes ``b`` in the canonical tie order."""
    if len(a) != len(b):
        return len(a) > len(b)
    return tuple(sorted(a)) < tuple(sorted(b))


def _improves(value: Fraction, chosen: frozenset[int], best: PackingSolution | None) -> bool:
    if best is None:
        return True
    if value != best.value:
        return value > best.value
    return canonical_prefers(chosen, best.chosen)


def _zero_cost_pass(
    chosen: frozenset[int], instance: Instance, agents: Iterable[int]
) -> frozenset[int]:
    """Fold every zero-cost agent into an unconstrained solution (DP and greedy)."""
    out = chosen
    for i in agents:
        if instance.costs[i] == 0:
            out = out | {i}
    return out


# Entries kept by the per-valuation memo (and by the lru_caches in
# ``mechanisms``).  A grid scan uses at most three memo entries -- its
# valuation with no family, with the scan's family, and golden's renamed view
# -- and one entry of each lru_cache; the bound keeps a run over many
# valuations from keeping them all alive.
CACHE_MAXSIZE = 8

_MEMO: dict[tuple[int, int, int], tuple[SetValuation, FeasibilityFamily | None, dict]] = {}

T = TypeVar("T")


def per_valuation(
    build: Callable[[SetValuation, FeasibilityFamily | None, int], T],
    valuation: SetValuation,
    family: FeasibilityFamily | None,
    n: int,
) -> T:
    """``build(valuation, family, n)``, computed once per (valuation object,
    family object, n) and then reused.

    The memo is keyed by object identity, not by value: hashing a table oracle
    costs more than a ranked solve.  Each entry holds the objects it is keyed
    on, so their ids cannot be reused while it lives.  At most
    ``CACHE_MAXSIZE`` entries are kept; the oldest goes first.
    """
    key = (id(valuation), id(family), n)
    entry = _MEMO.get(key)
    if entry is None:
        if len(_MEMO) >= CACHE_MAXSIZE:
            del _MEMO[next(iter(_MEMO))]
        entry = _MEMO[key] = (valuation, family, {})
    results = entry[2]
    if build not in results:
        results[build] = build(valuation, family, n)
    return results[build]


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _mask(members: Iterable[int]) -> int:
    return sum(1 << i for i in members)


def _subset_sums(numbers: Iterable[int]) -> list[int]:
    """The sum of every subset of ``numbers``, indexed by bitmask."""
    sums = [0]
    for x in numbers:
        sums += [s + x for s in sums]
    return sums


def _sort_keys(valuation: SetValuation, n: int) -> list[int]:
    """One integer per subset, indexed by bitmask, packing from the high bits
    down: the subset's value times the least common multiple of the
    denominators, its cardinality, its mask with the bits reversed, and its
    mask.

    Among subsets of one size the larger reversed mask has the
    lexicographically smaller member tuple, so the keys are distinct and sort
    in descending order into the canonical order.
    """
    value_shift = 2 * n + n.bit_length()
    agent_bits = [1 << 2 * n | 1 << (2 * n - 1 - i) | 1 << i for i in range(n)]
    if isinstance(valuation, AdditiveValuation):
        # Every field adds up over the members, so a key is a sum of agent keys.
        scale = math.lcm(*(v.denominator for v in valuation.values))
        return _subset_sums(
            v.numerator * (scale // v.denominator) << value_shift | bits
            for v, bits in zip(valuation.values, agent_bits)
        )
    values = [valuation.value(_members(mask)) for mask in range(1 << n)]
    scale = math.lcm(*(v.denominator for v in values))
    return [
        v.numerator * (scale // v.denominator) << value_shift | bits
        for v, bits in zip(values, _subset_sums(agent_bits))
    ]


class _RankTable:
    """The candidate subsets of one (valuation, family) -- the family's
    members, or all of them -- as bitmasks in the canonical order: value
    descending, then cardinality descending, then sorted members ascending.

    The order makes folding in zero-cost agents unnecessary: for a monotone
    oracle, a feasible zero-cost extension of a set costs the same, is worth
    at least as much and is larger, so it ranks ahead of the set.
    ``TableValuation`` refuses a non-monotone table, and additive values are
    non-negative.
    """

    def __init__(self, valuation: SetValuation, family: FeasibilityFamily | None, n: int):
        keys = _sort_keys(valuation, n)
        if family is not None:
            keys = [keys[_mask(s)] for s in family.subsets]
        keys.sort(reverse=True)
        everyone = (1 << n) - 1
        self.ranked = array("L", (key & everyone for key in keys))
        self.valuation = valuation
        self.solutions: dict[int, PackingSolution] = {}

    def solution(self, mask: int) -> PackingSolution:
        """The solution for one ranked mask, built on its first return."""
        sol = self.solutions.get(mask)
        if sol is None:
            members = _members(mask)
            sol = self.solutions[mask] = PackingSolution(
                frozenset(members), self.valuation.value(members)
            )
        return sol


def _best_subset(
    instance: Instance,
    family: FeasibilityFamily | None,
    universe: int,
    include: int | None = None,
    exclude: int | None = None,
) -> PackingSolution | None:
    """The first ranked subset of the ``universe`` bitmask that fits the budget
    and includes or excludes the given agent."""
    n = instance.n
    forbidden = ((1 << n) - 1) & ~universe
    if exclude is not None:
        forbidden |= 1 << exclude
    required = 0 if include is None else 1 << include
    table = per_valuation(_RankTable, instance.valuation, family, n)
    # A subset's cost is the cost of its low half plus that of its high half.
    half = n // 2
    low_half = (1 << half) - 1
    low = _subset_sums(instance.costs[:half])
    high = _subset_sums(instance.costs[half:])
    budget = instance.budget
    for mask in table.ranked:
        if mask & forbidden or mask & required != required:
            continue
        if low[mask & low_half] + high[mask >> half] <= budget:
            return table.solution(mask)
    return None


def solve_exact(instance: Instance, family: FeasibilityFamily | None = None) -> PackingSolution:
    """Value-maximal budget- and family-feasible subset: the first ranked subset that fits."""
    if instance.n > EXACT_AGENT_CAP:
        raise GuardExceeded(f"exact enumeration capped at {EXACT_AGENT_CAP} agents, got {instance.n}")
    if family is not None and family.n != instance.n:
        raise ValueError("family agent count does not match the instance")
    best = _best_subset(instance, family, (1 << instance.n) - 1)
    assert best is not None  # the empty set is always a candidate
    return best


def solve_additive_dp(instance: Instance) -> PackingSolution:
    """Exact knapsack by dynamic programming over budget ticks (additive oracles only).

    Matches ``solve_exact`` on both value and chosen set: the DP maximizes
    (value, cardinality) lexicographically per capacity, then reconstructs the
    member tuple greedily from the lowest agent index up.
    """
    v = instance.valuation
    if isinstance(v, AdditiveValuation):
        values = list(v.values)
    else:
        ok, _ = check_class(v, "additive")
        if not ok:
            raise OracleClassError("solve_additive_dp requires an additive valuation")
        values = [v.value((i,)) for i in range(instance.n)]

    n, budget, costs = instance.n, instance.budget, instance.costs
    zero = (Fraction(0), 0)
    suffix = [[zero] * (budget + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, nxt = suffix[i], suffix[i + 1]
        for w in range(budget + 1):
            best = nxt[w]
            if costs[i] <= w:
                rest = nxt[w - costs[i]]
                took = (values[i] + rest[0], 1 + rest[1])
                if took > best:
                    best = took
            row[w] = best

    chosen: set[int] = set()
    target, w = suffix[0][budget], budget
    for i in range(n):
        if costs[i] <= w:
            rest = suffix[i + 1][w - costs[i]]
            if (values[i] + rest[0], 1 + rest[1]) == target:
                chosen.add(i)
                target = rest
                w -= costs[i]
                continue
        target = suffix[i + 1][w]
    final = _zero_cost_pass(frozenset(chosen), instance, range(n))
    return PackingSolution(final, v.value(final))


def _greedy_extend(
    seed: frozenset[int],
    seed_cost: int,
    instance: Instance,
) -> frozenset[int]:
    """Extend a seed by marginal value per cost; zero-cost agents come free."""
    v = instance.valuation
    chosen = set(seed)
    spent = seed_cost
    for i in range(instance.n):
        if instance.costs[i] == 0 and i not in chosen:
            chosen.add(i)
    current = v.value(chosen)
    remaining = [i for i in range(instance.n) if i not in chosen]
    while True:
        best_i, best_ratio, best_gain = None, None, None
        for i in remaining:
            c = instance.costs[i]
            if spent + c > instance.budget:
                continue
            gain = v.value(chosen | {i}) - current
            if gain <= 0:
                continue
            ratio = Fraction(gain, c)
            if best_ratio is None or ratio > best_ratio:
                best_i, best_ratio, best_gain = i, ratio, gain
        if best_i is None:
            return frozenset(chosen)
        chosen.add(best_i)
        spent += instance.costs[best_i]
        current += best_gain
        remaining.remove(best_i)


def solve_greedy_submodular(instance: Instance) -> PackingSolution:
    """Budgeted submodular maximization: partial enumeration plus density greedy.

    Takes the better of (a) every feasible set of at most two agents and
    (b) the density-greedy completion of every feasible three-agent seed.
    Guarantees at least a 1 - 1/e fraction of the optimum for monotone
    submodular oracles.
    """
    v = instance.valuation
    ok, witness = check_class(v, "submodular")
    if not ok:
        raise OracleClassError(f"solve_greedy_submodular requires a submodular valuation; violated at {witness}")

    agents = range(instance.n)
    best: PackingSolution | None = None

    def consider(s: frozenset[int]) -> None:
        nonlocal best
        val = v.value(s)
        if _improves(val, s, best):
            best = PackingSolution(s, val)

    for r in (0, 1, 2):
        for combo in itertools.combinations(agents, r):
            s = frozenset(combo)
            cost = sum(instance.costs[i] for i in s)
            if cost <= instance.budget:
                consider(s)
    for combo in itertools.combinations(agents, 3):
        s = frozenset(combo)
        cost = sum(instance.costs[i] for i in s)
        if cost <= instance.budget:
            consider(_greedy_extend(s, cost, instance))

    assert best is not None
    final = _zero_cost_pass(best.chosen, instance, agents)
    if final != best.chosen:
        best = PackingSolution(final, v.value(final))
    return best


@dataclass(frozen=True)
class Solver:
    """A packing subroutine with its declared approximation guarantee."""

    method: str
    gamma: Fraction

    def __post_init__(self) -> None:
        expected = {
            "exact_bruteforce": Fraction(1),
            "additive_dp": Fraction(1),
            "greedy_submodular": Fraction(159, 100),
        }
        if self.method not in expected:
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.gamma != expected[self.method]:
            raise ValueError(f"{self.method} must declare gamma={expected[self.method]}")

    def solve(self, instance: Instance, family: FeasibilityFamily | None = None) -> PackingSolution:
        if self.method == "exact_bruteforce":
            return solve_exact(instance, family)
        if family is not None:
            raise ValueError(f"{self.method} does not support feasibility families")
        if self.method == "additive_dp":
            return solve_additive_dp(instance)
        return solve_greedy_submodular(instance)


EXACT_SOLVER = Solver("exact_bruteforce", Fraction(1))
DP_SOLVER = Solver("additive_dp", Fraction(1))
GREEDY_SOLVER = Solver("greedy_submodular", Fraction(159, 100))


def opt_force(
    instance: Instance,
    family: FeasibilityFamily | None,
    agent: int,
    mode: str,
    universe: Iterable[int] | None = None,
) -> PackingSolution | None:
    """Best feasible subset of ``universe`` forced to include or exclude ``agent``.

    Returns ``None`` when no feasible subset satisfies the constraint (which
    can only happen in include mode).
    """
    if mode not in ("include", "exclude"):
        raise ValueError(f"mode must be 'include' or 'exclude', got {mode!r}")
    n = instance.n
    if not 0 <= agent < n:
        raise IndexError(f"agent {agent} out of range")
    uni = (1 << n) - 1
    if universe is not None:
        members = set(universe)
        if any(not 0 <= i < n for i in members):
            raise IndexError(f"universe {members} out of range")
        uni = _mask(members)
    include = agent if mode == "include" else None
    exclude = agent if mode == "exclude" else None
    return _best_subset(instance, family, uni, include=include, exclude=exclude)


def _structural_instance(valuation: SetValuation, n: int) -> Instance:
    # All-zero costs with a zero budget: feasibility is purely the family's.
    return Instance(n, valuation, 0, (0,) * n)


def forcing_gap_scan(
    valuation: SetValuation, family: FeasibilityFamily | None, n: int
) -> tuple[Fraction | float, tuple[frozenset[int], int] | None]:
    """Worst multiplicative loss from forcing one agent into the family optimum,
    with the first (universe S, agent) in scan order that attains it.

    Computed cost-free over every subset universe S and every agent in S;
    returns ``math.inf`` when forcing some agent makes a positive optimum
    entirely infeasible (or worthless), and no witness when the gap is 1.
    """
    if n > GAP_AGENT_CAP:
        raise GuardExceeded(f"forcing-gap enumeration capped at {GAP_AGENT_CAP} agents, got {n}")
    if family is None:
        return Fraction(1), None  # monotone oracles lose nothing when the family is unrestricted
    inst = _structural_instance(valuation, n)
    gap, witness = Fraction(1), None
    for universe in range(1, 2**n):
        base = _best_subset(inst, family, universe)
        if base is None or base.value == 0:
            continue
        for i in _members(universe):
            forced = _best_subset(inst, family, universe, include=i)
            if forced is None or forced.value == 0:
                return math.inf, (frozenset(_members(universe)), i)
            ratio = base.value / forced.value
            if ratio > gap:
                gap, witness = ratio, (frozenset(_members(universe)), i)
    return gap, witness


def agent_forcing_gap(
    valuation: SetValuation, family: FeasibilityFamily | None, n: int
) -> Fraction | float:
    """The gap of ``forcing_gap_scan`` alone."""
    return forcing_gap_scan(valuation, family, n)[0]
