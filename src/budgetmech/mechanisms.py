"""Budget-feasible procurement mechanisms built from golden tickets and wooden spoons.

A golden ticket is an opponent-cost profile that guarantees an agent selection
at the full budget; a wooden spoon is one that guarantees them utility at most
zero.  The deterministic mechanisms here wire carefully chosen tickets around
a packing subroutine; the randomized family draws tickets from the grid.

Agent positions inside the deterministic mechanisms follow the singleton-value
order (highest first); outcomes are always reported in original indexing.
"""

from __future__ import annotations

import itertools
import logging
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .domain import (
    CostGrid,
    GuardExceeded,
    Instance,
    Outcome,
    SetValuation,
    Ticks,
    enumerate_profiles,
    ratio_below_phi,
)
from .packing import (
    CACHE_MAXSIZE,
    EXACT_SOLVER,
    FeasibilityFamily,
    PackingSolution,
    Solver,
    opt_force,
    per_valuation,
    solve_exact,
)
from .valuation import singleton_order

logger = logging.getLogger(__name__)

W1_ENUM_CAP = 6561  # opponent-profile budget for the threshold search: (K+1)**(n-1)

_TICKET_SHUFFLE_SEED = 0x7901D


@dataclass(frozen=True)
class Mechanism:
    """A named total map from instances to outcomes, with class metadata."""

    name: str
    valuation_class: str
    fn: Callable[[Instance], Outcome]
    kind: str = "custom"
    solver: Solver | None = None

    def __call__(self, instance: Instance) -> Outcome:
        return self.fn(instance)


def canonical_gt(position: int, n: int, budget: Ticks) -> tuple[Ticks, ...]:
    """Golden-ticket profile of the other agents for the agent at ``position``.

    Positions are 0-based in singleton-value order: everyone ranked above the
    holder bids zero, everyone ranked below bids the full budget.
    """
    if not 0 <= position < n:
        raise IndexError(f"position {position} out of range")
    return (0,) * position + (budget,) * (n - 1 - position)


def canonical_ws(position: int, n: int, budget: Ticks) -> tuple[Ticks, ...]:
    """Wooden-spoon profile of the others: all zeros, or all budget for the last agent."""
    if not 0 <= position < n:
        raise IndexError(f"position {position} out of range")
    if position < n - 1:
        return (0,) * (n - 1)
    return (budget,) * (n - 1)


def _drop(profile: tuple[Ticks, ...], i: int) -> tuple[Ticks, ...]:
    return profile[:i] + profile[i + 1 :]


def _first_ticket_match(
    costs: tuple[Ticks, ...],
    budget: Ticks,
    pattern: Callable[[int, int, Ticks], tuple[Ticks, ...]],
) -> int | None:
    n = len(costs)
    for i in range(n):
        if costs[i] < budget and _drop(costs, i) == pattern(i, n, budget):
            return i
    return None


# Cost-independent work, done once per valuation through ``per_valuation``.


def _strong_agent(valuation: SetValuation, family: FeasibilityFamily | None, n: int) -> int | None:
    """The strong agent of ``max_or_willy_wonka`` (no family) or of its
    constrained variant, or None when there is none.

    The candidate maximizes V({i}) over the value of the best solution without
    i -- V(N - {i}) without a family, the best family member without i with
    one -- counting a zero denominator as an infinite ratio, ties to the
    lowest index.  It is strong when the ratio is at least 1.
    """
    if family is None:
        everyone = frozenset(range(n))

        def rest_value(i: int) -> Fraction:
            return valuation.value(everyone - {i})
    else:
        structural = Instance(n, valuation, 0, (0,) * n)

        def rest_value(i: int) -> Fraction:
            sol = opt_force(structural, family, i, "exclude")
            return sol.value if sol is not None else Fraction(0)

    best_i = 0
    best_key: tuple[int, Fraction] | None = None
    best_num = Fraction(0)
    best_den = Fraction(0)
    for i in range(n):
        num = valuation.value((i,))
        den = rest_value(i)
        key = (1, Fraction(0)) if den == 0 else (0, num / den)
        if best_key is None or key > best_key:
            best_key, best_i, best_num, best_den = key, i, num, den
    return best_i if best_num >= best_den else None


def _renamed(valuation: SetValuation, family: None, n: int) -> tuple[tuple[int, ...], SetValuation]:
    """The singleton order and the valuation seen in positions of that order."""
    order = singleton_order(valuation, n)
    if order == tuple(range(n)):
        return order, valuation
    return order, _RenamedValuation(valuation, order)


def _willy_wonka_core(
    instance: Instance,
    solver: Solver,
    *,
    use_gt: bool = True,
    use_ws: bool = True,
    gt_cap: Ticks = 0,
) -> Outcome:
    n, budget = instance.n, instance.budget
    order, _ = per_valuation(_renamed, instance.valuation, None, n)
    renamed = tuple(instance.costs[a] for a in order)
    x = [0] * n
    p = [0] * n

    gt = _first_ticket_match(renamed, budget, canonical_gt) if use_gt else None
    if gt is not None:
        x[order[gt]] = 1
        p[order[gt]] = budget - gt_cap
        for j in range(gt):
            x[order[j]] = 1
        return Outcome(tuple(x), tuple(p))

    ws = _first_ticket_match(renamed, budget, canonical_ws) if use_ws else None
    if ws is not None:
        if ws == n - 1:
            x[order[0]] = 1
            p[order[0]] = budget
        else:
            for j in range(n):
                if j != ws:
                    x[order[j]] = 1
        return Outcome(tuple(x), tuple(p))

    sol = solver.solve(instance)
    for a in sol.chosen:
        x[a] = 1
        p[a] = instance.costs[a]
    return Outcome(tuple(x), tuple(p))


def willy_wonka(instance: Instance, solver: Solver = EXACT_SOLVER) -> Outcome:
    """Ticket-first mechanism: golden tickets, then wooden spoons, then pay-as-bid packing."""
    return _willy_wonka_core(instance, solver)


def max_or_willy_wonka(instance: Instance, solver: Solver = EXACT_SOLVER) -> Outcome:
    """Select a single strong agent at the full budget when one dominates the rest,
    otherwise fall through to the ticket mechanism."""
    n = instance.n
    istar = per_valuation(_strong_agent, instance.valuation, None, n)
    if istar is not None:
        x = [0] * n
        p = [0] * n
        x[istar] = 1
        p[istar] = instance.budget
        return Outcome(tuple(x), tuple(p))
    return _willy_wonka_core(instance, solver)


def max_or_willy_wonka_constrained(
    instance: Instance,
    family: FeasibilityFamily,
    solver: Solver = EXACT_SOLVER,
) -> Outcome:
    """Feasibility-constrained variant: forced-in/forced-out packing optima replace
    the fixed ticket allocations, and the strong-agent test compares against the
    best feasible solution without the candidate."""
    n, budget = instance.n, instance.budget
    v = instance.valuation
    istar = per_valuation(_strong_agent, v, family, n)
    x = [0] * n
    p = [0] * n
    if istar is not None:
        if family.contains(frozenset((istar,))):
            x[istar] = 1
            p[istar] = budget
        else:
            logger.info("strong-agent singleton %d is not family-feasible; allocating nothing", istar)
        return Outcome(tuple(x), tuple(p))

    order, _ = per_valuation(_renamed, v, None, n)
    renamed = tuple(instance.costs[a] for a in order)

    gt = _first_ticket_match(renamed, budget, canonical_gt)
    if gt is not None:
        holder = order[gt]
        universe = frozenset(order[: gt + 1])
        sol = opt_force(instance, family, holder, "include", universe)
        if sol is None:
            logger.info("golden ticket of agent %d has no feasible forced allocation", holder)
            return Outcome(tuple(x), tuple(p))
        for a in sol.chosen:
            x[a] = 1
        p[holder] = budget
        return Outcome(tuple(x), tuple(p))

    ws = _first_ticket_match(renamed, budget, canonical_ws)
    if ws is not None:
        sol = opt_force(instance, family, order[ws], "exclude")
        if sol is not None:
            for a in sol.chosen:
                x[a] = 1
                p[a] = instance.costs[a]
        return Outcome(tuple(x), tuple(p))

    sol = solver.solve(instance, family)
    for a in sol.chosen:
        x[a] = 1
        p[a] = instance.costs[a]
    return Outcome(tuple(x), tuple(p))


@dataclass(frozen=True)
class _RenamedValuation:
    """View of an oracle under a positional renaming (position -> original agent)."""

    base: SetValuation
    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    def value(self, subset: Iterable[int]) -> Fraction:
        return self.base.value(tuple(self.order[k] for k in subset))


def x1_select(
    costs: tuple[Ticks, ...],
    budget: Ticks,
    valuation: SetValuation,
    family: FeasibilityFamily | None = None,
) -> PackingSolution:
    """Golden-ratio selection rule (agents assumed pre-sorted by singleton value).

    Picks the best solution that skips agent 0 whenever doing so costs less
    than a golden-ratio factor, and the overall optimum otherwise.
    """
    n = len(costs)
    inst = Instance(n, valuation, budget, tuple(costs))
    star = solve_exact(inst, family)
    if n == 1:
        return star
    runner_up = opt_force(inst, family, 0, "exclude")
    assert runner_up is not None  # the empty set always qualifies
    if runner_up.value == 0:
        return star
    if ratio_below_phi(star.value, runner_up.value):
        return runner_up
    return star


@lru_cache(maxsize=CACHE_MAXSIZE)
def compute_w1(valuation: SetValuation, budget: Ticks, n: int) -> Ticks:
    """Largest grid declaration that keeps agent 0 selected against every opponent profile.

    Returns 0 when no declaration (not even 0) is universally safe.  Selection
    under the golden-ratio rule is downward-closed in agent 0's cost, so the
    scan walks the grid from the top and stops at the first safe value.
    """
    if n == 1:
        return budget
    grid = CostGrid(budget)
    if grid.profile_count(n - 1) > W1_ENUM_CAP:
        raise GuardExceeded(
            f"threshold search needs {grid.profile_count(n - 1)} opponent profiles, cap is {W1_ENUM_CAP}"
        )
    for d in range(budget, -1, -1):
        if all(
            0 in x1_select((d,) + rest, budget, valuation).chosen
            for rest in enumerate_profiles(grid, n - 1)
        ):
            return d
    return 0


def golden_mechanism(instance: Instance, grid: CostGrid | None = None) -> Outcome:
    """Golden-ratio mechanism: proxy the top agent's cost up to their safe
    threshold, select via the golden-ratio rule, pay proxied bids.

    When every agent except the runner-up position bids the full budget, the
    mechanism instead selects a true packing optimum at bid payments.
    """
    n, budget = instance.n, instance.budget
    if grid is not None and grid.budget != budget:
        raise ValueError("grid resolution must match the instance budget")
    order, renamed_val = per_valuation(_renamed, instance.valuation, None, n)
    renamed = tuple(instance.costs[a] for a in order)
    x = [0] * n
    p = [0] * n

    if all(renamed[i] == budget for i in range(n) if i != 1):
        sol = solve_exact(Instance(n, renamed_val, budget, renamed))
        for k in sol.chosen:
            x[order[k]] = 1
            p[order[k]] = renamed[k]
        return Outcome(tuple(x), tuple(p))

    w1 = compute_w1(renamed_val, budget, n)
    proxied = (max(w1, renamed[0]),) + renamed[1:]
    sol = x1_select(proxied, budget, renamed_val)
    for k in sol.chosen:
        x[order[k]] = 1
        p[order[k]] = proxied[k]
    return Outcome(tuple(x), tuple(p))


@dataclass(frozen=True)
class TicketSpec:
    """One full assignment of golden-ticket and wooden-spoon profiles per agent."""

    n: int
    k: int
    golden: tuple[tuple[Ticks, ...], ...]
    wooden: tuple[tuple[Ticks, ...], ...]

    def __post_init__(self) -> None:
        if len(self.golden) != self.n or len(self.wooden) != self.n:
            raise ValueError("need one golden ticket and one wooden spoon per agent")
        for vec in itertools.chain(self.golden, self.wooden):
            if len(vec) != self.n - 1 or any(not 0 <= t <= self.k for t in vec):
                raise ValueError("ticket profiles must be opponent profiles on the grid")


def _gt_profiles_coincide(
    vec_m: tuple[Ticks, ...], m: int, vec_i: tuple[Ticks, ...], i: int, n: int
) -> bool:
    """Whether two agents' golden tickets admit a common full cost profile."""
    for a in range(n):
        if a == m or a == i:
            continue
        pm = a if a < m else a - 1
        pi = a if a < i else a - 1
        if vec_m[pm] != vec_i[pi]:
            return False
    return True


@lru_cache(maxsize=CACHE_MAXSIZE)
def make_ticket_family(n: int, k: int, ell: int) -> tuple[TicketSpec, ...]:
    """Deterministically build ``ell`` ticket specs with all profiles pairwise distinct.

    Within each spec the golden tickets are additionally chosen so that no two
    of them can fire on the same full profile (possible for three or more
    agents; for two agents such a coincidence is unavoidable and accepted).
    """
    if n < 2:
        raise ValueError("ticket specs need at least two agents")
    if ell < 1:
        raise ValueError("need at least one spec")
    capacity = (k + 1) ** (n - 1)
    if capacity < 2 * n * ell:
        raise GuardExceeded(
            f"grid supports {capacity} distinct opponent profiles, "
            f"but {ell} specs need {2 * n * ell}"
        )
    pool = list(itertools.product(range(k + 1), repeat=n - 1))
    random.Random(_TICKET_SHUFFLE_SEED).shuffle(pool)
    specs: list[TicketSpec] = []
    for _ in range(ell):
        golden: list[tuple[Ticks, ...]] = []
        for i in range(n):
            pick = None
            for idx, cand in enumerate(pool):
                if n >= 3 and any(
                    _gt_profiles_coincide(g, m, cand, i, n) for m, g in enumerate(golden)
                ):
                    continue
                pick = idx
                break
            if pick is None:
                raise GuardExceeded("ran out of non-interfering golden-ticket profiles")
            golden.append(pool.pop(pick))
        wooden = tuple(pool.pop(0) for _ in range(n))
        specs.append(TicketSpec(n, k, tuple(golden), wooden))
    return tuple(specs)


def make_ticket_spec(
    n: int,
    grid: CostGrid,
    *,
    mode: str = "continuous_draw",
    seed: int | None = None,
    ell: int | None = None,
    index: int | None = None,
) -> TicketSpec:
    """Draw a ticket spec from the grid, or pick one from a disjoint finite family."""
    if n < 2:
        raise ValueError("ticket specs need at least two agents")
    if mode == "continuous_draw":
        rng = random.Random(seed)
        points = list(grid.points())

        def draw() -> tuple[Ticks, ...]:
            return tuple(rng.choice(points) for _ in range(n - 1))

        golden = tuple(draw() for _ in range(n))
        wooden = tuple(draw() for _ in range(n))
        return TicketSpec(n, grid.k, golden, wooden)
    if mode == "finite_family":
        if ell is None or index is None:
            raise ValueError("finite_family mode needs ell and index")
        family = make_ticket_family(n, grid.k, ell)
        if not 0 <= index < ell:
            raise ValueError(f"spec index {index} out of range for ell={ell}")
        return family[index]
    raise ValueError(f"unknown ticket mode {mode!r}")


def randomized_mr(instance: Instance, spec: TicketSpec, solver: Solver = EXACT_SOLVER) -> Outcome:
    """One deterministic member of the randomized family: fire any matching ticket
    (golden before wooden, lowest agent first), otherwise solve and pay bids."""
    if spec.n != instance.n or spec.k != instance.budget:
        raise ValueError("ticket spec was built for a different agent count or grid")
    n, budget = instance.n, instance.budget
    c = instance.costs
    x = [0] * n
    p = [0] * n
    for i in range(n):
        if _drop(c, i) == spec.golden[i]:
            x[i] = 1
            p[i] = budget
            return Outcome(tuple(x), tuple(p))
    for i in range(n):
        if _drop(c, i) == spec.wooden[i]:
            return Outcome(tuple(x), tuple(p))
    sol = solver.solve(instance)
    for a in sol.chosen:
        x[a] = 1
        p[a] = c[a]
    return Outcome(tuple(x), tuple(p))


# Mechanism objects for batteries, mutants, and the CLI.


def mech_willy_wonka(solver: Solver = EXACT_SOLVER) -> Mechanism:
    return Mechanism(
        "willy_wonka", "monotone", lambda inst: willy_wonka(inst, solver),
        kind="willy_wonka", solver=solver,
    )


def mech_moww(solver: Solver = EXACT_SOLVER) -> Mechanism:
    return Mechanism(
        "max_or_willy_wonka", "subadditive", lambda inst: max_or_willy_wonka(inst, solver),
        kind="max_or_willy_wonka", solver=solver,
    )


def mech_moww_constrained(family: FeasibilityFamily, solver: Solver = EXACT_SOLVER) -> Mechanism:
    return Mechanism(
        "max_or_willy_wonka_constrained",
        "subadditive",
        lambda inst: max_or_willy_wonka_constrained(inst, family, solver),
        kind="max_or_willy_wonka_constrained",
        solver=solver,
    )


def mech_golden() -> Mechanism:
    return Mechanism("golden_mechanism", "subadditive", golden_mechanism, kind="golden_mechanism")


def mech_mr(spec: TicketSpec, solver: Solver = EXACT_SOLVER) -> Mechanism:
    return Mechanism(
        f"mr[{spec.n}x{spec.k}]", "monotone", lambda inst: randomized_mr(inst, spec, solver),
        kind="randomized_mr", solver=solver,
    )


def mech_constant_reject() -> Mechanism:
    def fn(inst: Instance) -> Outcome:
        return Outcome((0,) * inst.n, (0,) * inst.n)

    return Mechanism("constant_reject", "monotone", fn, kind="constant")


def mech_posted_price(price: Ticks) -> Mechanism:
    """Select every agent bidding at most the posted price; pay the price itself."""

    def fn(inst: Instance) -> Outcome:
        x = tuple(1 if c <= price else 0 for c in inst.costs)
        p = tuple(price if sel else 0 for sel in x)
        return Outcome(x, p)

    return Mechanism(f"posted_price[{price}]", "monotone", fn, kind="posted_price")
