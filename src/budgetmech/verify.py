"""Exhaustive grid checkers for incentive properties, thresholds, and ratios.

Every sup/inf in the property definitions is an attained max/min on the finite
cost grid, so all checks are exact equality tests.  Failed checks carry a
witness that re-verifies with direct mechanism calls; mutant mechanisms give
each checker a negative control.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .domain import (
    CostGrid,
    GuardExceeded,
    Instance,
    Outcome,
    SetValuation,
    Ticks,
    enumerate_profiles,
    utility,
)
from .mechanisms import Mechanism, TicketSpec, _willy_wonka_core, randomized_mr
from .packing import EXACT_SOLVER, FeasibilityFamily, solve_exact

TABLE_PROFILE_CAP = 200_000

MUTATIONS = (
    "no_golden_ticket",
    "no_wooden_spoon",
    "underpay",
    "consolation",
    "capped_gt",
    "double_B",
    "always_select_all",
)

MechanismFn = Callable[[Instance], Outcome]


@dataclass(frozen=True)
class Witness:
    """A counterexample point: who, with which true cost, declared what, against whom."""

    agent: int | None
    true_cost: Ticks | None
    declared: Ticks | None
    profile: tuple[Ticks, ...]


@dataclass(frozen=True)
class PropertyReport:
    prop: str
    holds: bool
    witness: Witness | None
    profiles_scanned: int


@dataclass(frozen=True)
class ThresholdCertificate:
    """Per-agent threshold and which boundary disjunct held at it."""

    thresholds: tuple[Ticks, ...]
    boundary: tuple[str, ...]


@dataclass(frozen=True)
class EquivalenceLine:
    name: str
    direct: bool
    structural: bool

    @property
    def agree(self) -> bool:
        return self.direct == self.structural


@dataclass(frozen=True)
class CrosscheckReport:
    lines: tuple[EquivalenceLine, ...]
    skipped: tuple[str, ...]

    @property
    def all_agree(self) -> bool:
        return all(line.agree for line in self.lines)


class PreconditionFailed(Exception):
    """A crosscheck precondition property does not hold for this mechanism."""

    def __init__(self, prop: str):
        super().__init__(f"precondition property {prop!r} fails; refusing the crosscheck")
        self.prop = prop


def outcome_table(
    mech: MechanismFn,
    valuation: SetValuation,
    grid: CostGrid,
    n: int,
) -> dict[tuple[Ticks, ...], Outcome]:
    """Evaluate the mechanism on every grid profile once, in scan order."""
    count = grid.profile_count(n)
    if count > TABLE_PROFILE_CAP:
        raise GuardExceeded(f"grid scan needs {count} profiles, cap is {TABLE_PROFILE_CAP}")
    budget = grid.budget
    return {c: mech(Instance(n, valuation, budget, c)) for c in enumerate_profiles(grid, n)}


@dataclass(slots=True)
class _PaymentStats:
    """Payment extremes of one (agent, declared cost, allocation) cell, each with
    the first profile in scan order that attains it."""

    max_pay: Ticks
    max_at: tuple[Ticks, ...]
    min_pay: Ticks
    min_at: tuple[Ticks, ...]


# A slot holds agent i's two cells at declaration d, indexed by allocation:
# [rejected, selected].  A cell is None when that allocation never happens there.
_Slot = list[_PaymentStats | None]


def _payment_stats(
    rows: Iterable[tuple[tuple[Ticks, ...], Outcome]], n: int, k: int
) -> list[list[_Slot]]:
    """Fold (profile, outcome) rows in scan order into one slot per (agent, declared cost)."""
    stats = [[[None, None] for _ in range(k + 1)] for _ in range(n)]
    for profile, out in rows:
        for i in range(n):
            slot = stats[i][profile[i]]
            x = out.allocation[i]
            p = out.payments[i]
            cell = slot[x]
            if cell is None:
                slot[x] = _PaymentStats(p, profile, p, profile)
            elif p > cell.max_pay:
                cell.max_pay, cell.max_at = p, profile
            elif p < cell.min_pay:
                cell.min_pay, cell.min_at = p, profile
    return stats


def _max_any(slot: _Slot) -> Ticks:
    return max(cell.max_pay for cell in slot if cell is not None)


def _min_any(slot: _Slot) -> Ticks:
    return min(cell.min_pay for cell in slot if cell is not None)


def _ensure_table(mech, valuation, grid, n, table):
    if table is None:
        return outcome_table(mech, valuation, grid, n)
    return table


def check_ir(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table=None
) -> PropertyReport:
    """Selected agents are paid at least their declared cost, on every profile."""
    table = _ensure_table(mech, valuation, grid, n, table)
    for profile, out in table.items():
        for i in range(n):
            if out.payments[i] < profile[i] * out.allocation[i]:
                return PropertyReport("ir", False, Witness(i, None, profile[i], profile), len(table))
    return PropertyReport("ir", True, None, len(table))


def check_np(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table=None
) -> PropertyReport:
    """Unselected agents are paid nothing, on every profile."""
    table = _ensure_table(mech, valuation, grid, n, table)
    for profile, out in table.items():
        for i in range(n):
            if not out.allocation[i] and out.payments[i] != 0:
                return PropertyReport("np", False, Witness(i, None, profile[i], profile), len(table))
    return PropertyReport("np", True, None, len(table))


def check_bf(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table=None
) -> PropertyReport:
    """Total payments never exceed the budget."""
    table = _ensure_table(mech, valuation, grid, n, table)
    for profile, out in table.items():
        if out.total_payment() > grid.budget:
            return PropertyReport("bf", False, Witness(None, None, None, profile), len(table))
    return PropertyReport("bf", True, None, len(table))


def _sup_utility(stats: list[list[_Slot]], i: int, d: Ticks, t: Ticks):
    """Best-case utility of agent i with true cost t when declaring d, plus arg profile."""
    rej, sel = stats[i][d]
    best = None
    arg = None
    if rej is not None:
        best = Fraction(rej.max_pay)
        arg = rej.max_at
    if sel is not None:
        cand = Fraction(sel.max_pay - t)
        if best is None or cand > best:
            best, arg = cand, sel.max_at
    return best, arg


def _inf_utility(stats: list[list[_Slot]], i: int, d: Ticks, t: Ticks):
    """Worst-case utility of agent i with true cost t when declaring d, plus arg profile."""
    rej, sel = stats[i][d]
    worst = None
    arg = None
    if rej is not None:
        worst = Fraction(rej.min_pay)
        arg = rej.min_at
    if sel is not None:
        cand = Fraction(sel.min_pay - t)
        if worst is None or cand < worst:
            worst, arg = cand, sel.min_at
    return worst, arg


def check_bnom_direct(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table=None
) -> PropertyReport:
    """Truth-telling maximizes the best-case utility, for every true cost and misreport.

    The witness profile is the opponents' profile where the misreport attains
    its best case; re-verification compares one call there against a rescan of
    the truthful best case.
    """
    table = _ensure_table(mech, valuation, grid, n, table)
    stats = _payment_stats(table.items(), n, grid.k)
    for i in range(n):
        for t in grid.points():
            truth_sup, _ = _sup_utility(stats, i, t, t)
            for d in grid.points():
                if d == t:
                    continue
                lie_sup, lie_arg = _sup_utility(stats, i, d, t)
                if lie_sup is not None and (truth_sup is None or truth_sup < lie_sup):
                    return PropertyReport(
                        "bnom", False, Witness(i, t, d, lie_arg), len(table)
                    )
    return PropertyReport("bnom", True, None, len(table))


def check_wnom_direct(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table=None
) -> PropertyReport:
    """Truth-telling maximizes the worst-case utility, for every true cost and misreport.

    The witness profile is the opponents' profile where truth-telling attains
    its worst case; re-verification compares one call there against a rescan of
    the misreport's worst case.
    """
    table = _ensure_table(mech, valuation, grid, n, table)
    stats = _payment_stats(table.items(), n, grid.k)
    for i in range(n):
        for t in grid.points():
            truth_inf, truth_arg = _inf_utility(stats, i, t, t)
            for d in grid.points():
                if d == t:
                    continue
                lie_inf, _ = _inf_utility(stats, i, d, t)
                if truth_inf < lie_inf:
                    return PropertyReport(
                        "wnom", False, Witness(i, t, d, truth_arg), len(table)
                    )
    return PropertyReport("wnom", True, None, len(table))


def check_restricted_gt_payments(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table=None
) -> PropertyReport:
    """Every declaration either never wins (and the global best payment is at most
    the declaration) or can win the global best payment outright."""
    table = _ensure_table(mech, valuation, grid, n, table)
    stats = _payment_stats(table.items(), n, grid.k)
    for i in range(n):
        slots = stats[i]
        global_max = max(_max_any(slot) for slot in slots)
        rej, sel = next(slot for slot in slots if _max_any(slot) == global_max)
        arg = sel.max_at if sel is not None and sel.max_pay == global_max else rej.max_at
        for d, (_, sel) in enumerate(slots):
            if sel is None and global_max <= d:
                continue
            if sel is not None and sel.max_pay == global_max:
                continue
            return PropertyReport("restricted_gt", False, Witness(i, None, d, arg), len(table))
    return PropertyReport("restricted_gt", True, None, len(table))


class _ThresholdRule(NamedTuple):
    """How one threshold property tests a declaration's slot against a candidate b.

    A threshold sits at b when every declaration above b is ``beyond`` it, every
    one below is ``pinned`` to b, and b itself ``pays`` exactly b (first label)
    or is ``beyond`` (second label).
    """

    prop: str
    beyond: Callable[[_Slot], bool]
    pinned: Callable[[_Slot, Ticks], bool]
    pays: Callable[[_Slot, Ticks], bool]
    labels: tuple[str, str]


# Golden ticket: never selected above, maximum payment exactly b below.
_GT_RULE = _ThresholdRule(
    "threshold_gt",
    lambda slot: slot[1] is None,
    lambda slot, b: _max_any(slot) == b,
    lambda slot, b: _max_any(slot) == b,
    ("max-payment", "never-selected"),
)
# Wooden spoon: rejectable above, always selected at minimum payment exactly b below.
_WS_RULE = _ThresholdRule(
    "threshold_ws",
    lambda slot: slot[0] is not None,
    lambda slot, b: slot[0] is None and slot[1].min_pay == b,
    lambda slot, b: _min_any(slot) == b,
    ("min-payment", "sometimes-rejected"),
)
_THRESHOLD_RULES = {rule.prop: rule for rule in (_GT_RULE, _WS_RULE)}


def _threshold_search(slots: list[_Slot], rule: _ThresholdRule) -> tuple[Ticks, str] | None:
    """The lowest grid point that is a threshold for one agent's slots, with its label."""
    k = len(slots) - 1
    for b in range(k + 1):
        if all(rule.beyond(slots[d]) for d in range(b + 1, k + 1)) and all(
            rule.pinned(slots[d], b) for d in range(b)
        ):
            if rule.pays(slots[b], b):
                return b, rule.labels[0]
            if rule.beyond(slots[b]):
                return b, rule.labels[1]
    return None


def _check_threshold(
    rule: _ThresholdRule, mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table
) -> tuple[PropertyReport, ThresholdCertificate | None]:
    table = _ensure_table(mech, valuation, grid, n, table)
    stats = _payment_stats(table.items(), n, grid.k)
    found = []
    for i in range(n):
        hit = _threshold_search(stats[i], rule)
        if hit is None:
            return PropertyReport(rule.prop, False, Witness(i, None, None, ()), len(table)), None
        found.append(hit)
    thresholds, boundary = zip(*found)
    return PropertyReport(rule.prop, True, None, len(table)), ThresholdCertificate(thresholds, boundary)


def check_threshold_gt(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table=None
) -> tuple[PropertyReport, ThresholdCertificate | None]:
    """Search per agent for a golden-ticket threshold: never selected above it,
    maximum payment exactly the threshold below it, and one of the two at it."""
    return _check_threshold(_GT_RULE, mech, valuation, grid, n, table)


def check_threshold_ws(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table=None
) -> tuple[PropertyReport, ThresholdCertificate | None]:
    """Search per agent for a wooden-spoon threshold: rejectable above it, always
    selected at minimum payment exactly the threshold below it, one of the two at it."""
    return _check_threshold(_WS_RULE, mech, valuation, grid, n, table)


def characterization_crosscheck(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int, table=None
) -> CrosscheckReport:
    """Assert the grid equivalences between the direct incentive definitions and
    their threshold characterizations.

    Requires normalized payments throughout; the threshold equivalences
    additionally require individual rationality and are skipped without it.
    Any disagreement indicates a bug in this artifact, not in the mechanism.
    """
    table = _ensure_table(mech, valuation, grid, n, table)
    if not check_np(mech, valuation, grid, n, table).holds:
        raise PreconditionFailed("np")
    ir_ok = check_ir(mech, valuation, grid, n, table).holds

    bnom = check_bnom_direct(mech, valuation, grid, n, table)
    wnom = check_wnom_direct(mech, valuation, grid, n, table)
    rgt = check_restricted_gt_payments(mech, valuation, grid, n, table)

    lines = [EquivalenceLine("bnom<->restricted_gt_payments", bnom.holds, rgt.holds)]
    skipped: tuple[str, ...] = ()
    if ir_ok:
        tgt, _ = check_threshold_gt(mech, valuation, grid, n, table)
        tws, _ = check_threshold_ws(mech, valuation, grid, n, table)
        lines.append(EquivalenceLine("bnom<->threshold_gt", bnom.holds, tgt.holds))
        lines.append(EquivalenceLine("wnom<->threshold_ws", wnom.holds, tws.holds))
    else:
        skipped = ("bnom<->threshold_gt (needs ir)", "wnom<->threshold_ws (needs ir)")
    return CrosscheckReport(tuple(lines), skipped)


def value_ratio(best: Fraction, achieved: Fraction) -> Fraction | float:
    """Optimal value over achieved value; +inf when the mechanism scores zero
    against a positive optimum, 1 when both are zero."""
    if achieved == 0:
        return Fraction(1) if best == 0 else math.inf
    return best / achieved


def approx_ratio(
    mech: MechanismFn, instance: Instance, family: FeasibilityFamily | None = None
) -> Fraction | float:
    """The approximation ratio of one mechanism call (see ``value_ratio``)."""
    achieved = instance.valuation.value(mech(instance).selected())
    return value_ratio(solve_exact(instance, family).value, achieved)


def worst_case_ratio(
    mech: MechanismFn, valuation: SetValuation, grid: CostGrid, n: int,
    family: FeasibilityFamily | None = None, table=None,
) -> tuple[Fraction | float, tuple[Ticks, ...]]:
    """Maximum of the approximation ratio over every grid profile, with arg-max."""
    table = _ensure_table(mech, valuation, grid, n, table)
    worst: Fraction | float = Fraction(0)
    arg: tuple[Ticks, ...] = ()
    for profile, out in table.items():
        best = solve_exact(Instance(n, valuation, grid.budget, profile), family).value
        ratio = value_ratio(best, valuation.value(out.selected()))
        if ratio > worst:
            worst, arg = ratio, profile
    return worst, arg


def expected_ratio_over_specs(
    specs: Iterable[TicketSpec],
    valuation: SetValuation,
    profile: tuple[Ticks, ...],
    solver=None,
) -> Fraction | float:
    """Optimal value over the mean achieved value across one profile's spec draws."""
    solver = solver or EXACT_SOLVER
    specs = list(specs)
    n = specs[0].n
    budget = specs[0].k
    inst = Instance(n, valuation, budget, profile)
    best = solve_exact(inst).value
    total = Fraction(0)
    for spec in specs:
        out = randomized_mr(inst, spec, solver)
        total += valuation.value(out.selected())
    return value_ratio(best, total / len(specs))


def make_mutant(base: Mechanism, mutation: str, n: int | None = None) -> Mechanism:
    """Wrap or rebuild a mechanism with one named defect, as a negative control.

    Given the agent count ``n`` of the instances it will run on, a mutation
    that cannot run on ``n`` agents is refused here, not at its first call.
    """
    if mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    name = f"{base.name}+{mutation}"

    if mutation in ("no_golden_ticket", "no_wooden_spoon", "capped_gt"):
        if base.kind != "willy_wonka":
            raise ValueError(f"{mutation} is a structural edit of willy_wonka only")
        solver = base.solver
        assert solver is not None
        opts = {
            "no_golden_ticket": dict(use_gt=False),
            "no_wooden_spoon": dict(use_ws=False),
            "capped_gt": dict(gt_cap=1),
        }[mutation]
        fn = lambda inst: _willy_wonka_core(inst, solver, **opts)
        return Mechanism(name, base.valuation_class, fn, kind="mutant", solver=solver)

    if mutation == "underpay":
        def fn(inst: Instance) -> Outcome:
            out = base(inst)
            p = tuple(
                max(0, inst.costs[i] - 1) if out.allocation[i] else out.payments[i]
                for i in range(inst.n)
            )
            return Outcome(out.allocation, p)
    elif mutation == "consolation":
        def fn(inst: Instance) -> Outcome:
            out = base(inst)
            if not out.allocation[0]:
                return Outcome(out.allocation, (1,) + out.payments[1:])
            return out
    elif mutation == "double_B":
        too_few = "double_B needs at least two agents"
        if n is not None and n < 2:
            raise ValueError(too_few)

        def fn(inst: Instance) -> Outcome:
            if inst.n < 2:
                raise ValueError(too_few)
            out = base(inst)
            if all(c == 0 for c in inst.costs):
                x = (1, 1) + out.allocation[2:]
                p = (inst.budget, inst.budget) + out.payments[2:]
                return Outcome(x, p)
            return out
    else:  # always_select_all
        def fn(inst: Instance) -> Outcome:
            return Outcome((1,) * inst.n, inst.costs)

    return Mechanism(name, base.valuation_class, fn, kind="mutant", solver=base.solver)


def reverify_witness(
    report: PropertyReport,
    mech: MechanismFn,
    valuation: SetValuation,
    grid: CostGrid,
    n: int,
) -> bool:
    """Confirm a failure witness with fresh mechanism calls, one per quantifier point."""
    if report.holds or report.witness is None:
        return False
    w = report.witness
    budget = grid.budget

    def call(profile: tuple[Ticks, ...]) -> Outcome:
        return mech(Instance(n, valuation, budget, profile))

    if report.prop == "ir":
        out = call(w.profile)
        return out.payments[w.agent] < w.profile[w.agent] * out.allocation[w.agent]
    if report.prop == "np":
        out = call(w.profile)
        return not out.allocation[w.agent] and out.payments[w.agent] > 0
    if report.prop == "bf":
        return call(w.profile).total_payment() > budget
    if report.prop == "bnom":
        lie_u = utility(w.true_cost, call(w.profile), w.agent)
        truth_sup = max(
            utility(w.true_cost, call(p), w.agent) for p in _declaring(grid, n, w.agent, w.true_cost)
        )
        return lie_u > truth_sup
    if report.prop == "wnom":
        truth_u = utility(w.true_cost, call(w.profile), w.agent)
        lie_inf = min(
            utility(w.true_cost, call(p), w.agent) for p in _declaring(grid, n, w.agent, w.declared)
        )
        return lie_inf > truth_u
    if report.prop == "restricted_gt":
        # The witness profile attains the agent's best payment p*; the declared
        # cost must then be never selected with p* > d, or win less than p*.
        best = call(w.profile).payments[w.agent]
        outs = [call(p) for p in _declaring(grid, n, w.agent, w.declared)]
        won = [out.payments[w.agent] for out in outs if out.allocation[w.agent]]
        return best > w.declared if not won else max(won) < best
    if report.prop in _THRESHOLD_RULES:
        fresh = ((p, call(p)) for p in enumerate_profiles(grid, n))
        slots = _payment_stats(fresh, n, grid.k)[w.agent]
        return _threshold_search(slots, _THRESHOLD_RULES[report.prop]) is None
    raise ValueError(f"no re-verification rule for property {report.prop!r}")


def _declaring(grid: CostGrid, n: int, i: int, d: Ticks) -> list[tuple[Ticks, ...]]:
    """Every grid profile in which agent i declares d, in scan order."""
    if n == 1:
        return [(d,)]
    return [rest[:i] + (d,) + rest[i:] for rest in enumerate_profiles(grid, n - 1)]
