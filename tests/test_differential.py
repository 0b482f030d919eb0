"""The ranked exact solver and the per-valuation memo against slow references.

``solve_exact``, ``opt_force`` and ``forcing_gap_scan`` must return exactly
what plain enumeration with a zero-cost pass returns, for table and additive
oracles alike, and a mechanism's outcome table must not depend on whether its
valuation's memo entry is warm (one shared object) or cold (a fresh copy per
profile).
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetmech import packing
from budgetmech.domain import CostGrid, Instance, enumerate_profiles
from budgetmech.mechanisms import (
    make_ticket_family,
    mech_golden,
    mech_moww,
    mech_moww_constrained,
    mech_mr,
)
from budgetmech.packing import (
    CACHE_MAXSIZE,
    FeasibilityFamily,
    forcing_gap_scan,
    opt_force,
    per_valuation,
    solve_additive_dp,
    solve_exact,
)
from budgetmech.valuation import TableValuation, make_additive, random_subadditive

from helpers import reference_best_subset, reference_forcing_gap_scan


def _members(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


@st.composite
def monotone_tables(draw, max_n: int = 6) -> TableValuation:
    """A monotone normalized table; small steps make many value ties."""
    n = draw(st.integers(1, max_n))
    den = draw(st.integers(1, 3))
    steps = draw(st.lists(st.integers(0, 3), min_size=2**n, max_size=2**n))
    values = [Fraction(0)] * 2**n
    for mask in range(1, 2**n):
        below = max(values[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
        values[mask] = below + Fraction(steps[mask], den)
    return TableValuation(n, tuple(values))


@st.composite
def additive_valuations(draw, max_n: int = 6):
    """Additive values with mixed denominators, zeros and ties."""
    n = draw(st.integers(1, max_n))
    return make_additive(
        draw(st.lists(st.fractions(0, 4, max_denominator=4), min_size=n, max_size=n))
    )


@st.composite
def packing_cases(draw):
    """A valuation, a family (often not downward-closed) or none, and costs
    with zero-cost agents likely."""
    v = draw(st.one_of(monotone_tables(), additive_valuations()))
    n = v.n
    family = None
    if draw(st.booleans()):
        masks = draw(st.sets(st.integers(1, 2**n - 1), max_size=2**n - 1))
        family = FeasibilityFamily.from_iterable(n, [_members(m) for m in masks | {0}])
    k = draw(st.integers(1, 6))
    costs = tuple(draw(st.lists(st.integers(0, k), min_size=n, max_size=n)))
    return Instance(n, v, k, costs), family


@settings(max_examples=400, deadline=None)
@given(case=packing_cases())
def test_solve_exact_matches_reference(case):
    inst, family = case
    got = solve_exact(inst, family)
    assert got == reference_best_subset(inst, family, frozenset(range(inst.n)))


@settings(max_examples=400, deadline=None)
@given(case=packing_cases(), data=st.data())
def test_opt_force_matches_reference(case, data):
    inst, family = case
    agent = data.draw(st.integers(0, inst.n - 1))
    mode = data.draw(st.sampled_from(("include", "exclude")))
    universe = _members(data.draw(st.integers(0, 2**inst.n - 1)))
    if data.draw(st.booleans()):
        got = opt_force(inst, family, agent, mode, universe)
    else:
        got, universe = opt_force(inst, family, agent, mode), frozenset(range(inst.n))
    assert got == reference_best_subset(inst, family, universe, **{mode: agent})


@settings(max_examples=80, deadline=None)
@given(case=packing_cases())
def test_forcing_gap_scan_matches_reference(case):
    inst, family = case
    got = forcing_gap_scan(inst.valuation, family, inst.n)
    assert got == reference_forcing_gap_scan(inst.valuation, family, inst.n)


@pytest.mark.parametrize("n", [13, 16])
def test_solve_exact_matches_dp_above_table_size(n):
    """Past the 12-agent cap on table oracles only additive ones remain; the
    knapsack DP is exact for them and breaks ties the same way."""
    rng = random.Random(n)
    v = make_additive([Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)])
    for budget in (0, 7, 15):
        costs = tuple(rng.randint(0, min(budget, 6)) for _ in range(n))
        inst = Instance(n, v, budget, costs)
        assert solve_exact(inst) == solve_additive_dp(inst)


def _table(mech_for, valuation, family, grid, n, cold):
    """The outcome table, with one shared valuation (warm memo) or a fresh copy
    of the valuation and family for every profile (cold memo)."""
    rows = {}
    for profile in enumerate_profiles(grid, n):
        v, fam = (copy.copy(valuation), copy.copy(family)) if cold else (valuation, family)
        rows[profile] = mech_for(fam)(Instance(n, v, grid.budget, profile))
    return rows


# (mechanism builder from a family, n, k, family as bitmasks or None)
MECHANISMS = {
    "moww": (lambda fam: mech_moww(), 4, 3, None),
    "moww-constrained": (lambda fam: mech_moww_constrained(fam), 4, 3, (0, 1, 2, 4, 6, 9, 12, 15)),
    "golden": (lambda fam: mech_golden(), 3, 4, None),
    "mr": (lambda fam: mech_mr(make_ticket_family(3, 4, 2)[1]), 3, 4, None),
}


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_outcome_tables_agree_with_warm_and_cold_memo(name, seed):
    mech_for, n, k, masks = MECHANISMS[name]
    valuation = random_subadditive(n, random.Random(seed))
    family = None if masks is None else FeasibilityFamily.from_iterable(n, map(_members, masks))
    grid = CostGrid(k)
    warm = _table(mech_for, valuation, family, grid, n, cold=False)
    cold = _table(mech_for, valuation, family, grid, n, cold=True)
    assert warm == cold


def test_memo_is_bounded():
    for a in range(CACHE_MAXSIZE + 5):
        solve_exact(Instance(2, make_additive([a, 1]), 2, (1, 1)))
    assert len(packing._MEMO) <= CACHE_MAXSIZE


def test_memo_is_keyed_by_identity_not_value():
    built = []

    def build(valuation, family, n):
        built.append(valuation)
        return len(built)

    first, twin = make_additive([3, 1]), make_additive([3, 1])
    assert first == twin and first is not twin
    assert per_valuation(build, first, None, 2) == 1
    assert per_valuation(build, first, None, 2) == 1
    assert per_valuation(build, twin, None, 2) == 2


def test_non_monotone_table_is_refused():
    with pytest.raises(ValueError, match="not monotone"):
        TableValuation(2, (Fraction(0), Fraction(3), Fraction(1), Fraction(2)))
