from __future__ import annotations

import random
from fractions import Fraction

import pytest

from budgetmech.domain import CostGrid, GuardExceeded, Instance, Outcome, enumerate_profiles
from budgetmech.mechanisms import (
    CACHE_MAXSIZE,
    canonical_gt,
    canonical_ws,
    compute_w1,
    golden_mechanism,
    make_ticket_family,
    make_ticket_spec,
    max_or_willy_wonka,
    max_or_willy_wonka_constrained,
    mech_posted_price,
    randomized_mr,
    willy_wonka,
    x1_select,
)
from budgetmech.packing import FeasibilityFamily
from budgetmech.valuation import make_additive, random_subadditive

from helpers import random_instances


def test_golden_ticket_profiles_for_three_agents():
    assert canonical_gt(0, 3, 4) == (4, 4)
    assert canonical_gt(1, 3, 4) == (0, 4)
    assert canonical_gt(2, 3, 4) == (0, 0)


def test_wooden_spoon_profiles():
    assert canonical_ws(0, 3, 4) == (0, 0)
    assert canonical_ws(2, 3, 4) == (4, 4)
    assert canonical_ws(0, 2, 4) == (0,)


def test_ww_all_zero_profile_fires_last_agents_ticket():
    out = willy_wonka(Instance(3, make_additive([3, 2, 1]), 4, (0, 0, 0)))
    assert out == Outcome((1, 1, 1), (0, 0, 4))


def test_ww_first_agents_spoon_rejects_only_them():
    out = willy_wonka(Instance(3, make_additive([3, 2, 1]), 4, (2, 0, 0)))
    assert out == Outcome((0, 1, 1), (0, 0, 0))


def test_ww_last_agents_spoon_pays_top_agent():
    out = willy_wonka(Instance(3, make_additive([3, 2, 1]), 4, (4, 4, 2)))
    assert out == Outcome((1, 0, 0), (4, 0, 0))


def test_ww_default_branch_pays_bids():
    out = willy_wonka(Instance(3, make_additive([3, 2, 1]), 4, (1, 2, 1)))
    assert out == Outcome((1, 1, 1), (1, 2, 1))


def test_ww_reports_in_original_indexing():
    # singleton order is (1, 2, 0); the top agent's ticket needs both others at B
    out = willy_wonka(Instance(3, make_additive([1, 3, 2]), 4, (4, 1, 4)))
    assert out == Outcome((0, 1, 0), (0, 4, 0))


def test_ww_single_agent_total():
    v = make_additive([2])
    assert willy_wonka(Instance(1, v, 4, (3,))) == Outcome((1,), (4,))
    assert willy_wonka(Instance(1, v, 4, (4,))) == Outcome((1,), (4,))


def test_ww_top_agent_boundary_lie_is_never_rejected():
    # faithful behavior: on the declared-budget line the top agent is always
    # selected and paid the budget whenever no coalition of the others can
    # match their singleton value (see the decisions ledger)
    v = make_additive([11, 3, 2])
    for rest in enumerate_profiles(CostGrid(4), 2):
        out = willy_wonka(Instance(3, v, 4, (4,) + rest))
        assert out.allocation[0] == 1 and out.payments[0] == 4


def test_moww_dominant_singleton_takes_all():
    out = max_or_willy_wonka(Instance(3, make_additive([10, 1, 1]), 4, (1, 1, 1)))
    assert out == Outcome((1, 0, 0), (4, 0, 0))


def test_moww_equal_pair_selects_one_at_budget():
    out = max_or_willy_wonka(Instance(2, make_additive([1, 1]), 4, (1, 1)))
    assert out == Outcome((1, 0), (4, 0))


def test_moww_delegates_when_no_one_dominates():
    inst = Instance(3, make_additive([1, 2, 2]), 4, (1, 2, 1))
    assert max_or_willy_wonka(inst) == willy_wonka(inst)


def test_constrained_equals_plain_on_free_family():
    rng = random.Random(7)
    for inst in random_instances(3, 4, 60, 71):
        fam = FeasibilityFamily.free(3)
        assert max_or_willy_wonka(inst) == max_or_willy_wonka_constrained(inst, fam)
    for inst in random_instances(2, 4, 60, 72):
        fam = FeasibilityFamily.free(2)
        assert max_or_willy_wonka(inst) == max_or_willy_wonka_constrained(inst, fam)


def test_constrained_golden_ticket_forces_holder_into_prefix_optimum():
    # family rich enough that no single agent dominates, so the ticket path runs
    v = make_additive([5, 4, 3])
    fam = FeasibilityFamily.from_iterable(3, [(), (0,), (1,), (2,), (1, 2), (0, 2)])
    out = max_or_willy_wonka_constrained(Instance(3, v, 4, (0, 2, 4)), fam)
    assert out == Outcome((0, 1, 0), (0, 4, 0))


def test_constrained_spoon_forces_holder_out():
    v = make_additive([5, 4, 3])
    fam = FeasibilityFamily.from_iterable(3, [(), (0,), (1,), (2,), (1, 2), (0, 2)])
    out = max_or_willy_wonka_constrained(Instance(3, v, 4, (2, 0, 0)), fam)
    assert out.allocation[0] == 0
    assert out.payments == (0, 0, 0)


def test_constrained_strong_agent_without_feasible_singleton_allocates_nothing():
    v = make_additive([3, 1])
    fam = FeasibilityFamily.from_iterable(2, [(), (0, 1)])
    out = max_or_willy_wonka_constrained(Instance(2, v, 4, (1, 1)), fam)
    assert out == Outcome((0, 0), (0, 0))


def test_x1_keeps_top_agent_when_clearly_better():
    sol = x1_select((1, 1), 4, make_additive([10, 1]))
    assert sol.chosen == {0, 1}


def test_x1_drops_top_agent_when_rest_is_competitive():
    sol = x1_select((4, 0, 0), 4, make_additive([1, 1, 1]))
    assert sol.chosen == {1, 2} and sol.value == 2


def test_x1_single_agent():
    assert x1_select((2,), 4, make_additive([7])).chosen == {0}


def test_x1_membership_is_downward_closed_in_top_agents_cost():
    rng = random.Random(31)
    grid = CostGrid(4)
    for _ in range(15):
        v = random_subadditive(3, rng)
        order = sorted(range(3), key=lambda i: v.value((i,)), reverse=True)
        if order != [0, 1, 2]:
            continue  # rule assumes pre-sorted agents
        for rest in enumerate_profiles(grid, 2):
            selected_at = [0 in x1_select((c1,) + rest, 4, v).chosen for c1 in grid.points()]
            # once dropped, never selected again at a higher cost
            assert all(selected_at[i] or not selected_at[i + 1] for i in range(4))


def test_w1_dominant_pair_is_full_budget():
    assert compute_w1(make_additive([10, 1]), 8, 2) == 8


def test_w1_equal_pair_is_zero():
    assert compute_w1(make_additive([1, 1]), 8, 2) == 0


def test_w1_single_agent_is_budget():
    assert compute_w1(make_additive([5]), 8, 1) == 8


def test_w1_guard():
    with pytest.raises(GuardExceeded):
        compute_w1(make_additive([1] * 6), 8, 6)


def test_caches_stay_within_their_bound():
    for a in range(1, CACHE_MAXSIZE + 6):
        compute_w1(make_additive([a, 1]), 1, 2)
        make_ticket_family(2, 3 + a, 1)
    assert compute_w1.cache_info().currsize <= CACHE_MAXSIZE
    assert make_ticket_family.cache_info().currsize <= CACHE_MAXSIZE


def test_golden_exception_branch_positive_runner_up():
    out = golden_mechanism(Instance(3, make_additive([5, 4, 3]), 8, (8, 5, 8)))
    assert out == Outcome((1, 0, 0), (8, 0, 0))


def test_golden_exception_branch_free_runner_up():
    out = golden_mechanism(Instance(3, make_additive([5, 4, 3]), 8, (8, 0, 8)))
    assert out == Outcome((1, 1, 0), (8, 0, 0))


def test_golden_pays_dominant_agent_full_budget():
    out = golden_mechanism(Instance(2, make_additive([10, 1]), 8, (3, 2)))
    assert out == Outcome((1, 0), (8, 0))


def test_golden_reports_in_original_indexing():
    out = golden_mechanism(Instance(2, make_additive([1, 10]), 8, (2, 3)))
    assert out == Outcome((0, 1), (0, 8))


def test_ticket_spec_seeded_draw_is_reproducible():
    grid = CostGrid(8)
    a = make_ticket_spec(3, grid, mode="continuous_draw", seed=99)
    b = make_ticket_spec(3, grid, mode="continuous_draw", seed=99)
    assert a == b
    c = make_ticket_spec(3, grid, mode="continuous_draw", seed=100)
    assert a != c


def test_ticket_spec_single_agent_rejected():
    with pytest.raises(ValueError):
        make_ticket_spec(1, CostGrid(8))


def test_ticket_family_pairwise_disjoint():
    fam = make_ticket_family(2, 8, 2)
    vectors = [vec for spec in fam for vec in spec.golden + spec.wooden]
    assert len(set(vectors)) == len(vectors) == 8


def test_ticket_family_capacity_guard():
    with pytest.raises(GuardExceeded):
        make_ticket_family(3, 8, 50)


def test_mr_default_branch_pays_bids():
    spec = make_ticket_spec(3, CostGrid(8), mode="finite_family", ell=2, index=0)
    v = make_additive([3, 2, 1])
    profile = (1, 1, 1)
    assert all(profile[:i] + profile[i + 1 :] not in (spec.golden[i], spec.wooden[i]) for i in range(3))
    out = randomized_mr(Instance(3, v, 8, profile), spec)
    assert out == Outcome((1, 1, 1), (1, 1, 1))


def test_mr_golden_ticket_selects_only_holder():
    spec = make_ticket_spec(3, CostGrid(8), mode="finite_family", ell=2, index=0)
    v = make_additive([3, 2, 1])
    gt = spec.golden[1]
    profile = (gt[0], 5, gt[1])
    if profile[1:] == spec.golden[0]:
        pytest.skip("profile collides with the first agent's ticket")
    out = randomized_mr(Instance(3, v, 8, profile), spec)
    assert out == Outcome((0, 1, 0), (0, 8, 0))


def test_mr_wooden_spoon_rejects_everyone():
    spec = make_ticket_spec(3, CostGrid(8), mode="finite_family", ell=2, index=0)
    v = make_additive([3, 2, 1])
    ws = spec.wooden[0]
    profile = (5,) + ws
    if any(profile[:i] + profile[i + 1 :] == spec.golden[i] for i in range(3)):
        pytest.skip("profile collides with a golden ticket")
    out = randomized_mr(Instance(3, v, 8, profile), spec)
    assert out == Outcome((0, 0, 0), (0, 0, 0))


def test_mr_spec_must_match_instance():
    spec = make_ticket_spec(2, CostGrid(8), mode="finite_family", ell=2, index=0)
    with pytest.raises(ValueError):
        randomized_mr(Instance(2, make_additive([1, 1]), 4, (1, 1)), spec)


def test_posted_price_mechanism():
    mech = mech_posted_price(2)
    out = mech(Instance(2, make_additive([1, 1]), 4, (2, 3)))
    assert out == Outcome((1, 0), (2, 0))
