from __future__ import annotations

import dataclasses
import gc
import importlib
import math
import random
import sys
import weakref
from fractions import Fraction

import pytest

from budgetmech.domain import CostGrid, GuardExceeded, Instance, Ordering, compare_ratio_to_phi
from budgetmech.mechanisms import (
    mech_constant_reject,
    mech_golden,
    mech_moww,
    mech_mr,
    mech_posted_price,
    mech_willy_wonka,
    make_ticket_family,
)
from budgetmech.packing import FeasibilityFamily
from budgetmech.valuation import make_additive, make_table, random_subadditive
from budgetmech.verify import (
    MUTATIONS,
    PreconditionFailed,
    Witness,
    approx_ratio,
    characterization_crosscheck,
    check_bf,
    check_bnom_direct,
    check_ir,
    check_np,
    check_restricted_gt_payments,
    check_threshold_gt,
    check_threshold_ws,
    check_wnom_direct,
    expected_ratio_over_specs,
    make_mutant,
    outcome_table,
    reverify_witness,
    worst_case_ratio,
)

GRID = CostGrid(4)
BALANCED = make_additive([3, 2, 2])  # no single agent dominates the rest
WW = mech_willy_wonka()


@pytest.fixture(scope="module")
def ww_table():
    return outcome_table(WW, BALANCED, GRID, 3)


def test_ww_satisfies_basics_and_nom(ww_table):
    for check in (check_ir, check_np, check_bf, check_bnom_direct, check_wnom_direct):
        rep = check(WW, BALANCED, GRID, 3, ww_table)
        assert rep.holds, rep
        assert rep.profiles_scanned == 125


def test_constant_reject_holds_vacuously():
    mech = mech_constant_reject()
    for check in (check_ir, check_np, check_bf, check_bnom_direct, check_wnom_direct):
        assert check(mech, BALANCED, GRID, 3).holds


def test_guard_on_table_size():
    with pytest.raises(GuardExceeded):
        outcome_table(WW, make_additive([1] * 6), CostGrid(10), 6)


@pytest.mark.parametrize(
    "mutation,target,check",
    [
        ("no_golden_ticket", "bnom", check_bnom_direct),
        ("no_wooden_spoon", "wnom", check_wnom_direct),
        ("underpay", "ir", check_ir),
        ("consolation", "np", check_np),
        ("capped_gt", "bnom", check_bnom_direct),
        ("double_B", "bf", check_bf),
        ("always_select_all", "bf", check_bf),
    ],
)
def test_each_mutant_breaks_its_target_with_reverifiable_witness(mutation, target, check):
    mutant = make_mutant(WW, mutation)
    rep = check(mutant, BALANCED, GRID, 3)
    assert not rep.holds
    assert rep.witness is not None
    assert reverify_witness(rep, mutant, BALANCED, GRID, 3)


def test_mutants_keep_untargeted_independent_properties():
    survivors = {
        "no_golden_ticket": (check_ir, check_np, check_bf, check_wnom_direct),
        "no_wooden_spoon": (check_ir, check_np, check_bf, check_bnom_direct),
        "capped_gt": (check_ir, check_np, check_bf, check_wnom_direct),
        "double_B": (check_ir, check_np, check_bnom_direct, check_wnom_direct),
        "underpay": (check_np, check_bf),
        "consolation": (check_ir,),
        "always_select_all": (check_ir, check_np),
    }
    for mutation, checks in survivors.items():
        mutant = make_mutant(WW, mutation)
        table = outcome_table(mutant, BALANCED, GRID, 3)
        for check in checks:
            assert check(mutant, BALANCED, GRID, 3, table).holds, (mutation, check.__name__)


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        make_mutant(WW, "pay_double_costs")


def test_structural_mutations_require_the_ticket_mechanism():
    with pytest.raises(ValueError):
        make_mutant(mech_golden(), "no_golden_ticket")


def test_threshold_gt_certificate_is_full_budget_for_composed_mechanism():
    moww = mech_moww()
    rep, cert = check_threshold_gt(moww, BALANCED, GRID, 3)
    assert rep.holds
    assert cert.thresholds == (4, 4, 4)


def test_threshold_gt_posted_price_single_agent():
    mech = mech_posted_price(2)
    v = make_additive([5])
    rep, cert = check_threshold_gt(mech, v, GRID, 1)
    assert rep.holds
    assert cert.thresholds == (2,)


def test_threshold_gt_fails_without_tickets():
    mutant = make_mutant(WW, "no_golden_ticket")
    rep, cert = check_threshold_gt(mutant, BALANCED, GRID, 3)
    assert not rep.holds and cert is None


def test_threshold_ws_zero_for_ticket_mechanism(ww_table):
    rep, cert = check_threshold_ws(WW, BALANCED, GRID, 3, ww_table)
    assert rep.holds
    assert cert.thresholds == (0, 0, 0)


def test_threshold_ws_fails_for_always_select_all():
    mutant = make_mutant(WW, "always_select_all")
    rep, cert = check_threshold_ws(mutant, BALANCED, GRID, 3)
    assert not rep.holds and cert is None


def test_restricted_gt_holds_for_ticket_mechanism(ww_table):
    assert check_restricted_gt_payments(WW, BALANCED, GRID, 3, ww_table).holds


def test_restricted_gt_tracks_direct_bnom_on_capped_mutant():
    mutant = make_mutant(WW, "capped_gt")
    table = outcome_table(mutant, BALANCED, GRID, 3)
    assert not check_bnom_direct(mutant, BALANCED, GRID, 3, table).holds
    assert not check_restricted_gt_payments(mutant, BALANCED, GRID, 3, table).holds


def test_restricted_gt_holds_for_constant_reject():
    assert check_restricted_gt_payments(mech_constant_reject(), BALANCED, GRID, 3).holds


def test_crosscheck_agreement_for_ticket_mechanism(ww_table):
    rep = characterization_crosscheck(WW, BALANCED, GRID, 3, ww_table)
    assert rep.all_agree and len(rep.lines) == 3 and not rep.skipped


def test_crosscheck_agreement_when_all_false():
    mutant = make_mutant(WW, "no_golden_ticket")
    rep = characterization_crosscheck(mutant, BALANCED, GRID, 3)
    assert rep.all_agree
    bnom_lines = [l for l in rep.lines if l.name.startswith("bnom")]
    assert bnom_lines and all(not l.direct and not l.structural for l in bnom_lines)


def test_crosscheck_refuses_without_normalized_payments():
    mutant = make_mutant(WW, "consolation")
    with pytest.raises(PreconditionFailed) as err:
        characterization_crosscheck(mutant, BALANCED, GRID, 3)
    assert err.value.prop == "np"


def test_crosscheck_skips_threshold_lines_without_ir():
    mutant = make_mutant(WW, "underpay")
    rep = characterization_crosscheck(mutant, BALANCED, GRID, 3)
    assert rep.all_agree
    assert len(rep.lines) == 1 and rep.skipped


def test_approx_ratio_is_one_at_optimum():
    inst = Instance(3, BALANCED, 4, (1, 1, 1))
    assert approx_ratio(WW, inst) == 1


def test_approx_ratio_two_for_composed_mechanism_on_equal_pair():
    inst = Instance(2, make_additive([1, 1]), 4, (1, 1))
    assert approx_ratio(mech_moww(), inst) == 2


def test_approx_ratio_infinite_when_mechanism_scores_zero():
    inst = Instance(2, make_additive([1, 1]), 4, (1, 1))
    assert approx_ratio(mech_constant_reject(), inst) == math.inf


def test_ticket_mechanism_alone_has_no_constant_factor():
    # the top agent's spoon hands the allocation to a far weaker coalition
    v = make_additive([1000, 1])
    ratio, profile = worst_case_ratio(WW, v, GRID, 2)
    assert ratio > 2
    assert profile == (1, 0)


def test_worst_case_ratio_of_composed_mechanism_on_equal_pair():
    ratio, profile = worst_case_ratio(mech_moww(), make_additive([1, 1]), GRID, 2)
    assert ratio == 2
    assert profile == (0, 0)


def test_golden_mechanism_stays_below_phi_and_nearly_reaches_it():
    v = make_additive([Fraction(1618, 1000), 1])
    ratio, _ = worst_case_ratio(mech_golden(), v, CostGrid(8), 2)
    frac = Fraction(ratio)
    assert compare_ratio_to_phi(frac.numerator, frac.denominator) is Ordering.LESS
    assert frac >= Fraction(16, 10)


@pytest.mark.parametrize(
    "values,mech,profile_of,want",
    [
        ([0, 0], mech_constant_reject(), lambda spec: spec.wooden[1] + spec.wooden[0], 1),
        ([1, 1], mech_constant_reject(), lambda spec: spec.wooden[1] + spec.wooden[0], math.inf),
        ([1, 1], mech_moww(), lambda spec: (0,) + spec.golden[0], 2),
    ],
    ids=["both-zero", "achieved-zero", "ordinary"],
)
def test_ratio_rule(values, mech, profile_of, want):
    # On the spec's wooden-spoon profile randomized_mr selects nobody; on agent
    # 0's golden-ticket profile it selects agent 0 alone, where both fit.
    v = make_additive(values)
    assert worst_case_ratio(mech, v, GRID, 2)[0] == want
    (spec,) = make_ticket_family(2, GRID.k, 1)
    assert expected_ratio_over_specs([spec], v, profile_of(spec)) == want


def test_expected_ratio_over_specs_unit_family():
    specs = make_ticket_family(2, 8, 2)
    v = make_additive([1, 1])
    ratio = expected_ratio_over_specs(specs, v, (1, 1))
    assert ratio >= 1


GOLDEN_PAIR = make_additive([Fraction(1618, 1000), 1])


@pytest.mark.parametrize(
    "check", [check_threshold_gt, check_threshold_ws, check_restricted_gt_payments]
)
def test_threshold_witnesses_reverify(check, ww_table):
    # At n=2 the golden mechanism has neither threshold on these values (criterion 3).
    grid, golden = CostGrid(20), mech_golden()
    rep = check(golden, GOLDEN_PAIR, grid, 2)
    rep = rep[0] if isinstance(rep, tuple) else rep
    assert not rep.holds
    assert reverify_witness(rep, golden, GOLDEN_PAIR, grid, 2)

    held = check(WW, BALANCED, GRID, 3, ww_table)
    held = held[0] if isinstance(held, tuple) else held
    assert held.holds
    assert not reverify_witness(held, WW, BALANCED, GRID, 3)
    forged = dataclasses.replace(held, holds=False, witness=Witness(0, None, 0, (0, 0, 0)))
    assert not reverify_witness(forged, WW, BALANCED, GRID, 3)


def test_reverify_requires_a_failing_report(ww_table):
    rep = check_ir(WW, BALANCED, GRID, 3, ww_table)
    assert not reverify_witness(rep, WW, BALANCED, GRID, 3)


def test_mutation_catalog_is_complete():
    assert set(MUTATIONS) == {
        "no_golden_ticket", "no_wooden_spoon", "underpay", "consolation",
        "capped_gt", "double_B", "always_select_all",
    }


def _purge_package() -> dict:
    names = [m for m in sys.modules if m == "budgetmech" or m.startswith("budgetmech.")]
    return {name: sys.modules.pop(name) for name in names}


def test_reimported_package_copies_are_freed():
    """Nothing process-wide (such as typing's cache of subscripted aliases)
    keeps an old copy of the package alive after it is re-imported."""
    saved = _purge_package()
    try:
        bm = importlib.import_module("budgetmech.cli")
        bm.mech_moww()(bm.Instance(2, bm.make_additive([1, 2]), 2, (1, 1)))  # fill the memo
        old = weakref.ref(bm.Instance)
        del bm
        for _ in range(3):
            _purge_package()
            importlib.import_module("budgetmech.cli")
        _purge_package()
        gc.collect()
        assert old() is None
    finally:
        _purge_package()
        sys.modules.update(saved)
