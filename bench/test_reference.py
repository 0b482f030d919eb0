"""The benchmark's reference checks are not vacuous: they flag broken outputs.

Run from the repository root with
``PYTHONPATH=src python -m pytest bench/test_reference.py``.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest

import budgetmech
import budgetmech.cli
from budgetmech import (
    CostGrid,
    FeasibilityFamily,
    Instance,
    Ordering,
    agent_forcing_gap,
    check_bf,
    check_bnom_direct,
    check_ir,
    check_np,
    check_wnom_direct,
    compare_ratio_to_phi,
    make_additive,
    make_mutant,
    mech_willy_wonka,
    outcome_table,
    solve_exact,
)

import reference as ref
import workloads

VALUES = [3, 2, 2]
N, K = 3, 4


def additive_values(base):
    return tuple(sum((Fraction(base[i]) for i in ref.members(m)), Fraction(0)) for m in range(1 << len(base)))


def folds_of(mech, n=N, k=K):
    table = outcome_table(mech, make_additive(VALUES), CostGrid(k), n)
    rows = {p: (o.allocation, o.payments) for p, o in table.items()}
    return ref.PaymentFolds(((p, a, pay) for p, (a, pay) in rows.items()), n, k), rows


@pytest.mark.parametrize(
    "mutation, prop",
    [
        ("underpay", "ir"),
        ("consolation", "np"),
        ("double_B", "bf"),
        ("always_select_all", "bf"),
        ("no_golden_ticket", "bnom"),
        ("capped_gt", "bnom"),
        ("no_wooden_spoon", "wnom"),
    ],
)
def test_folds_flag_each_mutant_and_confirm_its_witness(mutation, prop):
    ww = mech_willy_wonka()
    assert getattr(folds_of(ww)[0], prop)
    mutant = make_mutant(ww, mutation)
    folds, rows = folds_of(mutant)
    assert not getattr(folds, prop)
    checker = {"ir": check_ir, "np": check_np, "bf": check_bf,
               "bnom": check_bnom_direct, "wnom": check_wnom_direct}[prop]
    report = checker(mutant, make_additive(VALUES), CostGrid(K), N)
    assert folds.confirms(prop, report.witness, rows)


def test_confirms_rejects_a_witness_that_is_no_counterexample():
    mutant = make_mutant(mech_willy_wonka(), "underpay")
    folds, rows = folds_of(mutant)
    report = check_ir(mutant, make_additive(VALUES), CostGrid(K), N)
    honest = next(p for p, (alloc, pay) in rows.items() if all(pay[i] >= p[i] * alloc[i] for i in range(N)))
    assert not folds.confirms("ir", dataclasses.replace(report.witness, profile=honest), rows)


def test_best_value_matches_the_exact_solver():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        values = workloads.capped(rng, n, 2)
        costs = tuple(rng.randint(0, 4) for _ in range(n))
        valuation = budgetmech.cli.parse_instance_doc(workloads.table_doc(n, 4, values))[0].valuation
        assert ref.best_value(values, costs, 4) == solve_exact(Instance(n, valuation, 4, costs)).value


def test_at_most_phi_brackets_the_golden_ratio():
    assert ref.at_most_phi(Fraction(161803398, 10**8))
    assert not ref.at_most_phi(Fraction(161803399, 10**8))
    assert not ref.at_most_phi(math.inf)
    for a in range(0, 60):
        for b in range(1, 40):
            below = compare_ratio_to_phi(a, b) is Ordering.LESS
            assert ref.at_most_phi(Fraction(a, b)) == below


def test_forcing_gap_matches_the_conflict_fixture():
    values = additive_values([1, 4])
    family = (0, 1, 2)  # singletons only
    program = agent_forcing_gap(make_additive([1, 4]), FeasibilityFamily.from_iterable(2, [(), (0,), (1,)]), 2)
    assert ref.forcing_gap(values, family, 2) == program == 4


def small_scan(values, n, k):
    workload = workloads.MowwScan()
    s = workloads.Scenario("test", n, k, values, workloads.table_doc(n, k, values))
    (prepared,) = workload.setup(budgetmech, [s])
    out = workload.scan_one(budgetmech, prepared)
    workload.reverify(budgetmech, [prepared], [out])
    return workload, s, prepared, out


def test_judge_passes_true_outputs_and_flags_tampered_ones():
    values = additive_values([3, 2, 2])
    workload, s, prepared, out = small_scan(values, N, K)
    r = workload.reference(s, out)
    for op in workload.operations(s):
        workload.judge(op, s, r, out)

    mutant = make_mutant(prepared.mech, "underpay")
    bad_table = outcome_table(mutant, prepared.valuation, prepared.grid, N)
    tampered = dict(out, ir=check_ir(mutant, prepared.valuation, prepared.grid, N, bad_table))
    with pytest.raises(workloads.Mismatch):
        workload.judge("ir", s, r, tampered)
    with pytest.raises(workloads.Mismatch):
        workload.judge("bnom", s, r, {**{k: v for k, v in out.items() if k != "table/rows"}, "table": bad_table})
    worst, arg = out["ratio"]
    with pytest.raises(workloads.Mismatch):
        workload.judge("ratio", s, r, dict(out, ratio=(worst / 2, arg)))


def test_inputs_repeat_per_seed_and_keep_their_slot_shapes():
    for name, workload in workloads.WORKLOADS.items():
        first = workload.make(random.Random(f"{name}/7"))
        again = workload.make(random.Random(f"{name}/7"))
        assert [s.doc for s in first] == [s.doc for s in again]
    moww = workloads.WORKLOADS["moww-scan"].make(random.Random("moww-scan/3"))
    assert [workloads.strong_agent(s.values, s.n) for s in moww] == [True, True, False, False, False]
    golden = workloads.WORKLOADS["golden-fold"].make(random.Random("golden-fold/3"))
    assert [workloads.golden_shape(s.values) for s in golden] == [
        "pair-high", "dominant", "dominant", "pair-high", "pair-high", "pair-low"]
    constrained = workloads.WORKLOADS["constrained-scan"].make(random.Random("constrained-scan/3"))
    assert [workloads.constrained_strong(s.values, s.family, s.n) for s in constrained] == [
        False, False, True, False, False, True]
