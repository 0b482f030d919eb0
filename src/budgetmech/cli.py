"""Command-line front end: instance I/O, mechanism runs, verification, ratio tables.

Exit codes: 0 success (all properties hold), 1 property violation, 2 parse
error, 3 mechanism/solver incompatibility, 4 enumeration guard exceeded,
5 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import random
import sys
from collections.abc import Sequence
from fractions import Fraction
from typing import Any

from .domain import (
    CostGrid,
    GuardExceeded,
    Instance,
    OracleClassError,
    Ordering,
    compare_ratio_to_phi,
)
from .mechanisms import (
    Mechanism,
    make_ticket_family,
    make_ticket_spec,
    mech_golden,
    mech_moww,
    mech_moww_constrained,
    mech_mr,
    mech_willy_wonka,
)
from .packing import (
    DP_SOLVER,
    EXACT_SOLVER,
    GREEDY_SOLVER,
    FeasibilityFamily,
    Solver,
    forcing_gap_scan,
    solve_exact,
)
from .valuation import (
    AdditiveValuation,
    ValuationOracle,
    check_class,
    make_additive,
    make_table,
    random_additive,
    random_coverage,
    random_subadditive,
)
from .verify import (
    MUTATIONS,
    CrosscheckReport,
    PreconditionFailed,
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
    value_ratio,
    worst_case_ratio,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_GUARD = 4
EXIT_IO = 5

SOLVERS = {"exact": EXACT_SOLVER, "dp": DP_SOLVER, "greedy": GREEDY_SOLVER}

PROPERTIES = {
    "ir": check_ir,
    "np": check_np,
    "bf": check_bf,
    "bnom": check_bnom_direct,
    "wnom": check_wnom_direct,
    "gt": check_threshold_gt,
    "ws": check_threshold_ws,
    "rgt": check_restricted_gt_payments,
    "crosscheck": characterization_crosscheck,
}
PROPERTY_NAMES = tuple(PROPERTIES)


class ParseError(Exception):
    """The instance file is malformed."""


class Incompatible(Exception):
    """The requested mechanism or solver cannot run on this instance."""


def _subset_key(subset: Sequence[int]) -> str:
    return ",".join(str(i) for i in sorted(subset))


def _parse_subset(key: str, n: int) -> frozenset[int]:
    if key == "":
        return frozenset()
    try:
        members = [int(tok) for tok in key.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad subset key {key!r}") from exc
    if any(not 0 <= i < n for i in members):
        raise ParseError(f"subset key {key!r} out of range for n={n}")
    return frozenset(members)


def _parse_int(raw: Any, field: str) -> int:
    # bool is an int subclass, and int() would truncate a float: neither is exact input.
    if type(raw) is not int:
        raise ParseError(f"{field} must be a JSON integer, got {raw!r}")
    return raw


def _parse_rational(raw: Any) -> Fraction:
    if type(raw) is not int and not isinstance(raw, str):
        raise ParseError(f"bad rational {raw!r}: use an integer or a \"p/q\" string")
    try:
        return Fraction(raw)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {raw!r}") from exc


def parse_instance_doc(doc: dict) -> tuple[Instance, FeasibilityFamily | None]:
    """Build an instance (and optional feasibility family) from a JSON document."""
    try:
        n = _parse_int(doc["n"], "n")
        k = _parse_int(doc["budget_ticks"], "budget_ticks")
        val_doc = doc["valuation"]
        costs = tuple(_parse_int(c, "costs_ticks") for c in doc["costs_ticks"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc

    kind = val_doc.get("kind")
    if kind == "additive":
        values = [_parse_rational(v) for v in val_doc.get("values", ())]
        if len(values) != n:
            raise ParseError(f"additive valuation needs {n} values, got {len(values)}")
        oracle: ValuationOracle = make_additive(values)
    elif kind == "table":
        entries_doc = val_doc.get("entries")
        if not isinstance(entries_doc, dict):
            raise ParseError("table valuation needs an 'entries' object")
        entries = {
            _parse_subset(key, n): _parse_rational(v) for key, v in entries_doc.items()
        }
        try:
            oracle = make_table(entries, n)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    else:
        raise ParseError(f"unknown valuation kind {kind!r}")

    family = None
    if "feasibility" in doc and doc["feasibility"] is not None:
        sets = [_parse_subset(key, n) for key in doc["feasibility"]]
        try:
            family = FeasibilityFamily.from_iterable(n, sets)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    try:
        instance = Instance(n, oracle, k, costs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return instance, family


def render_instance_doc(instance: Instance, family: FeasibilityFamily | None = None) -> dict:
    v = instance.valuation
    if isinstance(v, AdditiveValuation):
        val_doc: dict = {"kind": "additive", "values": [str(x) for x in v.values]}
    else:
        entries = {}
        for mask in range(2**instance.n):
            subset = [i for i in range(instance.n) if mask >> i & 1]
            entries[_subset_key(subset)] = str(v.value(subset))
        val_doc = {"kind": "table", "entries": entries}
    doc = {
        "n": instance.n,
        "budget_ticks": instance.budget,
        "valuation": val_doc,
        "costs_ticks": list(instance.costs),
    }
    if family is not None:
        doc["feasibility"] = sorted(_subset_key(s) for s in family.subsets)
    return doc


def load_instance_file(path: str) -> tuple[Instance, FeasibilityFamily | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance file must hold a JSON object")
    return parse_instance_doc(doc)


def _oracle_passes(oracle: ValuationOracle, cls: str) -> bool:
    ok, _ = check_class(oracle, cls)
    return ok


def _require_solver_compatible(solver_name: str, oracle: ValuationOracle) -> Solver:
    solver = SOLVERS[solver_name]
    if solver_name == "dp" and not _oracle_passes(oracle, "additive"):
        raise Incompatible("the dp solver needs an additive valuation")
    if solver_name == "greedy" and not _oracle_passes(oracle, "submodular"):
        raise Incompatible("the greedy solver needs a submodular valuation")
    return solver


def _build_mechanism(args, instance: Instance, family: FeasibilityFamily | None) -> Mechanism:
    solver = _require_solver_compatible(args.solver, instance.valuation)
    name = args.mechanism
    if name in ("moww", "moww-constrained", "golden") and not _oracle_passes(
        instance.valuation, "subadditive"
    ):
        raise Incompatible(f"{name} needs a monotone subadditive valuation")
    if name == "ww":
        return mech_willy_wonka(solver)
    if name == "moww":
        return mech_moww(solver)
    if name == "moww-constrained":
        if family is None:
            raise Incompatible("moww-constrained needs a feasibility family in the instance file")
        if args.solver != "exact":
            raise Incompatible("moww-constrained supports the exact solver only")
        return mech_moww_constrained(family, solver)
    if name == "golden":
        return mech_golden()
    if name == "mr":
        grid = CostGrid(instance.budget)
        try:
            if args.ell is not None:
                spec = make_ticket_spec(
                    instance.n, grid, mode="finite_family", ell=args.ell,
                    index=args.spec_index or 0,
                )
            else:
                spec = make_ticket_spec(instance.n, grid, mode="continuous_draw", seed=args.seed)
        except ValueError as exc:  # fewer than two agents, --ell < 1 or --spec-index out of range
            raise ParseError(str(exc)) from exc
        return mech_mr(spec, solver)
    raise Incompatible(f"unknown mechanism {name!r}")


def _ratio_strings(ratio: Fraction | float) -> tuple[str, str]:
    if ratio == math.inf:
        return "+inf", "inf"
    frac = Fraction(ratio)
    return f"{frac.numerator}/{frac.denominator}", f"{float(frac):.6f}"


def cmd_run(args) -> int:
    instance, family = load_instance_file(args.instance)
    mech = _build_mechanism(args, instance, family)
    out = mech(instance)
    use_family = family if args.mechanism == "moww-constrained" else None
    value = instance.valuation.value(out.selected())
    best = solve_exact(instance, use_family).value
    ratio_str, ratio_dec = _ratio_strings(value_ratio(best, value))
    report = {
        "mechanism": mech.name,
        "allocation": list(out.allocation),
        "payments_ticks": list(out.payments),
        "total_payment_ticks": out.total_payment(),
        "value": str(value),
        "optimal_value": str(best),
        "ratio": ratio_str,
        "ratio_decimal": ratio_dec,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _random_oracle(cls: str, n: int, rng: random.Random) -> ValuationOracle:
    if cls == "additive":
        return random_additive(n, rng)
    if cls == "submodular":
        return random_coverage(n, rng)
    return random_subadditive(n, rng)


def _verify_one(
    mech: Mechanism, oracle: ValuationOracle, grid: CostGrid, n: int, props: Sequence[str]
) -> tuple[list[dict], bool]:
    table = outcome_table(mech, oracle, grid, n)
    reports: list[dict] = []
    all_hold = True
    for prop in props:
        try:
            rep = PROPERTIES[prop](mech, oracle, grid, n, table)
        except PreconditionFailed as exc:
            reports.append({"property": prop, "skipped": exc.prop})
            continue
        if isinstance(rep, CrosscheckReport):
            entry: dict = {
                "property": prop,
                "holds": rep.all_agree,
                "lines": [dataclasses.asdict(line) for line in rep.lines],
                "skipped": list(rep.skipped),
            }
        elif isinstance(rep, tuple):  # a threshold report and its certificate
            rep, cert = rep
            entry = {"property": rep.prop, "holds": rep.holds}
            if cert is not None:
                entry["thresholds"] = list(cert.thresholds)
                entry["boundary"] = list(cert.boundary)
        else:
            entry = {"property": prop, "holds": rep.holds, "profiles_scanned": rep.profiles_scanned}
            if rep.witness is not None:
                entry["witness"] = dataclasses.asdict(rep.witness)
        reports.append(entry)
        all_hold &= entry["holds"]
    return reports, all_hold


def cmd_verify(args) -> int:
    props = [p.strip() for p in args.properties.split(",") if p.strip()]
    for p in props:
        if p not in PROPERTY_NAMES:
            raise ParseError(f"unknown property {p!r} (known: {', '.join(PROPERTY_NAMES)})")

    scenarios: list[tuple[ValuationOracle, CostGrid, int, FeasibilityFamily | None]] = []
    if args.random is not None:
        rand_n, rand_k, count, seed = args.random
        if rand_n < 1 or rand_k < 1:
            raise ParseError("--random needs N >= 1 agents and K >= 1 grid ticks")
        if count < 1:
            raise ParseError("--random needs COUNT >= 1 scenarios")
        rng = random.Random(seed)
        for _ in range(count):
            scenarios.append(
                (_random_oracle(args.valuation_class, rand_n, rng), CostGrid(rand_k), rand_n, None)
            )
    elif args.instance is not None:
        instance, family = load_instance_file(args.instance)
        scenarios.append((instance.valuation, CostGrid(instance.budget), instance.n, family))
    else:
        raise ParseError("need an instance file or --random N K COUNT SEED")

    overall = True
    out_reports = []
    for oracle, grid, n, family in scenarios:
        stub = Instance(n, oracle, grid.budget, (0,) * n)
        mech = _build_mechanism(args, stub, family)
        if args.mutate is not None:
            try:
                mech = make_mutant(mech, args.mutate, n)
            except ValueError as exc:  # a structural mutation of a non-ww mechanism, or too few agents
                raise Incompatible(str(exc)) from exc
        reports, ok = _verify_one(mech, oracle, grid, n, props)
        out_reports.append({"mechanism": mech.name, "n": n, "k": grid.k, "reports": reports})
        overall &= ok
    print(json.dumps({"all_hold": overall, "scenarios": out_reports}, indent=2))
    return EXIT_OK if overall else EXIT_VIOLATION


def _bound_for(mech_name: str, n: int, ell: int | None) -> tuple[str, Fraction | None, bool]:
    """Returns (rendered bound, rational bound or None, compare-against-phi flag)."""
    if mech_name == "moww":
        return "2/1", Fraction(2), False
    if mech_name == "golden":
        return "phi", None, True
    if mech_name == "mr":
        assert ell is not None
        if ell <= n:
            return "+inf", None, False
        b = Fraction(ell, ell - n)
        return f"{b.numerator}/{b.denominator}", b, False
    return "+inf", None, False


def _respects(ratio: Fraction | float, bound: Fraction | None, against_phi: bool) -> bool:
    if ratio == math.inf:
        return False
    if against_phi:
        frac = Fraction(ratio)
        return compare_ratio_to_phi(frac.numerator, frac.denominator) is not Ordering.GREATER
    if bound is None:
        return True
    return ratio <= bound


def cmd_table(args) -> int:
    mech_names = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    if not mech_names:
        raise ParseError("--mechanisms names no mechanism")
    if min(args.n, args.k, args.trials, args.profiles) < 1:
        raise ParseError("--n, --k, --trials and --profiles must be at least 1")
    rng = random.Random(args.seed)
    grid = CostGrid(args.k)
    rows = []
    for mech_name in mech_names:
        if mech_name not in ("ww", "moww", "golden", "mr"):
            raise ParseError(f"table supports ww, moww, golden, mr; got {mech_name!r}")
        worst: Fraction | float = Fraction(0)
        ratios: list[Fraction | float] = []
        for _ in range(args.trials):
            oracle = _random_oracle(args.valuation_class, args.n, rng)
            if mech_name == "mr":
                if args.ell is None:
                    raise ParseError("mr rows need --ell")
                try:
                    specs = make_ticket_family(args.n, args.k, args.ell)
                except ValueError as exc:  # --n < 2 or --ell < 1
                    raise ParseError(str(exc)) from exc
                profiles = [
                    tuple(rng.randrange(args.k + 1) for _ in range(args.n))
                    for _ in range(args.profiles)
                ]
                trial_ratios = [
                    expected_ratio_over_specs(specs, oracle, prof) for prof in profiles
                ]
                trial_worst = max(trial_ratios)
            else:
                mech = {
                    "ww": mech_willy_wonka,
                    "moww": mech_moww,
                }.get(mech_name, mech_golden)()
                trial_worst, _ = worst_case_ratio(mech, oracle, grid, args.n)
            ratios.append(trial_worst)
            if trial_worst > worst:
                worst = trial_worst
        if any(r == math.inf for r in ratios):
            mean: Fraction | float = math.inf
        else:
            mean = sum(ratios, Fraction(0)) / len(ratios)
        bound_str, bound, against_phi = _bound_for(mech_name, args.n, args.ell)
        worst_str, _ = _ratio_strings(worst)
        mean_str, _ = _ratio_strings(mean)
        rows.append(
            {
                "mechanism": mech_name,
                "class": args.valuation_class,
                "n": args.n,
                "k": args.k,
                "trials": args.trials,
                "worst_ratio": worst_str,
                "mean_ratio": mean_str,
                "bound": bound_str,
                "bound_respected": str(_respects(worst, bound, against_phi)).lower(),
            }
        )

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_gap(args) -> int:
    instance, family = load_instance_file(args.instance)
    if family is None:
        delta, witness = Fraction(1), None
    else:
        delta, witness = forcing_gap_scan(instance.valuation, family, instance.n)
    if delta == math.inf:
        print("+inf")
        return EXIT_OK
    print(f"{delta.numerator}/{delta.denominator}")
    if witness is not None:
        subset, agent = witness
        print(f"attained forcing agent {agent} into S={{{_subset_key(subset)}}}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgetmech",
        description="Budget-feasible procurement mechanisms and their grid verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one mechanism on an instance file")
    run.add_argument("instance")
    run.add_argument("--mechanism", required=True,
                     choices=["ww", "moww", "moww-constrained", "golden", "mr"])
    run.add_argument("--solver", default="exact", choices=sorted(SOLVERS))
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--ell", type=int, default=None)
    run.add_argument("--spec-index", type=int, default=None)
    run.set_defaults(fn=cmd_run)

    ver = sub.add_parser("verify", help="exhaustively check properties on the cost grid")
    ver.add_argument("instance", nargs="?", default=None)
    ver.add_argument("--random", nargs=4, type=int, metavar=("N", "K", "COUNT", "SEED"))
    ver.add_argument("--valuation-class", default="additive",
                     choices=["additive", "subadditive", "submodular"])
    ver.add_argument("--mechanism", required=True,
                     choices=["ww", "moww", "moww-constrained", "golden", "mr"])
    ver.add_argument("--solver", default="exact", choices=sorted(SOLVERS))
    ver.add_argument("--mutate", default=None, choices=MUTATIONS)
    ver.add_argument("--properties", default="ir,np,bf,bnom,wnom")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--ell", type=int, default=None)
    ver.add_argument("--spec-index", type=int, default=None)
    ver.set_defaults(fn=cmd_verify)

    tab = sub.add_parser("table", help="worst/mean approximation ratios as CSV")
    tab.add_argument("--mechanisms", required=True)
    tab.add_argument("--valuation-class", default="subadditive",
                     choices=["additive", "subadditive", "submodular"])
    tab.add_argument("--trials", type=int, default=10)
    tab.add_argument("--n", type=int, default=3)
    tab.add_argument("--k", type=int, default=4)
    tab.add_argument("--seed", type=int, default=0)
    tab.add_argument("--ell", type=int, default=None)
    tab.add_argument("--profiles", type=int, default=100)
    tab.add_argument("--out", default="-")
    tab.set_defaults(fn=cmd_table)

    gap = sub.add_parser("gap", help="agent-forcing gap of an instance's feasibility family")
    gap.add_argument("instance")
    gap.set_defaults(fn=cmd_gap)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (Incompatible, OracleClassError) as exc:
        print(f"incompatible: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
