"""The benchmark's four workloads: seeded inputs, set-up, the timed scan, checks.

Each workload turns its seed into instance documents with the benchmark's own
generators (the program's ``random_*`` generators are not used, so a change
to them cannot change a workload).  Every slot of a workload has a fixed
shape -- grid, agent count, valuation kind, mechanism branch, family size --
and the seed only draws the numbers, so the work per round hardly depends on
the seed.  One operation is one (scenario, check) pair; its outputs are
compared with ``reference`` after the timed scan.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

DIRECT = ("ir", "np", "bf", "bnom", "wnom")
THRESHOLDS = ("threshold_gt", "threshold_ws", "restricted_gt")
ALL_PROPS = DIRECT + THRESHOLDS + ("crosscheck",)
CHECKER = {
    "ir": "check_ir", "np": "check_np", "bf": "check_bf",
    "bnom": "check_bnom_direct", "wnom": "check_wnom_direct",
    "threshold_gt": "check_threshold_gt", "threshold_ws": "check_threshold_ws",
    "restricted_gt": "check_restricted_gt_payments",
    "crosscheck": "characterization_crosscheck",
}
# verify.reverify_witness has no rule for the threshold properties; re-verifying
# one of their failed reports raises a ValueError with this text.
KNOWN_FAULT = "no re-verification rule"


@dataclass
class Scenario:
    label: str
    n: int
    k: int
    values: tuple[Fraction, ...]  # V by subset bitmask: the benchmark's own copy
    doc: dict  # the instance document handed to cli.parse_instance_doc
    family: tuple[int, ...] | None = None  # feasible subsets as bitmasks
    reverify_thresholds: bool = False
    profiles: tuple[tuple[int, ...], ...] = ()  # mr-corollary: ratio profiles


class Failed:
    """An exception raised by a program call, kept in place of its result."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def __str__(self) -> str:
        return f"{type(self.exc).__name__}: {self.exc}"


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # one failed operation must not stop the scan
        return Failed(exc)


class Mismatch(Exception):
    """An output disagrees with the reference or breaks a required property."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def table_rows(out: dict, key: str):
    """The outcome table under ``key`` as plain rows, with a digest; computed
    once per round."""
    if key + "/rows" not in out:
        rows = {profile: (o.allocation, o.payments) for profile, o in result(out[key]).items()}
        out[key + "/rows"] = rows, hashlib.sha256(repr(list(rows.items())).encode()).hexdigest()
    return out[key + "/rows"]


def result(value):
    if isinstance(value, Failed):
        raise Mismatch(str(value))
    return value


def judge_direct(prop: str, rep, want: bool, folds, rows, reverified) -> None:
    """A direct verdict must equal the reference folds' one, IR/NP/BF must
    hold, and a failed report's witness must be a counterexample in the table
    and re-verify with fresh mechanism calls."""
    rep = result(rep)
    expect(rep.holds == want, f"says {rep.holds}, reference folds say {want}")
    expect(want or prop in ("bnom", "wnom"), f"{prop} must hold for every mechanism here")
    if not rep.holds:
        expect(folds.confirms(prop, rep.witness, rows), f"witness {rep.witness} is no counterexample")
        expect(result(reverified) is True, "witness does not re-verify")


# --- input generators ---------------------------------------------------------


def subset_key(mask: int) -> str:
    return ",".join(str(i) for i in ref.members(mask))


def table_doc(n: int, k: int, values, family=None) -> dict:
    doc = {
        "n": n,
        "budget_ticks": k,
        "valuation": {"kind": "table", "entries": {subset_key(m): str(v) for m, v in enumerate(values)}},
        "costs_ticks": [0] * n,
    }
    if family is not None:
        doc["feasibility"] = [subset_key(m) for m in family]
    return doc


def coverage(rng: random.Random, n: int, den: int) -> tuple[Fraction, ...]:
    """Weighted coverage of an 8-element universe: monotone submodular."""
    weights = [rng.randint(1, 6) for _ in range(8)]
    covers = [ref.mask_of(e for e in range(8) if rng.random() < 0.4) or 1 << rng.randrange(8) for _ in range(n)]
    values = []
    for mask in range(1 << n):
        covered = 0
        for i in ref.members(mask):
            covered |= covers[i]
        values.append(Fraction(sum(w for e, w in enumerate(weights) if covered >> e & 1), den))
    return tuple(values)


def capped(rng: random.Random, n: int, den: int) -> tuple[Fraction, ...]:
    """min(additive, cap): monotone subadditive."""
    base = [rng.randint(1, 9) for _ in range(n)]
    cap = rng.randint(max(base) // 2 + 1, sum(base))
    return tuple(
        Fraction(min(sum(base[i] for i in ref.members(m)), cap), den) for m in range(1 << n)
    )


def draw(make, accept):
    for _ in range(10_000):
        values = make()
        if accept(values):
            return values
    raise RuntimeError("no draw met the slot's condition")


def strong_agent(values, n: int) -> bool:
    """moww's strong-singleton branch: some V({i}) >= V(N - {i})."""
    full = (1 << n) - 1
    return any(values[1 << i] >= values[full ^ 1 << i] for i in range(n))


# --- grid scans: moww-scan, golden-fold, constrained-scan ---------------------


@dataclass
class Prepared:
    scenario: Scenario
    valuation: object
    family: object
    grid: object
    mech: object
    class_check: object


class GridScan:
    """Per scenario: one outcome table, the checkers over it and the worst-case ratio."""

    props: tuple[str, ...] = ALL_PROPS

    def profiles(self, scenarios) -> int:
        return sum((s.k + 1) ** s.n for s in scenarios)

    def setup(self, bm, scenarios):
        prepared = []
        for s in scenarios:
            instance, family = bm.cli.parse_instance_doc(s.doc)
            check = attempt(bm.valuation.check_class, instance.valuation, "subadditive")
            mech = self.mechanism(bm, family)
            prepared.append(Prepared(s, instance.valuation, family, bm.domain.CostGrid(s.k), mech, check))
        return prepared

    def scan(self, bm, prepared):
        return [self.scan_one(bm, p) for p in prepared]

    def scan_one(self, bm, p: Prepared) -> dict:
        verify, s = bm.verify, p.scenario
        args = (p.mech, p.valuation, p.grid, s.n)
        out = {"class": p.class_check, "table": attempt(verify.outcome_table, *args)}
        table = out["table"]
        if isinstance(table, Failed):
            return out
        for prop in self.props:
            out[prop] = attempt(getattr(verify, CHECKER[prop]), *args, table)
        out["ratio"] = attempt(verify.worst_case_ratio, *args, p.family, table)
        return out

    def reverify(self, bm, prepared, outputs) -> None:
        """Re-verify the witness of every failed report with fresh mechanism calls."""
        for p, out in zip(prepared, outputs):
            args = (p.mech, p.valuation, p.grid, p.scenario.n)
            for prop in self.props:
                rep = out.get(prop)
                report = rep[0] if isinstance(rep, tuple) else rep
                if report is None or isinstance(report, Failed) or prop == "crosscheck" or report.holds:
                    continue
                if prop in DIRECT or p.scenario.reverify_thresholds:
                    out["reverify/" + prop] = attempt(bm.verify.reverify_witness, report, *args)

    def operations(self, s: Scenario) -> list[str]:
        ops = ["class", *self.props, "ratio"]
        if s.reverify_thresholds:
            ops += ["reverify/" + prop for prop in THRESHOLDS]
        return ops

    def reference(self, s: Scenario, out: dict):
        """Reference verdicts for the reference round's outcome table.

        Only the table's digest is kept, so that the reference adds little to
        the run's peak memory; later rounds must reproduce the same table.
        """
        if isinstance(out["table"], Failed):
            return None
        rows, digest = table_rows(out, "table")
        folds = ref.PaymentFolds(((p, a, pay) for p, (a, pay) in rows.items()), s.n, s.k)
        ratios = ref.ratios_by_profile(((p, a, pay) for p, (a, pay) in rows.items()), s.values, s.k, s.family)
        worst = max(ratios.values())
        family = None if s.family is None else set(s.family)
        return {
            "digest": digest, "folds": folds, "bnom": folds.bnom, "wnom": folds.wnom,
            "worst": worst, "argmax": {p for p, x in ratios.items() if x == worst},
            "gap": None if family is None else ref.forcing_gap(s.values, s.family, s.n),
            "feasible": family is None or all(
                ref.mask_of(i for i, x in enumerate(alloc) if x) in family for alloc, _ in rows.values()
            ),
        }

    def judge(self, op: str, s: Scenario, r: dict, out: dict) -> None:
        """Raise Mismatch unless operation ``op`` of this round's outputs is right."""
        if op == "class":
            expect(result(out["class"]) == (True, None), f"check_class said {out['class']}")
            expect(ref.is_monotone_subadditive(s.values, s.n), "reference: input is not subadditive")
            return
        expect(r is not None, "no outcome table in the reference round")
        rows, digest = table_rows(out, "table")
        expect(digest == r["digest"], "outcome table differs from the reference round's")
        folds = r["folds"]
        if op in DIRECT:
            want = r[op] if op in ("bnom", "wnom") else getattr(folds, op)
            judge_direct(op, out[op], want, folds, rows, out.get("reverify/" + op))
        elif op in THRESHOLDS:
            rep = result(out[op])
            report = rep[0] if isinstance(rep, tuple) else rep
            direct = r["wnom"] if op == "threshold_ws" else r["bnom"]
            if folds.np and (folds.ir or op == "restricted_gt"):
                expect(report.holds == direct, f"says {report.holds}, direct verdict is {direct}")
            if isinstance(rep, tuple):
                cert = rep[1]
                expect((cert is not None) == report.holds, "certificate present iff the threshold exists")
                expect(cert is None or len(cert.thresholds) == s.n, "one threshold per agent")
        elif op == "crosscheck":
            rep = result(out["crosscheck"])
            lines = {line.name: (line.direct, line.structural) for line in rep.lines}
            want = {"bnom<->restricted_gt_payments": (r["bnom"], result(out["restricted_gt"]).holds)}
            if folds.ir:
                want["bnom<->threshold_gt"] = (r["bnom"], result(out["threshold_gt"])[0].holds)
                want["wnom<->threshold_ws"] = (r["wnom"], result(out["threshold_ws"])[0].holds)
            expect(lines == want, f"lines {lines}, expected {want}")
            expect(rep.all_agree, "the characterization does not hold")
        elif op == "ratio":
            worst, arg = result(out["ratio"])
            expect(worst == r["worst"], f"worst ratio {worst}, reference {r['worst']}")
            expect(tuple(arg) in r["argmax"], f"ratio at arg-max {arg} is not {worst}")
            self.judge_ratio(s, r, worst)
        elif op.startswith("reverify/"):
            prop = op.split("/", 1)[1]
            rep = result(out[prop])
            report = rep[0] if isinstance(rep, tuple) else rep
            if not report.holds:
                expect(result(out[op]) is True, "witness does not re-verify")
        elif op == "gap":
            gap = result(out["gap"])
            expect(gap == r["gap"], f"forcing gap {gap}, reference {r['gap']}")
        else:
            raise ValueError(f"unknown operation {op!r}")


class MowwScan(GridScan):
    N, K = 5, 4
    # (branch, generator, denominator) per slot: the strong-agent branch costs
    # about half the ticket branch per profile, so the mix is fixed.
    SLOTS = (
        ("strong", capped, 1), ("strong", coverage, 2),
        ("ticket", coverage, 1), ("ticket", capped, 2), ("ticket", coverage, 3),
    )

    def make(self, rng):
        scenarios = []
        for j, (branch, gen, den) in enumerate(self.SLOTS):
            values = draw(lambda: gen(rng, self.N, den), lambda v: strong_agent(v, self.N) == (branch == "strong"))
            scenarios.append(Scenario(f"v{j}/{branch}", self.N, self.K, values, table_doc(self.N, self.K, values)))
        return scenarios

    def mechanism(self, bm, family):
        return bm.mechanisms.mech_moww()

    def judge_ratio(self, s, r, worst):
        expect(worst <= 2, f"moww worst-case ratio {worst} exceeds 2")


def golden_pair(rng, den):
    a, b = rng.randint(1, 30), rng.randint(1, 30)
    c = rng.randint(max(a, b), a + b)
    return (Fraction(0), Fraction(a, den), Fraction(b, den), Fraction(c, den))


def golden_shape(values) -> str:
    """Which of three costs the golden mechanism's threshold search has.

    "dominant": V(top) >= phi * V(other); the search stops at once and both
    thresholds exist.  Otherwise the thresholds do not exist (the criterion-3
    verdicts), and the search scans every declaration when V(N) >= phi *
    V(other) ("pair-high") but stops at the first opponent when not
    ("pair-low").
    """
    hi, lo = max(values[1], values[2]), min(values[1], values[2])
    if not ref.at_most_phi(hi / lo):
        return "dominant"
    return "pair-low" if ref.at_most_phi(values[3] / lo) else "pair-high"


class GoldenFold(GridScan):
    N, K = 2, 60
    SLOTS = (("dominant", 1), ("dominant", 2), ("pair-high", 1), ("pair-high", 3), ("pair-low", 2))
    # Seed-independent: the golden_pair fixture's values (1618/1000 and 1,
    # additive; "pair-high").  All three threshold reports fail here, by
    # design at n=2, and their re-verification hits the reverify_witness fault.
    FIXED = (Fraction(0), Fraction(809, 500), Fraction(1), Fraction(1309, 500))

    def make(self, rng):
        scenarios = [Scenario("fixed/golden-pair", self.N, self.K, self.FIXED,
                              table_doc(self.N, self.K, self.FIXED), reverify_thresholds=True)]
        for j, (shape, den) in enumerate(self.SLOTS):
            values = draw(lambda: golden_pair(rng, den), lambda v: golden_shape(v) == shape)
            scenarios.append(Scenario(f"v{j}/{shape}", self.N, self.K, values, table_doc(self.N, self.K, values)))
        return scenarios

    def mechanism(self, bm, family):
        return bm.mechanisms.mech_golden()

    def judge_ratio(self, s, r, worst):
        expect(ref.at_most_phi(worst), f"golden worst-case ratio {worst} exceeds phi")


def downward_closure(tops, n):
    return tuple(m for m in range(1 << n) if any(m & ~t == 0 for t in tops))


def scattered(rng, n, size):
    """The empty set plus ``size`` random nonempty subsets, not downward-closed."""
    def make():
        return (0, *sorted(rng.sample(range(1, 1 << n), size)))
    return draw(make, lambda fam: downward_closure(fam, n) != fam)


def constrained_strong(values, family, n: int) -> bool:
    """The constrained strong-agent branch: some V({i}) is at least the best
    family member without i."""
    return any(values[1 << i] >= max(values[s] for s in family if not s >> i & 1) for i in range(n))


class ConstrainedScan(GridScan):
    props = DIRECT
    # (n, k, family shape, generator, branch): every family has a fixed size --
    # the closure of two (n-1)-sets, or a scattered family -- and the branch is
    # fixed, so that the work per profile is about the same for every seed.
    SLOTS = (
        (4, 5, "closed", capped, "ticket"), (4, 5, "scattered", coverage, "ticket"),
        (4, 5, "closed", coverage, "strong"), (4, 5, "scattered", capped, "ticket"),
        (5, 3, "closed", coverage, "ticket"), (5, 3, "scattered", capped, "strong"),
    )

    def make(self, rng):
        scenarios = []
        for j, (n, k, shape, gen, branch) in enumerate(self.SLOTS):
            def make_pair():
                if shape == "closed":
                    tops = rng.sample([((1 << n) - 1) ^ 1 << i for i in range(n)], 2)
                    family = downward_closure(tops, n)
                else:
                    family = scattered(rng, n, 3 * n)
                return gen(rng, n, 1), family

            values, family = draw(make_pair, lambda vf: constrained_strong(*vf, n) == (branch == "strong"))
            doc = table_doc(n, k, values, family)
            scenarios.append(Scenario(f"v{j}/n{n}/{shape}/{branch}", n, k, values, doc, family))
        return scenarios

    def mechanism(self, bm, family):
        return bm.mechanisms.mech_moww_constrained(family)

    def scan_one(self, bm, p):
        out = super().scan_one(bm, p)
        out["gap"] = attempt(bm.packing.agent_forcing_gap, p.valuation, p.family, p.scenario.n)
        return out

    def operations(self, s):
        return super().operations(s) + ["gap"]

    def judge_ratio(self, s, r, worst):
        expect(r["feasible"], "an allocation is outside the feasibility family")


# --- mr-corollary ---------------------------------------------------------------


class MrCorollary:
    """The criterion-7 corollary: a disjoint ticket family of ELL specs on a grid
    with capacity (K+1)^(N-1) >= 2*N*ELL, each spec's outcome table checked,
    then the mean-value ratio over the specs on random profiles."""

    N, K, ELL, PROFILES = 3, 8, 12, 150
    DENS = (1, 2, 3)

    def make(self, rng):
        scenarios = []
        for j, den in enumerate(self.DENS):
            base = [Fraction(rng.randint(1, 12), den) for _ in range(self.N)]
            values = tuple(sum((base[i] for i in ref.members(m)), Fraction(0)) for m in range(1 << self.N))
            doc = {"n": self.N, "budget_ticks": self.K, "costs_ticks": [0] * self.N,
                   "valuation": {"kind": "additive", "values": [str(x) for x in base]}}
            profiles = tuple(
                tuple(rng.randrange(self.K + 1) for _ in range(self.N)) for _ in range(self.PROFILES)
            )
            scenarios.append(Scenario(f"v{j}/additive", self.N, self.K, values, doc, profiles=profiles))
        return scenarios

    def profiles(self, scenarios) -> int:
        per_spec = (self.K + 1) ** self.N + self.PROFILES
        return len(scenarios) * self.ELL * per_spec

    def setup(self, bm, scenarios):
        specs = bm.mechanisms.make_ticket_family(self.N, self.K, self.ELL)
        mechs = [bm.mechanisms.mech_mr(spec) for spec in specs]
        grid = bm.domain.CostGrid(self.K)
        prepared = []
        for s in scenarios:
            instance, _ = bm.cli.parse_instance_doc(s.doc)
            check = attempt(bm.valuation.check_class, instance.valuation, "additive")
            prepared.append((s, instance.valuation, check))
        return specs, mechs, grid, prepared

    def scan(self, bm, state):
        specs, mechs, grid, prepared = state
        verify = bm.verify
        outs = []
        for s, valuation, check in prepared:
            out = {"class": check, "specs": specs}
            for j, mech in enumerate(mechs):
                args = (mech, valuation, grid, self.N)
                table = out[f"spec{j}/table"] = attempt(verify.outcome_table, *args)
                if isinstance(table, Failed):
                    continue
                for prop in DIRECT:
                    out[f"spec{j}/{prop}"] = attempt(getattr(verify, CHECKER[prop]), *args, table)
            for j, profile in enumerate(s.profiles):
                out[f"profile{j}/ratio"] = attempt(verify.expected_ratio_over_specs, specs, valuation, profile)
            outs.append(out)
        return outs

    def reverify(self, bm, state, outputs) -> None:
        """Re-verify the witness of every failed report with fresh mechanism calls."""
        specs, mechs, grid, prepared = state
        for (s, valuation, _), out in zip(prepared, outputs):
            for j, mech in enumerate(mechs):
                for prop in DIRECT:
                    rep = out.get(f"spec{j}/{prop}")
                    if rep is not None and not isinstance(rep, Failed) and not rep.holds:
                        out[f"spec{j}/reverify/{prop}"] = attempt(
                            bm.verify.reverify_witness, rep, mech, valuation, grid, self.N
                        )

    def operations(self, s):
        ops = ["class", "tickets"]
        ops += [f"spec{j}/{prop}" for j in range(self.ELL) for prop in DIRECT]
        ops += [f"profile{j}/ratio" for j in range(len(s.profiles))]
        return ops

    def reference(self, s, out):
        digests, folds, rows = [], [], []
        for j in range(self.ELL):
            if isinstance(out[f"spec{j}/table"], Failed):
                return None
            spec_rows, digest = table_rows(out, f"spec{j}/table")
            rows.append(spec_rows)
            digests.append(digest)
            folds.append(ref.PaymentFolds(((p, a, pay) for p, (a, pay) in spec_rows.items()), self.N, self.K))
        ratios = []
        for profile in s.profiles:
            opt = ref.best_value(s.values, profile, self.K)
            achieved = sum(
                (s.values[ref.mask_of(i for i, x in enumerate(spec_rows[profile][0]) if x)] for spec_rows in rows),
                Fraction(0),
            )
            ratios.append(ref.ratio(opt, achieved / self.ELL))
        return {"digests": digests, "folds": folds, "ratios": ratios}

    def judge(self, op, s, r, out):
        if op == "class":
            expect(result(out["class"]) == (True, None), f"check_class said {out['class']}")
            expect(ref.is_additive(s.values, self.N), "reference: input is not additive")
            return
        if op == "tickets":
            specs = result(out["specs"])
            tickets = [t for spec in specs for t in (*spec.golden, *spec.wooden)]
            expect(len(specs) == self.ELL and len(tickets) == 2 * self.N * self.ELL, "wrong family size")
            expect(len(set(tickets)) == len(tickets), "ticket profiles are not pairwise distinct")
            expect(all(len(t) == self.N - 1 and all(0 <= c <= self.K for c in t) for t in tickets),
                   "a ticket is not an opponent profile on the grid")
            return
        expect(r is not None, "no outcome tables in the reference round")
        head, prop = op.split("/", 1)
        if head.startswith("profile"):
            j = int(head[len("profile"):])
            got = result(out[op])
            expect(got == r["ratios"][j], f"mean-value ratio {got}, reference {r['ratios'][j]}")
            bound = Fraction(self.ELL, self.ELL - self.N)
            expect(got <= bound, f"mean-value ratio {got} exceeds {bound}")
            return
        j = int(head[len("spec"):])
        rows, digest = table_rows(out, f"spec{j}/table")
        expect(digest == r["digests"][j], "outcome table differs from the reference round's")
        folds = r["folds"][j]
        judge_direct(prop, out[op], getattr(folds, prop), folds, rows, out.get(f"spec{j}/reverify/{prop}"))


WORKLOADS = {
    "moww-scan": MowwScan(),
    "mr-corollary": MrCorollary(),
    "golden-fold": GoldenFold(),
    "constrained-scan": ConstrainedScan(),
}
