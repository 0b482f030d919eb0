#!/usr/bin/env python3
"""Grid-scan benchmark for budgetmech.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  A run repeats whole rounds until the timed scans add up to S
seconds.  Each round imports the package afresh (so ``lru_cache``d threshold
searches and ticket families start empty), parses every instance document,
runs the class checks and builds the mechanisms -- that span is ``setup_s``,
repeated SETUPS_PER_ROUND times -- then runs the timed scan.  Failure
witnesses are re-verified after the scan (how many fail depends on the
seed's inputs, and the profile count leaves those calls out), and all
outputs are checked against ``reference``, outside the timed spans.  The last
line of standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of ``spans``.  A per-run
record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up is a short span (tens of ms), so each round repeats it and setup_s is
# the median over every repetition of the run; the last one feeds the scan.
SETUPS_PER_ROUND = 3


def fresh_import():
    """Import budgetmech from the checkout as a new process would."""
    for name in [m for m in sys.modules if m == "budgetmech" or m.startswith("budgetmech.")]:
        del sys.modules[name]
    package = importlib.import_module("budgetmech")
    importlib.import_module("budgetmech.cli")
    return package


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    scenarios = workload.make(random.Random(f"{name}/{seed}"))
    profiles = workload.profiles(scenarios)
    references = None
    rounds, failures = [], []
    attempted = failed = 0
    unexpected = []
    measured = 0.0
    while not rounds or measured < seconds:
        setups = []
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            start = time.perf_counter()
            package = fresh_import()
            tracer = spans.Tracer(package) if traced else None
            state = workload.setup(package, scenarios)
            setups.append(time.perf_counter() - start)
        gc.collect()
        scan_start = time.perf_counter()
        outputs = workload.scan(package, state)
        scan_s = time.perf_counter() - scan_start
        measured += scan_s
        workload.reverify(package, state, outputs)
        if references is None:
            references = [workload.reference(s, out) for s, out in zip(scenarios, outputs)]
        for s, r, out in zip(scenarios, references, outputs):
            for op in workload.operations(s):
                attempted += 1
                try:
                    workload.judge(op, s, r, out)
                except Exception as exc:  # Mismatch, or an output of the wrong shape
                    failed += 1
                    message = str(exc) if isinstance(exc, workloads.Mismatch) else f"{type(exc).__name__}: {exc}"
                    known = op.startswith("reverify/") and workloads.KNOWN_FAULT in message
                    if not rounds:
                        failures.append({"scenario": s.label, "op": op, "error": message, "known_fault": known})
                    if not known:
                        unexpected.append((s.label, op, message))
        rounds.append({
            "setup_s": setups,
            "scan_s": scan_s,
            "profiles_per_s": profiles / scan_s,
            **({"layers": tracer.metrics()} if tracer else {}),
        })
        del package, state, outputs, tracer
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": sys.version.split()[0], "profiles_per_round": profiles,
        "operations_per_round": sum(len(workload.operations(s)) for s in scenarios), "attempted": attempted, "failed": failed,
        "unexpected": unexpected[:20], "first_round_failures": failures,
        "peak_rss_mib": peak_mib, "rounds": rounds,
        "correct": not unexpected,
    }


def summary(record: dict, traced: bool) -> dict:
    rounds = record["rounds"]
    if traced:
        metrics = {
            metric: {"value": (statistics.median_low if stat == "calls" else statistics.median)(
                r["layers"][metric] for r in rounds), "unit": spans.UNITS[stat]}
            for metric, (_, stat) in spans.METRICS.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(t for r in rounds for t in r["setup_s"]), "unit": "s"},
            "profiles_per_s": {"value": statistics.median(r["profiles_per_s"] for r in rounds), "unit": "1/s"},
            "peak_rss_mib": {"value": record["peak_rss_mib"], "unit": "MiB"},
        }
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "budgetmech" / "__init__.py").is_file():
        print(f"no budgetmech sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    origin = Path(fresh_import().__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"budgetmech was imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for label, op, message in record["unexpected"]:
        print(f"FAILED {label} {op}: {message}", file=sys.stderr)
    print(json.dumps(summary(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
