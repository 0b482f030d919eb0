"""Per-layer spans around the public functions of each budgetmech module.

The modules import each other's names directly (``verify`` and
``mechanisms`` hold their own bindings of ``solve_exact`` and ``opt_force``),
so a wrapper replaces every module's binding of the function it wraps.  Each
span adds its duration to its parent, so a span's self time is its duration
minus the time of its child spans.  Spans are folded into per-name totals as
they close: a scan makes millions of ``value`` calls, too many to keep.
"""

from __future__ import annotations

import functools
from time import perf_counter

TRACED = {
    "cli": ("parse_instance_doc",),
    "domain": ("compare_ratio_to_phi",),
    "valuation": ("check_class", "singleton_order"),
    "packing": ("solve_exact", "opt_force", "agent_forcing_gap"),
    "mechanisms": (
        "willy_wonka", "max_or_willy_wonka", "max_or_willy_wonka_constrained",
        "golden_mechanism", "randomized_mr", "x1_select", "compute_w1", "make_ticket_family",
    ),
    "verify": (
        "outcome_table", "check_ir", "check_np", "check_bf", "check_bnom_direct",
        "check_wnom_direct", "check_restricted_gt_payments", "check_threshold_gt",
        "check_threshold_ws", "characterization_crosscheck", "worst_case_ratio",
        "expected_ratio_over_specs", "reverify_witness",
    ),
}

VALUE_CLASSES = ("AdditiveValuation", "TableValuation")

CHECKERS = (
    "check_ir", "check_np", "check_bf", "check_bnom_direct", "check_wnom_direct",
    "check_restricted_gt_payments", "check_threshold_gt", "check_threshold_ws",
    "characterization_crosscheck",
)

# Per-layer metric name -> (span name, statistic).  "total" is the span's
# whole duration, "self" excludes child spans, "us" is total per call in µs.
METRICS = {
    "cli.parse_instance_s": ("cli.parse_instance_doc", "total"),
    "valuation.check_class_s": ("valuation.check_class", "total"),
    "valuation.value_calls": ("valuation.value", "calls"),
    "valuation.value_self_s": ("valuation.value", "self"),
    "valuation.singleton_order_calls": ("valuation.singleton_order", "calls"),
    "domain.phi_compare_calls": ("domain.compare_ratio_to_phi", "calls"),
    "packing.solve_exact_calls": ("packing.solve_exact", "calls"),
    "packing.solve_exact_self_s": ("packing.solve_exact", "self"),
    "packing.solve_exact_us": ("packing.solve_exact", "us"),
    "packing.opt_force_calls": ("packing.opt_force", "calls"),
    "packing.opt_force_self_s": ("packing.opt_force", "self"),
    "packing.agent_forcing_gap_s": ("packing.agent_forcing_gap", "total"),
    "mechanisms.self_s": ("mechanisms", "self"),
    "mechanisms.compute_w1_s": ("mechanisms.compute_w1", "total"),
    "mechanisms.x1_select_calls": ("mechanisms.x1_select", "calls"),
    "mechanisms.make_ticket_family_s": ("mechanisms.make_ticket_family", "total"),
    "verify.outcome_table_self_s": ("verify.outcome_table", "self"),
    **{f"verify.{name}_s": (f"verify.{name}", "self") for name in CHECKERS},
    "verify.worst_case_ratio_self_s": ("verify.worst_case_ratio", "self"),
    "verify.expected_ratio_self_s": ("verify.expected_ratio_over_specs", "self"),
    "verify.reverify_witness_s": ("verify.reverify_witness", "total"),
}

UNITS = {"calls": "count", "self": "s", "total": "s", "us": "us"}


class Tracer:
    """Installs span wrappers into one freshly imported budgetmech package."""

    def __init__(self, package) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self._open: list[float] = []  # child time accumulated by each open span
        modules = {layer: getattr(package, layer) for layer in TRACED}
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in (package, *modules.values()):
                    for attr, bound in list(vars(module).items()):
                        if bound is original:
                            setattr(module, attr, wrapper)
        for cls_name in VALUE_CLASSES:
            cls = getattr(modules["valuation"], cls_name)
            cls.value = self._wrap("valuation.value", cls.value)

    def _wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                children = open_spans.pop()
                stats[0] += 1
                stats[1] += took
                stats[2] += took - children
                if open_spans:
                    open_spans[-1] += took

        return span

    def metrics(self) -> dict[str, float]:
        out = {}
        for metric, (span, stat) in METRICS.items():
            if span in TRACED:  # a whole layer: sum its spans
                rows = [v for k, v in self.spans.items() if k.startswith(span + ".")]
            else:
                rows = [self.spans[span]]
            calls = sum(r[0] for r in rows)
            total = sum(r[1] for r in rows)
            own = sum(r[2] for r in rows)
            out[metric] = {
                "calls": calls, "total": total, "self": own,
                "us": total / calls * 1e6 if calls else 0.0,
            }[stat]
        return out
