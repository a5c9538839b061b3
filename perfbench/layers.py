"""Per-layer metrics derived from one traced pass.

Every metric is a function of the recorded spans and the aggregated `spaces`
totals, so the span file alone is enough to recompute them. Counts repeat
exactly at a fixed seed; times do not.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import END, NAME, NOTE, PARENT, SPACES_S, START, Tracer
from workloads import ALL_EXPERIMENTS

VECTOR_BUILDS = ("spaces.PrimalVector.__init__", "spaces.DualVector.__init__")
SCALAR_CALLS = ("spaces.norm", "spaces.dual_norm", "spaces.pairing")
ROW_CALLS = ("spaces.norm_rows", "spaces.pairing_rows")
DETERMINANTS = ("chebyshev.an_determinant", "chebyshev.an_recursive", "chebyshev.compare_determinants")

# name -> unit, in report order; BENCHMARK.json lists the same names
PER_LAYER = {
    "spaces.vectors": "count",
    "spaces.vector_s": "s",
    "spaces.scalar_calls": "count",
    "spaces.scalar_s": "s",
    "spaces.rows_calls": "count",
    "spaces.rows_s": "s",
    "spaces.total_s": "s",
    "fixed_points.queries": "count",
    "fixed_points.registry_settled": "count",
    "fixed_points.oracle_fallback": "count",
    "fixed_points.self_s": "s",
    "fixed_points.form_checks": "count",
    "fixed_points.form_check_s": "s",
    "fixed_points.poly_quotient_s": "s",
    "limsup_oracle.estimate_calls": "count",
    "limsup_oracle.samples": "count",
    "limsup_oracle.estimate_s": "s",
    "limsup_oracle.membership_calls": "count",
    "limsup_oracle.ray_calls": "count",
    "limsup_oracle.ray_s": "s",
    "limsup_oracle.ray_failures": "count",
    "limsup_oracle.ray_useful": "ratio",
    "limsup_oracle.verdict.member": "count",
    "limsup_oracle.verdict.non_member": "count",
    "limsup_oracle.verdict.indeterminate": "count",
    "limsup_oracle.min_margin": "quotient",
    "limsup_oracle.trace_rows": "count",
    "limsup_oracle.trace_csv_s": "s",
    "limsup_oracle.self_s": "s",
    "coderivatives.value_calls": "count",
    "coderivatives.value_batch_calls": "count",
    "coderivatives.value_batch_rows": "count",
    "coderivatives.closed_form_calls": "count",
    "coderivatives.self_s": "s",
    "chebyshev.remez_calls": "count",
    "chebyshev.remez_iterations": "count",
    "chebyshev.remez_s": "s",
    "chebyshev.remez_failures": "count",
    "chebyshev.determinant_s": "s",
    "chebyshev.self_s": "s",
    "projections.closed_form_calls": "count",
    "projections.brute_force_calls": "count",
    "projections.brute_force_s": "s",
    "projections.self_s": "s",
    **{f"experiments.{e}_s": "s" for e in ALL_EXPERIMENTS},
    "experiments.report_s": "s",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "bench.spans": "count",
    "bench.traced_pass_s": "s",
    "bench.untraced_pass_s": "s",
    "bench.trace_overhead_s": "s",
}

# per-layer metrics where a larger value is the better outcome
HIGHER_IS_BETTER = {
    "fixed_points.registry_settled",
    "limsup_oracle.ray_useful",
    "limsup_oracle.verdict.member",
    "limsup_oracle.verdict.non_member",
    "limsup_oracle.min_margin",
}


def _margin(note: dict) -> float:
    """Distance of an extrapolated limsup from the nearer threshold."""
    value = note["extrapolated"]
    return min(abs(value - note["tol_accept"]), abs(value - note["tol_reject"]))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything the tracer recorded, except the
    `bench.*` and `cli.out_bytes` entries, which the runner measures."""
    spans = tracer.spans
    names = tracer.names
    children: dict[int, list[int]] = defaultdict(list)
    child_s = [0.0] * len(spans)
    for idx, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(idx)
            child_s[rec[PARENT]] += rec[END] - rec[START]

    count: dict[str, int] = defaultdict(int)
    total_s: dict[str, float] = defaultdict(float)  # inclusive, outermost call of a name only
    self_s: dict[str, float] = defaultdict(float)  # per layer
    m: dict[str, float] = defaultdict(float)
    margins = []
    ray_useful = 0
    for idx, rec in enumerate(spans):
        name = names[rec[NAME]]
        layer = name.split(".", 1)[0]
        duration = rec[END] - rec[START]
        parent = names[spans[rec[PARENT]][NAME]] if rec[PARENT] >= 0 else None
        note = rec[NOTE] or {}
        count[name] += 1
        if parent != name:
            total_s[name] += duration
        self_s[layer] += duration - child_s[idx] - rec[SPACES_S]
        if "error" in note:
            m[f"error:{name}"] += 1
            continue
        if name == "fixed_points.is_fixed_point":
            fell_back = any(names[spans[c][NAME]] == "limsup_oracle.membership_test"
                            for c in children[idx])
            m["fixed_points.oracle_fallback" if fell_back else "fixed_points.registry_settled"] += 1
        elif name == "limsup_oracle.estimate_limsup":
            m["limsup_oracle.samples"] += note["samples"]
            m["limsup_oracle.trace_rows"] += note["trace_rows"]
            if parent != "limsup_oracle.membership_test":
                m[f"limsup_oracle.verdict.{note['verdict']}"] += 1
                margins.append(_margin(note))
        elif name == "limsup_oracle.membership_test":
            m[f"limsup_oracle.verdict.{note['verdict']}"] += 1
            margins.append(_margin(note))
        elif name == "limsup_oracle.directed_ray_limit" and parent == "limsup_oracle.membership_test":
            sampled = [spans[c][NOTE]["extrapolated"] for c in children[rec[PARENT]]
                       if names[spans[c][NAME]] == "limsup_oracle.estimate_limsup"]
            ray_useful += bool(sampled) and note["limit"] > sampled[0]
        elif name == "chebyshev.remez":
            m["chebyshev.remez_iterations"] += note["iterations"]
        elif name == "coderivatives.MapDescriptor.value_batch":
            m["coderivatives.value_batch_rows"] += note["rows"]
        elif name in ("experiments.run_experiment", "experiments.experiment_trace"):
            m[f"experiments.{note['experiment']}_s"] += duration

    agg = tracer.aggregated

    def agg_calls(group):
        return sum(agg[n][0] for n in group if n in agg)

    def agg_s(group):
        return sum(agg[n][1] for n in group if n in agg)

    ray_calls = count["limsup_oracle.directed_ray_limit"]
    out = {name: 0.0 for name in PER_LAYER}
    out.update({k: v for k, v in m.items() if k in PER_LAYER})
    out.update({
        "spaces.vectors": agg_calls(VECTOR_BUILDS),
        "spaces.vector_s": agg_s(VECTOR_BUILDS),
        "spaces.scalar_calls": agg_calls(SCALAR_CALLS),
        "spaces.scalar_s": agg_s(SCALAR_CALLS),
        "spaces.rows_calls": agg_calls(ROW_CALLS),
        "spaces.rows_s": agg_s(ROW_CALLS),
        "spaces.total_s": sum(rec[SPACES_S] for rec in spans),
        "fixed_points.queries": count["fixed_points.is_fixed_point"],
        "fixed_points.self_s": self_s["fixed_points"],
        "fixed_points.form_checks": count["fixed_points.quotient_forms_spread"],
        "fixed_points.form_check_s": total_s["fixed_points.quotient_forms_spread"],
        "fixed_points.poly_quotient_s": total_s["fixed_points.poly_fixed_point_quotient"],
        "limsup_oracle.estimate_calls": count["limsup_oracle.estimate_limsup"],
        "limsup_oracle.estimate_s": total_s["limsup_oracle.estimate_limsup"],
        "limsup_oracle.membership_calls": count["limsup_oracle.membership_test"],
        "limsup_oracle.ray_calls": ray_calls,
        "limsup_oracle.ray_s": total_s["limsup_oracle.directed_ray_limit"],
        "limsup_oracle.ray_failures": m["error:limsup_oracle.directed_ray_limit"],
        "limsup_oracle.ray_useful": ray_useful / ray_calls if ray_calls else 0.0,
        "limsup_oracle.min_margin": min(margins) if margins else 0.0,
        "limsup_oracle.trace_csv_s": total_s["limsup_oracle.trace_to_csv"],
        "limsup_oracle.self_s": self_s["limsup_oracle"],
        "coderivatives.value_calls": count["coderivatives.MapDescriptor.value"],
        "coderivatives.value_batch_calls": count["coderivatives.MapDescriptor.value_batch"],
        "coderivatives.closed_form_calls": sum(
            c for n, c in count.items() if n.startswith("coderivatives.coderiv_")),
        "coderivatives.self_s": self_s["coderivatives"],
        "chebyshev.remez_calls": count["chebyshev.remez"],
        "chebyshev.remez_s": total_s["chebyshev.remez"],
        "chebyshev.remez_failures": m["error:chebyshev.remez"],
        "chebyshev.determinant_s": sum(_outermost_durations(spans, names, DETERMINANTS)),
        "chebyshev.self_s": self_s["chebyshev"],
        "projections.closed_form_calls": sum(
            c for n, c in count.items() if n.startswith("projections.project_")),
        "projections.brute_force_calls": count["projections.brute_force_project"],
        "projections.brute_force_s": total_s["projections.brute_force_project"],
        "projections.self_s": self_s["projections"],
        "experiments.report_s": total_s["experiments.report_to_json"],
        "experiments.self_s": self_s["experiments"],
        "cli.self_s": self_s["cli"],
        "bench.spans": len(spans),
    })
    return {k: int(v) if PER_LAYER[k] in ("count", "bytes") else float(v) for k, v in out.items()}


def _outermost_durations(spans, names, group):
    """Durations of the spans named in `group` that no other span of the
    group encloses."""
    ids = {i for i, n in enumerate(names) if n in group}
    for rec in spans:
        if rec[NAME] in ids and not (rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] in ids):
            yield rec[END] - rec[START]
