"""Per-layer metrics from the spans that traced_cli.py writes.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly (one thread), so children never overlap.
Counts repeat exactly for a given seed; times do not.  The ``_mb`` values
are bytes moved computed from array shapes, not measured traffic.
"""

from __future__ import annotations

import json
from collections import defaultdict

COMMANDS = ("gen_dataset", "validate", "optimize", "crlb_map", "montecarlo")

# name, unit; the order the traced run prints them in
METRICS = (
    ("emdata.generate_s", "s"), ("emdata.save_s", "s"), ("emdata.file_mb", "MB"),
    ("emdata.load_calls", "count"), ("emdata.load_s", "s"), ("emdata.upa_patterns_s", "s"),
    ("network.load_correction_calls", "count"), ("network.load_correction_self_s", "s"),
    ("network.cond_calls", "count"), ("network.cond_s", "s"),
    ("network.overall_patterns_s", "s"),
    ("optimizer.configs_requested", "count"), ("optimizer.configs_evaluated", "count"),
    ("optimizer.cache_hit_ratio", "ratio"), ("optimizer.evaluate_ms_per_config", "ms"),
    ("optimizer.evaluate_self_s", "s"), ("optimizer.ga_self_s", "s"),
    ("optimizer.port_update_self_s", "s"), ("optimizer.inf_configs", "count"),
    ("optimizer.codebook_io_s", "s"),
    ("kernels.fim_sweep_calls", "count"), ("kernels.fim_sweep_points", "count"),
    ("kernels.fim_sweep_s", "s"), ("kernels.fim_sweep_mb", "MB"),
    ("kernels.ml_scores_calls", "count"), ("kernels.ml_candidates", "count"),
    ("kernels.ml_scores_s", "s"), ("kernels.ml_scores_mb", "MB"),
    ("simulate.snapshot_s", "s"), ("simulate.ml_estimate_self_s", "s"),
    ("simulate.candidate_build_s", "s"), ("simulate.ml_search_ms_per_snapshot", "ms"),
    ("crlb.crlb_map_calls", "count"), ("crlb.crlb_map_self_s", "s"),
    ("crlb.crlb_matrix_calls", "count"), ("crlb.singular_points", "count"),
    ("cli.self_s", "s"),
) + tuple((f"cmd.{c}_s", "s") for c in COMMANDS) + (
    ("trace.spans", "count"), ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
)


class _Totals:
    """Per span name: call count, total and self seconds, summed attributes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.attrs = defaultdict(lambda: defaultdict(float))
        self.spans = 0

    def add_file(self, path) -> None:
        with open(path) as fh:
            spans = json.load(fh)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self_s[name] += dur - child_time[i]
            for k, v in (attrs or {}).items():
                if k == "first":
                    key = "first_self_s" if v else "later_self_s"
                    self.attrs[name][key] += dur - child_time[i]
                else:
                    self.attrs[name][k] += v
        self.spans += len(spans)


def layer_metrics(span_files, untraced: dict, traced: dict) -> dict:
    """Per-layer metric values from one traced pass.

    untraced / traced are the two passes of the traced run; ``cmd.*`` are
    the untraced raw walls, and the tracing overhead is the difference of
    the passes' scaled walls.
    """
    t = _Totals()
    for path in span_files:
        t.add_file(path)
    om = "optimizer.ConfigEvaluator.objective_many"
    om_attrs = t.attrs[om]
    requested = om_attrs["requested"]
    evaluated = om_attrs["evaluated"]
    fim = t.attrs["kernels.fim_sweep"]
    mls = t.attrs["kernels.ml_scores"]
    mle = "simulate.ml_estimate"
    untraced_total = sum(untraced["scaled"].values())
    traced_total = sum(traced["scaled"].values())
    values = {
        "emdata.generate_s": t.total["emdata.generate_synthetic_dataset"],
        "emdata.save_s": t.total["emdata.save_dataset"],
        "emdata.file_mb": t.attrs["emdata.save_dataset"]["bytes"] / 1e6,
        "emdata.load_calls": t.calls["emdata.load_dataset"],
        "emdata.load_s": t.total["emdata.load_dataset"],
        "emdata.upa_patterns_s": t.total["emdata.upa_patterns"],
        "network.load_correction_calls": t.calls["network.load_correction"],
        "network.load_correction_self_s": t.self_s["network.load_correction"],
        "network.cond_calls": t.calls["numpy.linalg.cond"],
        "network.cond_s": t.total["numpy.linalg.cond"],
        "network.overall_patterns_s": t.total["network.overall_patterns"],
        "optimizer.configs_requested": int(requested),
        "optimizer.configs_evaluated": int(evaluated),
        "optimizer.cache_hit_ratio": 1.0 - evaluated / requested if requested else 0.0,
        "optimizer.evaluate_ms_per_config": 1e3 * t.total[om] / evaluated if evaluated else 0.0,
        "optimizer.evaluate_self_s": t.self_s[om],
        "optimizer.ga_self_s": t.self_s["optimizer.ga_optimize_connections"],
        "optimizer.port_update_self_s": t.self_s["optimizer.sequential_port_update"],
        "optimizer.inf_configs": int(om_attrs["inf"]),
        "optimizer.codebook_io_s": (t.total["optimizer.save_codebook"]
                                    + t.total["optimizer.load_codebook"]),
        "kernels.fim_sweep_calls": t.calls["kernels.fim_sweep"],
        "kernels.fim_sweep_points": int(fim["points"]),
        "kernels.fim_sweep_s": t.total["kernels.fim_sweep"],
        "kernels.fim_sweep_mb": fim["bytes"] / 1e6,
        "kernels.ml_scores_calls": t.calls["kernels.ml_scores"],
        "kernels.ml_candidates": int(mls["candidates"]),
        "kernels.ml_scores_s": t.total["kernels.ml_scores"],
        "kernels.ml_scores_mb": mls["bytes"] / 1e6,
        "simulate.snapshot_s": t.total["simulate.simulate_snapshot"],
        "simulate.ml_estimate_self_s": t.attrs[mle]["later_self_s"],
        "simulate.candidate_build_s": t.attrs[mle]["first_self_s"],
        "simulate.ml_search_ms_per_snapshot":
            1e3 * t.total[mle] / t.calls[mle] if t.calls[mle] else 0.0,
        "crlb.crlb_map_calls": t.calls["crlb.crlb_map"],
        "crlb.crlb_map_self_s": t.self_s["crlb.crlb_map"],
        "crlb.crlb_matrix_calls": t.calls["crlb.crlb_matrix"],
        "crlb.singular_points": int(t.attrs["crlb.crlb_map"]["singular"]),
        "cli.self_s": t.self_s["cli.main"],
        "trace.spans": t.spans,
        "trace.overhead_s": traced_total - untraced_total,
        "trace.overhead_pct": 100.0 * (traced_total - untraced_total) / untraced_total,
    }
    for c in COMMANDS:
        values[f"cmd.{c}_s"] = untraced["wall"].get(c, 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
