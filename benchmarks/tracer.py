"""Per-layer tracing by wrapping library functions from outside `src/`.

Each wrapper is installed at the name its caller looks the function up
under (a module global of the calling module, or a class attribute), so
the library itself is untouched. A wrapped call is a span; its self time
is its duration minus the durations of the wrapped calls made inside it.
Every span name belongs to exactly one self-time metric below, so the
self-time metrics of one CLI call add up to that call's wall time.

Counts that are computed rather than measured:
- objective.normal_draws: each QuadraticRiskOracle.stochastic_gradient
  call consumes dim + 1 standard normals.
- engine.combine_flops: each coupled step multiplies an N_l x N_l matrix
  into an N_l x M_l stack per block, sum_l N_l^2 M_l multiply-adds.
- topology.bridge_agents: cluster memberships that embed_clusters adds.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# self-time metric -> span names (module.function of the wrapped callee)
SELF_TIME_METRICS = {
    "topology.build_s": ("harness.load_network", "topology.build_clusters",
                         "topology.validate_connectivity", "topology.embed_clusters"),
    "weights.build_s": ("weights.metropolis_weights", "weights.averaging_weights",
                        "weights.step_scaling"),
    "weights.perron_s": ("weights.perron_vector",),
    "objective.build_s": ("harness.build_problem",),
    "objective.risk_grad_s": ("objective.QuadraticRiskOracle.stochastic_gradient",
                              "objective.PaddedOracle.stochastic_gradient"),
    "objective.penalty_grad_s": ("objective.MultiAgentProblem.penalty_gradient_local",),
    "engine.coupled_step_self_s": ("engine.coupled_diffusion_step",),
    "engine.admm_step_self_s": ("engine.admm_linearized_step",),
    "engine.centralized_step_self_s": ("engine.centralized_step",),
    "metrics.record_s": ("metrics.MetricsLog.record",),
    "metrics.reference_s": ("metrics.reference_solution",),
    "harness.run_self_s": ("harness.run_scenario",),
    "harness.emit_s": ("harness.emit_results",),
    "cli.self_s": ("cli.main",),
}
STEP_SPANS = ("engine.coupled_diffusion_step", "engine.admm_linearized_step",
              "engine.centralized_step")
CALL_COUNTS = {
    "weights.perron_calls": "weights.perron_vector",
    "objective.risk_grad_calls": "objective.QuadraticRiskOracle.stochastic_gradient",
    "objective.penalty_grad_calls": "objective.MultiAgentProblem.penalty_gradient_local",
    "metrics.record_calls": "metrics.MetricsLog.record",
    "metrics.reference_calls": "metrics.reference_solution",
}
_LAYER = {span: metric.split(".")[0]
          for metric, spans in SELF_TIME_METRICS.items() for span in spans}


class Tracer:
    """Span aggregates for one process: calls, total and self time per span
    name, busy time per layer, per-step durations and computed counts."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_ns, self_ns]
        self.layer_busy_ns = Counter()
        self.counts = Counter()
        self.gauges = {}
        self.step_ns = []
        self._child_ns = []  # one accumulator per open span
        self._open = Counter()  # open spans per layer
        self._flops_per_step = 0
        self.missing = []  # call sites not found in the library

    def install(self):
        """Wrap the library's functions at their call sites."""
        # imported here: run.py reads this module's tables without loading numpy
        from coupled_diffusion import cli, harness, metrics, objective, weights

        def on_embed(args, result):
            before = sum(len(c) for c in args[1].clusters)
            self.gauges["topology.bridge_agents"] = sum(len(c) for c in result[1].clusters) - before

        def on_problem(args, result):
            cmap = result.cmap
            self.gauges["topology.flat_dim"] = cmap.total_local_dim
            self.gauges.setdefault("topology.bridge_agents", 0)
            self._flops_per_step = sum(len(c) ** 2 * cmap.layout.dims[l]
                                       for l, c in enumerate(cmap.clusters))

        def on_draw(args, result):
            self.counts["objective.normal_draws"] += args[0].dim + 1

        def on_coupled(args, result):
            self.counts["engine.combine_flops"] += self._flops_per_step

        sites = [  # (module, attribute path the caller uses, span name, hook)
            (cli, "main", "cli.main", None),
            (cli, "run_scenario", "harness.run_scenario", None),
            (cli, "emit_results", "harness.emit_results", None),
            (harness, "load_network", "harness.load_network", None),
            (harness, "build_problem", "harness.build_problem", on_problem),
            (harness, "build_clusters", "topology.build_clusters", None),
            (harness, "validate_connectivity", "topology.validate_connectivity", None),
            (harness, "embed_clusters", "topology.embed_clusters", on_embed),
            (harness, "metropolis_weights", "weights.metropolis_weights", None),
            (harness, "averaging_weights", "weights.averaging_weights", None),
            (harness, "step_scaling", "weights.step_scaling", None),
            (weights, "perron_vector", "weights.perron_vector", None),
            (harness, "reference_solution", "metrics.reference_solution", None),
            (harness, "coupled_diffusion_step", "engine.coupled_diffusion_step", on_coupled),
            (harness, "admm_linearized_step", "engine.admm_linearized_step", None),
            (harness, "centralized_step", "engine.centralized_step", None),
            (metrics, "MetricsLog.record", "metrics.MetricsLog.record", None),
            (objective, "QuadraticRiskOracle.stochastic_gradient",
             "objective.QuadraticRiskOracle.stochastic_gradient", on_draw),
            (objective, "PaddedOracle.stochastic_gradient",
             "objective.PaddedOracle.stochastic_gradient", None),
            (objective, "MultiAgentProblem.penalty_gradient_local",
             "objective.MultiAgentProblem.penalty_gradient_local", None),
        ]
        for owner, path, name, hook in sites:
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if hasattr(owner, attr):
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, hook))
            else:  # the library no longer calls it there; its time stays in the caller
                self.missing.append(name)

    def _wrap(self, fn, name, hook):
        stats = self.spans.setdefault(name, [0, 0, 0])
        layer = _LAYER[name]
        child_ns, open_spans, busy = self._child_ns, self._open, self.layer_busy_ns
        steps = self.step_ns if name in STEP_SPANS else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            open_spans[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                open_spans[layer] -= 1
                inner = child_ns.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - inner
                if child_ns:
                    child_ns[-1] += dur
                if not open_spans[layer]:
                    busy[layer] += dur
                if steps is not None:
                    steps.append(dur)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def report(self) -> dict:
        """Aggregates for one repetition (times in seconds)."""
        return {
            "spans": {n: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                      for n, (c, t, s) in self.spans.items()},
            "layer_busy_s": {k: v / 1e9 for k, v in self.layer_busy_ns.items()},
            "counts": dict(self.counts),
            "gauges": dict(self.gauges),
            "step_us": [ns / 1e3 for ns in self.step_ns],
            "missing_sites": self.missing,
        }


def layer_metrics(rep: dict) -> dict:
    """Per-layer metric values of one traced repetition's report."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    spans = {name: rep["spans"].get(name, empty) for name in _LAYER}
    out = {m: sum(spans[n]["self_s"] for n in names) for m, names in SELF_TIME_METRICS.items()}
    out.update({m: spans[n]["calls"] for m, n in CALL_COUNTS.items()})
    out["engine.step_calls"] = sum(spans[n]["calls"] for n in STEP_SPANS)
    out["objective.normal_draws"] = rep["counts"].get("objective.normal_draws", 0)
    out["engine.combine_flops"] = rep["counts"].get("engine.combine_flops", 0)
    out["topology.bridge_agents"] = rep["gauges"].get("topology.bridge_agents", 0)
    out["topology.flat_dim"] = rep["gauges"].get("topology.flat_dim", 0)
    return out
