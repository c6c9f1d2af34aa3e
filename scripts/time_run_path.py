#!/usr/bin/env python3
"""Cost of the run path's stages on the ring workload.

Runs the `ring200-tracking` scenario of `benchmarks/` (seeded 200-agent
ring, 2 seeds x 300 iterations, mu 4e-4, eta 1, change point at 150,
log_every 1) through `run_scenario` with four functions wrapped by
timers, writes its table with `emit_results` into a temporary
directory, and prints one JSON line with the median over repetitions of

- `step_us`: `CoupledBatch.step` per iteration, the noise refills included;
- `refill_us`: `_RiskGradients._refill` per iteration;
- `record_us`: `MetricsLog.record` per call (one per iteration here);
- `disagreement_us`: `metrics.disagreement` per call, part of `record_us`;
- `emit_ms`: one `emit_results` call on the run's table (CSV and sidecar);
- `load_ms`, `topology_ms`, `oracles_ms`, `assembly_ms`, `weights_ms`
  and `reference_ms`: the stages of the set-up that
  `benchmarks/worker.py` times as `setup_s` (all of it but reading the
  config file), run once more after the run, each timed on its own:
  `load_network`; within `build_problem`, the clusters and their
  embedding (`build_clusters`, `embed_clusters`), the oracle draws
  (`random_quadratic_oracles`) and the rest of it (true model, bridge
  oracles, constraints, the oracle stack, H and the strong-convexity
  check); the combination weights with their step scalings; and the
  reference solves before and after the change point.

Set OPENBLAS_NUM_THREADS=1 before running to match the benchmark:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_run_path.py --reps 7
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import ring_network  # noqa: E402
import workloads  # noqa: E402
from coupled_diffusion import config_from_dict, emit_results, run_scenario  # noqa: E402
from coupled_diffusion import harness, metrics, weights  # noqa: E402
from coupled_diffusion.engine import CoupledBatch, _RiskGradients  # noqa: E402

# (owner, attribute) of each timed function; MetricsLog.record looks
# `disagreement` up in its module, so the module attribute is wrapped
TIMED = {"step": (CoupledBatch, "step"), "refill": (_RiskGradients, "_refill"),
         "record": (metrics.MetricsLog, "record"),
         "disagreement": (metrics, "disagreement")}


def _timed(method, totals, name):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start
    return wrapper


# the stages of build_problem timed on their own: the harness functions it
# calls, wrapped while it runs
BUILD_STAGES = {"topology": ("build_clusters", "embed_clusters"),
                "oracles": ("random_quadratic_oracles",)}


def _setup_stages(cfg) -> dict:
    """Wall time of each set-up stage of `cfg`, in ms, in the order the
    run makes them."""
    marks = [time.perf_counter()]
    desc = harness.load_network(cfg.network, cfg.block_dims)
    marks.append(time.perf_counter())
    parts = dict.fromkeys(BUILD_STAGES, 0.0)
    originals = {attr: getattr(harness, attr) for attrs in BUILD_STAGES.values() for attr in attrs}
    for stage, attrs in BUILD_STAGES.items():
        for attr in attrs:
            setattr(harness, attr, _timed(originals[attr], parts, stage))
    try:
        base = harness.build_problem(desc, cfg.problem_seed, constrained=cfg.uses_constraints,
                                     rho=cfg.rho)
    finally:
        for attr, function in originals.items():
            setattr(harness, attr, function)
    marks.append(time.perf_counter())
    rule = weights.metropolis_weights if cfg.weight_rule == "metropolis" else weights.averaging_weights
    mats = {l: rule(base.cmap, base.net, l) for l in range(len(base.cmap.clusters))}
    weights.step_scaling(base.cmap, mats)
    marks.append(time.perf_counter())
    changed = harness.regenerate_constraints(base, desc, cfg.problem_seed, epoch=0)
    for eta in cfg.eta_list:
        for problem in (base, changed):
            metrics.reference_solution(problem, eta)
    marks.append(time.perf_counter())
    stages = {name: end - start for name, start, end
              in zip(("load", "build", "weights", "reference"), marks, marks[1:])}
    assembly = stages.pop("build") - sum(parts.values())
    ordered = {"load": stages["load"], **parts, "assembly": assembly,
               "weights": stages["weights"], "reference": stages["reference"]}
    return {name: 1e3 * seconds for name, seconds in ordered.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="benchmark seed of the ring")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        network = Path(tmp) / "network.json"
        network.write_text(json.dumps(ring_network.generate(args.seed)))
        (call,) = workloads.calls("ring200-tracking", args.seed, network_path=str(network))
        cfg = config_from_dict(call["config"])
        iterations = cfg.iterations
        samples = {name: [] for name in TIMED}
        emit_ms, stages = [], []
        for _ in range(args.reps):
            totals = dict.fromkeys(TIMED, 0.0)
            originals = {name: getattr(owner, attr) for name, (owner, attr) in TIMED.items()}
            for name, (owner, attr) in TIMED.items():
                setattr(owner, attr, _timed(originals[name], totals, name))
            try:
                table = run_scenario(cfg)
            finally:
                for name, (owner, attr) in TIMED.items():
                    setattr(owner, attr, originals[name])
            for name, total in totals.items():
                samples[name].append(1e6 * total / iterations)
            start = time.perf_counter()
            emit_results(table, Path(tmp) / "tracking.csv")
            emit_ms.append(1e3 * (time.perf_counter() - start))
            stages.append(_setup_stages(cfg))
    print(json.dumps({f"{name}_us": round(statistics.median(v), 1) for name, v in samples.items()}
                     | {"emit_ms": round(statistics.median(emit_ms), 2)}
                     | {f"{name}_ms": round(statistics.median(s[name] for s in stages), 2)
                        for name in stages[0]}
                     | {"reps": args.reps, "iterations": iterations}))


if __name__ == "__main__":
    main()
