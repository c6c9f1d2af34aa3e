#!/usr/bin/env python3
"""Cost of the run path's stages on a benchmark workload.

Runs every CLI call of a workload of `benchmarks/` through
`run_scenario` with six functions wrapped by timers, writes each table
with `emit_results` into a temporary directory, and prints one JSON line
with the median over repetitions of the stages below, summed over the
workload's calls. The workload is `ring200-tracking` (seeded 200-agent
ring, 2 seeds x 300 iterations, mu 4e-4, eta 1, change point at 150,
log_every 1) unless `--workload` picks `b20-sweep` (benchmark20 with 4
seeds x 600 iterations at two mu and two eta, log_every 10 and a warm
start, where the risk and penalty half-steps dominate) or
`b20-unconstrained` (benchmark20, 3 seeds x 400 iterations at two mu,
eta 0, log_every 1, in three calls: coupled, centralized and admm, where
metric logging and CSV emission weigh most).

- `step_us`: `_Batch.step` per iteration, of every algorithm, the noise
  refills and the window products included;
- `refill_us`: `_RiskGradients._refill` per iteration;
- `products_us`: `_RiskGradients._products` per iteration: each window's
  regressors and targets, formed for several iterations at once;
- `record_us`: `MetricsLog.record` per record (every `log_every`
  iterations; a sweep records only the steady-state tail it reports);
- `records`: the number of `MetricsLog.record` calls of one run of the
  workload, summed over its calls: 60 per 600 iterations at log_every
  10 for a scenario that reports every record, 6 for a sweep, whose CSV
  holds only the mean of the last 10% of them;
- `disagreement_us`: `metrics.disagreement` per record, though one call
  may serve a window of several records; part of `record_us`, but for a
  last partial window, which is taken when the log is read;
- `noise_buffer_kib` and `window_kib`: the bytes, in KiB, of the noise
  buffer (`_RiskGradients.buffer`, (T, N, R + 1, S): T iterations of
  every agent's rank + 1 draws, padded to the largest rank) and of the
  window buffers (the regressors, targets and flat regressors that
  `_products` forms) of the run's stochastic engines, the largest over
  the workload's calls; 0 for exact gradients. Memory, not time: they
  account for part of the benchmark's `peak_rss_mb`;
- `emit_ms`: `emit_results` on the run's table (CSV and sidecar);
- `init_ms`: `init_batch`, the engine's set-up: the cluster operators,
  the step vectors and the Philox streams of every (seed, agent). The
  benchmark's `setup_s` does not time it and `step_us` does not hold it;
  in the benchmark it is part of `us_per_seed_iter`;
- `load_ms`, `topology_ms`, `oracles_ms`, `assembly_ms`, `weights_ms`
  and `reference_ms`: the stages of the set-up that
  `benchmarks/worker.py` times as `setup_s` (all of it but reading the
  config file), run once more after the run, each timed on its own:
  `load_network`; within `build_problem`, the clusters and their
  embedding (`build_clusters`, `embed_clusters`), the oracle draws and
  their QR (`random_quadratic_oracles`) and the rest of it (true model,
  bridge oracles, constraints, the oracle stack with every product of
  oracle fields, H and the strong-convexity check); the combination
  weights with their step scalings; and the
  reference solves, before and after the change point of a tracking run.

Set OPENBLAS_NUM_THREADS=1 before running to match the benchmark:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_run_path.py --reps 7
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_run_path.py --workload b20-sweep
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/time_run_path.py --workload b20-unconstrained
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
from coupled_diffusion.engine import _Batch, _RiskGradients  # noqa: E402

# (owner, attribute) of each timed function; MetricsLog.record looks
# `disagreement` up in its module, and run_scenario `init_batch` in its
# own, so the module attributes are wrapped
TIMED = {"step": (_Batch, "step"), "refill": (_RiskGradients, "_refill"),
         "products": (_RiskGradients, "_products"),
         "record": (metrics.MetricsLog, "record"),
         "disagreement": (metrics, "disagreement"),
         "init": (harness, "init_batch")}
PER_RECORD = ("record", "disagreement")  # reported in us per record
PER_WORKLOAD = ("init",)  # reported in ms summed over the calls, the rest in us per iteration
WORKLOADS = ("ring200-tracking", "b20-sweep", "b20-unconstrained")


def _timed(method, totals, name, calls=None, results=None):
    """`method`, its time added to totals[name], its calls counted in
    `calls` and its results kept in `results`, when given."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = method(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start
            if calls is not None:
                calls[name] += 1
        if results is not None:
            results.append(result)
        return result
    return wrapper


def _risk_kib(batches) -> dict:
    """KiB of the noise buffer and of the window buffers of the largest
    stochastic engine among `batches`."""
    risks = [b._risk for b in batches if isinstance(b._risk, _RiskGradients)]
    noise = max((r.buffer.nbytes for r in risks), default=0)
    window = max((r.regressors.nbytes + r.targets.nbytes + r.flat_regressors.nbytes
                  for r in risks), default=0)
    return {"noise_buffer_kib": round(noise / 1024, 1), "window_kib": round(window / 1024, 1)}


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
    problems = [base]
    if cfg.change_point is not None:
        problems.append(harness.regenerate_constraints(base, desc, cfg.problem_seed, epoch=0))
    for eta in dict.fromkeys(cfg.eta_list):
        for problem in problems:
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
    ap.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    ap.add_argument("--seed", type=int, default=0, help="benchmark seed of the workload")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        network = Path(tmp) / "network.json"
        if args.workload == "ring200-tracking":
            network.write_text(json.dumps(ring_network.generate(args.seed)))
        cfgs = [config_from_dict(call["config"])
                for call in workloads.calls(args.workload, args.seed, network_path=str(network))]
        iterations = sum(cfg.iterations for cfg in cfgs)
        samples = {name: [] for name in TIMED}
        emit_ms, stages, batches, kib = [], [], [], []
        for _ in range(args.reps):
            totals, calls = dict.fromkeys(TIMED, 0.0), dict.fromkeys(TIMED, 0)
            emit_s, rep_stages = 0.0, []
            for cfg in cfgs:
                originals = {name: getattr(owner, attr) for name, (owner, attr) in TIMED.items()}
                for name, (owner, attr) in TIMED.items():
                    setattr(owner, attr, _timed(originals[name], totals, name, calls,
                                                batches if name == "init" else None))
                try:
                    table = run_scenario(cfg)
                finally:
                    for name, (owner, attr) in TIMED.items():
                        setattr(owner, attr, originals[name])
                kib.append(_risk_kib(batches))
                batches.clear()
                start = time.perf_counter()
                emit_results(table, Path(tmp) / "table.csv")
                emit_s += time.perf_counter() - start
                rep_stages.append(_setup_stages(cfg))
            for name, total in totals.items():
                if name in PER_WORKLOAD:
                    samples[name].append(1e3 * total)
                    continue
                per = max(calls["record"], 1) if name in PER_RECORD else iterations
                samples[name].append(1e6 * total / per)
            emit_ms.append(1e3 * emit_s)
            records = calls["record"]  # the same in every repetition
            stages.append({name: sum(s[name] for s in rep_stages) for name in rep_stages[0]})
    print(json.dumps({f"{name}_us": round(statistics.median(v), 1) for name, v in samples.items()
                      if name not in PER_WORKLOAD}
                     | {f"{name}_ms": round(statistics.median(samples[name]), 2)
                        for name in PER_WORKLOAD}
                     | {name: max(k[name] for k in kib) for name in kib[0]}
                     | {"emit_ms": round(statistics.median(emit_ms), 2)}
                     | {f"{name}_ms": round(statistics.median(s[name] for s in stages), 2)
                        for name in stages[0]}
                     | {"workload": args.workload, "seed": args.seed, "reps": args.reps,
                        "calls": len(cfgs), "iterations": iterations, "records": records}))


if __name__ == "__main__":
    main()
