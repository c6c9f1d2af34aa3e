#!/usr/bin/env python3
"""Cost of the run path's stages on a benchmark workload.

Runs every CLI call of a workload of `benchmarks/` through
`run_scenario`, writes each table with `emit_results` into a temporary
directory, and prints one JSON line with the median over repetitions of
the figures below, summed over the workload's calls. Most of them are
the stage times that the run takes itself and that `emit_results` writes
under `timings` in the `.meta.json` sidecar; the rest come from six
functions timed, and the records counted, while the run goes. The
workload is `ring200-tracking` (seeded 200-agent ring, 2 seeds x 300
iterations, mu 4e-4, eta 1, change point at 150, log_every 1) unless
`--workload` picks `b20-sweep` (benchmark20 with 4 seeds x 600
iterations at two mu and two eta, log_every 10 and a warm start, where
the risk and penalty half-steps dominate) or `b20-unconstrained`
(benchmark20, 3 seeds x 400 iterations at two mu, eta 0, log_every 1, in
three calls: coupled, centralized and admm, where metric logging and CSV
emission weigh most).

- `step_us`: the run's "engine" stage per iteration: every `_Batch.step`
  of every algorithm, the noise refills and the window products
  included, and the run loop around them;
- `refill_us`: `_RiskGradients._refill` per iteration;
- `products_us`: `_RiskGradients._products` per iteration: each window's
  regressors and targets, formed for several iterations at once;
- `record_us`: the run's "metrics" stage per record: every
  `MetricsLog.record` (every `log_every` iterations; a sweep records
  only the steady-state tail it reports), and the reading of the log,
  which takes the last partial window;
- `records`: the number of `MetricsLog.record` calls of one run of the
  workload, summed over its calls: 60 per 600 iterations at log_every
  10 for a scenario that reports every record, 6 for a sweep, whose CSV
  holds only the mean of the last 10% of them;
- `disagreement_us`: `metrics.disagreement` per record, though one call
  may serve a window of several records; part of `record_us`;
- `noise_buffer_kib` and `window_kib`: the bytes, in KiB, of the noise
  buffer (`_RiskGradients.buffer`, (T, N, R + 1, S): T iterations of
  every agent's rank + 1 draws, padded to the largest rank) and of the
  window buffers (the regressors, targets and flat regressors that
  `_products` forms) of the run's stochastic engines, the largest over
  the workload's calls; 0 for exact gradients. Memory, not time: they
  account for part of the benchmark's `peak_rss_mb`;
- `emit_ms`: the sidecar's "emit", the CSV write of `emit_results`;
- `init_ms`: the run's "init" stage, `init_batch`: the cluster
  operators, the step scalings and vectors and the Philox streams of
  every (seed, agent). The benchmark's `setup_s` does not time it and
  `step_us` does not hold it; in the benchmark it is part of
  `us_per_seed_iter`;
- `load_ms`, `weights_ms` and `reference_ms`: the run's "load",
  "weights" and "reference" stages: `load_network`, the combination
  weights, and the reference solves, before and after the change point
  of a tracking run;
- `topology_ms`, `oracles_ms` and `assembly_ms`: the run's "build"
  stage, split by the functions of `build_problem` wrapped while it
  runs: the clusters and their embedding (`build_clusters`,
  `embed_clusters`), the oracle draws and their QR
  (`random_quadratic_oracles`), and the rest of it (true model, bridge
  oracles, constraints and the tracking redraw, the oracle stack with
  every product of oracle fields, H and the strong-convexity check).

These set-up stages are those that `benchmarks/worker.py` times as
`setup_s` (all of it but reading the config file), there by a set-up of
its own.

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
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import ring_network  # noqa: E402
import workloads  # noqa: E402
from coupled_diffusion import config_from_dict, emit_results, run_scenario  # noqa: E402
from coupled_diffusion import harness, metrics  # noqa: E402
from coupled_diffusion.engine import _RiskGradients  # noqa: E402

# (owner, attribute, name) of each wrapped function; MetricsLog.record
# looks `disagreement` up in its module, and build_problem its stages in
# its own, so the module attributes are wrapped. The records are counted,
# not timed: the run's "metrics" stage times them
WRAPPED = [(_RiskGradients, "_refill", "refill"), (_RiskGradients, "_products", "products"),
           (metrics, "disagreement", "disagreement"),
           (harness, "build_clusters", "topology"), (harness, "embed_clusters", "topology"),
           (harness, "random_quadratic_oracles", "oracles"),
           (metrics.MetricsLog, "record", "records")]
WORKLOADS = ("ring200-tracking", "b20-sweep", "b20-unconstrained")


def _wrapped(method, name, calls, totals, risks):
    """`method`, its calls counted in calls[name]; its time added to
    totals[name], but for the records; a `_RiskGradients` it runs on
    added to the set `risks`."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if isinstance(args[0], _RiskGradients):
            risks.add(args[0])
        if name == "records":
            return method(*args, **kwargs)
        start = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start
    return wrapper


def _risk_kib(risks) -> dict:
    """KiB of the noise buffer and of the window buffers of the largest
    of the stochastic engines' `risks`."""
    noise = max((r.buffer.nbytes for r in risks), default=0)
    window = max((r.regressors.nbytes + r.targets.nbytes + r.flat_regressors.nbytes
                  for r in risks), default=0)
    return {"noise_buffer_kib": round(noise / 1024, 1), "window_kib": round(window / 1024, 1)}


def _figures(stages, totals, iterations, records) -> dict:
    """One repetition's figures, from the run's stage times and the
    wrapped functions' totals, in seconds summed over the calls."""
    per_iteration, per_record = 1e6 / iterations, 1e6 / records
    return {"step_us": stages["engine"] * per_iteration,
            "refill_us": totals["refill"] * per_iteration,
            "products_us": totals["products"] * per_iteration,
            "record_us": stages["metrics"] * per_record,
            "disagreement_us": totals["disagreement"] * per_record,
            "init_ms": 1e3 * stages["init"], "emit_ms": 1e3 * stages["emit"],
            "load_ms": 1e3 * stages["load"], "topology_ms": 1e3 * totals["topology"],
            "oracles_ms": 1e3 * totals["oracles"],
            "assembly_ms": 1e3 * (stages["build"] - totals["topology"] - totals["oracles"]),
            "weights_ms": 1e3 * stages["weights"], "reference_ms": 1e3 * stages["reference"]}


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
        csv = Path(tmp) / "table.csv"
        samples, kib = [], []
        for _ in range(args.reps):
            names = {name for _, _, name in WRAPPED}
            totals, calls = dict.fromkeys(names, 0.0), dict.fromkeys(names, 0)
            stages, risks = Counter(), set()
            for cfg in cfgs:
                originals = [getattr(owner, attr) for owner, attr, _ in WRAPPED]
                for (owner, attr, name), method in zip(WRAPPED, originals):
                    setattr(owner, attr, _wrapped(method, name, calls, totals, risks))
                try:
                    table = run_scenario(cfg)
                finally:
                    for (owner, attr, _), method in zip(WRAPPED, originals):
                        setattr(owner, attr, method)
                emit_results(table, csv)
                stages.update(json.loads(Path(f"{csv}.meta.json").read_text())["timings"])
            kib.append(_risk_kib(risks))
            records = calls["records"]  # the same in every repetition
            samples.append(_figures(stages, totals, iterations, records))
    print(json.dumps({name: round(statistics.median(s[name] for s in samples),
                                  1 if name.endswith("_us") else 2) for name in samples[0]}
                     | {name: max(k[name] for k in kib) for name in kib[0]}
                     | {"workload": args.workload, "seed": args.seed, "reps": args.reps,
                        "calls": len(cfgs), "iterations": iterations, "records": records}))


if __name__ == "__main__":
    main()
