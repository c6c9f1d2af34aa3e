#!/usr/bin/env python3
"""Per-iteration cost of the run path's three stages on the ring workload.

Runs the `ring200-tracking` scenario of `benchmarks/` (seeded 200-agent
ring, 2 seeds x 300 iterations, mu 4e-4, eta 1, change point at 150,
log_every 1) through `run_scenario` with three class methods wrapped by
timers, and prints one JSON line with the median over repetitions of

- `step_us`: `CoupledBatch.step` per iteration, the noise refills included;
- `refill_us`: `_RiskGradients._refill` per iteration;
- `record_us`: `MetricsLog.record` per call (one per iteration here).

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
from coupled_diffusion import config_from_dict, run_scenario  # noqa: E402
from coupled_diffusion.engine import CoupledBatch, _RiskGradients  # noqa: E402
from coupled_diffusion.metrics import MetricsLog  # noqa: E402

TIMED = {"step": (CoupledBatch, "step"), "refill": (_RiskGradients, "_refill"),
         "record": (MetricsLog, "record")}


def _timed(method, totals, name):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start
    return wrapper


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
        for _ in range(args.reps):
            totals = dict.fromkeys(TIMED, 0.0)
            originals = {name: getattr(cls, attr) for name, (cls, attr) in TIMED.items()}
            for name, (cls, attr) in TIMED.items():
                setattr(cls, attr, _timed(originals[name], totals, name))
            try:
                run_scenario(cfg)
            finally:
                for name, (cls, attr) in TIMED.items():
                    setattr(cls, attr, originals[name])
            for name, total in totals.items():
                samples[name].append(1e6 * total / iterations)
    print(json.dumps({f"{name}_us": round(statistics.median(v), 1) for name, v in samples.items()}
                     | {"reps": args.reps, "iterations": iterations}))


if __name__ == "__main__":
    main()
