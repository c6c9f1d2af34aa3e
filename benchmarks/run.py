#!/usr/bin/env python3
"""Benchmark of the coupled-diffusion CLI, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py [--seed N] [--seconds S] [--smoke]

With --workload, one workload is measured for S seconds and the last
stdout line is the JSON result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. Without it, every workload is measured
in both modes and a table of every metric, with unit and sample count, is
printed; --smoke shrinks the workloads to a few iterations (their pinned
MSD values then do not apply, so only finiteness is checked).

Each repetition runs the workload's CLI calls through
coupled_diffusion.cli.main in a fresh process (worker.py), one at a time,
with BLAS pinned to one thread. This script itself imports no numpy.
Scratch files go to .bench_work/ in the checkout; the traced run leaves
its aggregates there as trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5  # set-up replicas timed in each untraced repetition
MIN_REPS = 3  # per mode, even when --seconds has run out
CHILD_TIMEOUT_S = 60
SELF_TIME_SLACK = 0.02  # layer self times must sum to the traced wall time within this share

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (stdlib only; the wrappers install inside worker.py)
import workloads  # noqa: E402


def worker(*args: str) -> dict | None:
    """Run worker.py once; its parsed last stdout line, or None if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(args)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def off_pin(steady: dict, pins: dict | None) -> dict:
    """The (mu, eta) points whose steady-state MSD is not finite or, when pins
    are given, lies further than its tolerance from its pinned value."""
    return {point: value for point, value in steady.items()
            if not math.isfinite(value) or (pins is not None and (
                point not in pins or abs(value - pins[point][0]) > pins[point][1]))}


def judge(reps: list, calls: list, pins: dict | None) -> list[str]:
    """One failure reason per failed CLI run; failed runs are never re-run.

    A run fails if its worker died, it exited nonzero (NonFiniteIterate
    included), the steady-state MSD of one of its (mu, eta) points misses
    its pin, or its CSV differs
    from the majority of the other repetitions.
    """
    done = [r for r in reps if r]
    majority = [Counter(r["calls"][i].get("csv_sha256") for r in done).most_common(1)[0][0]
                if done else None for i in range(len(calls))]
    reasons = []
    for n, rep in enumerate(reps):
        for i, call in enumerate(calls):
            res = rep["calls"][i] if rep else None
            where = f"rep {n} {call['name']}"
            if res is None:
                reasons.append(f"{where}: worker died")
            elif res["exit"] != 0:
                reasons.append(f"{where}: exit {res['exit']} ({res['error']})")
            elif "csv_sha256" not in res:
                reasons.append(f"{where}: no CSV written")
            elif missed := off_pin(res["steady_msd_db"], pins and pins[call["name"]]):
                reasons.append(f"{where}: steady-state MSD (dB by mu,eta) {missed} misses its pin")
            elif res["csv_sha256"] != majority[i]:
                reasons.append(f"{where}: CSV sha256 differs from the other repetitions")
    return reasons


def us_per_seed_iter(rep: dict, calls: list) -> float:
    return 1e6 * sum(c["wall_s"] for c in rep["calls"]) / sum(c["seed_iters"] for c in calls)


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Prepare the workload's inputs, then repeat it for `seconds`."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        prep = ["prepare", "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
        plan = worker(*prep, *(["--smoke"] if smoke else []))
        if plan is None:
            raise RuntimeError(f"could not prepare {workload}")
        calls = plan["calls"]
        plain, traced = [], []
        start = time.monotonic()
        while (len(plain) < MIN_REPS or (trace and len(traced) < MIN_REPS)
               or time.monotonic() - start < seconds):
            as_traced = trace and len(traced) < len(plain)
            rep = worker("run", "--workdir", str(workdir), "--rep", str(len(plain) + len(traced)),
                         "--trace", str(int(as_traced)),
                         "--setup-reps", str(0 if trace else SETUP_REPS))
            (traced if as_traced else plain).append(rep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pins = None if smoke else json.loads((HERE / "pins.json").read_text())
    reasons = judge(plain + traced, calls, pins and pins["msd_ss_db"][workload])
    ok_plain = [r for r in plain if r]
    if not ok_plain:
        raise RuntimeError(f"no repetition of {workload} completed: {reasons}")
    us = [us_per_seed_iter(r, calls) for r in ok_plain]
    result = {"workload": workload, "seed": seed, "env": plan["env"], "network": plan["network"],
              "attempted": len(calls) * (len(plain) + len(traced)), "failed": len(reasons),
              "failures": reasons, "check_failures": []}
    if not trace:
        setups = [s for r in ok_plain for s in r["setup_s"]]
        # the first call's last (mu, eta) point
        msd = [list(r["calls"][0]["steady_msd_db"].values())[-1]
               for r in ok_plain if "steady_msd_db" in r["calls"][0]]
        if not msd:
            raise RuntimeError(f"no repetition of {workload} wrote a CSV: {reasons}")
        result["metrics"] = {
            "us_per_seed_iter": (statistics.median(us), len(us)),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok_plain), len(ok_plain)),
            "msd_ss_db": (statistics.median(msd), len(msd)),
        }
        return result
    return traced_result(result, [r for r in traced if r], us, calls, workload, seed)


def traced_result(result: dict, traced: list, plain_us: list, calls: list,
                  workload: str, seed: int) -> dict:
    """Per-layer metrics from the traced repetitions, plus their checks."""
    if not traced:
        raise RuntimeError(f"no traced repetition of {workload} completed")
    per_rep = [tracer.layer_metrics(r["trace"]) for r in traced]
    for values, rep in zip(per_rep, traced):
        values["harness.csv_rows"] = sum(c.get("csv_rows", 0) for c in rep["calls"])
        values["harness.csv_bytes"] = sum(c.get("csv_bytes", 0) for c in rep["calls"])
        wall = sum(c["wall_s"] for c in rep["calls"])
        self_sum = sum(values[m] for m in tracer.SELF_TIME_METRICS)
        if abs(self_sum - wall) > SELF_TIME_SLACK * wall:
            result["check_failures"].append(f"layer self times sum to {self_sum:.4f} s, "
                                            f"traced wall time is {wall:.4f} s")
    for name, value in per_rep[0].items():
        if isinstance(value, int) and any(v[name] != value for v in per_rep):
            result["check_failures"].append(f"count {name} differs between traced repetitions")
    # counts repeat exactly (checked above), so they are reported as counted
    metrics = {name: (value if isinstance(value, int) else
                      statistics.median(v[name] for v in per_rep), len(per_rep))
               for name, value in per_rep[0].items()}
    steps = [s for r in traced for s in r["trace"]["step_us"]]
    enough = len(steps) >= 2  # no samples once every step call site is gone
    metrics["engine.step_us_p50"] = (statistics.median(steps) if enough else 0.0, len(steps))
    metrics["engine.step_us_p99"] = (statistics.quantiles(steps, n=100)[98] if enough else 0.0,
                                     len(steps))
    traced_us = statistics.median(us_per_seed_iter(r, calls) for r in traced)
    metrics["trace.overhead_frac"] = (traced_us / statistics.median(plain_us) - 1.0,
                                      len(traced) + len(plain_us))
    result["metrics"] = metrics
    result["missing_sites"] = traced[0]["trace"]["missing_sites"]
    report = {**result, "metrics": {k: v for k, (v, _) in metrics.items()},
              "repetitions": [{k: v for k, v in r["trace"].items() if k != "step_us"}
                              for r in traced]}
    (WORK / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(report, indent=1) + "\n")
    return result


def check_names(result: dict, declared: list) -> None:
    names = {m["name"] for m in declared}
    if set(result["metrics"]) != names:
        raise RuntimeError(f"metrics {sorted(set(result['metrics']) ^ names)} "
                           "do not match BENCHMARK.json")


def print_table(result: dict, declared: list) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    print("# env " + json.dumps(result["env"]))
    if result["network"]:
        print("# network " + json.dumps(result["network"]))
    print(f"# {result['workload']} seed {result['seed']}: "
          f"{result['failed']} of {result['attempted']} failed")
    for name in units:
        value, n = result["metrics"][name]
        print(f"{result['workload']:18} {name:32} {value:16.6g} {units[name]:14} n={n}")
    print(f"{result['workload']:18} {'failed_frac':32} "
          f"{result['failed'] / result['attempted']:16.6g} {'ratio':14} n={result['attempted']}")
    for name in result.get("missing_sites", []):
        print(f"  note: {name} is no longer a call site; its time counts in its caller")
    for reason in result["failures"] + result["check_failures"]:
        print(f"  failure: {reason}")


def contract_line(result: dict, declared: list) -> str:
    units = {m["name"]: m["unit"] for m in declared}
    return json.dumps({
        "correct": not result["failures"] and not result["check_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in result["metrics"].items()},
    })


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "coupled_diffusion" / "__init__.py").is_file():
        print(f"error: no coupled_diffusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0

    if args.workload:
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        check_names(result, declared)
        print_table(result, declared)
        print(contract_line(result, declared))
        return 0

    failed = 0
    for workload in workloads.NAMES:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = measure(workload, args.seed, args.seconds, trace, args.smoke)
            check_names(result, declared)
            print_table(result, declared)
            failed += len(result["failures"]) + len(result["check_failures"])
    print(json.dumps({"correct": failed == 0, "failures": failed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
