"""One step of a benchmark run, in a fresh process started by run.py.

    worker.py prepare --workdir D --workload W --seed N [--smoke]
        writes the workload's configs (and generated network) and plan.json into D
    worker.py run --workdir D --rep I --trace 0|1 --setup-reps K
        runs the CLI calls of D/plan.json once through coupled_diffusion.cli.main,
        then times K replicas of their set-up

The last stdout line is one JSON object. BLAS thread variables must be
set by the caller, before numpy is imported here.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import coupled_diffusion  # noqa: E402
from coupled_diffusion import cli, harness, metrics, weights  # noqa: E402

import ring_network  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def environment() -> dict:
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    llc, level = "", 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        with contextlib.suppress(OSError, ValueError):
            if int((index / "level").read_text()) > level:
                level = int((index / "level").read_text())
                llc = f"L{level} " + (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "last_level_cache": llc,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def prepare(args) -> dict:
    workdir = Path(args.workdir)
    network_path, network = "", None
    if args.workload == "ring200-tracking":
        network_path = str(workdir / "network.json")
        Path(network_path).write_text(json.dumps(ring_network.generate(args.seed)))
        network = ring_network.check(network_path, workloads.RING_MU, workloads.RING_ETA,
                                     workloads.PROBLEM_SEED)
    calls = []
    for call in workloads.calls(args.workload, args.seed, args.smoke, network_path):
        path = workdir / f"{call['name']}.yaml"
        path.write_text(yaml.safe_dump(call["config"], sort_keys=True))
        calls.append({"name": call["name"], "config": str(path),
                      "scenario": call["config"]["scenario"]["id"],
                      "seed_iters": call["seed_iters"]})
    plan = {"calls": calls, "network": network, "env": environment()}
    (workdir / "plan.json").write_text(json.dumps(plan))
    return plan


def steady_msd_db(csv_path: Path) -> dict:
    """Seed-mean MSD (dB) over the final 10% of each (mu, eta) point's `mean`
    rows, averaged in the linear domain like harness.steady_state; keyed
    "mu,eta" as the CSV writes them, in CSV order."""
    points = {}
    with csv_path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            if row["seed"] == "mean":
                points.setdefault(f"{row['mu']},{row['eta']}", []).append(float(row["msd_db"]))
    steady = {}
    for key, series in points.items():
        tail = series[-max(1, round(0.1 * len(series))):]
        steady[key] = 10.0 * math.log10(statistics.fmean(10.0 ** (x / 10.0) for x in tail))
    return steady


def run_call(call: dict, out_dir: Path) -> dict:
    """One CLI call, timed; its outputs are checked by the caller."""
    argv = ["run", "--config", call["config"], "--out", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # an escaped traceback is a failed run, not a crash
        code, error = None, type(exc).__name__
    wall = time.perf_counter() - start
    for line in stderr.getvalue().splitlines():
        if line.startswith("error: "):
            error = json.loads(line[len("error: "):]).get("type")
    result = {"name": call["name"], "exit": code, "error": error, "wall_s": wall}
    csv_path = out_dir / f"{call['scenario']}.csv"
    if code == 0 and csv_path.is_file():
        data = csv_path.read_bytes()
        result.update(
            csv_sha256=hashlib.sha256(data).hexdigest(),
            csv_bytes=len(data),
            csv_rows=data.count(b"\n") - 1,
            steady_msd_db=steady_msd_db(csv_path),
        )
    return result


def setup_once(config_path: str) -> float:
    """The set-up part of one CLI call, in the order run_scenario makes it."""
    start = time.perf_counter()
    raw = yaml.safe_load(Path(config_path).read_text()) or {}
    cfg = harness.config_from_dict(raw)
    desc = harness.load_network(cfg.network, cfg.block_dims)
    base = harness.build_problem(desc, cfg.problem_seed, constrained=cfg.uses_constraints,
                                 rho=cfg.rho)
    rule = weights.metropolis_weights if cfg.weight_rule == "metropolis" else weights.averaging_weights
    mats = {l: rule(base.cmap, base.net, l) for l in range(len(base.cmap.clusters))}
    weights.step_scaling(base.cmap, mats)
    for _mu in cfg.mu_list:
        for eta in cfg.eta_list:
            metrics.reference_solution(base, eta)
            if cfg.scenario == "tracking":
                changed = harness.regenerate_constraints(base, desc, cfg.problem_seed, epoch=0)
                metrics.reference_solution(changed, eta)
    return time.perf_counter() - start


def run(args) -> dict:
    plan = json.loads((Path(args.workdir) / "plan.json").read_text())
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rep_dir = Path(args.workdir) / f"rep{args.rep}"
    results = [run_call(call, rep_dir / call["name"]) for call in plan["calls"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = [sum(setup_once(call["config"]) for call in plan["calls"])
             for _ in range(args.setup_reps)]
    out = {"calls": results, "peak_rss_mb": rss_mb, "setup_s": setup}
    if tracer is not None:
        out["trace"] = tracer.report()
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("prepare", "run"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-reps", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not Path(coupled_diffusion.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"coupled_diffusion was imported from {coupled_diffusion.__file__}, not {SRC}")
    out = prepare(args) if args.mode == "prepare" else run(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
