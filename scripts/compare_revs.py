#!/usr/bin/env python3
"""Paired benchmark runs and CSV digests of a parent revision against a change.

    python3 scripts/compare_revs.py --parent REV --workload W --seed N [--pairs 10]
    python3 scripts/compare_revs.py --parent REV --digests

The parent (and, with --change, the change) is unpacked from git with
`git archive` into .bench_work/ of this checkout; no worktree is made and
.git is not written. Without --change, the change side is this checkout
as it is on disk. The unpacked trees are removed at the end.

Pairs mode runs `benchmarks/run.py --workload W --seed N --trace 0` of
each side, in its own tree, alternating: even pairs run the parent first,
odd pairs the change first. It prints one JSON object, the skeleton of a
BENCH_*.json file: each end-to-end metric's runs, medians and quartiles
on both sides, the change's wins out of the pairs, and whether the
change's median stays within the metric's BENCHMARK.json bound. With
--claim METRIC it adds a claim line for that metric: met when the change
is better in at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the parent's interquartile range.

Digests mode prints the sha256 of the CSV of every workload CLI call
(full and smoke, benchmark seeds 1 and 7, configs written by each side's
`benchmarks/worker.py prepare`), of every shipped config, both as
shipped and cut to a few seeds and iterations, and of short runs of the
paths that neither takes (PATH_RUNS: exact gradients for each algorithm,
averaging weights, warm-started baselines, constrained example5, a
tracking run on example5's network without its `constraint_owners`, so
that each block's first cluster member owns its row, one on example5's
network numbered from 1, a benchmark20 tracking run at two eta,
sweeps with a partial last record and with one seed and point, and a
run of one seed at two mu), whose configs, and those network files, are
written once into the work dir for both sides. Each runs through each
side's CLI in a fresh process: once with BLAS pinned to one thread and once
with the BLAS thread variables unset. Beside each sha256 it records the
wall time of that CLI process on each side, interpreter start-up
included, and its peak resident set size (the child's own `ru_maxrss`, from
`os.wait4`); these are a record, not a gate. Where the two sides' CSVs differ, it
also records the largest relative change of any numeric value,
|change - parent| / max(|change|, |parent|), over the cells of the CSV.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("b20-unconstrained", "b20-sweep", "ring200-tracking")
DIGEST_SEEDS = (1, 7)
# (label, config, extra CLI arguments): the shipped configs cut to a few
# seeds and iterations, then as shipped
SHIPPED_RUNS = [(f"{name}.yaml", name, args) for name, args in (
    ("unconstrained", ["--seeds", "0,1", "--iters", "400"]),
    ("tracking", ["--seeds", "0,1"]),
    ("sweep", ["--seeds", "0,1", "--iters", "3000"]),
)] + [(f"configs/{name}.yaml (all 20 seeds, as shipped)", name, [])
      for name in ("sweep", "tracking", "unconstrained")]


def _path_config(network="benchmark20", eta=(10.0,), scenario=(), **engine) -> dict:
    """A short constrained run: 2 seeds x 300 iterations of benchmark20,
    or of `network`, at mu 0.002 and each eta of `eta`, logged every 5
    iterations; `scenario` overrides keys of the scenario section."""
    return {"network": {"source": network},
            "objective": {"problem_seed": 7},
            "penalty": {"eta": list(eta)},
            "engine": {"mu": [0.002], "iterations": 300, **engine},
            "scenario": {"id": "constrained", "seeds": [0, 1], "log_every": 5, **dict(scenario)}}


# example5's network file without its constraint_owners, and numbered from
# 1 (every agent, block and owner plus 1), both written into the work dir
# beside the path configs
DEFAULT_OWNERS_NETWORK = "example5-default-owners.json"
ONE_BASED_NETWORK = "example5-one-based.json"

# (label, config) of the paths no workload call or shipped config takes;
# ADMM takes no penalty, so it runs at eta 0, and exact gradients draw no
# samples, so they run one seed
EXACT_SEEDS = {"seeds": [0]}
PATH_RUNS = [
    ("exact-coupled", _path_config(noise="exact", scenario=EXACT_SEEDS)),
    ("exact-centralized", _path_config(noise="exact", algorithm="centralized",
                                       scenario=EXACT_SEEDS)),
    ("exact-admm", _path_config(eta=(0.0,), noise="exact", algorithm="admm",
                                scenario=EXACT_SEEDS)),
    ("averaging-coupled", _path_config(weight_rule="averaging")),
    ("reference-centralized", _path_config(init="reference", algorithm="centralized")),
    ("reference-admm", _path_config(eta=(0.0,), init="reference", algorithm="admm")),
    ("example5-constrained", _path_config(network="example5")),
    ("example5-default-owners-tracking",
     _path_config(network=DEFAULT_OWNERS_NETWORK, scenario={"id": "tracking",
                                                            "change_point": 150})),
    ("example5-one-based-tracking",
     _path_config(network=ONE_BASED_NETWORK, scenario={"id": "tracking", "change_point": 150})),
    # a sweep records only its steady-state tail: one whose last record is
    # partial (305 iterations, log_every 10), and one of one seed and point
    ("sweep-partial-record", _path_config(iterations=305, scenario={"id": "sweep",
                                                                     "log_every": 10})),
    ("sweep-one-seed", _path_config(scenario={"id": "sweep", "seeds": [0]})),
    # one seed at two mu: a state of two columns, one per grid point
    ("grid-one-seed", _path_config(mu=[0.002, 0.001], scenario={"seeds": [0]})),
    # two epochs at two eta: each epoch's w_o is solved once and serves both points
    ("tracking-two-eta", _path_config(eta=(10.0, 100.0), scenario={"id": "tracking",
                                                                    "change_point": 150})),
]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into `dest`; its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    proc = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return commit


def benchmark_run(tree: Path, workload: str, seed: int) -> dict:
    """One `benchmarks/run.py --trace 0` run of `tree`: its contract line and
    its environment record, or the reason it failed."""
    cmd = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), None)
    return {**json.loads(lines[-1]), "env": env}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def compare_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    worse_by = sign * (c["median"] - p["median"]) / abs(p["median"]) if p["median"] else 0.0
    return {"parent": p, "change": c,
            f"change_{better}_in_pairs": f"{wins}/{len(parent)}", "ties": ties,
            "median_difference": c["median"] - p["median"],
            "median_ratio_change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "parent_iqr": p["iqr"], "bound": bound, "within_bound": worse_by <= bound,
            "_wins": wins}


def claim_line(name: str, workload: str, seed: int, m: dict, unit: str, better: str) -> str:
    pairs = len(m["parent"]["runs"])
    p, c = m["parent"]["median"], m["change"]["median"]
    sign = 1.0 if better == "lower" else -1.0
    met = (m["_wins"] >= math.ceil(0.9 * pairs)
           and sign * (c - p) < 0 and abs(c - p) > m["parent_iqr"])
    return (f"{name} on {workload} --seed {seed}, {pairs} alternating pairs: "
            f"{p:.6g} -> {c:.6g} {unit} ({100 * (c - p) / p:+.1f}%), change {better} in "
            f"{m['_wins']}/{pairs} pairs (ties {m['ties']}), median difference "
            f"{abs(c - p):.6g} {unit} against a parent interquartile range of "
            f"{m['parent_iqr']:.6g} {unit}: {'met' if met else 'not met'}")


def pairs_mode(args, sides: dict) -> dict:
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    runs = {"parent": [], "change": []}
    first = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(benchmark_run(sides[side], args.workload, args.seed))
            print(f"pair {i} {side}: " + json.dumps(runs[side][-1].get(
                "metrics", runs[side][-1].get("error"))), file=sys.stderr)
    done = [i for i in range(args.pairs) if all("metrics" in runs[s][i] for s in runs)]
    result = {"pairs": len(done), "seed": args.seed, "first_in_pair": first,
              "hardware": next((r["env"] for r in runs["change"] if r.get("env")), None)}
    for name, meta in declared.items():
        parent = [runs["parent"][i]["metrics"][name]["value"] for i in done]
        change = [runs["change"][i]["metrics"][name]["value"] for i in done]
        if parent:
            result[name] = {"unit": meta["unit"],
                            **compare_metric(parent, change, meta["better"], meta["bound"])}
    for side in runs:
        result.setdefault("failed", {})[side] = (
            f"{sum(r.get('failed', 0) for r in runs[side])}/"
            f"{sum(r.get('attempted', 0) for r in runs[side])}")
        result.setdefault("correct", {})[side] = all(r.get("correct", False) for r in runs[side])
        result.setdefault("errors", {})[side] = [r["error"] for r in runs[side] if "error" in r]
    if args.claim and args.claim in result:
        meta = declared[args.claim]
        result["claim"] = claim_line(args.claim, args.workload, args.seed, result[args.claim],
                                     meta["unit"], meta["better"])
    for name in declared:
        if name in result:
            result[name].pop("_wins")
    return {f"{args.workload} --seed {args.seed}": result}


def cli_sha256(tree: Path, config: Path, extra: list, out: Path,
               env: dict) -> tuple[str, float, float, Path | None]:
    """sha256 of the CSV one CLI call of `tree` writes, or its error, the
    call's wall time in seconds, its peak RSS in MiB, and the CSV's path
    (None on an error).

    Linux counts the peak RSS of the process a child was spawned from in
    the child's ru_maxrss, so this process keeps no CSV in memory: at
    about 20 MiB it stays below every CLI call, which imports numpy."""
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "coupled_diffusion.cli", "run", "--config", str(config),
             "--out", str(out), *extra],
            cwd=tree, env={**env, "PYTHONPATH": str(tree / "src")}, stdout=stdout, stderr=stderr)
        # wait4, not wait: it returns the resource usage of this child alone
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        out_text, err_text = stdout.read().decode(), stderr.read().decode()
    peak_mib = usage.ru_maxrss / 1024  # KiB on Linux
    if proc.returncode != 0:
        return f"error: exit {proc.returncode}: {err_text.strip()[-300:]}", wall, peak_mib, None
    csv = Path(out_text.strip())
    sha = hashlib.sha256()
    with csv.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest(), wall, peak_mib, csv


def max_relative_change(parent: bytes, change: bytes) -> float | None:
    """Largest |c - p| / max(|c|, |p|) over the numeric cells of two CSVs of
    the same layout; None when the layouts or the non-numeric cells differ."""
    rows = [text.decode().splitlines() for text in (parent, change)]
    if len(rows[0]) != len(rows[1]):
        return None
    worst = 0.0
    for line_p, line_c in zip(*rows):
        cells_p, cells_c = line_p.split(","), line_c.split(",")
        if len(cells_p) != len(cells_c):
            return None
        for p, c in zip(cells_p, cells_c):
            try:
                a, b = float(p), float(c)
            except ValueError:
                if p != c:
                    return None
                continue
            if a != b:
                worst = max(worst, abs(b - a) / max(abs(a), abs(b)))
    return worst


def digest_table(tree: Path, work: Path, env: dict, paths: Path) -> dict:
    """label -> (CSV sha256, wall seconds, peak RSS MiB, CSV path) for every
    workload call, shipped config run and path run (configs in `paths`)."""
    table = {}
    for workload in WORKLOADS:
        for seed in DIGEST_SEEDS:
            for smoke in (False, True):
                tag = f"{workload}-seed{seed}" + ("-smoke" if smoke else "")
                workdir = work / tag
                workdir.mkdir(parents=True)
                subprocess.run([sys.executable, str(tree / "benchmarks" / "worker.py"), "prepare",
                                "--workload", workload, "--seed", str(seed), "--workdir",
                                str(workdir)] + (["--smoke"] if smoke else []),
                               cwd=tree, env=env, check=True, capture_output=True)
                plan = json.loads((workdir / "plan.json").read_text())
                for call in plan["calls"]:
                    label = (f"{workload}-{call['name']} (benchmark seed {seed}"
                             + (", smoke)" if smoke else ")"))
                    table[label] = cli_sha256(tree, Path(call["config"]), [],
                                              workdir / call["name"], env)
    for label, name, extra in SHIPPED_RUNS:
        table[label] = cli_sha256(tree, tree / "configs" / f"{name}.yaml", extra,
                                  work / "shipped" / label.replace("/", "-").replace(" ", "-"),
                                  env)
    for label, _ in PATH_RUNS:
        table[f"path {label}"] = cli_sha256(tree, paths / f"{label}.yaml", [],
                                            work / "paths" / label, env)
    return table


def digests_mode(sides: dict, work: Path) -> dict:
    base_env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    paths = work / "path_configs"
    paths.mkdir(parents=True)
    data = ROOT / "src" / "coupled_diffusion" / "data"
    network = json.loads((data / "example5.json").read_text())
    (paths / ONE_BASED_NETWORK).write_text(json.dumps({
        **network, "index_base": 1, "edges": [[a + 1, b + 1] for a, b in network["edges"]],
        "interest_sets": [[l + 1 for l in s] for s in network["interest_sets"]],
        "constraint_owners": [k + 1 for k in network["constraint_owners"]]}))
    del network["constraint_owners"]
    (paths / DEFAULT_OWNERS_NETWORK).write_text(json.dumps(network))
    for label, config in PATH_RUNS:  # YAML reads JSON
        source = config["network"]["source"]
        if source in (DEFAULT_OWNERS_NETWORK, ONE_BASED_NETWORK):
            config = {**config, "network": {"source": str(paths / source)}}
        (paths / f"{label}.yaml").write_text(json.dumps(config))
    out = {}
    for threads, env in (("blas_threads_1", {**base_env, **dict.fromkeys(BLAS_VARS, "1")}),
                         ("blas_threads_default", base_env)):
        tables = {side: digest_table(tree, work / threads / side, env, paths)
                  for side, tree in sides.items()}
        files = {}
        for label, (sha, wall, rss, csv) in tables["change"].items():
            parent_sha, parent_wall, parent_rss, parent_csv = tables["parent"].get(
                label, (None, None, None, None))
            identical = parent_sha == sha and csv is not None
            files[label] = {"parent": parent_sha, "change": sha, "identical": identical,
                            "max_relative_change": 0.0 if identical else (
                                max_relative_change(parent_csv.read_bytes(), csv.read_bytes())
                                if csv is not None and parent_csv is not None else None),
                            "wall_s": {"parent": parent_wall, "change": wall},
                            "peak_rss_mib": {"parent": parent_rss, "change": rss}}
        out[threads] = {"files": files,
                        "all_identical": all(f["identical"] for f in files.values())}
    # a check on the peak RSS figures above: this process's own peak
    out["compare_revs_peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", help="git revision of the change side (default: this checkout)")
    ap.add_argument("--digests", action="store_true", help="print the CSV sha256 tables")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="benchmark seed of every pair")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", help="end-to-end metric whose claim line is printed")
    args = ap.parse_args()
    if not args.digests and args.workload is None:
        ap.error("pairs mode needs --workload")

    work = WORK / f"compare-{os.getpid()}"
    try:
        sides, revs = {}, {}
        revs["parent"] = unpack(args.parent, work / "parent")
        sides["parent"] = work / "parent"
        if args.change:
            revs["change"] = unpack(args.change, work / "change")
            sides["change"] = work / "change"
        else:
            revs["change"] = f"checkout at {git('rev-parse', 'HEAD')} with its changes on disk"
            sides["change"] = ROOT
        result = digests_mode(sides, work / "digests") if args.digests else pairs_mode(args, sides)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"parent": revs["parent"], "change": revs["change"], **result}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
