"""The inputs and the set-up path of the benchmark workloads, loaded from
`benchmarks/` as they are, so that a library change that breaks a workload
fails here before the benchmark runs: the generated 200-agent ring of
`ring200-tracking` (for example a change that loses its bridge agents)
and that ring with one block every agent holds, every config the
workloads write, which the strict config reader must accept, as it must
the shipped configs, and each workload's smoke plan through the worker's
own functions, which call the library by name."""

import argparse
import json

import numpy as np
import pytest
import yaml

from coupled_diffusion.cli import main as cli_main
from coupled_diffusion.engine import EngineConfig, init_batch
from coupled_diffusion.harness import build_problem, config_from_dict, load_network
from coupled_diffusion.weights import metropolis_weights
from conftest import BENCHMARKS, load_benchmark_module

ROOT = BENCHMARKS.parent
ring_network, workloads = load_benchmark_module("ring_network"), load_benchmark_module("workloads")


@pytest.mark.parametrize("seed", [0, 1])
def test_ring_workload_network_builds_and_runs(tmp_path, seed):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_network.generate(seed)))
    mu, eta = workloads.RING_MU, workloads.RING_ETA
    assert ring_network.check(path, mu, eta, workloads.PROBLEM_SEED)["bridge_agents"] > 0
    problem = build_problem(load_network(str(path)), workloads.PROBLEM_SEED, constrained=True)
    assert any(o.rank < o.dim for o in problem.oracles)
    weights = {l: metropolis_weights(problem.cmap, problem.net, l)
               for l in range(problem.layout.block_count)}
    cfg = EngineConfig(mu=mu, eta=eta, iterations=20)
    batch = init_batch(problem, weights, cfg, (seed,))
    for _ in range(cfg.iterations):
        batch.step()
    assert np.isfinite(batch.w).all()


def test_ring_with_a_block_every_agent_holds_runs_through_the_cli(tmp_path):
    """The common-plus-local model: the ring of benchmark seed 1 plus one
    2-dim block that all 200 agents hold, so one cluster has 200 agents."""
    raw = ring_network.generate(1)
    common = len(raw["block_dims"])
    raw["block_dims"].append(2)
    raw["interest_sets"] = [s + [common] for s in raw["interest_sets"]]
    raw["constraint_owners"].append(0)
    (tmp_path / "ring.json").write_text(json.dumps(raw))
    config = {"network": {"source": str(tmp_path / "ring.json")},
              "objective": {"problem_seed": workloads.PROBLEM_SEED},
              "penalty": {"eta": [workloads.RING_ETA]},
              "engine": {"mu": [workloads.RING_MU], "iterations": 40},
              "scenario": {"id": "constrained", "seeds": [0, 1], "log_every": 1}}
    (tmp_path / "common.yaml").write_text(yaml.safe_dump(config))
    assert cli_main(["run", "--config", str(tmp_path / "common.yaml"), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "constrained.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 * 40  # two seeds and their mean, every iteration
    assert all(np.isfinite(float(row.split(",")[5])) for row in rows)


def test_workload_and_shipped_configs_pass_the_config_reader():
    shipped = [yaml.safe_load(path.read_text()) for path in sorted(ROOT.glob("configs/*.yaml"))]
    assert len(shipped) == 3
    written = [call["config"] for name in workloads.NAMES for smoke in (False, True)
               for call in workloads.calls(name, 14, smoke, "network.json")]
    for raw in shipped + written:
        config_from_dict(raw)


@pytest.fixture(scope="module")
def worker():
    """`benchmarks/worker.py`, with `benchmarks/` on sys.path as when it runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCHMARKS))
        yield load_benchmark_module("worker")


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_smoke_plan_runs_and_sets_up(tmp_path, worker, workload):
    """Every CLI call of the smoke plan exits 0 and writes its CSV, and the
    set-up that the benchmark times (`setup_once`: `build_problem(rho=)`,
    `load_network`, `step_scaling`, `reference_solution`,
    `regenerate_constraints`, ...) runs and takes a positive time."""
    plan = worker.prepare(argparse.Namespace(workdir=str(tmp_path), workload=workload,
                                             seed=1, smoke=True))
    assert plan["calls"]
    for call in plan["calls"]:
        result = worker.run_call(call, tmp_path / call["name"])
        assert (result["exit"], result["error"]) == (0, None), result
        assert result["csv_rows"] > 0
        assert worker.setup_once(call["config"]) > 0.0
