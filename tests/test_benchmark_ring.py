"""The generated 200-agent ring of the `ring200-tracking` benchmark workload,
loaded from `benchmarks/` as it is, so that a library change that breaks
the workload (for example one that loses its bridge agents) fails here
before the benchmark runs."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from coupled_diffusion.engine import EngineConfig, init_batch
from coupled_diffusion.harness import build_problem, load_network
from coupled_diffusion.weights import metropolis_weights, step_scaling

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ring_network, workloads = _load("ring_network"), _load("workloads")


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
    batch = init_batch(problem, weights, step_scaling(problem.cmap, weights), cfg, (seed,))
    for _ in range(cfg.iterations):
        batch.step()
    assert np.isfinite(batch.view()).all()
