"""The three workloads: the CLI calls each one makes, with their configs.

Every workload draws its engine seeds from the benchmark seed; the
problem seed stays at 7, the value the shipped configs use, so the
steady-state MSD of each call can be pinned. `ring200-tracking` also
generates its network from the benchmark seed.

Why each workload exists (which layer it loads hardest):

- b20-unconstrained: metric logging and CSV emission dominate
  (log_every 1), the penalty half-step is bypassed (eta 0), and it is the
  only workload that runs the centralized and admm baselines.
- b20-sweep: the engine dominates (log_every 10, warm start at the
  reference, eta > 0); one reference solve per (mu, eta).
- ring200-tracking: 200 agents with clusters of 10-20 and bridge agents,
  so per-agent loops, wide combination matrices and a heavy set-up.
"""

from __future__ import annotations

NAMES = ("b20-unconstrained", "b20-sweep", "ring200-tracking")
PROBLEM_SEED = 7
RING_MU = 4e-4  # below suggest_step_size (about 6.1e-4) for every generated ring
RING_ETA = 1.0


def _sizes(workload: str, smoke: bool) -> tuple[int, int]:
    """(seeds per call, iterations per run) for a workload."""
    full = {"b20-unconstrained": (3, 400), "b20-sweep": (4, 600), "ring200-tracking": (2, 300)}
    return (1, 40) if smoke else full[workload]


def _config(scenario, mu, eta, seeds, iterations, log_every, network="benchmark20",
            algorithm="coupled", change_point=None, init=None) -> dict:
    engine = {"mu": list(mu), "iterations": iterations, "noise": "stochastic",
              "algorithm": algorithm, "weight_rule": "metropolis"}
    if init is not None:
        engine["init"] = init
    scen = {"id": scenario, "seeds": list(seeds), "log_every": log_every}
    if change_point is not None:
        scen["change_point"] = change_point
    return {
        "network": {"source": network},
        "objective": {"problem_seed": PROBLEM_SEED},
        "penalty": {"eta": list(eta), "rho": 1.0},
        "engine": engine,
        "scenario": scen,
    }


def calls(workload: str, seed: int, smoke: bool = False, network_path: str = "") -> list[dict]:
    """The workload's CLI calls: [{"name", "config", "seed_iters"}, ...].

    `seed_iters` is |mu| * |eta| * |seeds| * iterations of the call.
    """
    n_seeds, iters = _sizes(workload, smoke)
    seeds = [seed * 100 + i for i in range(n_seeds)]
    if workload == "b20-unconstrained":
        mu, eta = (0.002, 0.001), (0.0,)
        cfgs = [(algo, _config("unconstrained", mu, eta, seeds, iters, 1, algorithm=algo))
                for algo in ("coupled", "centralized", "admm")]
    elif workload == "b20-sweep":
        mu, eta = (0.001, 0.0005), (10.0, 100.0)
        cfgs = [("coupled", _config("sweep", mu, eta, seeds, iters, 10, init="reference"))]
    elif workload == "ring200-tracking":
        mu, eta = (RING_MU,), (RING_ETA,)
        cfgs = [("coupled", _config("tracking", mu, eta, seeds, iters, 1, network=network_path,
                                    change_point=iters // 2))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [{"name": name, "config": cfg,
             "seed_iters": len(mu) * len(eta) * len(seeds) * iters} for name, cfg in cfgs]
