import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from coupled_diffusion.harness import NetworkDescription, build_problem, load_network
from coupled_diffusion.objective import QuadraticRiskOracle
from coupled_diffusion.topology import BlockLayout, NetworkSpec, build_clusters
from coupled_diffusion.weights import metropolis_weights, step_scaling
from reference import (
    generate_benchmark_problem,
    global_slice,
    random_quadratic_oracle,
    stochastic_gradient,
)


@pytest.fixture(scope="session")
def five_agent_net():
    """Five agents, four blocks; the illustrative coupled-interest example."""
    return NetworkSpec(
        agent_count=5,
        edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)}),
        interest_sets=((0, 1), (0,), (0, 2), (0, 2, 3), (0, 3)),
    )


@pytest.fixture(scope="session")
def five_agent_cmap(five_agent_net):
    return build_clusters(five_agent_net, BlockLayout((2, 1, 3, 1)))


@pytest.fixture(scope="session")
def bridge_net():
    """Five agents where two clusters are disconnected subgraphs.

    Edges 0-1, 0-3, 1-2, 3-4; block 1 lives on agents {1,3} (no edge),
    block 2 on agents {0,2} (no edge), block 3 only on agent 4.
    """
    return NetworkSpec(
        agent_count=5,
        edges=frozenset({(0, 1), (0, 3), (1, 2), (3, 4)}),
        interest_sets=((0, 2), (0, 1), (0, 2), (0, 1), (0, 3)),
    )


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark_module(name):
    """A module of `benchmarks/`, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ring_problem(tmp_path_factory):
    """The constrained problem of the benchmark's generated 200-agent ring
    (network seed 0, problem seed 7): clusters of 10-20 agents, bridge
    agents, and copies of dimension 5."""
    path = tmp_path_factory.mktemp("ring") / "ring.json"
    path.write_text(json.dumps(load_benchmark_module("ring_network").generate(0)))
    return build_problem(load_network(str(path)), 7, constrained=True)


@pytest.fixture(scope="session")
def setup_networks(tmp_path_factory, bridge_net):
    """The networks the set-up's bit-identity tests run on, by name:
    benchmark20, the bridged five-agent network (two split clusters) and
    the benchmark's generated 200-agent ring of network seed 1."""
    path = tmp_path_factory.mktemp("ring1") / "ring.json"
    path.write_text(json.dumps(load_benchmark_module("ring_network").generate(1)))
    return {"benchmark20": load_network("benchmark20"),
            "bridged": NetworkDescription(net=bridge_net, layout=BlockLayout((2, 3, 2, 1))),
            "ring": load_network(str(path))}


SETUP_NETWORKS = ("benchmark20", "bridged", "ring")


@pytest.fixture(scope="session")
def ring_weights(ring_problem):
    p = ring_problem
    return {l: metropolis_weights(p.cmap, p.net, l) for l in range(p.layout.block_count)}


@pytest.fixture(scope="session")
def benchmark_problem():
    return generate_benchmark_problem(7)


@pytest.fixture(scope="session")
def benchmark_weights(benchmark_problem):
    p = benchmark_problem
    return {
        l: metropolis_weights(p.cmap, p.net, l) for l in range(p.layout.block_count)
    }


@pytest.fixture(scope="session")
def benchmark_scaling(benchmark_problem, benchmark_weights):
    return step_scaling(benchmark_problem.cmap, benchmark_weights)


def single_agent_problem(dim=3, noise_std=0.0, w_ref=None, seed=0):
    """One agent, one block: the classic single-task reduction."""
    from coupled_diffusion.objective import MultiAgentProblem, PenaltyConfig

    net = NetworkSpec(agent_count=1, edges=frozenset(), interest_sets=((0,),))
    layout = BlockLayout((dim,))
    cmap = build_clusters(net, layout)
    rng = np.random.default_rng(seed)
    if w_ref is None:
        w_ref = rng.standard_normal(dim)
    oracle = random_quadratic_oracle(w_ref, rng)
    oracle = QuadraticRiskOracle(
        basis=oracle.basis, spectrum=oracle.spectrum, w_ref=w_ref, noise_std=noise_std
    )
    return MultiAgentProblem(
        net=net, cmap=cmap, oracles=(oracle,),
        constraints=((),), penalty=PenaltyConfig(), true_model=np.asarray(w_ref, float),
    )


def assert_bridge_oracles_draw_like_their_inner_oracle(problem, net):
    """The oracles of the agents that cluster embedding recruited, checked
    against the un-embedded network `net`: each has rank < dim, zero basis
    rows exactly on its added blocks, and stochastic gradients equal to the
    un-padded oracle's (same nonzero rows, spectrum and noise) embedded in
    the full vector, drawing the same rank + 1 normals."""
    before = build_clusters(net, problem.layout)
    cmap = problem.cmap
    bridged = [k for k, o in enumerate(problem.oracles) if o.rank < o.dim]
    assert bridged == [k for k in range(len(cmap.agent_blocks))
                       if cmap.agent_blocks[k] != before.agent_blocks[k]]
    for k in bridged:
        o = problem.oracles[k]
        added = np.zeros(o.dim, dtype=bool)
        owned = cmap.global_indices(k)
        for l in set(cmap.agent_blocks[k]) - set(before.agent_blocks[k]):
            block = global_slice(problem.layout, l)
            added |= (owned >= block.start) & (owned < block.stop)
        assert np.array_equal(np.all(o.basis == 0.0, axis=1), added)
        kept = ~added
        inner = QuadraticRiskOracle(o.basis[kept], o.spectrum, o.w_ref[kept], o.noise_std)
        assert inner.basis.shape == (o.rank, o.rank) == (before.local_dims[k],) * 2
        zeta = np.random.default_rng(k).standard_normal(o.dim)
        full, part = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(3):
            expect = np.zeros(o.dim)
            expect[kept] = stochastic_gradient(inner, zeta[kept], part)
            assert np.max(np.abs(stochastic_gradient(o, zeta, full) - expect)) <= 1e-15
            assert full.standard_normal() == part.standard_normal()
