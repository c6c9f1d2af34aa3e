"""Seeded 200-agent ring network for the `ring200-tracking` workload.

The ring carries chords (k, k+2) at a fixed number of seeded positions.
Twenty five-dimensional blocks own contiguous arcs that start every ten
agents, so consecutive arcs overlap and every agent is covered. Arc sizes
are a seeded permutation of a fixed multiset in [10, 20], which keeps the
total work per step the same for every seed. A quarter of the clusters get
a three-agent hole inside the overlap with the previous arc: the cluster
is then disconnected and `embed_clusters` must recruit bridge agents, so
`PaddedOracle` runs.

`generate` only draws the description; `check` loads it through the
library and asserts the properties the workload is chosen for.
"""

from __future__ import annotations

import random

import numpy as np

from coupled_diffusion.engine import suggest_step_size
from coupled_diffusion.harness import build_problem, load_network
from coupled_diffusion.topology import build_clusters
from coupled_diffusion.weights import MAX_DENSE_EIG

AGENTS = 200
BLOCKS = 20
BLOCK_DIM = 5
ARC_STRIDE = AGENTS // BLOCKS
ARC_SIZES = (10, 10, 11, 11, 12, 12, 13, 13, 14, 15,
             15, 16, 16, 17, 17, 18, 18, 19, 20, 20)
CHORDS = 50
SPLIT_CLUSTERS = BLOCKS // 4
HOLE = 3  # longer than a chord's span, so no chord can bridge it


def generate(seed: int) -> dict:
    """Network description in the JSON layout `load_network` reads."""
    rng = random.Random(f"ring200/{seed}")
    rotation = rng.randrange(AGENTS)
    sizes = list(ARC_SIZES)
    rng.shuffle(sizes)
    starts = [(rotation + ARC_STRIDE * l) % AGENTS for l in range(BLOCKS)]

    # a hole right after the arc's first agent lies inside the overlap with
    # the previous arc, so its agents stay covered
    eligible = [l for l in range(BLOCKS)
                if sizes[l - 1] - ARC_STRIDE >= HOLE + 1 and sizes[l] - HOLE >= ARC_STRIDE]
    split = set(rng.sample(eligible, min(SPLIT_CLUSTERS, len(eligible))))

    interest = [set() for _ in range(AGENTS)]
    for l in range(BLOCKS):
        for j in range(sizes[l]):
            if l in split and 1 <= j <= HOLE:
                continue
            interest[(starts[l] + j) % AGENTS].add(l)

    edges = {(k, (k + 1) % AGENTS) for k in range(AGENTS)}
    edges |= {(k, (k + 2) % AGENTS) for k in rng.sample(range(AGENTS), CHORDS)}
    return {
        "name": f"ring200-seed{seed}",
        "index_base": 0,
        "agent_count": AGENTS,
        "block_dims": [BLOCK_DIM] * BLOCKS,
        "edges": sorted([min(a, b), max(a, b)] for a, b in edges),
        "interest_sets": [sorted(s) for s in interest],
        "constraint_owners": starts,
    }


def check(path, mu: float, eta: float, problem_seed: int) -> dict:
    """Load the written network through the library and assert the workload's
    preconditions; returns the figures it checked."""
    desc = load_network(str(path))
    before = build_clusters(desc.net, desc.layout)
    problem = build_problem(desc, problem_seed, constrained=True)
    bridges = sum(len(c) for c in problem.cmap.clusters) - sum(len(c) for c in before.clusters)
    largest = max(len(c) for c in problem.cmap.clusters)
    delta = max(float(np.linalg.eigvalsh(2.0 * o.covariance)[-1]) for o in problem.oracles)
    bound = suggest_step_size(problem.strong_convexity(), delta, problem.penalty_lipschitz(),
                              eta, problem.agent_count)
    if bridges <= 0:
        raise AssertionError("no cluster of the generated network needs embedding")
    if largest > MAX_DENSE_EIG:
        raise AssertionError(f"cluster of {largest} agents exceeds MAX_DENSE_EIG={MAX_DENSE_EIG}")
    if not mu < bound:
        raise AssertionError(f"mu={mu} is not below suggest_step_size={bound}")
    return {"bridge_agents": bridges, "largest_cluster": largest, "step_bound": bound}
