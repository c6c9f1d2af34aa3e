"""The per-agent form of the coupled diffusion recursion and its baselines.

These steps follow the equations agent by agent for one seed. They are
the reference the tests hold the batched engine (`engine.init_batch`)
to: both draw from `agent_streams(seed, N)`, so iteration i of agent k
sees the same variates in either form. Test-only helpers live here too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from coupled_diffusion import topology
from coupled_diffusion.engine import DIVERGENCE_NORM, EngineConfig, agent_streams
from coupled_diffusion.errors import (
    ConfigError,
    EmptyCluster,
    InvalidBlockIndex,
    NetworkDisconnected,
    NonFiniteIterate,
)
from coupled_diffusion.harness import (
    _PROBLEM_TAG,
    _integer,
    _problem_rng,
    build_problem,
    load_network,
)
from coupled_diffusion.objective import (
    NOISE_DB_RANGE,
    SPECTRUM_RANGE,
    ConstraintSpec,
    MultiAgentProblem,
    PenaltyConfig,
    QuadraticRiskOracle,
    ep_penalty,
    ip_penalty,
    penalty_gradient,
)
from coupled_diffusion.topology import (
    BlockLayout,
    ClusterMap,
    NetworkSpec,
    build_clusters,
    embed_clusters,
)


def global_slice(layout: BlockLayout, block: int) -> slice:
    """Position of a block within the global vector."""
    start = layout.offsets[block]
    return slice(start, start + layout.dims[block])


def gather_local(cmap: ClusterMap, global_vec: np.ndarray, agent: int) -> np.ndarray:
    """Restrict a global vector to agent k's blocks."""
    return np.asarray(global_vec)[cmap.global_indices(agent)]


def generate_benchmark_problem(seed: int, constrained: bool = False,
                               rho: float = 1.0) -> MultiAgentProblem:
    """The bundled 20-agent, five-block benchmark instance for this seed."""
    return build_problem(load_network("benchmark20"), seed, constrained=constrained, rho=rho)


def random_orthogonal(dim: int, rng) -> np.ndarray:
    """Haar-ish orthogonal matrix via QR with sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_quadratic_oracle(w_ref: np.ndarray, rng) -> QuadraticRiskOracle:
    """One random oracle, one QR: the per-oracle form of
    `objective.random_quadratic_oracles`, which draws the same values in
    the same order. Orthogonal basis, spectrum uniform in SPECTRUM_RANGE,
    noise power drawn uniformly in NOISE_DB_RANGE (dB) and converted via
    sigma^2 = 10^(dB/10)."""
    w_ref = np.asarray(w_ref, dtype=float)
    dim = w_ref.shape[0]
    basis = random_orthogonal(dim, rng)
    spectrum = rng.uniform(*SPECTRUM_RANGE, size=dim)
    noise_db = rng.uniform(*NOISE_DB_RANGE)
    noise_std = float(np.sqrt(10.0 ** (noise_db / 10.0)))
    return QuadraticRiskOracle(basis=basis, spectrum=spectrum, w_ref=w_ref, noise_std=noise_std)


def per_agent_problem_draw(desc, seed: int):
    """(true model, oracles) of `build_problem(desc, seed)`, drawn agent by
    agent with one QR per agent; a bridge agent's oracle is rebuilt on its
    embedded vector, every field computed by the oracle itself."""
    cmap0 = build_clusters(desc.net, desc.layout)
    net, cmap = embed_clusters(desc.net, cmap0)
    rng = _problem_rng(seed, _PROBLEM_TAG)
    model = rng.standard_normal(desc.layout.total_dim)
    model /= np.linalg.norm(model)
    oracles = []
    for k in range(net.agent_count):
        oracle = random_quadratic_oracle(gather_local(cmap0, model, k), rng)
        if net.interest_sets[k] != cmap0.agent_blocks[k]:
            positions = np.isin(cmap.global_indices(k), cmap0.global_indices(k))
            dim = cmap.local_dims[k]
            basis, w_ref = np.zeros((dim, oracle.rank)), np.zeros(dim)
            basis[positions], w_ref[positions] = oracle.basis, oracle.w_ref
            oracle = QuadraticRiskOracle(basis, oracle.spectrum, w_ref, oracle.noise_std)
        oracles.append(oracle)
    return model, oracles


# The set-up as it was written agent by agent, edge by edge and cluster by
# cluster: the references the array passes of the library are held to, bit
# for bit.

def integer_lists(value, name: str) -> tuple:
    """`harness._integer_lists`, value by value."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of lists of integers, got {value!r}")
    return tuple(integers(v, name) for v in value)


def integers(value, name: str) -> tuple:
    """`harness._integers`, value by value."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    return tuple(_integer(v, name) for v in value)


def network_fields(agent_count: int, edges, interest_sets) -> tuple:
    """(edges, interest_sets, adjacency) of `NetworkSpec(agent_count, edges,
    interest_sets)`, normalized edge by edge and agent by agent."""
    norm = set()
    for a, b in edges:
        if a == b:
            raise ConfigError(f"self-loop edge ({a},{b}) not allowed")
        if not (0 <= a < agent_count and 0 <= b < agent_count):
            raise ConfigError(f"edge ({a},{b}) references unknown agent")
        norm.add((min(a, b), max(a, b)))
    if len(interest_sets) != agent_count:
        raise ConfigError("need one interest set per agent")
    if any(len(s) == 0 for s in interest_sets):
        raise ConfigError("every interest set must be non-empty")
    sets = tuple(tuple(sorted(set(int(l) for l in s))) for s in interest_sets)
    adj = [[] for _ in range(agent_count)]
    for a, b in norm:
        adj[a].append(b)
        adj[b].append(a)
    return frozenset(norm), sets, tuple(tuple(sorted(n)) for n in adj)


def neighborhood(net: NetworkSpec, agent: int) -> tuple:
    """Neighbors of `agent` including the agent itself."""
    return tuple(sorted(net.adjacency()[agent] + (agent,)))


def cluster_map_fields(net: NetworkSpec, layout: BlockLayout) -> dict:
    """The index fields of `build_clusters(net, layout)`, built agent by
    agent and block by block."""
    L = layout.block_count
    members = [[] for _ in range(L)]
    for k, blocks in enumerate(net.interest_sets):
        for l in blocks:
            if l >= L or l < 0:
                raise InvalidBlockIndex(
                    f"agent {k} is interested in block {l}, layout has {L} blocks")
            members[l].append(k)
    clusters = tuple(map(tuple, members))
    for l, c in enumerate(clusters):
        if not c:
            raise EmptyCluster(f"block {l} appears in no interest set")
    local_dims = tuple(sum(layout.dims[l] for l in blocks) for blocks in net.interest_sets)
    span = np.arange(layout.total_dim)
    flat_global = np.concatenate(
        [span[global_slice(layout, l)] for blocks in net.interest_sets for l in blocks])
    flat_block = np.repeat(np.arange(L), layout.dims)[flat_global]
    flat_cluster_idx = [np.flatnonzero(flat_block == l) for l in range(L)]
    n_max, m_max = max(map(len, clusters)), max(layout.dims)
    padded = np.empty((L, n_max, m_max), dtype=np.intp)
    for l, idx in enumerate(flat_cluster_idx):
        n, m = len(clusters[l]), layout.dims[l]
        padded[l] = idx[0]
        padded[l, :, :m] = idx[:m]
        padded[l, :n, :m] = idx.reshape(n, m)
    starts = [0]
    for q in local_dims[:-1]:
        starts.append(starts[-1] + q)
    return {"clusters": clusters, "agent_blocks": net.interest_sets, "local_dims": local_dims,
            "agent_starts": tuple(starts), "flat_global_indices": flat_global,
            "flat_cluster_indices": flat_cluster_idx, "padded_cluster_indices": padded}


def bridge_nodes(adj, cluster) -> set:
    """`topology._bridge_nodes` with a breadth-first search over the whole
    graph at every merge, as it was before it stopped at the first level
    that reaches another component."""
    comps = topology._components(adj, cluster)
    comps.sort(key=min)
    merged = set(comps[0])
    others = set().union(*comps[1:]) if len(comps) > 1 else set()
    bridges = set()
    while others:
        dist = {u: 0 for u in merged}
        parent = {}
        queue = deque(sorted(merged))
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif dist[v] == dist[u] + 1 and parent.get(v, u) > u:
                    parent[v] = u  # lowest-id predecessor at equal depth
        reach = [t for t in others if t in dist]
        if not reach:
            raise NetworkDisconnected("cluster components lie in different graph components")
        target = min(reach, key=lambda t: (dist[t], t))
        node = target
        while node not in merged:
            if node != target:
                bridges.add(node)
            node = parent[node]
        comp = next(c for c in comps if target in c)
        merged |= comp | bridges
        others -= comp
    return bridges


def combination_weights(net: NetworkSpec, cluster, rule: str) -> tuple:
    """(matrix, Perron vector, scalings) of one cluster's Metropolis or
    averaging rule, built column by column from each agent's closed
    neighbourhood, each self weight summed from its column alone."""
    pos = {k: j for j, k in enumerate(cluster)}
    near = np.zeros((len(cluster), len(cluster)))
    for j, k in enumerate(cluster):
        near[[pos[s] for s in neighborhood(net, k) if s in pos], j] = 1.0
    counts = near.sum(axis=0).astype(int)
    if rule == "averaging":
        a, w = near / counts, counts
    else:
        np.fill_diagonal(near, 0.0)
        a = np.where(near > 0, 1.0 / np.maximum.outer(counts, counts), 0.0)
        np.fill_diagonal(a, [1.0 - col.sum() for col in a.T])
        w = np.ones(len(cluster), dtype=int)
    return a, w / w.sum(), w.sum() / w


def risk_quadratic(problem: MultiAgentProblem) -> tuple[np.ndarray, np.ndarray]:
    """(H, f) of `MultiAgentProblem.global_risk_quadratic`, added into zeroed
    arrays agent by agent through `np.ix_`."""
    m = problem.layout.total_dim
    hess, lin = np.zeros((m, m)), np.zeros(m)
    for k, o in enumerate(problem.oracles):
        gidx = problem.cmap.global_indices(k)
        cov2 = 2.0 * o.covariance
        hess[np.ix_(gidx, gidx)] += cov2
        lin[gidx] += cov2 @ o.w_ref
    return hess, lin


def risk_gradient(problem: MultiAgentProblem, w: np.ndarray) -> np.ndarray:
    """`MultiAgentProblem.global_risk_gradient`, summed agent by agent."""
    grad = np.zeros(problem.layout.total_dim)
    for k, o in enumerate(problem.oracles):
        gidx = problem.cmap.global_indices(k)
        grad[gidx] += o.true_gradient(w[gidx])
    return grad


def stochastic_gradient(oracle: QuadraticRiskOracle, zeta: np.ndarray, rng) -> np.ndarray:
    """One single-sample gradient of the oracle's risk at zeta, from rank + 1
    normals of `rng`: the features h = basis sqrt(spectrum) x, then the
    observation noise. The engine draws the same per iteration and agent."""
    draws = rng.standard_normal(oracle.rank + 1)
    h = oracle._scaled_basis @ draws[: oracle.rank]
    y = h @ oracle.w_ref + oracle.noise_std * draws[oracle.rank]
    return 2.0 * (h @ zeta - y) * h


def inequality(owner: int, coeffs, offset: float) -> ConstraintSpec:
    """An affine inequality c'w - b <= 0: its penalty and gradient are
    checked here, but no run path or reference solve accepts it."""
    return ConstraintSpec(kind="inequality", owner=owner, coeffs=coeffs, offset=offset)


def penalty_value(constraints, w: np.ndarray, cfg: PenaltyConfig) -> float:
    """Sum of penalty terms at w (without the eta factor)."""
    total = 0.0
    for c in constraints:
        val, _ = c.evaluate(w)
        if c.kind == "equality":
            total += float(ep_penalty(val)[0])
        else:
            total += float(ip_penalty(val, cfg.rho)[0])
    return total


def msd(w_flat: np.ndarray, cmap: ClusterMap, reference: np.ndarray) -> float:
    """Cluster-averaged squared deviation from a global reference vector,
    block by block: the per-vector form of `MetricsLog`'s MSD. Leading
    axes of `w_flat` (seeds, say) are kept: (S, n_flat) gives S values."""
    w_flat = np.asarray(w_flat, dtype=float)
    lead = w_flat.shape[:-1]
    total = np.zeros(lead) if lead else 0.0
    for l, cluster in enumerate(cmap.clusters):
        ref_l = reference[global_slice(cmap.layout, l)]
        stack = w_flat[..., cmap.flat_cluster_indices(l)].reshape(lead + (len(cluster), -1))
        total = total + ((stack - ref_l) ** 2).sum(axis=(-2, -1)) / len(cluster)
    return total if lead else float(total)


@dataclass
class RunState:
    """All agents' local copies in the flat layout plus scratch and streams."""

    w: np.ndarray
    zeta: np.ndarray
    psi: np.ndarray
    iteration: int
    rngs: list = field(repr=False, default_factory=list)


def init_state(problem: MultiAgentProblem, seed: int, init_global=None) -> RunState:
    """Fresh state; local copies start at zero or gathered from a global vector."""
    n = problem.cmap.total_local_dim
    w = np.zeros(n)
    if init_global is not None:
        init_global = np.asarray(init_global, dtype=float)
        for k in range(problem.agent_count):
            w[problem.cmap.flat_slice(k)] = gather_local(problem.cmap, init_global, k)
    return RunState(
        w=w,
        zeta=np.zeros(n),
        psi=np.zeros(n),
        iteration=0,
        rngs=agent_streams(seed, problem.agent_count),
    )


def _check_finite(w: np.ndarray, cmap: ClusterMap, iteration: int):
    if np.isfinite(w).all() and np.abs(w).max() <= DIVERGENCE_NORM:
        return
    for k in range(len(cmap.agent_blocks)):
        wk = w[cmap.flat_slice(k)]
        if not np.isfinite(wk).all() or np.abs(wk).max() > DIVERGENCE_NORM:
            raise NonFiniteIterate(iteration, k)


def _risk_gradient(problem, k, point, rng, noise):
    if noise == "stochastic":
        return stochastic_gradient(problem.oracles[k], point, rng)
    return problem.oracles[k].true_gradient(point)


def coupled_diffusion_step(
    state: RunState,
    problem: MultiAgentProblem,
    weights,
    scaling: np.ndarray,
    cfg: EngineConfig,
) -> RunState:
    """One synchronous round: penalty step, risk step, per-block combination.

    zeta_k = w_k - mu*eta * Omega_k grad p_k(w_k)
    psi_k  = zeta_k - mu * Omega_k ghat_k(zeta_k)
    w_k^l  = sum over s in N_k and C_l of a_{l,sk} psi_s^l, for every l in I_k

    `weights` maps each block to its CombinationMatrix and `scaling` holds
    the flat step scalings of `weights.step_scaling`. The combination
    consumes the current round's psi from all agents (synchronous
    barrier); a_{l,sk} is zero outside N_k and C_l, so the per-cluster
    matrix product below is exactly the neighbor sum.
    """
    cmap = problem.cmap
    w, zeta, psi = state.w, state.zeta, state.psi

    np.copyto(zeta, w)
    if cfg.eta != 0.0:
        for k in range(problem.agent_count):
            if not problem.constraints[k]:
                continue
            sl = cmap.flat_slice(k)
            grad = penalty_gradient(problem.constraints[k], w[sl], problem.penalty)
            zeta[sl] = w[sl] - (cfg.mu * cfg.eta) * scaling[sl] * grad

    for k in range(problem.agent_count):
        sl = cmap.flat_slice(k)
        grad = _risk_gradient(problem, k, zeta[sl], state.rngs[k], cfg.noise)
        psi[sl] = zeta[sl] - cfg.mu * scaling[sl] * grad

    for l, cluster in enumerate(cmap.clusters):
        idx = cmap.flat_cluster_indices(l)
        stack = psi[idx].reshape(len(cluster), cmap.layout.dims[l])
        w[idx] = (weights[l].matrix.T @ stack).ravel()

    state.iteration += 1
    _check_finite(w, cmap, state.iteration)
    return state


def centralized_step(
    w: np.ndarray,
    d_blocks,
    problem: MultiAgentProblem,
    cfg: EngineConfig,
    rngs=None,
) -> np.ndarray:
    """Two incremental steps on the aggregate penalized cost.

    psi = w - mu*eta D grad p_glob(w); next = psi - mu D grad J_glob(psi),
    with D a positive per-block diagonal scaling. Stochastic mode draws
    one gradient sample per agent and assembles them into the global
    gradient.
    """
    layout = problem.layout
    d_vec = np.concatenate(
        [np.full(layout.dims[l], float(d)) for l, d in enumerate(d_blocks)]
    )
    psi = w - (cfg.mu * cfg.eta) * d_vec * problem.global_penalty_gradient(w)
    if cfg.noise == "stochastic":
        grad = np.zeros(layout.total_dim)
        for k in range(problem.agent_count):
            gidx = problem.cmap.global_indices(k)
            grad[gidx] += stochastic_gradient(problem.oracles[k], psi[gidx], rngs[k])
    else:
        grad = problem.global_risk_gradient(psi)
    return psi - cfg.mu * d_vec * grad


@dataclass
class AdmmState:
    """Primal copies, duals, and the per-block cluster averages."""

    w: np.ndarray  # flat layout
    y: np.ndarray  # flat layout duals
    z: np.ndarray  # global layout
    iteration: int
    rngs: list = field(repr=False, default_factory=list)


def init_admm_state(problem: MultiAgentProblem, seed: int, init_global=None) -> AdmmState:
    """Fresh state. A warm start from the global `init_global` sets every
    copy and cluster average to it and each dual y_k to -grad J_k(w_k), so
    that an exact-gradient run started at a stationary point stays there."""
    state = init_state(problem, seed, init_global)
    y, z = np.zeros_like(state.w), np.zeros(problem.layout.total_dim)
    if init_global is not None:
        for k, oracle in enumerate(problem.oracles):
            sl = problem.cmap.flat_slice(k)
            y[sl] = -oracle.true_gradient(state.w[sl])
        z = np.array(init_global, dtype=float)
    return AdmmState(w=state.w, y=y, z=z, iteration=0, rngs=state.rngs)


def admm_linearized_step(
    state: AdmmState, problem: MultiAgentProblem, cfg: EngineConfig
) -> AdmmState:
    """Consensus solver with the primal minimization replaced by one
    (stochastic) gradient step of step size mu.

    w_k+ = w_k - mu (ghat_k(w_k) + y_k + rho (w_k - z_k))
    z_l+ = mean over cluster of (w_k^l+ + y_k^l / rho)   [global knowledge]
    y_k+ = y_k + rho (w_k+ - z_k+)
    """
    cmap = problem.cmap
    rho = cfg.rho_admm
    w_new = np.empty_like(state.w)
    for k in range(problem.agent_count):
        sl = cmap.flat_slice(k)
        z_k = gather_local(problem.cmap, state.z, k)
        grad = _risk_gradient(problem, k, state.w[sl], state.rngs[k], cfg.noise)
        w_new[sl] = state.w[sl] - cfg.mu * (grad + state.y[sl] + rho * (state.w[sl] - z_k))

    for l, cluster in enumerate(cmap.clusters):
        idx = cmap.flat_cluster_indices(l)
        stack = (w_new[idx] + state.y[idx] / rho).reshape(len(cluster), cmap.layout.dims[l])
        state.z[global_slice(cmap.layout, l)] = stack.mean(axis=0)

    for k in range(problem.agent_count):
        sl = cmap.flat_slice(k)
        z_k = gather_local(problem.cmap, state.z, k)
        state.y[sl] += rho * (w_new[sl] - z_k)

    state.w = w_new
    state.iteration += 1
    _check_finite(state.w, cmap, state.iteration)
    return state


def centroid(w_flat: np.ndarray, cmap: ClusterMap, weights) -> np.ndarray:
    """Perron-weighted per-block centroid sum_k r_l(k) w_k^l as a global vector,
    with `weights` mapping each block to its CombinationMatrix."""
    out = np.empty(cmap.layout.total_dim)
    for l, cluster in enumerate(cmap.clusters):
        stack = w_flat[cmap.flat_cluster_indices(l)].reshape(len(cluster), -1)
        out[global_slice(cmap.layout, l)] = weights[l].perron @ stack
    return out
