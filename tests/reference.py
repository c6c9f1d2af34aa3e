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
    DimensionMismatch,
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
    steady_tail,
)
from coupled_diffusion.objective import (
    NOISE_DB_RANGE,
    SPECTRUM_RANGE,
    ConstraintRows,
    MultiAgentProblem,
    PenaltyConfig,
    QuadraticRiskOracle,
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


def global_indices(cmap: ClusterMap, agent: int) -> np.ndarray:
    """Global-vector indices corresponding to agent k's local vector."""
    return cmap.flat_global_indices[cmap.flat_slice(agent)]


def gather_local(cmap: ClusterMap, global_vec: np.ndarray, agent: int) -> np.ndarray:
    """Restrict a global vector to agent k's blocks."""
    return np.asarray(global_vec)[global_indices(cmap, agent)]


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
            positions = np.isin(global_indices(cmap, k), global_indices(cmap0, k))
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


def flat_cluster_indices(cmap: ClusterMap, block: int) -> np.ndarray:
    """Flat-layout indices of all copies of `block`, cluster order: the
    real cells of that block's `ClusterMap.padded_cluster_indices`.

    Reshaping the gathered values to (N_l, M_l) puts one local copy
    per row, rows ordered like the sorted cluster.
    """
    n, m = len(cmap.clusters[block]), cmap.layout.dims[block]
    return cmap.padded_cluster_indices[block, :n, :m].ravel()


def padded_maps(cmap: ClusterMap) -> tuple:
    """(real-cell mask, padded slot, agent of each flat entry, member 0's
    entry at each flat entry's coordinate) of a cluster map, block by
    block and agent by agent: the per-block forms of
    `ClusterMap.padded_real`, `padded_slot`, `flat_agents` and `anchor`."""
    gather = cmap.padded_cluster_indices
    _, n_max, m_max = gather.shape
    real = np.zeros(gather.shape, dtype=bool)
    slot = np.empty(cmap.total_local_dim, dtype=np.intp)
    anchor = np.empty(cmap.total_local_dim, dtype=np.intp)
    for l, cluster in enumerate(cmap.clusters):
        n, m = len(cluster), cmap.layout.dims[l]
        real[l, :n, :m] = True
        slot[gather[l, :n, :m]] = (l * n_max + np.arange(n)[:, None]) * m_max + np.arange(m)
        anchor[gather[l, :n, :m]] = gather[l, 0, :m]
    agents = np.empty(cmap.total_local_dim, dtype=np.intp)
    for k in range(len(cmap.local_dims)):
        agents[cmap.flat_slice(k)] = k
    return real, slot, agents, anchor


def inverse_cluster_sizes(cmap: ClusterMap) -> np.ndarray:
    """`ClusterMap.inverse_cluster_sizes`, block by block."""
    out = np.empty(cmap.total_local_dim)
    for l, cluster in enumerate(cmap.clusters):
        out[flat_cluster_indices(cmap, l)] = 1.0 / len(cluster)
    return out


def step_scaling(cmap: ClusterMap, matrices) -> np.ndarray:
    """`weights.step_scaling`, block by block."""
    flat = np.empty(cmap.total_local_dim)
    for l, dim in enumerate(cmap.layout.dims):
        flat[flat_cluster_indices(cmap, l)] = np.repeat(matrices[l].scaling, dim)
    return flat


def cluster_operators(cmap: ClusterMap, weights) -> dict:
    """The (L, N_max, N_max) zero-padded stacks of transposed per-block
    matrices that the engine's cluster operators multiply by, block by
    block: the coupled mix of the weights' matrices, the ADMM cluster mean
    (1/N_l) and the centralized cluster sum (ones)."""
    n_blocks, n_max, _ = cmap.padded_cluster_indices.shape
    per_block = {
        "coupled": [weights[l].matrix for l in range(n_blocks)],
        "admm": [np.full((len(c), len(c)), 1.0 / len(c)) for c in cmap.clusters],
        "centralized": [np.ones((len(c), len(c))) for c in cmap.clusters],
    }
    stacks = {}
    for name, matrices in per_block.items():
        mats = stacks[name] = np.zeros((n_blocks, n_max, n_max))
        for l, cluster in enumerate(cmap.clusters):
            n = len(cluster)
            mats[l, :n, :n] = np.asarray(matrices[l]).T
    return stacks


def table_rows(table) -> list:
    """The CSV rows of a `ResultTable` as tuples (scenario, mu, eta, seed,
    iteration, msd_db, disagreement_max, dist_wo_db), block by block; built
    from the blocks at each call, and writing to it changes no block."""
    rows = []
    for b in table.blocks:
        its = b.iterations.tolist()
        series = zip(b.msd_db.tolist(), b.disagreement_max.tolist(), b.dist_wo_db.tolist())
        for label, values in zip(b.labels, series):
            rows.extend((b.scenario, b.mu, b.eta, label, it, *v)
                        for it, v in zip(its, zip(*values)))
    return rows


def steady_state(values):
    """Mean of the final 10% (`harness.steady_tail`) of a full per-record
    series: a float for a 1-D series, one value per column for a
    (records, columns) array. The full-record form of the sweep's
    steady-state rows, whose run records only that tail."""
    values = np.asarray(values, dtype=float)
    tail = steady_tail(values.shape[0])
    # each column summed on its own, contiguously, rounds like its 1-D mean
    mean = np.ascontiguousarray(values[-tail:].T).mean(-1)
    return float(mean) if values.ndim == 1 else mean


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
        gidx = global_indices(problem.cmap, k)
        cov2 = 2.0 * o.covariance
        hess[np.ix_(gidx, gidx)] += cov2
        lin[gidx] += cov2 @ o.w_ref
    return hess, lin


def risk_gradient(problem: MultiAgentProblem, w: np.ndarray) -> np.ndarray:
    """The risk part of `MultiAgentProblem.global_gradient`, summed agent by agent."""
    grad = np.zeros(problem.layout.total_dim)
    for k, o in enumerate(problem.oracles):
        gidx = global_indices(problem.cmap, k)
        grad[gidx] += o.true_gradient(w[gidx])
    return grad


def stochastic_gradient(oracle: QuadraticRiskOracle, zeta: np.ndarray, rng) -> np.ndarray:
    """One single-sample gradient of the oracle's risk at zeta, from rank + 1
    normals of `rng`: the features h = basis sqrt(spectrum) x, then the
    observation noise. The engine draws the same per iteration and agent."""
    draws = rng.standard_normal(oracle.rank + 1)
    h = (oracle.basis * np.sqrt(oracle.spectrum)) @ draws[: oracle.rank]
    y = h @ oracle.w_ref + oracle.noise_std * draws[oracle.rank]
    return 2.0 * (h @ zeta - y) * h


@dataclass(frozen=True)
class ConstraintSpec:
    """One local affine constraint c'w_k - b = 0 or <= 0 owned by a single
    agent: the per-constraint form of a row of `objective.ConstraintRows`.
    Only equalities become rows (`constraint_rows`)."""

    kind: str  # "equality" | "inequality"
    owner: int
    coeffs: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))


def equality(owner: int, coeffs, offset: float) -> ConstraintSpec:
    return ConstraintSpec(kind="equality", owner=owner, coeffs=coeffs, offset=offset)


def inequality(owner: int, coeffs, offset: float) -> ConstraintSpec:
    """An affine inequality c'w - b <= 0: its penalty and gradient are
    checked here, but `constraint_rows` rejects it, so no run path or
    reference solve can receive one."""
    return ConstraintSpec(kind="inequality", owner=owner, coeffs=coeffs, offset=offset)


def constraint_rows(cmap: ClusterMap, constraints) -> ConstraintRows:
    """The row record of per-agent tuples of ConstraintSpec, rows in agent
    order and in tuple order within an agent: the gate that rejects any
    kind but an affine equality."""
    specs = [c for agent_cons in constraints for c in agent_cons]
    for c in specs:
        if c.kind != "equality":
            raise ConfigError(f"agent {c.owner} has a constraint of kind {c.kind!r}; only "
                              "affine equality constraints are supported")
    return ConstraintRows(cmap, [c.owner for c in specs], [c.coeffs for c in specs],
                          [c.offset for c in specs])


def agent_constraints(problem: MultiAgentProblem) -> tuple:
    """The problem's rows as per-agent tuples of equality ConstraintSpec,
    each with its owner's unpadded coefficients."""
    rows, dims = problem.constraints, problem.cmap.local_dims
    per_agent = [[] for _ in range(problem.agent_count)]
    for k, coeffs, offset in zip(rows.owner.tolist(), rows.coeffs, rows.offset.tolist()):
        per_agent[k].append(equality(k, coeffs[: dims[k]], offset))
    return tuple(map(tuple, per_agent))


def draw_constraint_specs(desc, cmap: ClusterMap, rng) -> tuple:
    """The equalities `harness._draw_constraints` draws from `rng`, as
    per-agent tuples of ConstraintSpec: the same draws, block by block,
    each appended to its owner's list."""
    owners = desc.constraint_owners
    if owners is None:
        owners = tuple(c[0] for c in cmap.clusters)
    per_agent = [[] for _ in range(len(cmap.local_dims))]
    for owner in owners:
        g = rng.standard_normal(cmap.local_dims[owner])
        g /= np.linalg.norm(g)
        per_agent[owner].append(equality(owner, g, float(rng.uniform(-1.0, 1.0))))
    return tuple(map(tuple, per_agent))


def lifted_rows(cmap: ClusterMap, constraints, flat: bool) -> tuple[np.ndarray, np.ndarray]:
    """(G, b) of per-agent tuples of ConstraintSpec, row by row, on the flat
    layout or on the global vector: each row's coefficients written into
    its owner's flat slice or global indices."""
    specs = [c for agent_cons in constraints for c in agent_cons]
    g = np.zeros((len(specs), cmap.total_local_dim if flat else cmap.layout.total_dim))
    for row, c in zip(g, specs):
        row[cmap.flat_slice(c.owner) if flat else global_indices(cmap, c.owner)] = c.coeffs
    return g, np.array([c.offset for c in specs], dtype=float)


def penalty_lipschitz(cmap: ClusterMap, constraints) -> float:
    """`MultiAgentProblem.penalty_lipschitz` from per-agent tuples of
    ConstraintSpec: the largest sum of 2 ||row||^2 over one agent's rows."""
    g, _ = lifted_rows(cmap, constraints, flat=True)
    owners = np.array([c.owner for cons in constraints for c in cons], dtype=np.intp)
    return float(np.bincount(owners, weights=2.0 * (g * g).sum(axis=1),
                             minlength=len(cmap.local_dims)).max())


def ep_penalty(x):
    """Equality penalty x**2 with derivative 2x."""
    x = np.asarray(x, dtype=float)
    return x * x, 2.0 * x


def ip_penalty(x, rho: float):
    """Inequality penalty max(0, x^3 / sqrt(x^2 + rho^2)) and its derivative.

    Zero with zero slope on x <= 0; both value and derivative are
    continuous at the origin.
    """
    x = np.asarray(x, dtype=float)
    pos = x > 0
    xp = np.where(pos, x, 0.0)
    root = np.sqrt(xp * xp + rho * rho)
    value = np.where(pos, xp**3 / root, 0.0)
    deriv = np.where(pos, xp * xp * (2 * xp * xp + 3 * rho * rho) / root**3, 0.0)
    return value, deriv


def evaluate(c: ConstraintSpec, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient of constraint c at its owner's local vector w."""
    if c.coeffs.shape != w.shape:
        raise DimensionMismatch(
            f"constraint expects dim {c.coeffs.shape[0]}, got {w.shape[0]}"
        )
    return float(c.coeffs @ w - c.offset), c.coeffs


def penalty_gradient(constraints, w: np.ndarray, cfg: PenaltyConfig) -> np.ndarray:
    """Gradient of the summed penalty at w (without the eta factor),
    constraint by constraint: the per-constraint form of
    `objective.row_penalty_gradient`, with the inequality branch that no
    run path accepts."""
    grad = np.zeros_like(np.asarray(w, dtype=float))
    for c in constraints:
        val, cgrad = evaluate(c, w)
        if c.kind == "equality":
            grad += float(ep_penalty(val)[1]) * cgrad
        else:
            grad += float(ip_penalty(val, cfg.rho)[1]) * cgrad
    return grad


def global_penalty_gradient(problem: MultiAgentProblem, w: np.ndarray) -> np.ndarray:
    """The penalty part of `MultiAgentProblem.global_gradient`, without eta,
    summed agent by agent."""
    grad = np.zeros(problem.layout.total_dim)
    for k, cons in enumerate(agent_constraints(problem)):
        gidx = global_indices(problem.cmap, k)
        grad[gidx] += penalty_gradient(cons, w[gidx], problem.penalty)
    return grad


def penalty_value(constraints, w: np.ndarray, cfg: PenaltyConfig) -> float:
    """Sum of penalty terms at w (without the eta factor)."""
    total = 0.0
    for c in constraints:
        val, _ = evaluate(c, w)
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
        stack = w_flat[..., flat_cluster_indices(cmap, l)].reshape(lead + (len(cluster), -1))
        total = total + ((stack - ref_l) ** 2).sum(axis=(-2, -1)) / len(cluster)
    return total if lead else float(total)


def pairwise_disagreement(w: np.ndarray, cmap: ClusterMap) -> np.ndarray:
    """Per-block max distance between cluster members' copies, pair by pair,
    each copy read from its agent's local vector."""
    out = np.zeros(len(cmap.clusters))
    for l, cluster in enumerate(cmap.clusters):
        block = global_slice(cmap.layout, l)
        copies = []
        for k in cluster:
            owned = global_indices(cmap, k)
            local = w[cmap.flat_slice(k)]
            copies.append(local[(owned >= block.start) & (owned < block.stop)])
        out[l] = max(np.linalg.norm(a - b) for a in copies for b in copies)
    return out


def padded_disagreement(w_flat: np.ndarray, cmap: ClusterMap) -> np.ndarray:
    """`metrics.disagreement` as it was before it took each copy relative
    to member 0's in the flat layout: the copies gathered into the padded
    layout, member 0's row subtracted there, the Gram product of the
    copies with a copy of their transpose, and its diagonal, scaled by -2
    and added to both sides, each in its own pass."""
    index = cmap.padded_cluster_indices
    copies = np.asarray(w_flat, dtype=float).T.take(index, axis=-1)
    copies -= copies[..., :1, :].copy()
    dist2 = copies @ np.swapaxes(copies, -1, -2).copy()
    sq = np.diagonal(dist2, axis1=-2, axis2=-1).copy()
    dist2 *= -2.0
    dist2 += sq[..., :, None]
    dist2 += sq[..., None, :]
    return np.sqrt(np.maximum(dist2.max(axis=(-2, -1)), 0.0))


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
        for k, cons in enumerate(agent_constraints(problem)):
            if not cons:
                continue
            sl = cmap.flat_slice(k)
            grad = penalty_gradient(cons, w[sl], problem.penalty)
            zeta[sl] = w[sl] - (cfg.mu * cfg.eta) * scaling[sl] * grad

    for k in range(problem.agent_count):
        sl = cmap.flat_slice(k)
        grad = _risk_gradient(problem, k, zeta[sl], state.rngs[k], cfg.noise)
        psi[sl] = zeta[sl] - cfg.mu * scaling[sl] * grad

    for l, cluster in enumerate(cmap.clusters):
        idx = flat_cluster_indices(cmap, l)
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
    psi = w - (cfg.mu * cfg.eta) * d_vec * global_penalty_gradient(problem, w)
    if cfg.noise == "stochastic":
        grad = np.zeros(layout.total_dim)
        for k in range(problem.agent_count):
            gidx = global_indices(problem.cmap, k)
            grad[gidx] += stochastic_gradient(problem.oracles[k], psi[gidx], rngs[k])
    else:
        grad = risk_gradient(problem, psi)
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
        idx = flat_cluster_indices(cmap, l)
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
        stack = w_flat[flat_cluster_indices(cmap, l)].reshape(len(cluster), -1)
        out[global_slice(cmap.layout, l)] = weights[l].perron @ stack
    return out
