"""The per-agent form of the coupled diffusion recursion and its baselines.

These steps follow the equations agent by agent for one seed. They are
the reference the tests hold the batched engine (`engine.init_batch`)
to: both draw from `agent_streams(seed, N)`, so iteration i of agent k
sees the same variates in either form. Test-only helpers live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from coupled_diffusion.engine import DIVERGENCE_NORM, EngineConfig, agent_streams
from coupled_diffusion.errors import NonFiniteIterate
from coupled_diffusion.harness import _PROBLEM_TAG, _problem_rng, build_problem, load_network
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
from coupled_diffusion.topology import ClusterMap, build_clusters, embed_clusters


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
    agent with one QR per agent and embedded for the bridge agents."""
    cmap0 = build_clusters(desc.net, desc.layout)
    net, cmap = embed_clusters(desc.net, cmap0)
    rng = _problem_rng(seed, _PROBLEM_TAG)
    model = rng.standard_normal(desc.layout.total_dim)
    model /= np.linalg.norm(model)
    oracles = []
    for k in range(net.agent_count):
        oracle = random_quadratic_oracle(cmap0.gather_local(model, k), rng)
        if net.interest_sets[k] != cmap0.agent_blocks[k]:
            positions = np.isin(cmap.global_indices(k), cmap0.global_indices(k))
            oracle = oracle.embedded(positions, cmap.local_dims[k])
        oracles.append(oracle)
    return model, oracles


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
        ref_l = reference[cmap.layout.global_slice(l)]
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
            w[problem.cmap.flat_slice(k)] = problem.cmap.gather_local(init_global, k)
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
        z_k = problem.cmap.gather_local(state.z, k)
        grad = _risk_gradient(problem, k, state.w[sl], state.rngs[k], cfg.noise)
        w_new[sl] = state.w[sl] - cfg.mu * (grad + state.y[sl] + rho * (state.w[sl] - z_k))

    for l, cluster in enumerate(cmap.clusters):
        idx = cmap.flat_cluster_indices(l)
        stack = (w_new[idx] + state.y[idx] / rho).reshape(len(cluster), cmap.layout.dims[l])
        state.z[cmap.layout.global_slice(l)] = stack.mean(axis=0)

    for k in range(problem.agent_count):
        sl = cmap.flat_slice(k)
        z_k = problem.cmap.gather_local(state.z, k)
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
        out[cmap.layout.global_slice(l)] = weights[l].perron @ stack
    return out
