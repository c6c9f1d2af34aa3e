import numpy as np
import pytest

from coupled_diffusion.engine import EngineConfig, init_batch, suggest_step_size
from coupled_diffusion.errors import NonFiniteIterate
from coupled_diffusion.metrics import disagreement, penalized_optimum, reference_solution
from coupled_diffusion.objective import MultiAgentProblem, PenaltyConfig, QuadraticRiskOracle
from coupled_diffusion.topology import BlockLayout, NetworkSpec, build_clusters
from coupled_diffusion.weights import metropolis_weights, spectral_gap_bound, step_scaling

from conftest import single_agent_problem
from reference import (
    admm_linearized_step,
    centralized_step,
    centroid,
    constraint_rows,
    coupled_diffusion_step,
    equality,
    flat_cluster_indices,
    gather_local,
    global_penalty_gradient,
    global_slice,
    init_admm_state,
    init_state,
    msd,
    neighborhood,
    random_quadratic_oracle,
)


def _consistent_problem(seed=0, n=4, dims=(2, 1), noise_std=0.0):
    """Ring network where every agent's risk is minimized by the same model.

    Block 0 is shared by everyone; every other block lives on a contiguous
    arc so all clusters are connected by construction.
    """
    rng = np.random.default_rng(seed)
    sets = [{0} for _ in range(n)]
    for j in range(1, len(dims)):
        start = int(rng.integers(0, n))
        length = int(rng.integers(2, n + 1))
        for off in range(length):
            sets[(start + off) % n].add(j)
    net = NetworkSpec(
        agent_count=n,
        edges=frozenset({(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}),
        interest_sets=tuple(tuple(sorted(s)) for s in sets),
    )
    layout = BlockLayout(dims)
    cmap = build_clusters(net, layout)
    model = rng.standard_normal(layout.total_dim)
    oracles = []
    for k in range(n):
        o = random_quadratic_oracle(gather_local(cmap, model, k), rng)
        if noise_std is not None:
            o = QuadraticRiskOracle(o.basis, o.spectrum, o.w_ref, noise_std)
        oracles.append(o)
    return MultiAgentProblem(
        net=net, cmap=cmap, oracles=tuple(oracles),
        constraints=constraint_rows(cmap, [() for _ in range(n)]), penalty=PenaltyConfig(),
        true_model=model,
    ), cmap


def _weights(problem):
    return {
        l: metropolis_weights(problem.cmap, problem.net, l)
        for l in range(problem.layout.block_count)
    }


def test_fixed_point_at_shared_minimizer():
    problem, cmap = _consistent_problem()
    mats = _weights(problem)
    scal = step_scaling(cmap, mats)
    cfg = EngineConfig(mu=0.05, eta=0.0, noise="exact")
    state = init_state(problem, 0, init_global=problem.true_model)
    before = state.w.copy()
    coupled_diffusion_step(state, problem, mats, scal, cfg)
    assert np.allclose(state.w, before, atol=1e-14)


def test_single_agent_reduces_to_gradient_descent():
    problem = single_agent_problem(dim=3, noise_std=0.0, seed=1)
    mats = _weights(problem)
    scal = step_scaling(problem.cmap, mats)
    mu = 0.01
    cfg = EngineConfig(mu=mu, eta=0.0, noise="exact")
    state = init_state(problem, 0)
    manual = np.zeros(3)
    for _ in range(25):
        coupled_diffusion_step(state, problem, mats, scal, cfg)
        manual = manual - mu * problem.oracles[0].true_gradient(manual)
        assert np.allclose(state.w, manual, atol=1e-14)


def test_network_form_equivalence_small():
    """The batched engine is the network form: it tracks the per-agent
    recursion seed by seed on shared noise streams."""
    problem, cmap = _consistent_problem(seed=3, n=5, dims=(2, 2, 1), noise_std=None)
    mats = _weights(problem)
    scal = step_scaling(cmap, mats)
    cfg = EngineConfig(mu=0.01, eta=0.0, iterations=200, noise="stochastic")
    seeds = (17, 18, 19)
    batch = init_batch(problem, mats, cfg, seeds)
    states = [init_state(problem, seed) for seed in seeds]
    for _ in range(200):
        batch.step()
        for j, state in enumerate(states):
            coupled_diffusion_step(state, problem, mats, scal, cfg)
            assert np.max(np.abs(batch.w.T[j] - state.w)) <= 1e-12


def test_network_form_equivalence_with_penalty():
    problem, cmap = _consistent_problem(seed=4, n=4, dims=(2, 1), noise_std=None)
    cons = [[] for _ in range(4)]
    rng = np.random.default_rng(0)
    g = rng.standard_normal(cmap.local_dims[1])
    cons[1].append(equality(1, g / np.linalg.norm(g), 0.3))
    problem = MultiAgentProblem(
        net=problem.net, cmap=cmap, oracles=problem.oracles,
        constraints=constraint_rows(cmap, cons), penalty=PenaltyConfig(rho=1.0),
        true_model=problem.true_model,
    )
    mats = _weights(problem)
    scal = step_scaling(cmap, mats)
    cfg = EngineConfig(mu=0.005, eta=20.0, iterations=200, noise="stochastic")
    seeds = (5, 6, 7)
    batch = init_batch(problem, mats, cfg, seeds)
    states = [init_state(problem, seed) for seed in seeds]
    for _ in range(200):
        batch.step()
        for state in states:
            coupled_diffusion_step(state, problem, mats, scal, cfg)
    assert np.max(np.abs(batch.w.T - np.array([st.w for st in states]))) <= 1e-12


def test_block_every_agent_holds_is_atc_diffusion_with_step_n_mu():
    """One block held by all N agents of a 120-agent cycle: under Metropolis
    weights (r = 1/N) coupled diffusion is ATC diffusion with step N mu,
    W <- A'(W - N mu grad J(W)) (Sayed 2014, ch. 7)."""
    n, mu = 120, 1e-3
    problem, _ = _consistent_problem(seed=4, n=n, dims=(2,))
    mats = _weights(problem)
    batch = init_batch(problem, mats, EngineConfig(mu=mu, noise="exact"), (0,))
    w = np.zeros((n, 2))
    for _ in range(20):
        batch.step()
        grads = np.array([o.true_gradient(wk) for o, wk in zip(problem.oracles, w)])
        w = mats[0].matrix.T @ (w - n * mu * grads)
        assert np.max(np.abs(batch.w[:, 0].reshape(n, 2) - w)) <= 1e-12 * np.max(np.abs(w))


def test_combine_matches_neighbor_sums():
    """The per-cluster matrix product equals the literal neighbor sum."""
    problem, cmap = _consistent_problem(seed=6, n=5, dims=(1, 2))
    mats = _weights(problem)
    scal = step_scaling(cmap, mats)
    cfg = EngineConfig(mu=0.02, eta=0.0, noise="stochastic")
    state = init_state(problem, 9)
    coupled_diffusion_step(state, problem, mats, scal, cfg)
    psi = state.psi
    nbrs = {k: set(neighborhood(problem.net, k)) for k in range(5)}
    for l, cluster in enumerate(cmap.clusters):
        m = mats[l]
        # row i: the flat positions of cluster member i's copy of block l
        copy = dict(zip(cluster, flat_cluster_indices(cmap, l).reshape(len(cluster), -1)))
        for k in cluster:
            total = np.zeros(cmap.layout.dims[l])
            for s in cluster:
                if s not in nbrs[k]:
                    continue
                a = m.matrix[cluster.index(s), cluster.index(k)]
                total += a * psi[copy[s]]
            assert np.allclose(state.w[copy[k]], total, atol=1e-14)


def test_combination_preserves_consensus():
    problem, cmap = _consistent_problem(seed=2)
    mats = _weights(problem)
    scal = step_scaling(cmap, mats)
    cfg = EngineConfig(mu=0.05, eta=0.0, noise="exact")
    state = init_state(problem, 0, init_global=problem.true_model)
    # exact mode at the shared optimum: psi == w, combination maps consensus
    # to the same consensus values
    coupled_diffusion_step(state, problem, mats, scal, cfg)
    for k in range(problem.agent_count):
        assert np.allclose(
            state.w[cmap.flat_slice(k)], gather_local(cmap, problem.true_model, k), atol=1e-14
        )


def test_centroid_identity_against_network_form():
    problem, cmap = _consistent_problem(seed=8, n=5, dims=(2, 2))
    mats = _weights(problem)
    scal = step_scaling(cmap, mats)
    cfg = EngineConfig(mu=0.01, eta=0.0, iterations=20, noise="stochastic")
    state = init_state(problem, 3)
    batch = init_batch(problem, mats, cfg, (3,))
    for _ in range(20):
        coupled_diffusion_step(state, problem, mats, scal, cfg)
        batch.step()
    c1 = centroid(state.w, cmap, mats)
    w = batch.w.T[0]
    for l, cluster in enumerate(cmap.clusters):
        block = w[flat_cluster_indices(cmap, l)].reshape(len(cluster), cmap.layout.dims[l])
        expect = mats[l].perron @ block
        assert np.max(np.abs(c1[global_slice(cmap.layout, l)] - expect)) <= 1e-12


def test_noise_free_consensus_contraction():
    problem, cmap = _consistent_problem(seed=11, n=5, dims=(2, 1))
    # shift oracles so individual minimizers disagree (nonzero steady gradients)
    oracles = []
    rng = np.random.default_rng(0)
    for o in problem.oracles:
        oracles.append(QuadraticRiskOracle(o.basis, o.spectrum, o.w_ref + 0.5 * rng.standard_normal(o.dim), 0.0))
    problem = MultiAgentProblem(
        net=problem.net, cmap=cmap, oracles=tuple(oracles),
        constraints=problem.constraints, penalty=problem.penalty,
    )
    mats = _weights(problem)
    scal = step_scaling(cmap, mats)
    mu = 0.002
    cfg = EngineConfig(mu=mu, eta=0.0, noise="exact")
    state = init_state(problem, 0)
    for _ in range(4000):
        coupled_diffusion_step(state, problem, mats, scal, cfg)
    w_star = penalized_optimum(problem, 0.0)
    grads = max(
        np.linalg.norm(scal[cmap.flat_slice(k)] * problem.oracles[k].true_gradient(gather_local(cmap, w_star, k)))
        for k in range(problem.agent_count)
    )
    scale = grads / (1.0 - spectral_gap_bound(mats))
    assert disagreement(state.w, cmap).max() <= 10.0 * mu * scale


def test_centralized_matches_plain_gradient_descent():
    problem, cmap = _consistent_problem(seed=12)
    cfg = EngineConfig(mu=0.01, eta=0.0, noise="exact")
    w = np.zeros(problem.layout.total_dim)
    manual = np.zeros_like(w)
    for _ in range(30):
        w = centralized_step(w, [1.0] * problem.layout.block_count, problem, cfg)
        manual = manual - cfg.mu * problem.global_gradient(manual, 0.0)
        assert np.allclose(w, manual, atol=1e-13)


def test_centralized_per_block_scaling():
    problem, cmap = _consistent_problem(seed=13)
    cfg = EngineConfig(mu=0.01, eta=0.0, noise="exact")
    d = [1.0 / len(c) for c in cmap.clusters]
    w = np.zeros(problem.layout.total_dim)
    w2 = centralized_step(w, d, problem, cfg)
    grad = problem.global_gradient(w, 0.0)
    for l in range(problem.layout.block_count):
        sl = global_slice(problem.layout, l)
        assert np.allclose(w2[sl], -cfg.mu * d[l] * grad[sl], atol=1e-14)


def test_centralized_fixed_point():
    problem, cmap = _consistent_problem(seed=14)
    cfg = EngineConfig(mu=0.01, eta=0.0, noise="exact")
    w_star = penalized_optimum(problem, 0.0)
    w2 = centralized_step(w_star.copy(), [1.0] * problem.layout.block_count, problem, cfg)
    assert np.allclose(w2, w_star, atol=1e-12)


def test_centralized_penalized_drift_is_second_order():
    """With the two incremental steps, w_star moves only by mu^2 eta terms."""
    problem, cmap = _consistent_problem(seed=15)
    cons = [[] for _ in range(problem.agent_count)]
    g = np.zeros(cmap.local_dims[0])
    g[0] = 1.0
    cons[0].append(equality(0, g, 0.7))
    problem = MultiAgentProblem(
        net=problem.net, cmap=cmap, oracles=problem.oracles,
        constraints=constraint_rows(cmap, cons), penalty=PenaltyConfig(rho=1.0),
        true_model=problem.true_model,
    )
    eta, mu = 50.0, 1e-3
    cfg = EngineConfig(mu=mu, eta=eta, noise="exact")
    w_star = penalized_optimum(problem, eta)
    w2 = centralized_step(w_star.copy(), [1.0] * problem.layout.block_count, problem, cfg)
    hess, _ = problem.global_risk_quadratic()
    p = global_penalty_gradient(problem, w_star)
    # drift = mu^2 eta H D p for the quadratic risk, exactly
    assert np.allclose(w2 - w_star, mu**2 * eta * hess @ p, atol=1e-12)


def test_admm_fixed_point_and_reduction():
    problem, cmap = _consistent_problem(seed=16)
    cfg = EngineConfig(mu=0.01, eta=0.0, noise="exact", rho_admm=1.0)
    state = init_admm_state(problem, 0)
    state.w = init_state(problem, 0, init_global=problem.true_model).w
    state.z = problem.true_model.copy()
    before = state.w.copy()
    admm_linearized_step(state, problem, cfg)
    assert np.allclose(state.w, before, atol=1e-14)
    assert np.allclose(state.y, 0.0, atol=1e-14)

    single = single_agent_problem(dim=2, noise_std=0.0, seed=2)
    st1 = init_admm_state(single, 0)
    manual = np.zeros(2)
    for _ in range(20):
        st1.z = st1.w.copy() + st1.y / cfg.rho_admm  # keep z anchored at w
        admm_linearized_step(st1, single, cfg)
        manual = manual - cfg.mu * single.oracles[0].true_gradient(manual)
        assert np.allclose(st1.w, manual, atol=1e-13)


def test_admm_ordering_at_matched_effective_step(benchmark_problem, benchmark_weights, benchmark_scaling):
    """At matched effective steps the consensus solver pays a clear noise
    penalty relative to the diffusion strategy (the Perron scaling makes the
    diffusion's effective step n_bar times the raw mu)."""
    problem = benchmark_problem
    cmap = problem.cmap
    refs = reference_solution(problem, 0.0)
    mu = 0.002
    n_bar = float(np.mean([len(c) for c in cmap.clusters]))
    seeds = range(4)

    def steady_coupled(seed):
        cfg = EngineConfig(mu=mu, eta=0.0, iterations=1500)
        st = init_state(problem, seed)
        vals = []
        for i in range(cfg.iterations):
            coupled_diffusion_step(st, problem, benchmark_weights, benchmark_scaling, cfg)
            if i >= cfg.iterations * 0.9:
                vals.append(msd(st.w, cmap, refs.w_star))
        return np.mean(vals)

    def steady_admm(seed):
        cfg = EngineConfig(mu=mu * n_bar, eta=0.0, iterations=1500, rho_admm=1.0)
        st = init_admm_state(problem, seed)
        vals = []
        for i in range(cfg.iterations):
            admm_linearized_step(st, problem, cfg)
            if i >= cfg.iterations * 0.9:
                vals.append(msd(st.w, cmap, refs.w_star))
        return np.mean(vals)

    c = np.mean([steady_coupled(s) for s in seeds])
    a = np.mean([steady_admm(100 + s) for s in seeds])
    assert a > c


def test_divergence_detection():
    problem, cmap = _consistent_problem(seed=17)
    mats = _weights(problem)
    scal = step_scaling(cmap, mats)
    cfg = EngineConfig(mu=50.0, eta=0.0, noise="exact")
    state = init_state(problem, 0, init_global=problem.true_model + 1.0)
    with pytest.raises(NonFiniteIterate) as err:
        for _ in range(2000):
            coupled_diffusion_step(state, problem, mats, scal, cfg)
    assert err.value.iteration > 0
    assert 0 <= err.value.agent < problem.agent_count


def test_engine_config_rejects_bad_numbers():
    for bad in (dict(eta=-5.0), dict(eta=np.inf), dict(eta=np.nan), dict(mu=np.nan),
                dict(mu=np.inf), dict(mu=0.0), dict(rho_admm=-1.0), dict(rho_admm=0.0),
                dict(rho_admm=np.nan)):
        with pytest.raises(ValueError):
            EngineConfig(**{"mu": 0.01, **bad})


def test_suggest_step_size():
    assert suggest_step_size(1.0, 1.0, 0.0, 0.0, 1) == pytest.approx(0.5)
    assert suggest_step_size(2.0, 3.0, 1.0, 10.0, 20) == pytest.approx(1.0 / 262.0)
    # shrinks like O(1/eta) for large penalties
    small = suggest_step_size(2.0, 3.0, 1.0, 1e6, 20)
    assert small == pytest.approx(1.0 / (2.0 + 20 * (3.0 + 1e6)), rel=1e-12)
