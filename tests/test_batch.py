"""The batched engine against the per-agent steps it batches.

Every test runs several seeds at once through `init_batch` and the same
seeds one by one through the per-agent reference steps of `reference.py`
(`coupled_diffusion_step`, `admm_linearized_step` or `centralized_step`),
on shared (seed, agent) noise streams.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings

from coupled_diffusion import engine
from coupled_diffusion.engine import (
    NOISE_CHUNK_BYTES,
    NOISE_CHUNK_MIN_ITERATIONS,
    RISK_WINDOW_BYTES,
    EngineConfig,
    agent_streams,
    init_batch,
)
from coupled_diffusion.errors import ConfigError, NonFiniteIterate
from coupled_diffusion.harness import (
    NetworkDescription,
    build_problem,
    load_network,
    regenerate_constraints,
)
from coupled_diffusion.metrics import (
    METRIC_WINDOW_BYTES,
    MetricsLog,
    constrained_optimum,
    disagreement,
    penalized_optimum,
    reference_solution,
)
from coupled_diffusion.objective import MultiAgentProblem, QuadraticRiskOracle
from coupled_diffusion.topology import BlockLayout
from coupled_diffusion.weights import averaging_weights, metropolis_weights, step_scaling
from conftest import SETUP_NETWORKS, assert_bridge_oracles_draw_like_their_inner_oracle
from reference import (
    admm_linearized_step,
    centralized_step,
    cluster_operators,
    agent_constraints,
    constraint_rows,
    coupled_diffusion_step,
    flat_cluster_indices,
    generate_benchmark_problem,
    inequality,
    init_admm_state,
    init_state,
    msd,
    padded_maps,
    pairwise_disagreement,
)
from reference import inverse_cluster_sizes as reference_inverse_cluster_sizes
from reference import step_scaling as reference_step_scaling
from test_topology import connected_networks, network_files

SEEDS = (11, 12, 13)
TOL = 1e-10


def _weights(problem, rule=metropolis_weights):
    return {l: rule(problem.cmap, problem.net, l) for l in range(problem.layout.block_count)}


class _PerAgent:
    """The per-agent reference for one seed, with the batched interface."""

    def __init__(self, problem, weights, cfg, seed, init_global=None):
        self.problem, self.weights, self.cfg = problem, weights, cfg
        self.scaling = step_scaling(problem.cmap, weights)
        cmap = problem.cmap
        if cfg.algorithm == "coupled":
            self.state = init_state(problem, seed, init_global)
        elif cfg.algorithm == "admm":
            self.state = init_admm_state(problem, seed, init_global)
        else:
            self.w = np.zeros(problem.layout.total_dim) if init_global is None else init_global.copy()
            self.d_blocks = [1.0 / len(c) for c in cmap.clusters]
            self.rngs = agent_streams(seed, problem.agent_count)

    def step(self):
        if self.cfg.algorithm == "coupled":
            coupled_diffusion_step(self.state, self.problem, self.weights, self.scaling, self.cfg)
        elif self.cfg.algorithm == "admm":
            admm_linearized_step(self.state, self.problem, self.cfg)
        else:
            self.w = centralized_step(self.w, self.d_blocks, self.problem, self.cfg, self.rngs)

    def view(self):
        if self.cfg.algorithm == "centralized":
            return self.w[self.problem.cmap.flat_global_indices]
        return self.state.w


def _deviation(problem, cfg, seeds=SEEDS, init_global=None, change=None,
               rule=metropolis_weights):
    """Largest |batched - per-agent| entry over every iteration and seed,
    and the largest |per-agent| entry, the scale of the first.

    `change` is an optional (iteration, problem) constraint swap applied
    before the step with that index.
    """
    weights = _weights(problem, rule)
    batch = init_batch(problem, weights, cfg, seeds, init_global)
    refs = [_PerAgent(problem, weights, cfg, seed, init_global) for seed in seeds]
    dev = scale = 0.0
    for i in range(cfg.iterations):
        if change is not None and i == change[0]:
            batch.set_constraints(change[1])
            for ref in refs:
                ref.problem = change[1]
        batch.step()
        for ref in refs:
            ref.step()
        assert batch.w.shape == (problem.cmap.total_local_dim, len(seeds))
        want = np.array([ref.view() for ref in refs])
        dev = max(dev, float(np.max(np.abs(batch.w.T - want))))
        scale = max(scale, float(np.max(np.abs(want))))
    return dev, scale


def _max_deviation(problem, cfg, seeds=SEEDS, init_global=None, change=None,
                   rule=metropolis_weights):
    """Largest |batched - per-agent| entry over every iteration and seed."""
    return _deviation(problem, cfg, seeds, init_global, change, rule)[0]


@pytest.fixture(scope="module")
def constrained():
    return generate_benchmark_problem(7, constrained=True)


@pytest.fixture(scope="module")
def bridged(bridge_net):
    """Five agents whose clusters of blocks 1 and 2 are split, so that
    embedding recruits bridge agents, whose oracles have zero basis rows."""
    problem = build_problem(NetworkDescription(net=bridge_net, layout=BlockLayout((2, 3, 2, 1))), 4,
                            constrained=True)
    assert any(o.rank < o.dim for o in problem.oracles)
    return problem


@pytest.mark.parametrize("noise", ["stochastic", "exact"])
@pytest.mark.parametrize("algorithm", ["coupled", "centralized", "admm"])
def test_batch_matches_per_agent_steps(constrained, algorithm, noise):
    eta = 0.0 if algorithm == "admm" else 50.0
    cfg = EngineConfig(mu=0.002, eta=eta, iterations=150, noise=noise, algorithm=algorithm)
    assert _max_deviation(constrained, cfg) <= TOL


def test_batch_matches_per_agent_steps_with_averaging_weights(constrained):
    """Averaging matrices are not symmetric and their Perron vectors not
    uniform, so this catches a transposed combination or a lost scaling."""
    cfg = EngineConfig(mu=0.002, eta=50.0, iterations=150)
    assert _max_deviation(constrained, cfg, rule=averaging_weights) <= TOL


@pytest.mark.parametrize("algorithm, noise", [
    pytest.param(algorithm, noise, id=algorithm if noise == "stochastic" else f"{algorithm}-exact")
    for noise in ("stochastic", "exact") for algorithm in ("coupled", "centralized", "admm")
])
def test_batch_matches_per_agent_steps_with_bridge_agents(bridged, algorithm, noise):
    """Exact mode takes the (N, Q, Q) covariances, stochastic mode the
    (N, Q, R) scaled bases with R < Q for the bridge agents."""
    eta = 0.0 if algorithm == "admm" else 20.0
    cfg = EngineConfig(mu=0.01, eta=eta, iterations=200, noise=noise, algorithm=algorithm)
    assert _max_deviation(bridged, cfg) <= TOL


@pytest.mark.parametrize("fixture", ["constrained", "bridged"])
def test_centralized_copies_stay_equal(request, fixture):
    """The centralized baseline applies the cluster sum of the gradients to
    every copy, so every copy of a block stays bitwise equal, with
    stochastic risk gradients and an active penalty step."""
    problem = request.getfixturevalue(fixture)
    weights = _weights(problem)
    cfg = EngineConfig(mu=0.002, eta=50.0, iterations=50, algorithm="centralized")
    start = np.random.default_rng(1).standard_normal(problem.layout.total_dim)
    batch = init_batch(problem, weights, cfg, SEEDS, init_global=start)
    cmap = problem.cmap
    for _ in range(cfg.iterations):
        batch.step()
        w = batch.w.T
        for l, cluster in enumerate(cmap.clusters):
            copies = w[:, flat_cluster_indices(cmap, l)].reshape(len(SEEDS), len(cluster), -1)
            assert np.array_equal(copies, np.broadcast_to(copies[:, :1], copies.shape))
    assert np.all(disagreement(batch.w, cmap) == 0.0)


@pytest.mark.parametrize("algorithm", ["coupled", "centralized"])
def test_a_penalty_without_rows_steps_bitwise_as_eta_zero(algorithm):
    """On a problem without constraint rows, eta 10 runs the penalty step
    on zero rows, whose gradient is zero, and eta 0 skips it: every
    iterate of the two is the same to the bit."""
    problem = generate_benchmark_problem(7)
    weights = _weights(problem)
    runs = [init_batch(problem, weights, EngineConfig(mu=0.002, eta=eta, iterations=30,
                                                      algorithm=algorithm), SEEDS)
            for eta in (0.0, 10.0)]
    assert runs[0]._rows is None and runs[1]._rows[0].shape[0] == 0
    for _ in range(30):
        for batch in runs:
            batch.step()
        _assert_bitwise(runs[1].w, runs[0].w, algorithm)


def test_bridge_oracles_draw_like_their_inner_oracle(bridged, bridge_net):
    assert_bridge_oracles_draw_like_their_inner_oracle(bridged, bridge_net)


@pytest.mark.parametrize("algorithm", ["coupled", "centralized"])
def test_batch_tracks_constraint_swap_from_reference_start(algorithm):
    desc = load_network("benchmark20")
    problem = build_problem(desc, 7, constrained=True)
    changed = regenerate_constraints(problem, desc, 7, epoch=0)
    start = reference_solution(problem, 100.0).w_star
    cfg = EngineConfig(mu=0.001, eta=100.0, iterations=160, algorithm=algorithm)
    assert _max_deviation(problem, cfg, init_global=start, change=(80, changed)) <= TOL


def test_admm_warm_start_matches_per_agent(constrained):
    start = reference_solution(constrained, 0.0).w_star
    cfg = EngineConfig(mu=0.002, iterations=100, algorithm="admm")
    assert _max_deviation(constrained, cfg, init_global=start) <= TOL


@pytest.mark.parametrize("spread", [0.0, 0.1])
def test_admm_warm_start_stays_at_the_optimum(spread):
    """Exact gradients from the unconstrained optimum of benchmark20: the
    averages start there and the duals at -grad J_k, which sum to zero over
    each cluster, so nothing moves. With `spread`, each agent's own
    minimizer is moved off the common model, so that grad J_k is not zero."""
    problem = generate_benchmark_problem(7)
    rng = np.random.default_rng(5)
    oracles = tuple(
        QuadraticRiskOracle(o.basis, o.spectrum, o.w_ref + spread * rng.standard_normal(o.dim),
                            o.noise_std)
        for o in problem.oracles
    )
    problem = dataclasses.replace(problem, oracles=oracles)
    start = reference_solution(problem, 0.0).w_star
    weights = _weights(problem)
    cfg = EngineConfig(mu=0.002, iterations=10, noise="exact", algorithm="admm")
    batch = init_batch(problem, weights, cfg, SEEDS, init_global=start)
    state = init_admm_state(problem, SEEDS[0], start)
    for _ in range(cfg.iterations):
        batch.step()
        admm_linearized_step(state, problem, cfg)
    assert np.max(msd(batch.w.T, problem.cmap, start)) <= 1e-20
    assert msd(state.w, problem.cmap, start) <= 1e-20


def _assert_bitwise(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


# the cluster operator of each algorithm, by its attribute on the batch
OPERATORS = {"coupled": "_mix", "admm": "_mean", "centralized": "_sum"}


def _assert_flat_maps_are_the_reference(problem):
    """The cluster map's real-cell mask, padded slot, agent-of-entry and
    anchor maps, the inverse cluster sizes, the step scalings of both
    weight rules and the stacks and slots of the three engines' cluster
    operators are bitwise their block-by-block forms. The engines share the map's
    indexes, so they are read-only."""
    cmap = problem.cmap
    for name in ("flat_global_indices", "flat_agents", "padded_cluster_indices", "padded_real",
                 "padded_slot", "anchor"):
        assert not getattr(cmap, name).flags.writeable, name
    real, slot, agents, anchor = padded_maps(cmap)
    _assert_bitwise(cmap.padded_real, real, "padded_real")
    _assert_bitwise(cmap.padded_slot, slot, "padded_slot")
    _assert_bitwise(cmap.flat_agents, agents, "flat_agents")
    _assert_bitwise(cmap.anchor, anchor, "anchor")
    _assert_bitwise(cmap.inverse_cluster_sizes(), reference_inverse_cluster_sizes(cmap),
                    "inverse_cluster_sizes")
    cfg = EngineConfig(mu=0.001, noise="exact")
    for rule in (metropolis_weights, averaging_weights):
        weights = _weights(problem, rule)
        _assert_bitwise(step_scaling(cmap, weights), reference_step_scaling(cmap, weights),
                        f"step_scaling, {rule.__name__}")
        stacks = cluster_operators(cmap, weights)
        for algorithm, attr in OPERATORS.items():
            batch = init_batch(problem, weights, dataclasses.replace(cfg, algorithm=algorithm),
                               SEEDS[:1])
            operator = getattr(batch, attr)
            _assert_bitwise(operator.mats, stacks[algorithm], f"{algorithm}, {rule.__name__}")
            _assert_bitwise(operator.slot, slot, f"{algorithm} slot")


@pytest.mark.parametrize("network", SETUP_NETWORKS + ("example5",))
def test_flat_maps_and_cluster_operators_match_the_per_block_reference(setup_networks, network):
    desc = setup_networks.get(network) or load_network(network)
    _assert_flat_maps_are_the_reference(build_problem(desc, 3))


@given(connected_networks())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_flat_maps_and_cluster_operators_match_the_reference_on_random_networks(case):
    """Random networks with singleton and unequal clusters, bridged where a
    cluster is split."""
    net, layout = case
    _assert_flat_maps_are_the_reference(
        build_problem(NetworkDescription(net=net, layout=layout), 3))


# the runs of each random network: coupled and centralized with a penalty,
# ADMM without, each with stochastic and exact gradients
RANDOM_NETWORK_RUNS = [(algorithm, eta, noise) for algorithm, eta in
                       (("coupled", 5.0), ("centralized", 5.0), ("admm", 0.0))
                       for noise in ("stochastic", "exact")]


def test_batch_and_metrics_match_the_reference_on_random_networks(tmp_path):
    """Random network files (`network_files`) through the loader, the
    problem build and every engine: each run of RANDOM_NETWORK_RUNS
    matches the per-agent reference to 1e-12 relative, 2 seeds for 20
    iterations, and the logged MSD and disagreement of the coupled run are
    `msd` against both references and the pairwise distances. The
    examples hold bridge agents, a block every agent holds, an agent that
    holds every block and unequal oracle ranks."""
    seen = set()

    @given(network_files())
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def check(raw):
        path = tmp_path / "network.json"
        path.write_text(json.dumps(raw))
        problem = build_problem(load_network(str(path)), 5, constrained=True)
        cmap, seeds = problem.cmap, SEEDS[:2]
        kinds = {"bridged": any(o.rank < o.dim for o in problem.oracles),
                 "shared": any(len(c) == problem.agent_count for c in cmap.clusters),
                 "unequal-ranks": len({o.rank for o in problem.oracles}) > 1,
                 "hub": problem.layout.block_count > 1 and any(
                     len(b) == problem.layout.block_count for b in cmap.agent_blocks)}
        seen.update(kind for kind, present in kinds.items() if present)
        for algorithm, eta, noise in RANDOM_NETWORK_RUNS:
            cfg = EngineConfig(mu=0.002, eta=eta, iterations=20, noise=noise, algorithm=algorithm)
            dev, scale = _deviation(problem, cfg, seeds)
            assert dev <= 1e-12 * scale, (algorithm, noise)
        ref = reference_solution(problem, 5.0)
        batch = init_batch(problem, _weights(problem), EngineConfig(mu=0.002, eta=5.0), seeds)
        references = [cmap.columns([w], len(seeds)) for w in (ref.w_star, ref.w_o)]
        log, states = MetricsLog(cmap), []
        for i in range(20):
            batch.step()
            log.record(i + 1, batch.w, *references)
            states.append(batch.w.T.copy())
        for w, msd_star, msd_o, worst in zip(states, log.msd_star, log.msd_o,
                                             log.disagreement_max):
            assert np.allclose(msd_star, msd(w, cmap, ref.w_star), rtol=1e-12, atol=0)
            assert np.allclose(msd_o, msd(w, cmap, ref.w_o), rtol=1e-12, atol=0)
            want = np.array([pairwise_disagreement(column, cmap).max() for column in w])
            assert np.all(np.abs(worst - want) <= 1e-12 * want)

    check()
    assert seen == {"bridged", "shared", "unequal-ranks", "hub"}


def test_constraint_swap_matches_the_reference_on_random_networks(tmp_path):
    """Random network files (`network_files`), named owners and default
    ones, with the constraints swapped by `set_constraints` before step 10
    of 20: coupled and centralized, stochastic and exact, 2 seeds, against
    the per-agent reference that swaps before the same step, to 1e-12
    relative."""
    owners = set()

    @given(network_files())
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    def check(raw):
        path = tmp_path / "network.json"
        path.write_text(json.dumps(raw))
        desc = load_network(str(path))
        problem = build_problem(desc, 5, constrained=True)
        change = (10, regenerate_constraints(problem, desc, 5, epoch=0))
        owners.add("named" if "constraint_owners" in raw else "default")
        for algorithm in ("coupled", "centralized"):
            for noise in ("stochastic", "exact"):
                cfg = EngineConfig(mu=0.002, eta=5.0, iterations=20, noise=noise,
                                   algorithm=algorithm)
                dev, scale = _deviation(problem, cfg, SEEDS[:2], change=change)
                assert dev <= 1e-12 * scale, (algorithm, noise)

    check()
    assert owners == {"named", "default"}


def _close(got, expect, scale):
    """got matches expect to 1e-15 relative to `scale`, the size of the
    terms that make up expect."""
    return np.max(np.abs(got - expect)) <= 1e-15 * scale


def _buffers(risk):
    """The noise buffer and the window buffers of a risk-gradient object."""
    return risk.buffer, risk.regressors, risk.targets, risk.flat_regressors, risk.column_targets


class _EngineNumpy:
    """numpy as the engine sees it in `_check_windows`: `empty` fills its
    arrays with NaN, so that a cell the engine reads before it writes it
    shows, and `matmul` keeps the right operand of every product."""

    def __init__(self):
        self.operands = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        return np.full(shape, np.nan, dtype)

    def matmul(self, a, b, **kwargs):
        self.operands.append(b)
        return np.matmul(a, b, **kwargs)


def _check_windows(problem, seeds=SEEDS, points=1):
    """An iteration count that is a multiple of neither the window nor the
    chunk length: in every iteration, each (seed, agent)'s cells of the
    noise buffer hold the rank + 1 draws (u, v) of its per-agent stream,
    the noise draw v in column rank, and zeros past them, also in the
    shorter last chunk; its window regressor and target are F_k u and
    w_ref_k'h + sigma_k v, and every state column p S + s of the
    regressors in the state's layout and of the column targets holds seed
    s's, for every grid point p. A window's draws are a slice of the noise
    buffer, and the noise buffer and the window buffers are allocated
    once. Returns the risk-gradient object of the run."""
    weights = _weights(problem)
    grid = [EngineConfig(mu=0.001, eta=10.0 * p) for p in range(points)]
    risk = init_batch(problem, weights, grid, seeds)._risk
    iterations = 2 * risk.chunk + risk.window + 1
    while not (iterations % risk.chunk and iterations % risk.window):
        iterations += 1
    grid = [dataclasses.replace(cfg, iterations=iterations) for cfg in grid]
    spy = _EngineNumpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "np", spy)
        risk = init_batch(problem, weights, grid, seeds)._risk
    assert risk.window > 1 and iterations % risk.chunk and iterations % risk.window
    streams = [agent_streams(seed, problem.agent_count) for seed in seeds]
    starts = problem.cmap.agent_starts
    buffers = _buffers(risk)
    x = np.zeros((problem.cmap.total_local_dim, points * len(seeds)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "np", spy)
        for i in range(iterations):
            risk(x)
            assert all(a is b for a, b in zip(_buffers(risk), buffers))  # allocated once
            j = risk.next - 1
            row = risk.used - risk.formed + j  # the iteration's cells of the noise buffer
            if j == 0:  # a new window: its first product takes a view of the buffer
                draws = spy.operands[-2]
                assert np.shares_memory(draws, risk.buffer)
                window = risk.buffer[row:risk.used, :, :-1]  # same memory, shape and strides
                assert draws.__array_interface__ == window.__array_interface__
            h, y = risk.regressors[j], risk.targets[j]
            flat, column_y = risk.flat_regressors[j], risk.column_targets[j]
            for s, rngs in enumerate(streams):
                for k, (rng, o) in enumerate(zip(rngs, problem.oracles)):
                    u = rng.standard_normal(o.rank + 1)
                    cells = risk.buffer[row, k, :, s]
                    assert np.array_equal(cells[:o.rank + 1], u)  # the noise draw in column rank
                    assert not cells[o.rank + 1:].any()
                    factor = o.basis * np.sqrt(o.spectrum)
                    expect_h = factor @ u[:-1]
                    assert _close(h[k, :o.dim, s], expect_h,
                                  np.max(np.abs(factor) @ np.abs(u[:-1])))
                    assert not h[k, o.dim:, s].any()
                    assert _close(y[k, s], o.w_ref @ expect_h + o.noise_std * u[-1],
                                  np.abs(o.w_ref) @ np.abs(expect_h) + o.noise_std * abs(u[-1]))
                    for p in range(points):
                        column = p * len(seeds) + s
                        assert np.array_equal(flat[starts[k]:starts[k] + o.dim, column],
                                              h[k, :o.dim, s])
                        assert column_y[k, column] == y[k, s]
    assert risk.length < risk.chunk  # the run ended in a shorter chunk
    assert risk.left == 0  # the last chunk drew only what the run needs
    return risk


def test_noise_chunks_see_the_per_agent_variates(constrained):
    _check_windows(constrained, points=2)


def test_noise_chunks_see_the_per_agent_variates_with_bridge_agents(bridged):
    _check_windows(bridged)


def test_noise_chunks_see_the_per_agent_variates_of_one_seed_on_a_grid(constrained):
    """One seed, where a single iteration's product is a matrix-vector
    product, and three grid points sharing its draws."""
    _check_windows(constrained, seeds=(SEEDS[0],), points=3)


@pytest.mark.parametrize("seeds", [(SEEDS[0],), SEEDS], ids=["1-seed", "3-seeds"])
def test_a_grid_point_has_the_risk_gradient_of_its_one_point_batch(constrained, seeds):
    """Each point of a 3-point grid gets, bitwise, the risk gradient that a
    1-point batch of the same seeds gives at the same state, in every
    iteration, across a window boundary within a chunk and a chunk
    boundary: its columns' inner products add the same products in the
    same order, however many columns the state has."""
    weights = _weights(constrained)
    grid = [EngineConfig(mu=0.001, eta=10.0 * p) for p in range(3)]
    shape = init_batch(constrained, weights, grid, seeds)._risk
    one = init_batch(constrained, weights, grid[0], seeds)._risk
    assert shape.window <= one.window < shape.chunk == one.chunk
    iterations = shape.chunk + one.window + 1
    grid = [dataclasses.replace(cfg, iterations=iterations) for cfg in grid]
    risk = init_batch(constrained, weights, grid, seeds)._risk
    alone = [init_batch(constrained, weights, cfg, seeds)._risk for cfg in grid]
    rng = np.random.default_rng(3)
    for _ in range(iterations):
        x = rng.standard_normal((constrained.cmap.total_local_dim, len(grid) * len(seeds)))
        g = risk(x)
        for p, point in enumerate(alone):
            columns = slice(p * len(seeds), (p + 1) * len(seeds))
            _assert_bitwise(g[:, columns], point(np.ascontiguousarray(x[:, columns])),
                            f"point {p}")
    assert risk.length < risk.chunk  # the run crossed a chunk boundary


def test_noise_chunks_cover_at_least_the_floor_of_iterations(constrained):
    """Twenty seeds on benchmark20, where the byte budget alone would give
    chunks of fewer iterations than the floor: the floor sets the chunk
    length and the buffer size, and the draws still match."""
    seeds = tuple(range(20))
    per_iteration = sum(o.rank + 1 for o in constrained.oracles)
    assert NOISE_CHUNK_BYTES // (8 * len(seeds) * per_iteration) < NOISE_CHUNK_MIN_ITERATIONS
    risk = _check_windows(constrained, seeds)
    assert risk.chunk == NOISE_CHUNK_MIN_ITERATIONS
    depth = max(o.rank for o in constrained.oracles) + 1
    assert risk.buffer.shape == (NOISE_CHUNK_MIN_ITERATIONS, constrained.agent_count, depth,
                                 len(seeds))


@pytest.mark.parametrize("seeds, points", [(SEEDS, 1), (tuple(range(20)), 4), ((5,), 1)],
                         ids=["3-seeds", "20-seeds-4-points", "1-seed"])
def test_risk_windows_stay_within_their_byte_bound(constrained, seeds, points):
    """The window buffers hold at most max(RISK_WINDOW_BYTES, one
    iteration's bytes), the first window is the longest, and exact
    gradients draw nothing and form no windows."""
    weights = _weights(constrained)
    grid = [EngineConfig(mu=0.001, eta=10.0 * p, iterations=1000) for p in range(points)]
    risk = init_batch(constrained, weights, grid, seeds)._risk
    risk(np.zeros((constrained.cmap.total_local_dim, points * len(seeds))))
    window = _buffers(risk)[1:]
    assert all(a.shape[0] == risk.window == risk.formed for a in window)
    assert sum(a.nbytes for a in window) <= max(RISK_WINDOW_BYTES,
                                                sum(a[0].nbytes for a in window))
    exact = init_batch(constrained, weights, dataclasses.replace(grid[0], noise="exact"),
                       seeds)._risk
    assert not hasattr(exact, "streams") and not hasattr(exact, "buffer")


def test_metrics_log_matches_per_seed_metrics(constrained):
    """A grid of two eta points: each column is logged against its own
    point's references."""
    weights = _weights(constrained)
    etas = (50.0, 10.0)
    refs = [reference_solution(constrained, eta) for eta in etas]
    batch = init_batch(constrained, weights,
                       [EngineConfig(mu=0.002, eta=eta) for eta in etas], SEEDS)
    w_star = constrained.cmap.columns([r.w_star for r in refs], len(SEEDS))
    w_o = constrained.cmap.columns([r.w_o for r in refs], len(SEEDS))
    log = MetricsLog(constrained.cmap)
    for i in range(3):
        batch.step()
        log.record(i + 1, batch.w, w_star, w_o)
    w = batch.w.T
    assert log.iterations == [1, 2, 3]
    assert log.msd_star.shape == (3, len(etas) * len(SEEDS))
    for j in range(len(etas) * len(SEEDS)):
        ref = refs[j // len(SEEDS)]
        assert log.msd_star[-1, j] == pytest.approx(msd(w[j], constrained.cmap, ref.w_star), rel=1e-12)
        assert log.msd_o[-1, j] == pytest.approx(msd(w[j], constrained.cmap, ref.w_o), rel=1e-12)
        assert log.disagreement_max[-1, j] == pytest.approx(
            disagreement(w[j], constrained.cmap).max(), rel=1e-12)
    assert log.disagreement_max.shape == log.msd_star.shape


@pytest.mark.parametrize("etas, seeds", [((50.0,), (11,)), ((50.0,), (11, 12)),
                                         ((50.0, 10.0), SEEDS)],
                         ids=["1-column", "2-columns", "6-columns"])
def test_metrics_log_windows_match_each_record_alone(etas, seeds):
    """Every disagreement_max is, bit for bit, `disagreement` of that
    record's state alone, and every MSD its per-record form: over full
    windows, a last partial one, and a change of constraints and
    references inside a window, as at a tracking change point. A w_o
    given as one column, which every column shares, as the run passes
    it, gives bitwise the MSDs of its per-column copies."""
    desc = load_network("benchmark20")
    problem = build_problem(desc, 7, constrained=True)
    changed = regenerate_constraints(problem, desc, 7, epoch=0)
    cmap = problem.cmap
    references = []
    for p in (problem, changed):
        refs = [reference_solution(p, eta) for eta in etas]
        references.append((cmap.columns([r.w_star for r in refs], len(seeds)),
                           cmap.columns([r.w_o for r in refs], len(seeds)),
                           cmap.columns([refs[0].w_o], 1)))
    batch = init_batch(problem, _weights(problem),
                       [EngineConfig(mu=0.002, eta=eta) for eta in etas], seeds)
    window = METRIC_WINDOW_BYTES // batch.w.nbytes
    change = window + 2  # the third record of the second window
    log, shared, records = MetricsLog(cmap), MetricsLog(cmap), []
    for i in range(2 * window + 3):  # two full windows and a partial one
        if i == change:
            batch.set_constraints(changed)
        batch.step()
        w_star, w_o, w_o_column = references[i >= change]
        log.record(i + 1, batch.w, w_star, w_o)
        shared.record(i + 1, batch.w, w_star, w_o_column)
        records.append((batch.w, w_star, w_o))
    assert log._window.shape[1] == window > 1
    weight = cmap.inverse_cluster_sizes()

    def per_record_msd(w, reference):
        err = w - reference
        return (err * err).T @ weight

    msd_star, msd_o, worst = log.msd_star, log.msd_o, log.disagreement_max
    assert worst.shape == msd_star.shape == (len(records), len(etas) * len(seeds))
    for r, (w, w_star, w_o) in enumerate(records):
        np.testing.assert_array_equal(worst[r], disagreement(w, cmap).max(axis=-1))
        np.testing.assert_array_equal(msd_star[r], per_record_msd(w, w_star))
        np.testing.assert_array_equal(msd_o[r], per_record_msd(w, w_o))
    assert shared.msd_o.tobytes() == msd_o.tobytes()


@pytest.mark.parametrize("columns", [2, 40], ids=["window", "window-of-one"])
def test_metrics_log_keeps_no_reference_to_the_state(constrained, columns):
    """A caller that overwrites its state array in place after `record`
    leaves the logged values as they were: a window copies each record's
    state, a window of one record too."""
    cmap = constrained.cmap
    rng = np.random.default_rng(5)
    w = np.empty((cmap.total_local_dim, columns))
    reference = rng.standard_normal(w.shape)
    log, worst, msd = MetricsLog(cmap), [], []
    for i in range(7):  # fewer records than a window of 2 columns holds
        w[...] = rng.standard_normal(w.shape)
        log.record(i + 1, w, reference, reference)
        worst.append(disagreement(w, cmap).max(axis=-1))
        msd.append(((w - reference) ** 2).T @ cmap.inverse_cluster_sizes())
    np.testing.assert_array_equal(log.disagreement_max, worst)
    np.testing.assert_array_equal(log.msd_star, msd)
    np.testing.assert_array_equal(log.msd_o, msd)


@pytest.mark.parametrize("columns", [1, 6, 40, 400])
def test_metrics_window_stays_within_its_byte_bound(constrained, columns):
    """The window buffer holds at most max(METRIC_WINDOW_BYTES, one
    record's state); a state too wide for two records in the bound gets a
    buffer of one record."""
    w = np.zeros((constrained.cmap.total_local_dim, columns))
    log = MetricsLog(constrained.cmap)
    log.record(1, w, w, w)
    assert log._window.nbytes <= max(METRIC_WINDOW_BYTES, w.nbytes)
    assert log._window.shape[1] == max(1, METRIC_WINDOW_BYTES // w.nbytes)


def test_batch_rejects_unsupported_problems(constrained):
    weights = _weights(constrained)
    cons = list(agent_constraints(constrained))
    cons[1] = cons[1] + (inequality(1, np.ones(constrained.cmap.local_dims[1]), 0.5),)
    with pytest.raises(ConfigError):  # an inequality never becomes a row
        MultiAgentProblem(net=constrained.net, cmap=constrained.cmap,
                          oracles=constrained.oracles,
                          constraints=constraint_rows(constrained.cmap, cons),
                          penalty=constrained.penalty)
    with pytest.raises(ConfigError):
        init_batch(constrained, weights,
                   EngineConfig(mu=0.001, eta=1.0, algorithm="admm"), SEEDS)


class _OpaqueRisk:
    """A risk oracle that is not a QuadraticRiskOracle."""

    def __init__(self, dim):
        self.dim = dim


QUADRATIC_GATED = {  # every engine set-up and reference solve reaches stack_oracles
    "stochastic": lambda p, w: init_batch(p, w, EngineConfig(mu=0.001), SEEDS),
    "exact": lambda p, w: init_batch(p, w, EngineConfig(mu=0.001, noise="exact"), SEEDS),
    "reference_solution": lambda p, w: reference_solution(p, 10.0),
    "penalized_optimum": lambda p, w: penalized_optimum(p, 10.0),
    "global_risk_quadratic": lambda p, w: p.global_risk_quadratic(),
}


@pytest.mark.parametrize("call", list(QUADRATIC_GATED))
def test_batch_rejects_a_non_quadratic_oracle(constrained, call):
    weights = _weights(constrained)
    oracles = list(constrained.oracles)
    oracles[3] = _OpaqueRisk(oracles[3].dim)
    problem = dataclasses.replace(constrained, oracles=tuple(oracles))
    with pytest.raises(ConfigError,
                       match="^agent 3: .*quadratic risk oracles, got _OpaqueRisk$"):
        QUADRATIC_GATED[call](problem, weights)


GATED = {  # every solve and engine set-up reads the problem's row record
    "constraint_system": lambda p, w: p.constraints.g_flat,
    "reference_solution": lambda p, w: reference_solution(p, 10.0),
    "penalized_optimum": lambda p, w: penalized_optimum(p, 10.0),
    "constrained_optimum": lambda p, w: constrained_optimum(p),
    "init_batch": lambda p, w: init_batch(p, w, EngineConfig(mu=0.001), SEEDS),
}


@pytest.mark.parametrize("kind", ["inequality", "equalty"])
@pytest.mark.parametrize("call", sorted(GATED))
def test_non_equality_constraints_are_rejected_at_the_one_gate(constrained, call, kind):
    """A problem's rows (`ConstraintRows`) carry no kind, so no call site
    can receive one: a problem stated with a non-equality spec is stopped
    by the converter from specs, before any call site runs."""
    weights = _weights(constrained)
    c = inequality(3, np.ones(constrained.cmap.local_dims[3]), 0.5)
    cons = list(agent_constraints(constrained))
    cons[3] = cons[3] + (dataclasses.replace(c, kind=kind),)
    with pytest.raises(ConfigError, match=f"agent 3 has a constraint of kind '{kind}'"):
        rows = constraint_rows(constrained.cmap, cons)
        GATED[call](dataclasses.replace(constrained, constraints=rows), weights)


def test_batch_divergence_names_iteration_agent_and_seed(constrained):
    weights = _weights(constrained)
    batch = init_batch(constrained, weights, EngineConfig(mu=5.0, noise="exact"), SEEDS)
    with pytest.raises(NonFiniteIterate) as err:
        for _ in range(2000):
            batch.step()
    assert err.value.iteration > 0
    assert 0 <= err.value.agent < constrained.agent_count
    assert "seed" in str(err.value)


def _grid_deviation(problem, cfgs, start=None, change=None, seeds=SEEDS):
    """Largest deviation of a grid run from the single-point runs, each
    column against its own point's run, relative to the largest entry of
    the single-point runs, over every iteration. `start` holds one initial global vector
    per point; `change` is an optional (iteration, problem) constraint
    swap applied before the step with that index."""
    weights = _weights(problem)
    grid = init_batch(problem, weights, cfgs, seeds, start)
    singles = [init_batch(problem, weights, cfg, seeds, None if start is None else start[p])
               for p, cfg in enumerate(cfgs)]
    worst = 0.0
    for i in range(cfgs[0].iterations):
        if change is not None and i == change[0]:
            for batch in (grid, *singles):
                batch.set_constraints(change[1])
        grid.step()
        for batch in singles:
            batch.step()
        expect = np.concatenate([batch.w for batch in singles], axis=1)
        assert grid.w.shape == expect.shape
        worst = max(worst, float(np.max(np.abs(grid.w - expect)) / np.max(np.abs(expect))))
    return worst


@pytest.mark.parametrize("start", ["zeros", "reference", "tracking"])
@pytest.mark.parametrize("noise", ["stochastic", "exact"])
@pytest.mark.parametrize("algorithm", ["coupled", "centralized", "admm"])
def test_grid_matches_single_point_runs(algorithm, noise, start):
    """A (mu, eta) grid in one batch, against one batch per point. The
    grid mixes eta 0 (a void penalty step) with eta > 0; a reference start
    warm-starts each point at its own penalized optimum, and tracking
    swaps the constraints of every column halfway."""
    desc = load_network("benchmark20")
    problem = build_problem(desc, 7, constrained=True)
    etas = (0.0,) if algorithm == "admm" else (0.0, 50.0)
    points = [(mu, eta) for mu in (0.002, 0.001) for eta in etas]
    cfgs = [EngineConfig(mu=mu, eta=eta, iterations=120, noise=noise, algorithm=algorithm)
            for mu, eta in points]
    init = None
    if start != "zeros":
        init = np.array([reference_solution(problem, eta).w_star for _, eta in points])
    change = None
    if start == "tracking":
        change = (60, regenerate_constraints(problem, desc, 7, epoch=0))
    assert _grid_deviation(problem, cfgs, init, change) <= 1e-12


def test_grid_matches_single_point_runs_on_random_networks(tmp_path):
    """Random network files (`network_files`): a 2x2 (mu, eta) grid of 2
    seeds in one batch, against one batch per point, to 1e-12 relative,
    for coupled and centralized, and ADMM on its eta-0 half, each with
    stochastic and exact gradients. The grid mixes eta 0 with eta > 0.
    Grids are not bitwise the single-point runs: on benchmark20 the
    largest deviation over 120 iterations reads a few 1e-16."""

    @given(network_files())
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    def check(raw):
        path = tmp_path / "network.json"
        path.write_text(json.dumps(raw))
        problem = build_problem(load_network(str(path)), 5, constrained=True)
        for algorithm, eta, noise in RANDOM_NETWORK_RUNS:
            cfgs = [EngineConfig(mu=mu, eta=e, iterations=20, noise=noise, algorithm=algorithm)
                    for mu in (0.002, 0.001) for e in dict.fromkeys((0.0, eta))]
            assert _grid_deviation(problem, cfgs, seeds=SEEDS[:2]) <= 1e-12, (algorithm, noise)

    check()


def test_grid_rejects_configs_that_differ_beyond_mu_and_eta(constrained):
    weights = _weights(constrained)
    base = EngineConfig(mu=0.002, eta=10.0, iterations=50)
    for other in (dict(iterations=60), dict(noise="exact"), dict(algorithm="centralized")):
        with pytest.raises(ConfigError):
            init_batch(constrained, weights,
                       [base, dataclasses.replace(base, **other)], SEEDS)
    with pytest.raises(ConfigError):
        init_batch(constrained, weights, [], SEEDS)


def _first_divergence_in_loop_order(problem, cfgs):
    """The NonFiniteIterate that running each point alone, in order, raises."""
    weights = _weights(problem)
    for cfg in cfgs:
        batch = init_batch(problem, weights, cfg, SEEDS)
        try:
            for _ in range(cfg.iterations):
                batch.step()
        except NonFiniteIterate as err:
            return err
    return None


@pytest.mark.parametrize("mus, raised_at_once", [
    pytest.param((0.04, 0.1), True, id="later-point-diverges-first"),
    pytest.param((0.002, 0.1), False, id="only-a-later-point-diverges"),
    pytest.param((0.002, 0.04, 0.1), False, id="two-later-points-the-last-first"),
])
def test_grid_divergence_is_raised_in_loop_order(constrained, mus, raised_at_once):
    """mu 0.04 diverges at iteration 49 and mu 0.1 at iteration 15, on
    different agents; 0.002 is stable. The grid raises what the points
    run one by one raise: at once when point 0 diverges, otherwise at the
    end of the budget."""
    cfgs = [EngineConfig(mu=mu, iterations=80) for mu in mus]
    expect = _first_divergence_in_loop_order(constrained, cfgs)
    assert expect is not None
    weights = _weights(constrained)
    grid = init_batch(constrained, weights, cfgs, SEEDS)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterate) as err:
        for _ in range(cfgs[0].iterations):
            grid.step()
    got = err.value
    assert (got.iteration, got.agent, str(got)) == (expect.iteration, expect.agent, str(expect))
    assert grid.iteration == (expect.iteration if raised_at_once else cfgs[0].iterations)
