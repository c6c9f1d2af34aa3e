import csv
import dataclasses
import io
import itertools
import json
import math
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings

from coupled_diffusion.cli import main as cli_main
from coupled_diffusion.errors import ConfigError, NonFiniteIterate
from coupled_diffusion.harness import (
    CONFIG_KEYS,
    CSV_HEADER,
    NetworkDescription,
    _integer_lists,
    ResultBlock,
    ResultTable,
    ScenarioConfig,
    build_problem,
    config_from_dict,
    emit_results,
    load_network,
    regenerate_constraints,
    run_scenario,
)
from coupled_diffusion.engine import init_batch
from coupled_diffusion.metrics import db, reference_solution
from coupled_diffusion.objective import SPECTRUM_RANGE
from coupled_diffusion.weights import metropolis_weights
from conftest import assert_bridge_oracles_draw_like_their_inner_oracle, load_benchmark_module
from test_topology import connected_networks, network_files
from reference import (
    agent_constraints,
    generate_benchmark_problem,
    global_indices,
    integer_lists,
    msd,
    per_agent_problem_draw,
    risk_gradient,
    risk_quadratic,
    steady_state,
    table_rows,
)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="unconstrained", seeds=())
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="bogus")
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="tracking")  # needs change_point
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="tracking", change_point=500, iterations=100)
    with pytest.raises(ConfigError):  # only tracking has a change point
        ScenarioConfig(scenario="constrained", change_point=20, iterations=100)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="unconstrained", mu_list=())
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="unconstrained", weight_rule="uniform")
    for bad in (dict(seeds=(-1,)), dict(seeds=(2**64,)), dict(problem_seed=2**63),
                dict(algorithm="sgd"), dict(noise="gaussian"), dict(rho_admm=0.0),
                dict(iterations=10**30), dict(iterations=1e30),
                # the baselines read no combination weights
                dict(algorithm="admm", weight_rule="averaging"),
                dict(algorithm="centralized", weight_rule="averaging"),
                # only admm has a dual step
                dict(algorithm="coupled", rho_admm=0.5)):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="unconstrained", **bad)
    with pytest.raises(ConfigError, match="seeds"):  # a seed run twice counts twice in the means
        ScenarioConfig(scenario="unconstrained", seeds=(3, 3))
    with pytest.raises(ConfigError):  # admm has no penalty half-step
        ScenarioConfig(scenario="constrained", algorithm="admm", eta_list=(0.0, 10.0))
    assert ScenarioConfig(scenario="constrained", algorithm="admm", eta_list=(0.0,))


@pytest.mark.parametrize("seed", [2**53 + 1, 2**63 - 1])
def test_seeds_beyond_float_precision_are_accepted_and_run(seed):
    """Every integer in [0, 2**63) is a seed, also one that no float holds."""
    cfg = config_from_dict({
        "network": {"source": "example5"},
        "objective": {"problem_seed": seed},
        "engine": {"iterations": 2},
        "scenario": {"id": "unconstrained", "seeds": [seed]},
    })
    assert cfg.seeds == (seed,) and cfg.problem_seed == seed
    seeds_in_rows = {r[3] for r in table_rows(run_scenario(cfg))}
    assert seeds_in_rows == {str(seed), "mean"}
    for bad in (True, 2.5, float("nan"), float("inf"), "x"):
        with pytest.raises(ConfigError, match="must be an integer"):
            ScenarioConfig(scenario="unconstrained", seeds=(bad,))


def test_config_from_sections():
    raw = {
        "network": {"source": "benchmark20"},
        "blocks": {"dims": [5, 5, 5, 5, 5]},
        "objective": {"problem_seed": 3},
        "penalty": {"eta": [10.0], "rho": 1.0},
        "engine": {"mu": [0.001], "iterations": 50, "weight_rule": "averaging"},
        "scenario": {"id": "constrained", "seeds": [1, 2]},
    }
    cfg = config_from_dict(raw)
    assert cfg.scenario == "constrained"
    assert cfg.mu_list == (0.001,)
    assert cfg.eta_list == (10.0,)
    assert cfg.rho == 1.0
    assert cfg.block_dims == (5, 5, 5, 5, 5)
    assert cfg.weight_rule == "averaging"
    assert cfg.uses_constraints
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": {}})


def test_builtin_networks_load():
    for name in ("benchmark20", "example5"):
        desc = load_network(name)
        assert desc.net.is_connected()
    bench = load_network("benchmark20")
    assert bench.net.agent_count == 20
    assert bench.layout.dims == (5, 5, 5, 5, 5)
    assert bench.constraint_owners == (1, 9, 15, 4, 16)


def test_load_one_based_network(tmp_path):
    raw = {
        "index_base": 1,
        "agent_count": 3,
        "block_dims": [2, 2],
        "edges": [[1, 2], [2, 3]],
        "interest_sets": [[1], [1, 2], [2]],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(raw))
    desc = load_network(str(path))
    assert desc.net.edges == frozenset({(0, 1), (1, 2)})
    assert desc.net.interest_sets == ((0,), (0, 1), (1,))


def test_a_one_based_copy_of_example5_writes_example5s_csv(tmp_path):
    """A tracking run on example5's file numbered from 1, every agent, block
    and owner plus 1, writes the bytes of the run on example5's own file."""
    raw = json.loads((files("coupled_diffusion.data") / "example5.json").read_text())
    copy = tmp_path / "example5-one-based.json"
    copy.write_text(json.dumps({
        **raw, "index_base": 1, "edges": [[a + 1, b + 1] for a, b in raw["edges"]],
        "interest_sets": [[l + 1 for l in s] for s in raw["interest_sets"]],
        "constraint_owners": [k + 1 for k in raw["constraint_owners"]]}))
    written = []
    for source in ("example5", str(copy)):
        cfg = config_from_dict({
            "network": {"source": source}, "objective": {"problem_seed": 7},
            "penalty": {"eta": [10.0]}, "engine": {"mu": [0.002], "iterations": 300},
            "scenario": {"id": "tracking", "seeds": [0, 1], "log_every": 5,
                         "change_point": 150}})
        emit_results(run_scenario(cfg), tmp_path / "run.csv")
        written.append((tmp_path / "run.csv").read_bytes())
    assert written[0] == written[1]


def test_benchmark_problem_properties():
    p = generate_benchmark_problem(11, constrained=True)
    assert np.linalg.norm(p.true_model) == pytest.approx(1.0, abs=1e-12)
    for o in p.oracles:
        assert np.all(o.spectrum >= 1.0) and np.all(o.spectrum <= 3.0)
        assert 1e-3 <= o.noise_std**2 <= 1e-2
    owners = [c.owner for cons in agent_constraints(p) for c in cons]
    assert sorted(owners) == sorted([1, 9, 15, 4, 16])
    for cons in agent_constraints(p):
        for c in cons:
            assert np.linalg.norm(c.coeffs) == pytest.approx(1.0, abs=1e-12)
            assert -1.0 <= c.offset <= 1.0
            # owner belongs to the cluster of every block it constrains
            assert c.owner in range(20)


def test_benchmark_problem_bit_identical_per_seed():
    a = generate_benchmark_problem(5, constrained=True)
    b = generate_benchmark_problem(5, constrained=True)
    assert np.array_equal(a.true_model, b.true_model)
    for oa, ob in zip(a.oracles, b.oracles):
        assert np.array_equal(oa.basis, ob.basis)
        assert np.array_equal(oa.spectrum, ob.spectrum)
        assert oa.noise_std == ob.noise_std
    for ca, cb in zip(agent_constraints(a), agent_constraints(b)):
        for x, y in zip(ca, cb):
            assert np.array_equal(x.coeffs, y.coeffs) and x.offset == y.offset


def _split_network(tmp_path):
    """Three agents on a path; block 0 lives on {0, 2}, which share no edge."""
    raw = {
        "index_base": 0,
        "agent_count": 3,
        "block_dims": [2, 2],
        "edges": [[0, 1], [1, 2]],
        "interest_sets": [[0], [1], [0]],
    }
    path = tmp_path / "split.json"
    path.write_text(json.dumps(raw))
    return load_network(str(path))


def test_build_problem_embeds_with_zero_cost_bridges(tmp_path):
    """A topology with a split cluster gets bridged; the bridge agent's risk
    must not involve the added block."""
    from coupled_diffusion.harness import build_problem

    problem = build_problem(_split_network(tmp_path), seed=0)
    # agent 1 bridged block 0 and now holds both blocks, with zero cost on 0
    assert problem.cmap.clusters[0] == (0, 1, 2)
    assert problem.oracles[1].rank < problem.oracles[1].dim
    grad = problem.oracles[1].true_gradient(np.ones(problem.cmap.local_dims[1]))
    in_block0 = np.isin(global_indices(problem.cmap, 1), [0, 1])  # layout (2, 2)
    assert in_block0.sum() == 2 and np.array_equal(grad[in_block0], [0.0, 0.0])
    assert problem.strong_convexity() > 0
    # the whole pipeline still runs
    from coupled_diffusion.engine import EngineConfig
    from coupled_diffusion.weights import metropolis_weights, step_scaling
    from reference import coupled_diffusion_step, init_state

    weights = {l: metropolis_weights(problem.cmap, problem.net, l) for l in range(2)}
    scaling = step_scaling(problem.cmap, weights)
    state = init_state(problem, 0)
    for _ in range(5):
        coupled_diffusion_step(state, problem, weights, scaling, EngineConfig(mu=0.01))
    assert np.isfinite(state.w).all()


def test_build_problem_checks_cluster_connectivity_once(tmp_path, monkeypatch):
    """On a network that needs bridging, one connectivity pass over the
    clusters: one `cluster_connected` call per block."""
    from coupled_diffusion import topology
    from coupled_diffusion.harness import build_problem

    calls = []
    check = topology.cluster_connected
    monkeypatch.setattr(topology, "cluster_connected",
                        lambda net, cluster: calls.append(cluster) or check(net, cluster))
    desc = _split_network(tmp_path)
    problem = build_problem(desc, seed=0)
    assert problem.net is not desc.net  # bridged
    assert len(calls) == desc.layout.block_count


def _problem_networks(tmp_path):
    """benchmark20, example5, the bridged split network and the benchmark's
    generated 200-agent ring (network seed 1), by name."""
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(load_benchmark_module("ring_network").generate(1)))
    return {"benchmark20": load_network("benchmark20"), "example5": load_network("example5"),
            "split": _split_network(tmp_path), "ring": load_network(str(ring))}


@pytest.mark.parametrize("network", ["benchmark20", "example5", "split", "ring", "bridged"])
def test_stacked_problem_draw_matches_the_per_agent_draw(tmp_path, setup_networks, network):
    """build_problem draws its oracles agent by agent and orthogonalizes
    those of one dimension together (one stacked QR), and embeds the
    bridge agents' oracles from their fields; the true model, every
    oracle field and the assembled risk quadratic equal those of drawing
    agent by agent with one QR each, bit for bit."""
    desc = {**_problem_networks(tmp_path), "bridged": setup_networks["bridged"]}[network]
    for seed in (0, 7):
        problem = build_problem(desc, seed, constrained=True)
        model, oracles = per_agent_problem_draw(desc, seed)
        assert problem.true_model.tobytes() == model.tobytes()
        assert len(problem.oracles) == len(oracles)
        for got, want in zip(problem.oracles, oracles):
            for name in ("basis", "spectrum", "w_ref", "covariance"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert got.noise_std == want.noise_std
        hess, lin = problem.global_risk_quadratic()
        want_hess, want_lin = risk_quadratic(problem)
        assert hess.tobytes() == want_hess.tobytes() and lin.tobytes() == want_lin.tobytes()
        # the stationarity check's gradient sums in another order: rounding only
        w = np.random.default_rng(seed).standard_normal(problem.layout.total_dim)
        grad, want_grad = problem.global_gradient(w, 0.0), risk_gradient(problem, w)
        assert np.max(np.abs(grad - want_grad)) <= 1e-14 * np.max(np.abs(want_grad))


@given(connected_networks())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_problem_draw_matches_the_per_agent_draw_on_random_networks(case):
    """The oracle fields, bridge oracles included, and H and f of random
    networks with local dimensions 1-12 are bitwise the per-agent build's,
    and so are the oracle stack's products."""
    net, layout = case
    desc = NetworkDescription(net=net, layout=layout)
    problem = build_problem(desc, 3)
    _, oracles = per_agent_problem_draw(desc, 3)
    for got, want in zip(problem.oracles, oracles):
        for name in ("basis", "spectrum", "w_ref", "covariance"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.noise_std == want.noise_std
    hess, lin = problem.global_risk_quadratic()
    want_hess, want_lin = risk_quadratic(problem)
    assert hess.tobytes() == want_hess.tobytes() and lin.tobytes() == want_lin.tobytes()
    assert_stack_holds_each_oracles_products(problem)


def assert_stack_holds_each_oracles_products(problem):
    """The oracle stack's scaled bases, covariances and linear terms are, bit
    for bit, each oracle's basis sqrt(spectrum), covariance and
    2 covariance w_ref computed on that oracle alone, zero-padded."""
    stack = problem.oracle_stack()
    n, width, depth = stack.scaled_basis.shape
    want = {"scaled_basis": np.zeros((n, width, depth)),
            "covariance": np.zeros((n, width, width)), "linear": np.zeros((n, width))}
    for k, o in enumerate(problem.oracles):
        want["scaled_basis"][k, :o.dim, :o.rank] = o.basis * np.sqrt(o.spectrum)
        want["covariance"][k, :o.dim, :o.dim] = o.covariance
        want["linear"][k, :o.dim] = 2 * o.covariance @ o.w_ref
    for name, array in want.items():
        got = getattr(stack, name)
        assert got.shape == array.shape and got.tobytes() == array.tobytes(), name


@pytest.mark.parametrize("network", ["benchmark20", "example5", "split", "ring", "bridged"])
def test_oracle_stack_products_are_each_oracles_own(tmp_path, setup_networks, network):
    """stack_oracles derives every product of oracle fields for all agents
    at once, one batched product per (Q_k, R_k), bridge agents included;
    each agent gets the bits of its own oracle's product."""
    desc = {**_problem_networks(tmp_path), "bridged": setup_networks["bridged"]}[network]
    for seed in (0, 7):
        assert_stack_holds_each_oracles_products(build_problem(desc, seed, constrained=True))


@pytest.mark.parametrize("network", ["benchmark20", "example5", "ring"])
def test_build_problem_makes_one_qr_call_per_local_dimension(tmp_path, monkeypatch, network):
    """The oracle bases of one local dimension share one np.linalg.qr call."""
    from coupled_diffusion.topology import build_clusters

    desc = _problem_networks(tmp_path)[network]
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or qr(a))
    build_problem(desc, seed=0, constrained=True)
    dims = set(build_clusters(desc.net, desc.layout).local_dims)
    assert len(dims) > 1
    assert sorted(shape[-1] for shape in calls) == sorted(dims)


def _assert_risk_hessian_is_positive_definite(problem):
    """Every global coordinate is some agent's own, and each own covariance
    has its eigenvalues in SPECTRUM_RANGE, so that of H is at least twice
    the lowest (1e-12 relative slack)."""
    assert problem.strong_convexity() >= 2.0 * SPECTRUM_RANGE[0] * (1.0 - 1e-12)


@pytest.mark.parametrize("network", ["benchmark20", "example5", "split", "ring"])
def test_the_risk_hessian_is_positive_definite_by_construction(tmp_path, network):
    desc = _problem_networks(tmp_path)[network]
    for seed in (0, 7):
        _assert_risk_hessian_is_positive_definite(build_problem(desc, seed, constrained=True))


def test_the_risk_hessian_is_positive_definite_on_random_networks(tmp_path):
    """Random network files (`network_files`), hubs and bridge agents included."""
    @given(network_files())
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def check(raw):
        path = tmp_path / "network.json"
        path.write_text(json.dumps(raw))
        desc = load_network(str(path))
        for seed in (5, 7):
            _assert_risk_hessian_is_positive_definite(build_problem(desc, seed))

    check()


@pytest.mark.parametrize("network", ["benchmark20", "ring"])
def test_build_problem_makes_no_eigendecomposition(tmp_path, monkeypatch, network):
    """H is positive definite by construction, so the build does not check it."""
    desc = _problem_networks(tmp_path)[network]
    calls = []

    def counted(solve):
        return lambda *args, **kwargs: calls.append(solve.__name__) or solve(*args, **kwargs)

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    build_problem(desc, seed=0, constrained=True)
    assert calls == []


def test_bridge_oracles_draw_like_their_inner_oracle(tmp_path):
    from coupled_diffusion.harness import build_problem

    desc = _split_network(tmp_path)
    assert_bridge_oracles_draw_like_their_inner_oracle(build_problem(desc, seed=0), desc.net)


def _small_cfg(**over):
    base = dict(
        scenario="unconstrained",
        mu_list=(0.004,),
        eta_list=(0.0,),
        iterations=300,
        seeds=(0, 1),
        log_every=10,
    )
    base.update(over)
    return ScenarioConfig(**base)


def test_run_scenario_deterministic_and_emit_byte_identical(tmp_path):
    cfg = _small_cfg()
    t1 = run_scenario(cfg)
    t2 = run_scenario(cfg)
    assert table_rows(t1) == table_rows(t2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(t1, p1)
    emit_results(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["config"]["scenario"] == "unconstrained"
    assert "version" in meta


def test_result_rows_structure():
    cfg = _small_cfg()
    table = run_scenario(cfg)
    per_seed = [r for r in table_rows(table) if r[3] != "mean"]
    means = [r for r in table_rows(table) if r[3] == "mean"]
    # 30 logged iterations per run, 2 seeds, plus 30 mean rows
    assert len(per_seed) == 60 and len(means) == 30
    assert all(r[0] == "unconstrained" for r in table_rows(table))
    assert means[-1][4] == 300


def test_smaller_mu_gives_lower_steady_msd():
    cfg = ScenarioConfig(
        scenario="unconstrained", mu_list=(0.004, 0.001), eta_list=(0.0,),
        iterations=800, seeds=(0, 1, 2), log_every=10,
    )
    table = run_scenario(cfg)

    def steady_of(mu):
        vals = [10 ** (r[5] / 10) for r in table_rows(table) if r[3] == "mean" and r[1] == mu]
        return steady_state(vals)

    assert steady_of(0.001) < steady_of(0.004)


def test_steady_state_of_columns_rounds_like_each_column():
    # a 100-record tail, past numpy's 8-wide unrolled sum, where summing
    # rows into a running total rounds differently
    series = np.random.default_rng(3).lognormal(size=(1000, 5))
    columns = steady_state(series)
    assert columns.shape == (5,)
    assert all(columns[j] == steady_state(series[:, j]) for j in range(5))
    assert isinstance(steady_state(series[:, 0]), float)


def test_sweep_emits_steady_rows_only():
    cfg = ScenarioConfig(
        scenario="sweep", mu_list=(0.001,), eta_list=(10.0,),
        iterations=400, seeds=(0, 1), log_every=10,
    )
    table = run_scenario(cfg)
    assert len(table_rows(table)) == 3  # two seeds + one mean row
    assert all(r[4] == 400 for r in table_rows(table))
    assert cfg.initial == "reference"


def _logged_run(cfg, monkeypatch):
    """The table of `run_scenario(cfg)` and the run's one `MetricsLog`,
    which counts its `record` calls in `calls`."""
    from coupled_diffusion import harness
    from coupled_diffusion.metrics import MetricsLog

    logs = []

    class CountingLog(MetricsLog):
        def __init__(self, cmap):
            super().__init__(cmap)
            self.calls = 0
            logs.append(self)

        def record(self, *args):
            self.calls += 1
            return super().record(*args)

    monkeypatch.setattr(harness, "MetricsLog", CountingLog)
    table = run_scenario(cfg)
    (log,) = logs
    return table, log


@pytest.mark.parametrize("iterations, log_every", [(400, 10), (405, 10), (95, 10), (7, 10)])
@pytest.mark.parametrize("mu_list, eta_list, seeds", [
    ((0.002,), (10.0,), (3,)),  # one column: the log takes windows of many records
    ((0.002, 0.001), (1.0, 10.0), (0, 1)),
])
def test_sweep_records_only_the_tail_it_reports(monkeypatch, iterations, log_every, mu_list,
                                                eta_list, seeds):
    """A sweep calls `MetricsLog.record` only on the last `steady_tail`
    records of its schedule, every log_every iterations and the last;
    its blocks are bitwise those of the full-record run of the same
    engine (scenario constrained, warm-started), whose every record is
    logged, reduced with the full-record `steady_state`. The cases hold a
    partial last record (405), a tail of one record (95) and a single
    record (7)."""
    cfg = ScenarioConfig(scenario="sweep", mu_list=mu_list, eta_list=eta_list,
                         iterations=iterations, seeds=seeds, log_every=log_every)
    table, log = _logged_run(cfg, monkeypatch)
    _, full = _logged_run(dataclasses.replace(cfg, scenario="constrained", init="reference"),
                          monkeypatch)
    schedule = sorted(set(range(log_every, iterations + 1, log_every)) | {iterations})
    tail = max(1, round(0.1 * len(schedule)))
    assert full.iterations == schedule and full.calls == len(schedule)
    assert log.iterations == schedule[-tail:] and log.calls == tail

    def reduced(series, columns):  # (seeds + 1, 1), the seed mean last
        a = steady_state(series[:, columns])
        return np.append(a, a.mean())[:, None]

    n = len(seeds)
    for p, block in enumerate(table.blocks):
        columns = slice(p * n, (p + 1) * n)
        want = (db(reduced(full.msd_star, columns)), reduced(full.disagreement_max, columns),
                db(reduced(full.msd_o, columns)))
        for name, expect in zip(("msd_db", "disagreement_max", "dist_wo_db"), want):
            assert np.array_equal(getattr(block, name), expect, equal_nan=True), (p, name)
        assert block.iterations.tolist() == [iterations]


def test_tracking_scenario_shows_jump():
    """The new constraints and references apply from the first step after
    the change point, so the jump shows in the record right after it."""
    cfg = ScenarioConfig(
        scenario="tracking", mu_list=(0.002,), eta_list=(100.0,),
        iterations=700, seeds=(0, 1), change_point=400, log_every=1,
    )
    table = run_scenario(cfg)
    means = {r[4]: 10 ** (r[5] / 10) for r in table_rows(table) if r[3] == "mean"}
    assert means[401] > 3 * means[400]  # constraint regeneration bumps the MSD
    assert means[700] < 0.5 * means[410]  # and the algorithm re-converges


def test_tracking_rows_before_the_change_point_are_a_constrained_run():
    """Up to its change point a tracking run is the constrained run of
    that many iterations: the same rows, bit for bit, but the scenario."""
    grid = dict(mu_list=(0.002, 0.001), eta_list=(10.0, 100.0), seeds=(3, 4), log_every=10)
    tracking = table_rows(run_scenario(ScenarioConfig(scenario="tracking", iterations=120,
                                                      change_point=60, **grid)))
    constrained = table_rows(run_scenario(ScenarioConfig(scenario="constrained", iterations=60,
                                                         **grid)))
    before = [r[1:] for r in tracking if r[4] <= 60]
    assert len(before) == 72 and before == [r[1:] for r in constrained]


def test_tracking_swaps_constraints_and_references_after_the_change_point():
    """A tracking run against the engine driven step by step: the redrawn
    constraints and their reference both apply from the first step after
    the change point, so a run that swaps only one of them on time fails."""
    cfg = ScenarioConfig(scenario="tracking", mu_list=(0.002,), eta_list=(100.0,),
                         iterations=6, seeds=(0,), change_point=3)
    desc = load_network(cfg.network)
    base = build_problem(desc, cfg.problem_seed, constrained=True)
    changed = regenerate_constraints(base, desc, cfg.problem_seed, epoch=0)
    weights = {l: metropolis_weights(base.cmap, base.net, l)
               for l in range(base.layout.block_count)}
    engine = init_batch(base, weights, cfg.engine(0.002, 100.0), cfg.seeds)
    want = []
    for i in range(cfg.iterations):
        if i == cfg.change_point:
            engine.set_constraints(changed)
        engine.step()
        problem = base if i < cfg.change_point else changed
        want.append(msd(engine.w[:, 0], base.cmap, reference_solution(problem, 100.0).w_star))
    got = [10 ** (r[5] / 10) for r in table_rows(run_scenario(cfg)) if r[3] == "0"]
    assert got == pytest.approx(want, rel=1e-12)


def test_tracking_set_up_assembles_the_risk_quadratic_once(monkeypatch):
    """The build and the references before and after the change point,
    for every eta, share one assembly of the global risk quadratic."""
    from coupled_diffusion.objective import MultiAgentProblem

    calls = []
    assemble = MultiAgentProblem._assemble_risk_quadratic
    monkeypatch.setattr(MultiAgentProblem, "_assemble_risk_quadratic",
                        lambda self: calls.append(self) or assemble(self))
    run_scenario(ScenarioConfig(scenario="tracking", mu_list=(0.002,), eta_list=(100.0, 10.0),
                                iterations=4, seeds=(0,), change_point=2))
    assert len(calls) == 1


@pytest.mark.parametrize("scenario, etas, solves", [
    pytest.param("tracking", (10.0, 100.0), (2, 4), id="tracking"),
    pytest.param("sweep", (10.0, 100.0), (1, 2), id="sweep"),
    pytest.param("unconstrained", (0.0,), (0, 1), id="unconstrained"),
])
def test_run_solves_each_reference_once_for_what_it_depends_on(monkeypatch, scenario, etas,
                                                                solves):
    """w_o depends on an epoch's rows alone, w_star on the epoch and eta: a
    run makes one KKT solve per epoch with rows, and one penalized solve
    per epoch and distinct eta."""
    from coupled_diffusion import harness, metrics

    calls = dict.fromkeys(("constrained_optimum", "penalized_optimum"), 0)
    solvers = {name: getattr(metrics, name) for name in calls}

    def counted(name):
        def solve(*args):
            calls[name] += 1
            return solvers[name](*args)
        return solve

    # each wrapped where it is looked up: reference_solution's in metrics, the run's in harness
    for module, name in ((metrics, "constrained_optimum"), (metrics, "penalized_optimum"),
                         (harness, "penalized_optimum")):
        monkeypatch.setattr(module, name, counted(name))
    run_scenario(ScenarioConfig(scenario=scenario, mu_list=(0.002,), eta_list=etas,
                                iterations=4, seeds=(0,),
                                change_point=2 if scenario == "tracking" else None))
    assert (calls["constrained_optimum"], calls["penalized_optimum"]) == solves


def _block(labels, iterations, msd_db, disagreement_max, dist_wo_db=None, scenario="unconstrained",
           mu=0.001, eta=0.0) -> ResultBlock:
    """A result block of (labels, records) series; the distance column is
    the MSD column itself unless given, as in a run without constraints."""
    msd_db = np.asarray(msd_db, dtype=float)
    return ResultBlock(scenario, mu, eta, tuple(labels), np.asarray(iterations), msd_db,
                       np.asarray(disagreement_max, dtype=float),
                       msd_db if dist_wo_db is None else np.asarray(dist_wo_db, dtype=float))


def test_emit_results_empty_and_single(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results(ResultTable(config={}), path)
    lines = path.read_text().strip().splitlines()
    assert lines == [",".join(CSV_HEADER)]
    one = ResultTable(blocks=[_block(["0"], [1], [[-10.0]], [[0.5]])], config={})
    assert table_rows(one) == [("unconstrained", 0.001, 0.0, "0", 1, -10.0, 0.5, -10.0)]
    path2 = tmp_path / "one.csv"
    emit_results(one, path2)
    assert len(path2.read_text().strip().splitlines()) == 2


def test_result_table_rows_are_a_read_only_view_of_its_blocks():
    block = _block(["3", "mean"], [10, 20], [[1.0, 2.0], [3.0, 4.0]], [[0.1, 0.2], [0.3, 0.4]],
                   [[5.0, 6.0], [7.0, 8.0]], scenario="tracking", mu=0.002, eta=10.0)
    table = ResultTable(blocks=[block, block], config={})
    rows = table_rows(table)
    assert rows[:4] == [("tracking", 0.002, 10.0, "3", 10, 1.0, 0.1, 5.0),
                        ("tracking", 0.002, 10.0, "3", 20, 2.0, 0.2, 6.0),
                        ("tracking", 0.002, 10.0, "mean", 10, 3.0, 0.3, 7.0),
                        ("tracking", 0.002, 10.0, "mean", 20, 4.0, 0.4, 8.0)]
    assert rows[4:] == rows[:4]
    rows.clear()
    assert len(table_rows(table)) == 8


def _csv_writer_bytes(rows) -> bytes:
    """The reference CSV: `csv.writer` row by row, each float written as
    repr(float(v)), the form emit_results wrote before it went column-wise."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return out.getvalue().encode()


ODD_VALUES = [float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e16, 0.1, -1e-300,
              np.float64(0.5), np.float64(-0.0), np.float64(1e16)]


def _odd_value_blocks():
    """A block of 3 labels by 400 records, each label four chunks of
    CSV_CHUNK_ROWS records or fewer, so eleven chunk boundaries; then one
    small block per odd value as mu and as eta. The series cycle through
    the odd values; the first block's distance column is its MSD column
    itself, the others' their own arrays."""
    def cycle(shape, shift):
        return np.array([ODD_VALUES[(i + shift) % len(ODD_VALUES)]
                         for i in range(shape[0] * shape[1])]).reshape(shape)

    blocks = [_block(["0", "17", "mean"], range(1, 401), cycle((3, 400), 0),
                     np.arange(1200).reshape(3, 400) / 3)]
    for i, value in enumerate(ODD_VALUES):
        labels = ["mean"] if i % 2 else [str(i), "mean"]
        records = 1 + i % 3
        blocks.append(_block(labels, np.arange(records) * 10, cycle((len(labels), records), i),
                             cycle((len(labels), records), i + 1),
                             -cycle((len(labels), records), i), scenario="sweep",
                             mu=value, eta=ODD_VALUES[-1 - i]))
    return blocks


@pytest.mark.parametrize("blocks", [[], _odd_value_blocks()[1:2], _odd_value_blocks()],
                         ids=["empty", "one-row", "odd-values"])
def test_emit_results_writes_the_bytes_of_csv_writer(tmp_path, blocks):
    """inf, -inf, nan, -0.0, the smallest subnormal, 1e16 (repr '1e+16')
    and np.float64 values (written as the float they equal), in the
    series and as mu and eta, across chunk and block boundaries."""
    path = tmp_path / "t.csv"
    table = ResultTable(blocks=blocks, config={})
    assert len(table_rows(table)) == sum(len(b.labels) * len(b.iterations) for b in blocks)
    emit_results(table, path)
    assert path.read_bytes() == _csv_writer_bytes(table_rows(table))


@pytest.mark.parametrize("field", ["a,b", 'say "hi"', "two\nlines", "cr\r", None],
                         ids=["comma", "quote", "newline", "carriage-return", "ragged-row"])
def test_emit_results_raises_on_a_field_csv_writer_would_quote(tmp_path, field):
    """A scenario or seed label that csv.writer would quote raises; so does
    a block whose series do not match its labels or its iterations, which
    would make ragged rows."""
    blocks = _odd_value_blocks()
    bad = blocks[3]
    if field is None:
        cases = [dataclasses.replace(bad, msd_db=bad.msd_db[:, :-1]),
                 dataclasses.replace(bad, disagreement_max=bad.disagreement_max[:-1]),
                 dataclasses.replace(bad, dist_wo_db=bad.dist_wo_db[:, :, None]),
                 dataclasses.replace(bad, iterations=bad.iterations[:-1]),
                 dataclasses.replace(bad, labels=bad.labels + ("extra",))]
    else:
        cases = [dataclasses.replace(bad, scenario=field),
                 dataclasses.replace(bad, labels=(field,) + bad.labels[1:])]
    for case in cases:
        table = ResultTable(blocks=blocks[:3] + [case] + blocks[4:], config={})
        with pytest.raises(ValueError):
            emit_results(table, tmp_path / "t.csv")


def test_emit_results_formats_repeated_float_objects_by_identity(tmp_path):
    """mu and eta, one object repeated in every row of a block, are
    formatted once per block as that object's own text: 0.0 and -0.0 are
    equal but print apart, in mu, eta and the series."""
    zero, negative_zero, nan = 0.0, -0.0, float("nan")
    blocks = [_block(["0", "mean"], range(150), np.full((2, 150), (zero, negative_zero)[i % 2]),
                     np.full((2, 150), (negative_zero, zero)[i % 2]),
                     np.full((2, 150), np.float64(-0.0)), scenario="sweep",
                     mu=(zero, negative_zero, nan)[i % 3], eta=(negative_zero, zero)[i % 2])
              for i in range(6)]
    table = ResultTable(blocks=blocks, config={})
    emit_results(table, tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_bytes()
    assert text == _csv_writer_bytes(table_rows(table))
    assert b"sweep,-0.0,0.0,0,0,-0.0,0.0,-0.0\r\n" in text


def test_emit_results_matches_csv_writer_on_a_run(tmp_path):
    table = run_scenario(_small_cfg())
    emit_results(table, tmp_path / "run.csv")
    assert (tmp_path / "run.csv").read_bytes() == _csv_writer_bytes(table_rows(table))


def _write_cfg(tmp_path, scenario="unconstrained", /, **sections):
    """A small config file; `sections` entries are merged into its sections."""
    raw = {
        "network": {"source": "benchmark20"},
        "objective": {"problem_seed": 7},
        "penalty": {"eta": [0.0]},
        "engine": {"mu": [0.004], "iterations": 120},
        "scenario": {"id": scenario, "seeds": [0], "log_every": 20},
    }
    for name, entries in sections.items():
        raw[name] = {**raw.get(name, {}), **entries}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_cli_run_and_reproducibility(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    csv1 = (out1 / "unconstrained.csv").read_bytes()
    csv2 = (out2 / "unconstrained.csv").read_bytes()
    assert csv1 == csv2
    assert (out1 / "unconstrained.csv.meta.json").exists()


# the stages run_scenario times, in run order, and emit_results' CSV write
TIMED_STAGES = ("load", "build", "weights", "reference", "init", "engine", "metrics", "table",
                "emit")


@pytest.mark.parametrize("scenario", ["unconstrained", "tracking", "sweep"])
def test_cli_sidecar_times_every_stage(tmp_path, scenario):
    """The sidecar's `timings` hold each stage and the total, in seconds:
    every value finite and at least 0, and the stages within the total.
    The values vary from run to run, so none is checked."""
    eta = [0.0] if scenario == "unconstrained" else [10.0, 50.0]  # no rows, no penalty
    cfg = _write_cfg(tmp_path, scenario, penalty={"eta": eta},
                     scenario={"change_point": 60} if scenario == "tracking" else {})
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / f"{scenario}.csv.meta.json").read_text())
    timings = meta["timings"]
    assert sorted(timings) == sorted(TIMED_STAGES + ("total",))
    assert all(math.isfinite(t) and t >= 0.0 for t in timings.values())
    assert sum(timings[stage] for stage in TIMED_STAGES) <= timings["total"]


def test_cli_overrides(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "o3"
    rc = cli_main([
        "run", "--config", str(cfg), "--out", str(out),
        "--mu", "0.002", "--iters", "60", "--seeds", "0,1",
    ])
    assert rc == 0
    lines = (out / "unconstrained.csv").read_text().strip().splitlines()
    # 3 logged iterations x (2 seeds + mean)
    assert len(lines) == 1 + 9
    assert lines[1].split(",")[1] == "0.002"


def _bad_config(tmp_path, raw) -> list:
    """CLI arguments that run the config dict `raw`."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    return ["run", "--config", str(cfg), "--out", str(tmp_path)]


def _cli_error(capsys, argv) -> dict:
    """Run the CLI on arguments that must fail; the one error line's payload."""
    rc = cli_main(argv)
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    return json.loads(err[len("error: "):])


def test_cli_error_is_machine_readable(tmp_path, capsys):
    payload = _cli_error(capsys, _bad_config(tmp_path, {"scenario": {"id": "nope", "seeds": [0]}}))
    assert payload["type"] == "ConfigError"


def test_cli_error_on_an_agent_count_beyond_the_interest_sets(tmp_path, capsys):
    """A network file whose agent_count far exceeds its interest sets is
    rejected before anything of that size is allocated."""
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"agent_count": 10**12, "block_dims": [1], "edges": [[0, 1]],
                               "interest_sets": [[0], [0]]}))
    payload = _cli_error(capsys, _bad_config(tmp_path, {
        "network": {"source": str(net)},
        "scenario": {"id": "unconstrained", "seeds": [0]},
    }))
    assert payload == {"type": "ConfigError", "message": "need one interest set per agent"}


def test_cli_error_network_without_edges(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"agent_count": 2, "block_dims": [1], "interest_sets": [[0], [0]]}))
    payload = _cli_error(capsys, _bad_config(tmp_path, {
        "network": {"source": str(net)},
        "scenario": {"id": "unconstrained", "seeds": [0]},
    }))
    assert payload["type"] == "ConfigError" and "edges" in payload["message"]
    net.write_text(json.dumps({"agent_count": 2, "block_dims": [1], "edges": [[0, 0]],
                               "interest_sets": [[0], [0]]}))
    payload = _cli_error(capsys, _bad_config(tmp_path, {
        "network": {"source": str(net)},
        "scenario": {"id": "unconstrained", "seeds": [0]},
    }))
    assert payload["type"] == "ConfigError" and "self-loop" in payload["message"]
    # benchmark20 has 5 blocks and 20 agents: owners out of range, too few, too many
    bench = json.loads((files("coupled_diffusion.data") / "benchmark20.json").read_text())
    for owners in ([1, 9, 15, 4, 99], [1, 9, 15, 4, -1], [1, 9, 15], [1, 9, 15, 4, 16, 3]):
        net.write_text(json.dumps({**bench, "constraint_owners": owners}))
        payload = _cli_error(capsys, _bad_config(tmp_path, {
            "network": {"source": str(net)},
            "engine": {"iterations": 2},
            "scenario": {"id": "constrained", "seeds": [0]},
        }))
        assert payload["type"] == "ConfigError" and "constraint_owners" in payload["message"]
    # an owner outside its block's cluster, named as the file numbers agents and
    # blocks, whether or not the scenario draws constraints
    for base, scenario in itertools.product((0, 1), ("constrained", "unconstrained")):
        net.write_text(json.dumps({
            "index_base": base, "agent_count": 3, "block_dims": [1, 1],
            "edges": [[base, base + 1], [base + 1, base + 2]],
            "interest_sets": [[base], [base, base + 1], [base + 1]],
            "constraint_owners": [base + 2, base + 1]}))
        payload = _cli_error(capsys, _bad_config(tmp_path, {
            "network": {"source": str(net)},
            "engine": {"iterations": 2},
            "scenario": {"id": scenario, "seeds": [0]},
        }))
        assert payload == {"type": "ConfigError", "message": f"constraint_owners: agent "
                           f"{base + 2} is not in the cluster of block {base}"}


ONE_BASED_FAULTS = [  # edges, interest sets, block dims of a 2-agent 1-based file; its error
    ([[1, 3]], [[1], [1]], [1], "ConfigError", "edge (1,3) references unknown agent"),
    ([[0, 1]], [[1], [1]], [1], "ConfigError", "edge (0,1) references unknown agent"),
    ([[2, 2]], [[1], [1]], [1], "ConfigError", "self-loop edge (2,2) not allowed"),
    ([[1, 2]], [[2], [1]], [1], "InvalidBlockIndex",
     "agent 1 is interested in block 2, layout has 1 blocks"),
    ([[1, 2]], [[1], [1]], [1, 1], "EmptyCluster", "block 2 appears in no interest set"),
]


@pytest.mark.parametrize("edges, interest, dims, kind, message", ONE_BASED_FAULTS,
                         ids=["agent-past-the-end", "agent-0", "self-loop", "block-past-the-end",
                              "block-no-agent-holds"])
def test_cli_error_names_a_one_based_file_in_its_own_numbers(tmp_path, capsys, edges, interest,
                                                             dims, kind, message):
    """An unknown agent, a self-loop, a block outside the layout and a block
    no agent holds are named as a 1-based file numbers them."""
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"index_base": 1, "agent_count": 2, "block_dims": dims,
                               "edges": edges, "interest_sets": interest}))
    payload = _cli_error(capsys, _bad_config(tmp_path, {
        "network": {"source": str(net)},
        "scenario": {"id": "unconstrained", "seeds": [0]},
    }))
    assert payload == {"type": kind, "message": message}


def _with_entry(raw: dict, field: str, entry) -> dict:
    """`raw` with one integer of `field` replaced by `entry`: the value itself
    for a scalar, the last value for a list, the last agent of the last
    pair for edges, the last block of the last set for interest sets."""
    raw = json.loads(json.dumps(raw))
    if field in ("agent_count", "index_base"):
        raw[field] = entry
    elif field in ("edges", "interest_sets"):
        raw[field][-1][-1] = entry
    else:
        raw[field][-1] = entry
    return raw


@pytest.mark.parametrize("entry", [True, 2.5, "two", None, [1]],
                         ids=["bool", "float", "string", "null", "nested"])
@pytest.mark.parametrize("field", ["agent_count", "edges", "interest_sets", "block_dims",
                                   "constraint_owners", "index_base"])
def test_cli_error_on_a_network_entry_that_is_not_an_integer(tmp_path, capsys, field, entry):
    """Every integer of a network file is checked: one that is not gives
    one error line, a ConfigError naming the field and the entry, as the
    value-by-value check words it."""
    bench = json.loads((files("coupled_diffusion.data") / "benchmark20.json").read_text())
    net = tmp_path / "net.json"
    net.write_text(json.dumps(_with_entry(bench, field, entry)))
    payload = _cli_error(capsys, _bad_config(tmp_path, {
        "network": {"source": str(net)},
        "scenario": {"id": "unconstrained", "seeds": [0]},
    }))
    assert payload == {"type": "ConfigError",
                       "message": f"{field} must be an integer, got {entry!r}"}


@pytest.mark.parametrize("value", [
    [[0, 1], [2, 3]],
    [[0, 1.0], [2, 3]],
    [[0, 1], ["3", 2]],
    [[0, 2**70], []],
    [[-2**63, 2**63 - 1]],
    [[0, 1], [2**63]],
    [[0, 1], 5],
    [(0, 1), [2, 3.5]],
    [[0, True]],
    [[0, 1e400]],
    [],
    [[]],
    {"a": 1},
])
def test_integer_lists_match_the_value_by_value_check(value):
    """The one-pass check of JSON integers returns, or raises, what the
    value-by-value check does."""
    try:
        want = integer_lists(value, "edges")
    except ConfigError as err:
        with pytest.raises(ConfigError) as got:
            _integer_lists(value, "edges")
        assert str(got.value) == str(err)
    else:
        got = _integer_lists(value, "edges")
        assert got == want and [list(map(type, row)) for row in got] == [
            list(map(type, row)) for row in want]


BENCHMARK20 = json.loads((files("coupled_diffusion.data") / "benchmark20.json").read_text())


@pytest.mark.parametrize("network, sections, message", [
    pytest.param([BENCHMARK20], {}, "network {path}: expected a JSON object", id="network-list"),
    pytest.param({**BENCHMARK20, "index_base": 2}, {}, "index_base must be 0 or 1, got 2",
                 id="index-base-2"),
    pytest.param({**BENCHMARK20, "edges": [[0, 1, 1]]}, {},
                 "network edges must be [agent, agent] pairs", id="edge-of-three"),
    pytest.param({**BENCHMARK20, "agent_count": 0}, {}, "agent_count must be positive",
                 id="no-agents"),
    pytest.param(None, {"scenario": {"log_every": 0}}, "log_every must be at least 1",
                 id="log-every-0"),
    pytest.param(None, {"engine": {"init": "warm"}}, "unknown init 'warm'", id="init-warm"),
    pytest.param(None, {"penalty": {"rho": math.inf}}, "rho must be a finite number, got inf",
                 id="rho-inf"),
    pytest.param(None, {"penalty": {"rho": True}}, "rho must be a finite number, got True",
                 id="rho-true"),
    # the scenario id alone decides whether a run draws constraint rows
    pytest.param(None, {"scenario": {"id": "custom"}}, "unknown scenario 'custom'",
                 id="scenario-custom"),
    pytest.param(None, {"objective": {"constrained": True}},
                 "unknown key 'constrained' in config section 'objective'",
                 id="objective-constrained"),
])
def test_cli_error_names_a_malformed_input_exactly(tmp_path, capsys, network, sections, message):
    """A malformed network file (`network`, when given) or config entry
    gives one ConfigError line with exactly this message."""
    raw = yaml.safe_load(_write_cfg(tmp_path).read_text())
    if network is not None:
        path = tmp_path / "net.json"
        path.write_text(json.dumps(network))
        raw["network"]["source"] = str(path)
        message = message.format(path=path)
    for name, entries in sections.items():
        raw[name].update(entries)
    payload = _cli_error(capsys, _bad_config(tmp_path, raw))
    assert payload == {"type": "ConfigError", "message": message}


def test_cli_error_on_a_config_that_is_not_a_mapping(tmp_path, capsys):
    cfg = tmp_path / "list.yaml"
    cfg.write_text(yaml.safe_dump([{"scenario": {"id": "unconstrained"}}]))
    payload = _cli_error(capsys, ["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert payload == {"type": "ConfigError", "message": "a config holds a mapping of sections"}


def test_cli_error_null_iterations(tmp_path, capsys):
    payload = _cli_error(capsys, _bad_config(tmp_path, {
        "engine": {"iterations": None},
        "scenario": {"id": "unconstrained", "seeds": [0]},
    }))
    assert payload["type"] == "ConfigError" and "iterations" in payload["message"]


@pytest.mark.parametrize("args, sections, kind, word", [
    pytest.param(["--iters", "abc"], {}, "ConfigError", "--iters", id="iters-abc"),
    pytest.param(["--iters", ""], {}, "ConfigError", "--iters", id="iters-empty"),
    pytest.param(["--seeds", ""], {}, "ConfigError", "--seeds", id="seeds-empty"),
    pytest.param(["--seeds", "0,x"], {}, "ConfigError", "--seeds", id="seeds-x"),
    pytest.param(["--mu", ""], {}, "ConfigError", "--mu", id="mu-empty"),
    pytest.param(["--eta", ""], {}, "ConfigError", "--eta", id="eta-empty"),
    pytest.param(["--eta", "1,,2"], {}, "ConfigError", "--eta", id="eta-hole"),
    pytest.param(["--scenario", ""], {}, "ConfigError", "scenario", id="scenario-empty"),
    pytest.param([], {"blocks": {"dims": [0]}}, "ConfigError", "block dims must be positive",
                 id="zero-block-dim"),
    pytest.param(None, {}, "ArgumentError", "--config", id="no-config"),
    pytest.param(["--frobnicate"], {}, "ArgumentError", "--frobnicate", id="unknown-flag"),
    pytest.param([], {"solver": {"tol": 1e-6}}, "ConfigError", "solver", id="unknown-section"),
    pytest.param([], {"engine": {"iteratons": 10}}, "ConfigError", "iteratons", id="unknown-key"),
    pytest.param([], {"engine": {"mu": None}}, "ConfigError", "mu", id="null-mu"),
    pytest.param([], {"penalty": {"rho": 0}}, "ConfigError", "rho", id="zero-rho"),
    pytest.param(["--seeds", "0,0"], {}, "ConfigError", "seeds", id="repeated-seeds"),
    pytest.param([], {"engine": {"algorithm": "centralized", "weight_rule": "averaging"}},
                 "ConfigError", "weight_rule", id="averaging-centralized"),
    # 2 eta G'G swamps the risk Hessian in floating point: not positive definite
    pytest.param([], {"scenario": {"id": "constrained"}, "penalty": {"eta": [1e17]}},
                 "SingularSystem", "1e+17", id="huge-eta"),
    # arrays of 5e13 entries, far beyond any address space: numpy refuses them at once
    pytest.param([], {"blocks": {"dims": [10**13] * 5}}, "MemoryError", "Unable to allocate",
                 id="huge-block-dims"),
])
def test_cli_error_on_malformed_arguments(tmp_path, capsys, args, sections, kind, word):
    """A malformed flag or config entry gives one error line that names it."""
    argv = ["run"] if args is None else [
        "run", "--config", str(_write_cfg(tmp_path, **sections)), *args]
    payload = _cli_error(capsys, argv)
    assert payload["type"] == kind and word in payload["message"]


# Every "applies only when" rule of the config layer: the key it restricts,
# the extra CLI arguments and config entries of a run that breaks it, and
# the run's exact error text. The keys no rule names apply to every run.
ONLY_WHEN_RULES = {
    "weight_rule->coupled": (
        ("engine", "weight_rule"), [], {"engine": {"algorithm": "admm",
                                                   "weight_rule": "averaging"}},
        "weight_rule 'averaging' applies only to the coupled algorithm; algorithm 'admm' reads "
        "no weights"),
    "rho_admm->admm": (
        ("engine", "rho_admm"), [], {"engine": {"rho_admm": 0.5}},
        "rho_admm 0.5 applies only to the admm algorithm; algorithm 'coupled' has no dual step"),
    "admm->eta-0": (
        ("penalty", "eta"), [], {"engine": {"algorithm": "admm"}, "penalty": {"eta": [10.0]},
                                 "scenario": {"id": "constrained"}},
        "algorithm admm does not support penalties; use eta 0"),
    "change_point->tracking": (
        ("scenario", "change_point"), [], {"scenario": {"change_point": 60}},
        "change_point applies only to the tracking scenario, not to 'unconstrained'"),
    "tracking->change_point": (
        ("scenario", "change_point"), [], {"scenario": {"id": "tracking"}},
        "tracking scenario needs a change_point"),
    "eta->rows": (
        ("penalty", "eta"), ["--eta", "0,10"], {},
        "eta 10.0 applies only to a scenario with constraint rows; scenario 'unconstrained' "
        "has none"),
    "rho->inequality-rows": (
        ("penalty", "rho"), [], {"penalty": {"rho": 0.5}},
        "rho 0.5 applies only to inequality constraint rows; no scenario draws any"),
    "exact->one-seed": (
        ("scenario", "seeds"), [], {"engine": {"noise": "exact"}, "scenario": {"seeds": [0, 1]}},
        "noise 'exact' draws no samples, so every seed gives the same rows; give one seed, "
        "got [0, 1]"),
}
UNIVERSAL_KEYS = {
    ("network", "source"), ("blocks", "dims"), ("objective", "problem_seed"),
    ("engine", "mu"), ("engine", "iterations"), ("engine", "algorithm"), ("engine", "noise"),
    ("engine", "init"), ("scenario", "id"), ("scenario", "log_every"),
}


def test_every_config_key_is_universal_or_named_by_a_rule():
    """A new config key must choose: it applies to every run, or a rule of
    ONLY_WHEN_RULES says when it applies."""
    restricted = {key for key, *_ in ONLY_WHEN_RULES.values()}
    assert restricted.isdisjoint(UNIVERSAL_KEYS)
    assert restricted | UNIVERSAL_KEYS == {(section, key) for section, keys in CONFIG_KEYS.items()
                                           for key in keys}


@pytest.mark.parametrize("rule", sorted(ONLY_WHEN_RULES))
def test_cli_error_on_a_key_outside_its_rule(tmp_path, capsys, rule):
    _, args, sections, message = ONLY_WHEN_RULES[rule]
    argv = ["run", "--config", str(_write_cfg(tmp_path, **sections)), "--out", str(tmp_path),
            *args]
    assert _cli_error(capsys, argv) == {"type": "ConfigError", "message": message}


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        cli_main(["run", "--help"])
    assert stop.value.code == 0 and "--config" in capsys.readouterr().out


def test_cli_subprocess_smoke(tmp_path):
    cfg = _write_cfg(tmp_path)
    res = subprocess.run(
        [sys.executable, "-m", "coupled_diffusion.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "sp")],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "sp" / "unconstrained.csv").exists()


ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.yaml")))
def test_readme_command_runs(tmp_path, capsys, config):
    """The README's command for each shipped config, with one seed and
    the fewest iterations that pass its change point."""
    command = f"coupled-diffusion run --config configs/{config} --out results"
    assert command in (ROOT / "README.md").read_text().splitlines()
    raw = yaml.safe_load((ROOT / "configs" / config).read_text())
    iters = raw["scenario"].get("change_point", 0) + 20
    assert cli_main(["run", "--config", str(ROOT / "configs" / config), "--out", str(tmp_path),
                     "--seeds", "0", "--iters", str(iters)]) == 0
    rows = Path(capsys.readouterr().out.strip()).read_text().splitlines()[1:]
    assert rows and {row.split(",")[0] for row in rows} == {raw["scenario"]["id"]}


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_help(script):
    """Each script imports what it needs and prints its help."""
    res = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def _point_rows(cfg):
    """The rows of running each (mu, eta) point of `cfg` alone, in grid order."""
    return [row for mu in cfg.mu_list for eta in cfg.eta_list
            for row in table_rows(run_scenario(dataclasses.replace(cfg, mu_list=(mu,),
                                                                   eta_list=(eta,))))]


def _linear(row):
    """A row's MSD and distance in the linear domain, and its disagreement."""
    return np.array([10 ** (row[5] / 10), row[6], 10 ** (row[7] / 10)])


@pytest.mark.parametrize("scenario, algorithm, init", [
    ("constrained", "coupled", "zeros"),
    ("constrained", "centralized", "reference"),
    ("unconstrained", "admm", "reference"),
    ("tracking", "coupled", "zeros"),
    ("sweep", "coupled", "reference"),
])
def test_grid_run_matches_single_point_runs(scenario, algorithm, init):
    """One run of a whole grid writes the rows that one run per point
    writes, in the same order, with values within 1e-12 relative."""
    etas = (0.0,) if algorithm == "admm" else (10.0, 100.0)
    cfg = ScenarioConfig(scenario=scenario, mu_list=(0.002, 0.001), eta_list=etas,
                         iterations=200, seeds=(3, 4), log_every=10, algorithm=algorithm,
                         init=init, change_point=100 if scenario == "tracking" else None)
    rows, expect = table_rows(run_scenario(cfg)), _point_rows(cfg)
    assert [r[:5] for r in rows] == [r[:5] for r in expect]
    for row, want in zip(rows, expect):
        assert np.allclose(_linear(row), _linear(want), rtol=1e-12, atol=0.0)


def test_grid_run_raises_the_first_diverging_point_in_grid_order():
    """mu 0.1 diverges before mu 0.04 does; the run raises for 0.04, the
    earlier point in grid order, as running the points one by one does."""
    cfg = ScenarioConfig(scenario="constrained", mu_list=(0.002, 0.04, 0.1), eta_list=(10.0,),
                         iterations=80, seeds=(3, 4), log_every=10)
    with pytest.raises(NonFiniteIterate) as expect:
        _point_rows(cfg)
    with pytest.raises(NonFiniteIterate) as err:
        run_scenario(cfg)
    assert (err.value.iteration, err.value.agent, str(err.value)) == (
        expect.value.iteration, expect.value.agent, str(expect.value))
