import csv
import dataclasses
import io
import json
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
    CSV_HEADER,
    NetworkDescription,
    _integer_lists,
    ResultTable,
    ScenarioConfig,
    build_problem,
    config_from_dict,
    emit_results,
    load_network,
    regenerate_constraints,
    run_scenario,
    steady_state,
)
from coupled_diffusion.engine import init_batch
from coupled_diffusion.metrics import reference_solution
from coupled_diffusion.weights import metropolis_weights
from conftest import assert_bridge_oracles_draw_like_their_inner_oracle, load_benchmark_module
from test_topology import connected_networks
from reference import (
    generate_benchmark_problem,
    integer_lists,
    msd,
    per_agent_problem_draw,
    risk_gradient,
    risk_quadratic,
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
    with pytest.raises(ConfigError):  # tracking redraws its constraints
        ScenarioConfig(scenario="tracking", change_point=20, iterations=100, constrained=False)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="unconstrained", mu_list=())
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="unconstrained", weight_rule="uniform")
    for bad in (dict(seeds=(-1,)), dict(seeds=(2**64,)), dict(problem_seed=2**63),
                dict(algorithm="sgd"), dict(noise="gaussian"), dict(rho_admm=0.0),
                dict(constrained="no"), dict(constrained=1), dict(constrained=0),
                dict(constrained=1.0), dict(iterations=10**30), dict(iterations=1e30)):
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
        "scenario": {"id": "custom", "seeds": [seed]},
    })
    assert cfg.seeds == (seed,) and cfg.problem_seed == seed
    seeds_in_rows = {r[3] for r in run_scenario(cfg).rows}
    assert seeds_in_rows == {str(seed), "mean"}
    for bad in (True, 2.5, float("nan"), float("inf"), "x"):
        with pytest.raises(ConfigError, match="must be an integer"):
            ScenarioConfig(scenario="custom", seeds=(bad,))


def test_config_from_sections():
    raw = {
        "network": {"source": "benchmark20"},
        "blocks": {"dims": [5, 5, 5, 5, 5]},
        "objective": {"problem_seed": 3},
        "penalty": {"eta": [10.0], "rho": 0.5},
        "engine": {"mu": [0.001], "iterations": 50, "weight_rule": "averaging"},
        "scenario": {"id": "constrained", "seeds": [1, 2]},
    }
    cfg = config_from_dict(raw)
    assert cfg.scenario == "constrained"
    assert cfg.mu_list == (0.001,)
    assert cfg.eta_list == (10.0,)
    assert cfg.rho == 0.5
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


def test_benchmark_problem_properties():
    p = generate_benchmark_problem(11, constrained=True)
    assert np.linalg.norm(p.true_model) == pytest.approx(1.0, abs=1e-12)
    for o in p.oracles:
        assert np.all(o.spectrum >= 1.0) and np.all(o.spectrum <= 3.0)
        assert 1e-3 <= o.noise_std**2 <= 1e-2
    owners = [c.owner for cons in p.constraints for c in cons]
    assert sorted(owners) == sorted([1, 9, 15, 4, 16])
    for cons in p.constraints:
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
    for ca, cb in zip(a.constraints, b.constraints):
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
    in_block0 = np.isin(problem.cmap.global_indices(1), [0, 1])  # layout (2, 2)
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
    """build_problem draws its oracles agent by agent and builds those of
    one dimension together (one stacked QR, batched products), and embeds
    the bridge agents' oracles from their fields; the true model, every
    oracle field and the assembled risk quadratic equal those of drawing
    agent by agent with one QR each and every field computed by its own
    oracle, bit for bit."""
    desc = {**_problem_networks(tmp_path), "bridged": setup_networks["bridged"]}[network]
    for seed in (0, 7):
        problem = build_problem(desc, seed, constrained=True)
        model, oracles = per_agent_problem_draw(desc, seed)
        assert problem.true_model.tobytes() == model.tobytes()
        assert len(problem.oracles) == len(oracles)
        for got, want in zip(problem.oracles, oracles):
            for name in ("basis", "spectrum", "w_ref", "_scaled_basis", "covariance"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert got.noise_std == want.noise_std
        hess, lin = problem.global_risk_quadratic()
        want_hess, want_lin = risk_quadratic(problem)
        assert hess.tobytes() == want_hess.tobytes() and lin.tobytes() == want_lin.tobytes()
        # the stationarity check's gradient sums in another order: rounding only
        w = np.random.default_rng(seed).standard_normal(problem.layout.total_dim)
        grad, want_grad = problem.global_risk_gradient(w), risk_gradient(problem, w)
        assert np.max(np.abs(grad - want_grad)) <= 1e-14 * np.max(np.abs(want_grad))


@given(connected_networks())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_problem_draw_matches_the_per_agent_draw_on_random_networks(case):
    """The oracle fields, bridge oracles included, and H and f of random
    networks with local dimensions 1-12 are bitwise the per-agent build's."""
    net, layout = case
    desc = NetworkDescription(net=net, layout=layout)
    problem = build_problem(desc, 3)
    _, oracles = per_agent_problem_draw(desc, 3)
    for got, want in zip(problem.oracles, oracles):
        for name in ("basis", "spectrum", "w_ref", "_scaled_basis", "covariance"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.noise_std == want.noise_std
    hess, lin = problem.global_risk_quadratic()
    want_hess, want_lin = risk_quadratic(problem)
    assert hess.tobytes() == want_hess.tobytes() and lin.tobytes() == want_lin.tobytes()


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
    assert t1.rows == t2.rows
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
    per_seed = [r for r in table.rows if r[3] != "mean"]
    means = [r for r in table.rows if r[3] == "mean"]
    # 30 logged iterations per run, 2 seeds, plus 30 mean rows
    assert len(per_seed) == 60 and len(means) == 30
    assert all(r[0] == "unconstrained" for r in table.rows)
    assert means[-1][4] == 300


def test_smaller_mu_gives_lower_steady_msd():
    cfg = ScenarioConfig(
        scenario="unconstrained", mu_list=(0.004, 0.001), eta_list=(0.0,),
        iterations=800, seeds=(0, 1, 2), log_every=10,
    )
    table = run_scenario(cfg)

    def steady_of(mu):
        vals = [10 ** (r[5] / 10) for r in table.rows if r[3] == "mean" and r[1] == mu]
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
    assert len(table.rows) == 3  # two seeds + one mean row
    assert all(r[4] == 400 for r in table.rows)
    assert cfg.initial == "reference"


def test_tracking_scenario_shows_jump():
    """The new constraints and references apply from the first step after
    the change point, so the jump shows in the record right after it."""
    cfg = ScenarioConfig(
        scenario="tracking", mu_list=(0.002,), eta_list=(100.0,),
        iterations=700, seeds=(0, 1), change_point=400, log_every=1,
    )
    table = run_scenario(cfg)
    means = {r[4]: 10 ** (r[5] / 10) for r in table.rows if r[3] == "mean"}
    assert means[401] > 3 * means[400]  # constraint regeneration bumps the MSD
    assert means[700] < 0.5 * means[410]  # and the algorithm re-converges


def test_tracking_rows_before_the_change_point_are_a_constrained_run():
    """Up to its change point a tracking run is the constrained run of
    that many iterations: the same rows, bit for bit, but the scenario."""
    grid = dict(mu_list=(0.002, 0.001), eta_list=(10.0, 100.0), seeds=(3, 4), log_every=10)
    tracking = run_scenario(ScenarioConfig(scenario="tracking", iterations=120,
                                           change_point=60, **grid)).rows
    constrained = run_scenario(ScenarioConfig(scenario="constrained", iterations=60,
                                              **grid)).rows
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
    got = [10 ** (r[5] / 10) for r in run_scenario(cfg).rows if r[3] == "0"]
    assert got == pytest.approx(want, rel=1e-12)


def test_tracking_set_up_assembles_the_risk_quadratic_once(monkeypatch):
    """`strong_convexity` and the references before and after the change
    point, for every eta, share one assembly of the global risk quadratic."""
    from coupled_diffusion.objective import MultiAgentProblem

    calls = []
    assemble = MultiAgentProblem._assemble_risk_quadratic
    monkeypatch.setattr(MultiAgentProblem, "_assemble_risk_quadratic",
                        lambda self: calls.append(self) or assemble(self))
    run_scenario(ScenarioConfig(scenario="tracking", mu_list=(0.002,), eta_list=(100.0, 10.0),
                                iterations=4, seeds=(0,), change_point=2))
    assert len(calls) == 1


def test_emit_results_empty_and_single(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results(ResultTable(rows=[], config={}), path)
    lines = path.read_text().strip().splitlines()
    assert lines == [",".join(CSV_HEADER)]
    one = ResultTable(rows=[("unconstrained", 0.001, 0.0, "0", 1, -10.0, 0.5, -10.0)], config={})
    path2 = tmp_path / "one.csv"
    emit_results(one, path2)
    assert len(path2.read_text().strip().splitlines()) == 2


def _csv_writer_bytes(rows) -> bytes:
    """The reference CSV: `csv.writer` row by row, each float written as
    repr(float(v)), the form emit_results wrote before it went column-wise."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return out.getvalue().encode()


def _odd_value_rows():
    values = [float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e16, 0.1, -1e-300,
              np.float64(0.5), np.float64(-0.0), np.float64(1e16), 3, None]
    rows = []
    for i in range(1100):  # nine chunks of CSV_CHUNK_ROWS, the last one partial
        v = values[i % len(values)]
        w = np.float64(i / 3) if i % 2 else i / 3  # a float column, np.float64 in part
        negated = None if v is None else -v
        rows.append(("unconstrained", 0.001, v, "mean" if i % 7 else str(i), i, v, w, negated))
    return rows


@pytest.mark.parametrize("rows", [[], _odd_value_rows()[:1], _odd_value_rows()],
                         ids=["empty", "one-row", "odd-values"])
def test_emit_results_writes_the_bytes_of_csv_writer(tmp_path, rows):
    """inf, -inf, nan, -0.0, the smallest subnormal, 1e16 (repr '1e+16'),
    np.float64 values (written as the float they equal), ints and None,
    in float, int, str and mixed columns, across chunk boundaries."""
    path = tmp_path / "t.csv"
    emit_results(ResultTable(rows=rows, config={}), path)
    assert path.read_bytes() == _csv_writer_bytes(rows)


@pytest.mark.parametrize("field", ["a,b", 'say "hi"', "two\nlines", "cr\r", None],
                         ids=["comma", "quote", "newline", "carriage-return", "ragged-row"])
def test_emit_results_raises_on_a_field_csv_writer_would_quote(tmp_path, field):
    rows = _odd_value_rows()
    if field is None:
        rows[600] = rows[600][:-1]
    else:
        rows[600] = rows[600][:3] + (field,) + rows[600][4:]
    with pytest.raises(ValueError):
        emit_results(ResultTable(rows=rows, config={}), tmp_path / "t.csv")


def test_emit_results_formats_repeated_float_objects_by_identity(tmp_path):
    """A float column that repeats one object in every row, like mu or eta,
    or a few objects, writes each object's own text: 0.0 and -0.0 are
    equal but print apart."""
    zero, negative_zero, nan = 0.0, -0.0, float("nan")
    rows = [("sweep", (zero, negative_zero, nan)[i % 3], (negative_zero, zero)[i % 2], "0", i,
             float(i), negative_zero if i < 200 else zero, np.float64(-0.0)) for i in range(300)]
    emit_results(ResultTable(rows=rows, config={}), tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(rows)


def test_emit_results_matches_csv_writer_on_a_run(tmp_path):
    table = run_scenario(_small_cfg())
    emit_results(table, tmp_path / "run.csv")
    assert (tmp_path / "run.csv").read_bytes() == _csv_writer_bytes(table.rows)


def _write_cfg(tmp_path, scenario="unconstrained", **sections):
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
    # 2 eta G'G swamps the risk Hessian in floating point: not positive definite
    pytest.param([], {"objective": {"constrained": True}, "penalty": {"eta": [1e17]}},
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
            for row in run_scenario(dataclasses.replace(cfg, mu_list=(mu,), eta_list=(eta,))).rows]


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
    rows, expect = run_scenario(cfg).rows, _point_rows(cfg)
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
