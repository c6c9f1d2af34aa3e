import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_diffusion.engine import EngineConfig, init_batch
from coupled_diffusion.errors import ConfigError, DimensionMismatch
from coupled_diffusion.harness import (
    _CONSTRAINT_TAG,
    NetworkDescription,
    _problem_rng,
    build_problem,
    load_network,
    regenerate_constraints,
)
from coupled_diffusion.metrics import constrained_optimum, penalized_optimum, reference_solution
from coupled_diffusion.objective import (
    ConstraintRows,
    PenaltyConfig,
    QuadraticRiskOracle,
    random_quadratic_oracles,
    row_penalty_gradient,
)
from coupled_diffusion.topology import BlockLayout
from coupled_diffusion.weights import metropolis_weights

from reference import (
    ConstraintSpec,
    agent_constraints,
    constraint_rows,
    draw_constraint_specs,
    ep_penalty,
    equality,
    evaluate,
    global_penalty_gradient,
    inequality,
    ip_penalty,
    lifted_rows,
    penalty_gradient,
    penalty_lipschitz,
    penalty_value,
    random_orthogonal,
    random_quadratic_oracle,
    risk_gradient,
    stochastic_gradient,
)


def test_ep_penalty_values():
    assert ep_penalty(0.0) == (0.0, 0.0)
    assert ep_penalty(3.0) == (9.0, 6.0)
    assert ep_penalty(-2.0) == (4.0, -4.0)


def test_ip_penalty_values():
    assert ip_penalty(-5.0, 1.0) == (0.0, 0.0)
    assert ip_penalty(0.0, 1.0) == (0.0, 0.0)
    v, d = ip_penalty(1.0, 1.0)
    assert v == pytest.approx(2 ** -0.5, abs=1e-12)
    assert d == pytest.approx(5 * 2 ** -1.5, abs=1e-12)


def test_ip_penalty_derivative_matches_finite_differences():
    h = 1e-6
    for rho in (0.1, 1.0):
        for x in np.linspace(-3, 3, 61):
            _, d = ip_penalty(x, rho)
            fd = (ip_penalty(x + h, rho)[0] - ip_penalty(x - h, rho)[0]) / (2 * h)
            assert d == pytest.approx(fd, abs=1e-6, rel=1e-6)


@given(st.floats(-50, 50), st.sampled_from([0.1, 0.5, 1.0, 3.0]))
@settings(max_examples=200, derandomize=True)
def test_ip_penalty_shape(x, rho):
    v, d = ip_penalty(x, rho)
    assert v >= 0.0
    if x <= 0.0:
        assert v == 0.0
    elif x**3 > 0.0:  # guard float underflow for sub-denormal cubes
        assert v > 0.0
    assert d >= 0.0
    # non-decreasing
    v2, _ = ip_penalty(x + 0.5, rho)
    assert v2 >= v


def test_penalty_gradient_examples():
    cfg = PenaltyConfig(rho=1.0)
    w = np.array([3.0, 5.0])
    assert np.array_equal(penalty_gradient([], w, cfg), [0.0, 0.0])
    on_surface = equality(0, np.array([1.0, 0.0]), 3.0)
    assert np.allclose(penalty_gradient([on_surface], w, cfg), [0.0, 0.0])
    c = equality(0, np.array([1.0, 0.0]), 1.0)
    assert np.allclose(penalty_gradient([c], w, cfg), [4.0, 0.0])


def test_penalty_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    cfg = PenaltyConfig(rho=0.5)
    for _ in range(10):
        dim = rng.integers(2, 6)
        cons = []
        for _ in range(rng.integers(1, 4)):
            coeffs = rng.standard_normal(dim)
            b = float(rng.standard_normal())
            kind = rng.choice(["equality", "inequality"])
            cons.append(ConstraintSpec(kind=kind, owner=0, coeffs=coeffs, offset=b))
        w = rng.standard_normal(dim)
        grad = penalty_gradient(cons, w, cfg)
        h = 1e-6
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd = (penalty_value(cons, w + e, cfg) - penalty_value(cons, w - e, cfg)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_affine_inequality_penalty_gradient():
    cfg = PenaltyConfig(rho=1.0)
    c = inequality(0, np.array([2.0, 0.0]), 1.0)  # 2 w_0 - 1 <= 0
    w = np.array([2.0, 0.0])
    val, d = ip_penalty(3.0, 1.0)
    assert np.allclose(penalty_gradient([c], w, cfg), d * np.array([2.0, 0.0]))
    inside = np.array([0.1, 0.1])
    assert np.allclose(penalty_gradient([c], inside, cfg), [0.0, 0.0])


def test_dimension_mismatch():
    cfg = PenaltyConfig()
    c = equality(0, np.array([1.0, 0.0]), 0.0)
    with pytest.raises(DimensionMismatch):
        penalty_gradient([c], np.zeros(3), cfg)


def test_a_constraint_of_the_wrong_length_is_rejected_with_the_problem(benchmark_problem):
    cons = list(agent_constraints(benchmark_problem))
    dim = benchmark_problem.cmap.local_dims[3]
    cons[3] = (equality(3, np.ones(dim + 1), 0.5),)
    with pytest.raises(DimensionMismatch,
                       match=f"constraint of agent 3 has {dim + 1} coefficients, "
                             f"layout expects {dim}"):
        dataclasses.replace(benchmark_problem,
                            constraints=constraint_rows(benchmark_problem.cmap, cons))


def test_the_row_record_needs_one_offset_per_row(benchmark_problem):
    cmap = benchmark_problem.cmap
    with pytest.raises(DimensionMismatch, match="each constraint row needs one owner"):
        ConstraintRows(cmap, [1, 3], [np.ones(cmap.local_dims[k]) for k in (1, 3)], [0.0])


def test_an_oracle_of_the_wrong_dimension_is_rejected_with_the_problem(benchmark_problem):
    first, *rest = benchmark_problem.oracles
    other = next(o for o in rest if o.dim != first.dim)
    with pytest.raises(DimensionMismatch, match=f"^oracle 0 has dim {other.dim}, layout "
                                                f"expects {first.dim}$"):
        dataclasses.replace(benchmark_problem, oracles=(other, *rest))


def test_the_row_record_checks_its_owners_and_keeps_rows_owner_major(benchmark_problem):
    """An owner outside the agents is rejected; rows given out of owner
    order are sorted by owner, stably, with their offsets."""
    cmap = benchmark_problem.cmap
    for owner in (-1, 20):
        with pytest.raises(ConfigError, match=f"names agent {owner}, but there are 20 agents"):
            ConstraintRows(cmap, [owner], [np.ones(1)], [0.0])
    owners = (3, 1, 3)
    rows = ConstraintRows(cmap, owners, [np.full(cmap.local_dims[k], c + 1.0)
                                         for c, k in enumerate(owners)], [0.0, 1.0, 2.0])
    assert rows.owner.tolist() == [1, 3, 3] and rows.offset.tolist() == [1.0, 0.0, 2.0]
    assert rows.coeffs[:, 0].tolist() == [2.0, 1.0, 3.0]
    assert rows.coeffs.shape == (3, max(cmap.local_dims))
    empty = ConstraintRows(cmap, (), (), ())
    assert empty.g_flat.shape == (0, cmap.total_local_dim)
    assert empty.g_global.shape == (0, cmap.layout.total_dim)


@pytest.fixture(scope="module")
def constrained_descs(setup_networks, bridge_net):
    """The set-up networks, example5, and the bridged network with agent 0
    owning the constraints of blocks 0 and 2, so that it holds two rows;
    the bridged network names no owners, so each block's first cluster
    member owns its row."""
    descs = {name: setup_networks[name] for name in ("benchmark20", "bridged", "ring")}
    descs["example5"] = load_network("example5")
    descs["two rows at one agent"] = NetworkDescription(
        net=bridge_net, layout=BlockLayout((2, 3, 2, 1)), constraint_owners=(0, 1, 0, 4))
    return descs


@pytest.fixture(scope="module")
def constrained_problems(constrained_descs):
    """A constrained problem of problem seed 7 on each network."""
    problems = {name: build_problem(desc, 7, constrained=True)
                for name, desc in constrained_descs.items()}
    assert len(agent_constraints(problems["two rows at one agent"])[0]) == 2
    return problems


PENALTY_PROBLEMS = ("benchmark20", "bridged", "ring", "two rows at one agent")


@pytest.mark.parametrize("epoch", [None, 0])
@pytest.mark.parametrize("name", PENALTY_PROBLEMS + ("example5",))
def test_the_row_record_matches_the_per_spec_rows(constrained_descs, constrained_problems,
                                                  name, epoch):
    """The record's flat G, global G, b and Lipschitz bound, bit for bit,
    against the per-spec rows drawn block by block and lifted row by row,
    for the first draw and a tracking redraw."""
    desc, problem = constrained_descs[name], constrained_problems[name]
    tag = _CONSTRAINT_TAG
    if epoch is not None:
        problem, tag = regenerate_constraints(problem, desc, 7, epoch), tag + 1 + epoch
    specs = draw_constraint_specs(desc, problem.cmap, _problem_rng(7, tag))
    rows, cmap = problem.constraints, problem.cmap
    g_flat, b = lifted_rows(cmap, specs, flat=True)
    g_global, _ = lifted_rows(cmap, specs, flat=False)
    for got, want in ((rows.g_flat, g_flat), (rows.g_global, g_global), (rows.offset, b)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert problem.penalty_lipschitz() == penalty_lipschitz(cmap, specs)
    assert rows.owner.tolist() == [c.owner for cons in specs for c in cons]


@pytest.mark.parametrize("eta", [0.0, 1.0, 1e4])
@pytest.mark.parametrize("name", PENALTY_PROBLEMS)
def test_the_global_gradient_matches_the_per_agent_sum(constrained_problems, name, eta):
    """The stationarity check's gradient, formed on the flat layout from the
    oracle stack and the flat rows, against the per-agent risk gradients
    plus eta times the per-constraint penalty gradients, summed agent by
    agent."""
    problem = constrained_problems[name]
    w = np.random.default_rng(11).standard_normal(problem.layout.total_dim)
    want = risk_gradient(problem, w) + eta * global_penalty_gradient(problem, w)
    got = problem.global_gradient(w, eta)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", PENALTY_PROBLEMS + ("example5",))
def test_reference_solution_is_the_two_optima(constrained_problems, name):
    """`reference_solution` gives the bits of `penalized_optimum` and of
    `constrained_optimum`; without rows its w_o is its w_star array."""
    problem = constrained_problems[name]
    refs = reference_solution(problem, 10.0)
    assert refs.w_star.tobytes() == penalized_optimum(problem, 10.0).tobytes()
    assert refs.w_o.tobytes() == constrained_optimum(problem).tobytes()
    assert refs.w_o is not refs.w_star
    free = dataclasses.replace(problem, constraints=ConstraintRows(problem.cmap, (), (), ()))
    refs = reference_solution(free, 10.0)
    assert refs.w_o is refs.w_star
    assert refs.w_star.tobytes() == penalized_optimum(free, 10.0).tobytes()


@pytest.mark.parametrize("name", PENALTY_PROBLEMS)
def test_the_row_form_matches_the_per_constraint_penalty_gradient(constrained_problems, name):
    """The engine's penalty half-step, from the flat rows, against the
    per-constraint gradients of each agent."""
    problem = constrained_problems[name]
    cmap, rng = problem.cmap, np.random.default_rng(11)
    weights = {l: metropolis_weights(cmap, problem.net, l) for l in range(len(cmap.clusters))}
    batch = init_batch(problem, weights, EngineConfig(mu=1e-3, eta=1.0, noise="exact"), (0, 1))
    flat = rng.standard_normal((cmap.total_local_dim, 2))
    want = np.concatenate([
        np.stack([penalty_gradient(cons, flat[cmap.flat_slice(k), j], problem.penalty)
                  for j in range(2)], axis=1)
        for k, cons in enumerate(agent_constraints(problem))])
    got = row_penalty_gradient(batch._rows, flat)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", PENALTY_PROBLEMS)
def test_penalty_lipschitz_is_the_largest_per_agent_row_sum(constrained_problems, name):
    problem = constrained_problems[name]
    want = max(sum(2.0 * float(c.coeffs @ c.coeffs) for c in cons)
               for cons in agent_constraints(problem))
    assert abs(problem.penalty_lipschitz() - want) <= 1e-15 * want


def test_penalty_lipschitz_is_zero_without_constraints(benchmark_problem):
    assert benchmark_problem.penalty_lipschitz() == 0.0


def test_random_orthogonal_and_oracle_fields():
    rng = np.random.default_rng(0)
    u = random_orthogonal(6, rng)
    assert np.max(np.abs(u.T @ u - np.eye(6))) <= 1e-10
    oracle = random_quadratic_oracle(rng.standard_normal(6), rng)
    assert np.all(oracle.spectrum >= 1.0) and np.all(oracle.spectrum <= 3.0)
    # noise power drawn in [-30, -20] dB
    assert 10 ** (-3.0) <= oracle.noise_std**2 <= 10 ** (-2.0)


def test_oracle_deterministic_per_seed():
    a = random_quadratic_oracle(np.ones(4), np.random.default_rng(42))
    b = random_quadratic_oracle(np.ones(4), np.random.default_rng(42))
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.spectrum, b.spectrum)
    assert a.noise_std == b.noise_std


def test_random_quadratic_oracles_match_one_draw_and_one_qr_per_oracle():
    """The stacked QR of each dimension gives the bits of one QR per
    oracle, with dimensions mixed, repeated and of size 1, in any order."""
    dims = [3, 1, 6, 3, 2, 1, 6, 6, 3, 10, 30, 17, 30, 25, 17]
    w_refs = [np.random.default_rng(d).standard_normal(d) for d in dims]
    got = random_quadratic_oracles(w_refs, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    want = [random_quadratic_oracle(w, rng) for w in w_refs]
    for a, b in zip(got, want):
        for name in ("basis", "spectrum", "w_ref", "covariance"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
        assert a.noise_std == b.noise_std
        assert np.max(np.abs(a.basis.T @ a.basis - np.eye(a.dim))) <= 1e-10


def test_zero_residual_sample_is_exact_zero():
    rng = np.random.default_rng(1)
    w_ref = rng.standard_normal(4)
    oracle = random_quadratic_oracle(w_ref, rng)
    oracle = QuadraticRiskOracle(oracle.basis, oracle.spectrum, w_ref, noise_std=0.0)
    grad = stochastic_gradient(oracle, w_ref, np.random.default_rng(3))
    assert np.array_equal(grad, np.zeros(4))


def test_stochastic_gradient_is_unbiased():
    rng = np.random.default_rng(2)
    w_ref = rng.standard_normal(5)
    oracle = random_quadratic_oracle(w_ref, rng)
    zeta = rng.standard_normal(5)
    expected = oracle.true_gradient(zeta)
    draws = np.random.default_rng(9)
    n = 100_000
    samples = np.empty((n, 5))
    for i in range(n):
        samples[i] = stochastic_gradient(oracle, zeta, draws)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - expected) <= 3.0 * se + 1e-12)


def test_noise_second_moment_relative_bound():
    # fit (alpha, sigma2) from two operating points, then check a third
    rng = np.random.default_rng(3)
    w_ref = rng.standard_normal(4)
    oracle = random_quadratic_oracle(w_ref, rng)

    def noise_power(zeta, n=20_000, seed=0):
        g = np.random.default_rng(seed)
        total = 0.0
        t = oracle.true_gradient(zeta)
        for _ in range(n):
            total += float(np.sum((stochastic_gradient(oracle, zeta, g) - t) ** 2))
        return total / n

    p0 = noise_power(np.zeros(4), seed=1)
    far = 6.0 * np.ones(4)
    p1 = noise_power(far, seed=2)
    sigma2 = p0
    alpha = max((p1 - sigma2) / float(far @ far), 0.0)
    mid = np.array([1.5, -2.0, 0.5, 1.0])
    p_mid = noise_power(mid, seed=3)
    assert p_mid <= 1.2 * (alpha * float(mid @ mid) + sigma2)


def test_true_gradient_examples():
    rng = np.random.default_rng(4)
    w_ref = rng.standard_normal(3)
    oracle = random_quadratic_oracle(w_ref, rng)
    assert np.allclose(oracle.true_gradient(w_ref), np.zeros(3), atol=1e-14)
    identity = QuadraticRiskOracle(np.eye(3), np.ones(3), np.zeros(3), 0.0)
    assert np.allclose(identity.true_gradient(np.array([1.0, 0.0, 0.0])), [2.0, 0.0, 0.0])


def test_true_gradient_matches_finite_differences_of_risk():
    rng = np.random.default_rng(6)
    w_ref = rng.standard_normal(5)
    oracle = random_quadratic_oracle(w_ref, rng)
    w = rng.standard_normal(5)
    grad = oracle.true_gradient(w)
    h = 1e-6
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        fd = (oracle.risk(w + e) - oracle.risk(w - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-8, rel=1e-7)


def test_benchmark_problem_is_strongly_convex(benchmark_problem):
    assert benchmark_problem.strong_convexity() > 0.0


def test_risk_quadratic_is_shared_read_only_and_follows_the_oracles(benchmark_problem):
    """A problem with other constraints shares the read-only (H, f); one with
    other oracles assembles its own."""
    hess, lin = benchmark_problem.global_risk_quadratic()
    assert not hess.flags.writeable and not lin.flags.writeable
    fresh_hess, fresh_lin = benchmark_problem._assemble_risk_quadratic()
    assert np.array_equal(hess, fresh_hess) and np.array_equal(lin, fresh_lin)
    swapped = dataclasses.replace(benchmark_problem, constraints=constraint_rows(
        benchmark_problem.cmap,
        [(equality(k, np.ones(o.dim), 1.0),) for k, o in enumerate(benchmark_problem.oracles)]))
    assert all(a is b for a, b in zip(swapped.global_risk_quadratic(), (hess, lin)))
    doubled = dataclasses.replace(benchmark_problem, oracles=tuple(
        QuadraticRiskOracle(o.basis, 2.0 * o.spectrum, o.w_ref, o.noise_std)
        for o in benchmark_problem.oracles))
    assert np.array_equal(doubled.global_risk_quadratic()[0], 2.0 * hess)


def test_inequality_constructor():
    c = inequality(2, np.array([1.0, 1.0]), 0.5)
    assert c.kind == "inequality" and c.owner == 2
    val, grad = evaluate(c, np.array([1.0, 1.0]))
    assert val == pytest.approx(1.5)
    assert np.array_equal(grad, [1.0, 1.0])
