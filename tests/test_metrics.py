import dataclasses

import numpy as np
import pytest

from coupled_diffusion.metrics import (
    constrained_optimum,
    disagreement,
    empirical_rate,
    penalized_optimum,
    reference_solution,
)
from coupled_diffusion.objective import MultiAgentProblem, PenaltyConfig, equality
from coupled_diffusion.topology import BlockLayout, NetworkSpec, build_clusters
from coupled_diffusion.errors import (
    InfeasibleConstraints,
    NonDecreasingMSD,
    SimulationError,
    SingularSystem,
    WindowTooShort,
)
from coupled_diffusion.metrics import db
from coupled_diffusion.objective import QuadraticRiskOracle

from conftest import single_agent_problem
from reference import generate_benchmark_problem, global_slice, msd


def _pair_cmap():
    net = NetworkSpec(agent_count=2, edges=frozenset({(0, 1)}), interest_sets=((0,), (0,)))
    return build_clusters(net, BlockLayout((1,)))


def _quadratic_problem(dim, w_ref, constraints=(), spectrum=None):
    """Single agent with risk (w - w_ref)' R (w - w_ref); R defaults to I."""
    net = NetworkSpec(agent_count=1, edges=frozenset(), interest_sets=((0,),))
    layout = BlockLayout((dim,))
    cmap = build_clusters(net, layout)
    oracle = QuadraticRiskOracle(
        basis=np.eye(dim),
        spectrum=np.ones(dim) if spectrum is None else np.asarray(spectrum, float),
        w_ref=np.asarray(w_ref, float),
        noise_std=0.0,
    )
    return MultiAgentProblem(
        net=net, cmap=cmap, oracles=(oracle,),
        constraints=(tuple(constraints),), penalty=PenaltyConfig(rho=1.0),
    )


def test_msd_hand_examples():
    cmap = _pair_cmap()
    ref = np.array([2.0])
    assert msd(np.array([2.0, 2.0]), cmap, ref) == 0.0
    assert msd(np.array([3.0, 5.0]), cmap, ref) == pytest.approx(5.0)  # (1 + 9) / 2


def test_msd_singleton_clusters_sum_without_averaging():
    net = NetworkSpec(agent_count=2, edges=frozenset({(0, 1)}), interest_sets=((0,), (1,)))
    cmap = build_clusters(net, BlockLayout((1, 1)))
    ref = np.array([0.0, 0.0])
    assert msd(np.array([1.0, 2.0]), cmap, ref) == pytest.approx(5.0)


def test_msd_relabeling_invariance():
    net_a = NetworkSpec(
        agent_count=3, edges=frozenset({(0, 1), (1, 2)}), interest_sets=((0,), (0, 1), (1,))
    )
    cmap_a = build_clusters(net_a, BlockLayout((1, 1)))
    # relabel agents 0<->2 (graph and interests mirrored)
    net_b = NetworkSpec(
        agent_count=3, edges=frozenset({(2, 1), (1, 0)}), interest_sets=((1,), (0, 1), (0,))
    )
    cmap_b = build_clusters(net_b, BlockLayout((1, 1)))
    ref = np.array([0.5, -0.25])
    w_a = np.array([1.0, 2.0, 3.0, 4.0])  # agent0:[b0], agent1:[b0,b1], agent2:[b1]
    w_b = np.array([4.0, 2.0, 3.0, 1.0])  # mirrored copies
    assert msd(w_a, cmap_a, ref) == pytest.approx(msd(w_b, cmap_b, ref))


def test_disagreement_examples():
    cmap = _pair_cmap()
    assert disagreement(np.array([1.5, 1.5]), cmap).max() == 0.0
    assert disagreement(np.array([0.0, 3.0]), cmap)[0] == pytest.approx(3.0)
    net = NetworkSpec(agent_count=1, edges=frozenset(), interest_sets=((0,),))
    single = build_clusters(net, BlockLayout((2,)))
    assert disagreement(np.array([1.0, 2.0]), single)[0] == 0.0


def _pairwise_disagreement(w, cmap):
    """Per-block max distance between cluster members' copies, pair by pair,
    each copy read from its agent's local vector."""
    out = np.zeros(len(cmap.clusters))
    for l, cluster in enumerate(cmap.clusters):
        block = global_slice(cmap.layout, l)
        copies = []
        for k in cluster:
            owned = cmap.global_indices(k)
            local = w[cmap.flat_slice(k)]
            copies.append(local[(owned >= block.start) & (owned < block.stop)])
        out[l] = max(np.linalg.norm(a - b) for a in copies for b in copies)
    return out


def _check_pairwise_distances(problem, weights):
    """Clusters of unequal sizes, so the padded layout repeats copies: a flat
    vector, and the (n_flat, S) state of a batched run, one result row per
    column."""
    from coupled_diffusion.engine import EngineConfig, init_batch

    cmap = problem.cmap
    assert len({len(c) for c in cmap.clusters}) > 1
    w = np.random.default_rng(0).standard_normal(cmap.total_local_dim)
    batch = init_batch(problem, weights, EngineConfig(mu=0.002, iterations=5), seeds=(1, 2, 3))
    for _ in range(5):
        batch.step()
    state = batch.w
    assert state.shape == (cmap.total_local_dim, 3)
    for vector, got in [(w, disagreement(w, cmap))] + list(zip(state.T, disagreement(state, cmap))):
        want = _pairwise_disagreement(vector, cmap)
        assert np.all(want > 0)
        assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_disagreement_matches_pairwise_distances(benchmark_problem, benchmark_weights):
    _check_pairwise_distances(benchmark_problem, benchmark_weights)


def test_disagreement_matches_pairwise_distances_on_the_ring(ring_problem, ring_weights):
    """The benchmark's 200-agent ring: clusters of 10-20 and bridge agents."""
    _check_pairwise_distances(ring_problem, ring_weights)


def test_disagreement_of_a_column_does_not_depend_on_the_batch_width(ring_problem):
    """A column's disagreement is bit for bit the same whether it comes
    alone (1-D or one column) or with 2 or 5 columns in one call. The
    states sit near consensus, as in a run, where rounding shows most.
    When one column took the symmetric Gram kernel and several the
    general one, 7 of these 800 blocks differed by 1 ulp."""
    cmap = ring_problem.cmap
    rng = np.random.default_rng(3)
    n_cols = 40
    w = rng.standard_normal() + 1e-3 * rng.standard_normal((cmap.total_local_dim, n_cols))
    alone = np.array([disagreement(w[:, c], cmap) for c in range(n_cols)])
    assert alone.shape == (n_cols, len(cmap.clusters))
    for width in (1, 2, 5):
        for start in range(0, n_cols, width):
            got = disagreement(w[:, start:start + width], cmap)
            assert np.array_equal(got, alone[start:start + width]), (width, start)


def test_penalized_optimum_unconstrained_recovers_model(benchmark_problem):
    w = penalized_optimum(benchmark_problem, 0.0)
    assert np.allclose(w, benchmark_problem.true_model, atol=1e-10)


def test_penalized_optimum_scalar_calculus():
    problem = _quadratic_problem(1, [0.0], [equality(0, np.array([1.0]), 1.0)])
    assert penalized_optimum(problem, 1.0)[0] == pytest.approx(0.5, abs=1e-12)
    # large penalties approach the constrained solution w = 1
    assert penalized_optimum(problem, 1e6)[0] == pytest.approx(1.0, abs=2e-6)
    dists = [abs(penalized_optimum(problem, e)[0] - 1.0) for e in (10, 100, 1000, 10000)]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_penalized_optimum_singular_system():
    problem = _quadratic_problem(2, [0.0, 0.0], spectrum=[1.0, 0.0])
    with pytest.raises(SingularSystem):
        penalized_optimum(problem, 0.0)


def test_constrained_optimum_symmetric_example():
    problem = _quadratic_problem(2, [0.0, 0.0], [equality(0, np.array([1.0, 1.0]), 1.0)])
    assert np.allclose(constrained_optimum(problem), [0.5, 0.5], atol=1e-12)


def test_constrained_optimum_empty_constraints_matches_penalized():
    problem = _quadratic_problem(3, [1.0, -2.0, 0.5])
    assert np.allclose(constrained_optimum(problem), penalized_optimum(problem, 0.0), atol=1e-10)


def test_constrained_optimum_infeasible():
    cons = [
        equality(0, np.array([1.0, 0.0]), 0.0),
        equality(0, np.array([1.0, 0.0]), 1.0),
    ]
    problem = _quadratic_problem(2, [0.0, 0.0], cons)
    with pytest.raises((InfeasibleConstraints, SingularSystem)):
        constrained_optimum(problem)


def test_penalized_approaches_constrained_on_benchmark():
    problem = generate_benchmark_problem(3, constrained=True)
    wo = constrained_optimum(problem)
    w4 = penalized_optimum(problem, 1e4)
    assert np.linalg.norm(w4 - wo) <= 1e-2 * np.linalg.norm(wo)


def test_reference_solution_unconstrained_optima_coincide(benchmark_problem):
    refs = reference_solution(benchmark_problem, 0.0)
    assert np.allclose(refs.w_star, refs.w_o, atol=1e-10)


def test_stationarity_check_catches_a_wrong_closed_form(benchmark_problem):
    """The check uses the per-agent oracles, so a closed form assembled
    from a Hessian that disagrees with them fails it."""
    hess, lin = benchmark_problem.global_risk_quadratic()
    wrong = dataclasses.replace(benchmark_problem, _risk_quadratic=(
        benchmark_problem.oracles, benchmark_problem.cmap, 2.0 * hess, lin))
    assert wrong.global_risk_quadratic()[0] is not hess
    with pytest.raises(SimulationError, match="failed its stationarity check"):
        reference_solution(wrong, 0.0)


def test_empirical_rate_geometric():
    values = 0.9 ** np.arange(60)
    assert empirical_rate(values) == pytest.approx(0.9, abs=1e-6)
    assert empirical_rate(values, slice(10, 50)) == pytest.approx(0.9, abs=1e-6)


def test_empirical_rate_errors():
    with pytest.raises(NonDecreasingMSD):
        empirical_rate(np.ones(50))
    with pytest.raises(WindowTooShort):
        empirical_rate(np.array([1.0, 0.5]))


def test_db():
    assert db(100.0) == pytest.approx(20.0)
    assert db(1e-3) == pytest.approx(-30.0)


def test_single_agent_problem_roundtrip():
    problem = single_agent_problem(dim=2, noise_std=0.0, w_ref=np.array([1.0, 2.0]))
    w = penalized_optimum(problem, 0.0)
    assert np.allclose(w, [1.0, 2.0], atol=1e-10)
