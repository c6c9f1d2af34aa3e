import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_diffusion.errors import DisconnectedCluster, NotPrimitive
from coupled_diffusion.harness import NetworkDescription, build_problem
from coupled_diffusion.topology import BlockLayout, NetworkSpec, build_clusters, embed_clusters
from coupled_diffusion.weights import (
    averaging_weights,
    metropolis_weights,
    second_eigenvalue_magnitude,
    step_scaling,
)

from conftest import SETUP_NETWORKS
from reference import combination_weights, flat_cluster_indices, generate_benchmark_problem


def _one_cluster(n, edges):
    net = NetworkSpec(agent_count=n, edges=frozenset(edges), interest_sets=tuple((0,) for _ in range(n)))
    return net, build_clusters(net, BlockLayout((1,)))


def test_metropolis_two_agents():
    net, cmap = _one_cluster(2, {(0, 1)})
    m = metropolis_weights(cmap, net, 0)
    assert np.allclose(m.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=0)


def test_metropolis_star():
    # center 0 with n=3, leaves n=2
    net, cmap = _one_cluster(3, {(0, 1), (0, 2)})
    m = metropolis_weights(cmap, net, 0)
    expect = np.array([[1 / 3, 1 / 3, 1 / 3], [1 / 3, 2 / 3, 0.0], [1 / 3, 0.0, 2 / 3]])
    assert np.allclose(m.matrix, expect, atol=1e-15)
    assert second_eigenvalue_magnitude(m.matrix) == pytest.approx(2 / 3, abs=1e-12)


def test_metropolis_singleton():
    net, cmap = _one_cluster(1, set())
    m = metropolis_weights(cmap, net, 0)
    assert m.matrix.shape == (1, 1) and m.matrix[0, 0] == 1.0
    assert second_eigenvalue_magnitude(m.matrix) == 0.0
    assert np.array_equal(m.perron, [1.0])


def test_averaging_rules():
    net, cmap = _one_cluster(2, {(0, 1)})
    m = averaging_weights(cmap, net, 0)
    assert np.allclose(m.matrix, [[0.5, 0.5], [0.5, 0.5]])
    net, cmap = _one_cluster(3, {(0, 1), (0, 2)})
    m = averaging_weights(cmap, net, 0)
    expect = np.array([[1 / 3, 1 / 2, 1 / 2], [1 / 3, 1 / 2, 0.0], [1 / 3, 0.0, 1 / 2]])
    assert np.allclose(m.matrix, expect)
    # averaging rule Perron entries are n_k / sum n
    assert np.allclose(m.perron, [3 / 7, 2 / 7, 2 / 7], atol=1e-12)


def test_disconnected_cluster_rejected():
    net = NetworkSpec(agent_count=3, edges=frozenset({(0, 1)}),
                      interest_sets=((0,), (0,), (0,)))
    cmap = build_clusters(net, BlockLayout((1,)))
    with pytest.raises(DisconnectedCluster):
        metropolis_weights(cmap, net, 0)
    with pytest.raises(DisconnectedCluster):
        averaging_weights(cmap, net, 0)


def _power_iteration(a, steps=20000):
    """Reference Perron vector: a long power iteration from a positive start."""
    x = np.arange(1.0, a.shape[0] + 1.0)
    for _ in range(steps):
        x = a @ x
        x /= x.sum()
    return x


def test_perron_matches_long_power_iteration(bridge_net):
    """The closed-form Perron vector of every Metropolis and averaging
    matrix of benchmark20 and of the bridged five-agent network (whose
    split clusters are embedded first) is the one the matrix itself gives."""
    bridged = build_problem(NetworkDescription(net=bridge_net, layout=BlockLayout((2, 3, 2, 1))), 4)
    checked = 0
    for problem in (generate_benchmark_problem(7), bridged):
        for make in (metropolis_weights, averaging_weights):
            for l in range(problem.layout.block_count):
                m = make(problem.cmap, problem.net, l)
                a, r = m.matrix, m.perron
                assert np.max(np.abs(r - _power_iteration(a))) <= 1e-12
                assert np.max(np.abs(a @ r - r)) <= 1e-14
                checked += 1
    assert checked == 2 * (5 + 4)


def test_second_eigenvalue_examples():
    assert second_eigenvalue_magnitude(np.array([[1.0]])) == 0.0
    assert second_eigenvalue_magnitude(np.array([[0.5, 0.5], [0.5, 0.5]])) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NotPrimitive):
        second_eigenvalue_magnitude(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_second_eigenvalue_desk_scale_limit():
    with pytest.raises(ValueError):
        second_eigenvalue_magnitude(np.eye(200))


def test_step_scaling_metropolis_and_averaging(five_agent_net, five_agent_cmap):
    mats = {l: metropolis_weights(five_agent_cmap, five_agent_net, l) for l in range(4)}
    scal = step_scaling(five_agent_cmap, mats)
    # Metropolis Perron is uniform, so every copy's scaling equals the cluster size
    for l, cluster in enumerate(five_agent_cmap.clusters):
        assert np.all(scal[flat_cluster_indices(five_agent_cmap, l)] == len(cluster))
    # singleton cluster (block 1, agent 0) scales by exactly one
    assert scal[flat_cluster_indices(five_agent_cmap, 1)].tolist() == [1.0]


def test_step_scaling_averaging_star():
    net, cmap = _one_cluster(3, {(0, 1), (0, 2)})
    mats = {0: averaging_weights(cmap, net, 0)}
    assert step_scaling(cmap, mats).tolist() == [7 / 3, 7 / 2, 7 / 2]


@pytest.mark.parametrize("n", [49, 98, 99])
def test_step_scaling_of_a_metropolis_cycle_is_the_cluster_size(n):
    """Omega_k = N_l exactly: the scalings are N / 1, not 1 / (1 / N),
    which is not N for n = 49, 98 or 99."""
    net, cmap = _one_cluster(n, {(k, (k + 1) % n) for k in range(n)})
    assert np.all(step_scaling(cmap, {0: metropolis_weights(cmap, net, 0)}) == n)


def test_scaling_flat_layout(five_agent_net, five_agent_cmap):
    mats = {l: metropolis_weights(five_agent_cmap, five_agent_net, l) for l in range(4)}
    scal = step_scaling(five_agent_cmap, mats)
    k = 3  # blocks (0, 2, 3) sized (2, 3, 1); clusters sized (5, 2, 2)
    assert np.allclose(scal[five_agent_cmap.flat_slice(k)], [5, 5, 2, 2, 2, 2])


def test_step_scaling_is_one_over_perron_per_copy(five_agent_net, five_agent_cmap):
    """Averaging weights have non-uniform Perron vectors: agent k's copy of
    block l is scaled by 1/r_l(k), agent by agent in the flat layout."""
    cmap = five_agent_cmap
    mats = {l: averaging_weights(cmap, five_agent_net, l) for l in range(4)}
    expect = np.concatenate([
        np.full(cmap.layout.dims[l], 1.0 / mats[l].perron[cmap.clusters[l].index(k)])
        for k, blocks in enumerate(cmap.agent_blocks) for l in blocks
    ])
    assert len(set(expect.tolist())) > 2
    assert np.array_equal(step_scaling(cmap, mats), expect)


@st.composite
def random_clusters(draw):
    n = draw(st.integers(1, 8))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    for a, b in extra:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return _one_cluster(n, edges)


@given(random_clusters())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_weight_matrix_properties(case):
    net, cmap = case
    adj, cluster = net.adjacency(), cmap.clusters[0]
    for make in (metropolis_weights, averaging_weights):
        m = make(cmap, net, 0)
        a = m.matrix
        assert np.all(a >= -1e-15)
        assert np.max(np.abs(a.sum(axis=0) - 1.0)) <= 1e-12  # left stochastic
        for j, k in enumerate(cluster):
            for i, s in enumerate(cluster):
                if s != k and s not in adj[k]:
                    assert a[i, j] == 0.0  # sparsity respects the neighborhoods
        # Perron residual and positivity
        assert np.max(np.abs(a @ m.perron - m.perron)) <= 1e-10
        assert np.all(m.perron > 0)
        assert abs(m.perron.sum() - 1.0) <= 1e-12
        assert 0.0 <= second_eigenvalue_magnitude(a) < 1.0
        # a positive diagonal on a connected cluster makes the matrix primitive
        counts = [1 + sum(s in adj[k] for s in cluster) for k in cluster]
        assert np.all(np.diag(a) >= 1.0 / np.array(counts) - 1e-15)
    mm = metropolis_weights(cmap, net, 0).matrix
    assert np.max(np.abs(mm - mm.T)) <= 1e-12
    assert np.max(np.abs(mm.sum(axis=1) - 1.0)) <= 1e-12  # doubly stochastic


@given(random_clusters())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_perron_matches_null_space_solve(case):
    """Against a reference independent of the closed form: the
    least-squares solution of [A - I; 1'] r = [0; 1], which is exact and
    unique for a primitive A."""
    net, cmap = case
    for make in (metropolis_weights, averaging_weights):
        m = make(cmap, net, 0)
        n = len(m.perron)
        system = np.vstack([m.matrix - np.eye(n), np.ones((1, n))])
        ref = np.linalg.lstsq(system, np.eye(n + 1)[n], rcond=None)[0]
        assert np.max(np.abs(m.perron - ref)) <= 1e-12


RULES = {"metropolis": metropolis_weights, "averaging": averaging_weights}


def _assert_weights_are_the_reference(net, cmap):
    for rule, make in RULES.items():
        for l, cluster in enumerate(cmap.clusters):
            m = make(cmap, net, l)
            for got, want in zip((m.matrix, m.perron, m.scaling),
                                 combination_weights(net, cluster, rule)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (rule, l)


@pytest.mark.parametrize("network", SETUP_NETWORKS)
def test_weights_match_the_per_column_reference(setup_networks, network):
    """Every Metropolis and averaging matrix, Perron vector and scaling of
    the embedded network is bitwise the column-by-column build's."""
    desc = setup_networks[network]
    net, cmap = embed_clusters(desc.net, build_clusters(desc.net, desc.layout))
    _assert_weights_are_the_reference(net, cmap)


def test_weights_of_a_block_every_ring_agent_holds_match_the_reference(setup_networks):
    """A 200-agent cluster: its column sums run through numpy's pairwise
    summation in blocks, which a padded or axis-0 sum would not follow."""
    desc = setup_networks["ring"]
    n = desc.net.agent_count
    net = NetworkSpec(n, desc.net.edges, tuple(s + (20,) for s in desc.net.interest_sets))
    cmap = build_clusters(net, BlockLayout(desc.layout.dims + (2,)))
    for rule, make in RULES.items():
        m = make(cmap, net, 20)
        want = combination_weights(net, cmap.clusters[20], rule)
        assert all(a.tobytes() == b.tobytes() for a, b in zip((m.matrix, m.perron, m.scaling), want))


@given(random_clusters())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_weights_match_the_per_column_reference_on_random_clusters(case):
    net, cmap = case
    _assert_weights_are_the_reference(net, cmap)
