import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_diffusion.topology import BlockLayout, NetworkSpec, build_clusters, embed_clusters, validate_connectivity
from coupled_diffusion.errors import EmptyCluster, InvalidBlockIndex, NetworkDisconnected


def test_five_agent_clusters(five_agent_net, five_agent_cmap):
    cmap = five_agent_cmap
    assert cmap.clusters == ((0, 1, 2, 3, 4), (0,), (2, 3), (3, 4))
    # Q_k = sum of owned block dims, layout (2,1,3,1)
    assert cmap.local_dims == (3, 2, 5, 6, 3)


def test_singleton_network():
    net = NetworkSpec(agent_count=1, edges=frozenset(), interest_sets=((0,),))
    cmap = build_clusters(net, BlockLayout((4,)))
    assert cmap.clusters == ((0,),)
    assert cmap.local_dims == (4,)


def test_single_block_reduces_to_consensus():
    net = NetworkSpec(
        agent_count=4,
        edges=frozenset({(0, 1), (1, 2), (2, 3)}),
        interest_sets=((0,), (0,), (0,), (0,)),
    )
    cmap = build_clusters(net, BlockLayout((6,)))
    assert cmap.clusters == ((0, 1, 2, 3),)
    assert cmap.local_dims == (6, 6, 6, 6)


def test_invalid_block_index():
    net = NetworkSpec(agent_count=2, edges=frozenset({(0, 1)}), interest_sets=((0,), (5,)))
    with pytest.raises(InvalidBlockIndex):
        build_clusters(net, BlockLayout((1, 1)))


def test_uncovered_block_rejected():
    net = NetworkSpec(agent_count=2, edges=frozenset({(0, 1)}), interest_sets=((0,), (0,)))
    with pytest.raises(EmptyCluster):
        build_clusters(net, BlockLayout((1, 1)))


def test_validate_connectivity_flags_split_clusters(bridge_net):
    cmap = build_clusters(bridge_net, BlockLayout((1, 1, 1, 1)))
    assert cmap.clusters[1] == (1, 3) and cmap.clusters[2] == (0, 2)
    assert validate_connectivity(bridge_net, cmap) == [1, 2]


def test_validate_connectivity_clean(five_agent_net, five_agent_cmap):
    assert validate_connectivity(five_agent_net, five_agent_cmap) == []


def test_embed_bridges_via_shortest_paths(bridge_net):
    cmap = build_clusters(bridge_net, BlockLayout((1, 1, 1, 1)))
    net2, cmap2 = embed_clusters(bridge_net, cmap)
    assert cmap2.clusters[1] == (0, 1, 3)  # agent 0 bridges 1 and 3
    assert cmap2.clusters[2] == (0, 1, 2)  # agent 1 bridges 0 and 2
    assert validate_connectivity(net2, cmap2) == []
    # supersets of the original clusters
    for l in range(4):
        assert set(cmap.clusters[l]) <= set(cmap2.clusters[l])


def test_embed_path_graph():
    net = NetworkSpec(
        agent_count=3,
        edges=frozenset({(0, 1), (1, 2)}),
        interest_sets=((0,), (1,), (0,)),
    )
    cmap = build_clusters(net, BlockLayout((1, 1)))
    net2, cmap2 = embed_clusters(net, cmap)
    assert cmap2.clusters[0] == (0, 1, 2)


def test_embed_identity_when_connected(five_agent_net, five_agent_cmap):
    net2, cmap2 = embed_clusters(five_agent_net, five_agent_cmap)
    assert net2 is five_agent_net and cmap2 is five_agent_cmap


def test_embed_idempotent(bridge_net):
    cmap = build_clusters(bridge_net, BlockLayout((1, 1, 1, 1)))
    net2, cmap2 = embed_clusters(bridge_net, cmap)
    net3, cmap3 = embed_clusters(net2, cmap2)
    assert net3.interest_sets == net2.interest_sets
    assert cmap3.clusters == cmap2.clusters


def test_embed_requires_connected_graph():
    net = NetworkSpec(
        agent_count=4,
        edges=frozenset({(0, 1), (2, 3)}),
        interest_sets=((0,), (1,), (1,), (0,)),
    )
    cmap = build_clusters(net, BlockLayout((1, 1)))
    with pytest.raises(NetworkDisconnected):
        embed_clusters(net, cmap)


def test_embed_keeps_connected_clusters_of_a_disconnected_graph():
    """Bridging needs a connected graph; clusters that are connected
    already need no bridge, so they are returned as they are."""
    net = NetworkSpec(
        agent_count=4,
        edges=frozenset({(0, 1), (2, 3)}),
        interest_sets=((0,), (0,), (1,), (1,)),
    )
    cmap = build_clusters(net, BlockLayout((1, 1)))
    assert embed_clusters(net, cmap) == (net, cmap)


@st.composite
def connected_networks(draw):
    n = draw(st.integers(2, 7))
    blocks = draw(st.integers(1, 4))
    # random spanning tree plus extra edges keeps the full graph connected
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    for a, b in extra:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    sets = [
        sorted(draw(st.sets(st.integers(0, blocks - 1), min_size=1, max_size=blocks)))
        for _ in range(n)
    ]
    for l in range(blocks):  # every block must appear somewhere
        sets[l % n] = sorted(set(sets[l % n]) | {l})
    dims = tuple(draw(st.integers(1, 3)) for _ in range(blocks))
    net = NetworkSpec(agent_count=n, edges=frozenset(edges), interest_sets=tuple(map(tuple, sets)))
    return net, BlockLayout(dims)


@given(connected_networks())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cluster_interest_duality_and_dimension_bookkeeping(case):
    net, layout = case
    cmap = build_clusters(net, layout)
    for k in range(net.agent_count):
        for l in range(layout.block_count):
            assert (l in net.interest_sets[k]) == (k in cmap.clusters[l])
    copies = sum(len(c) * layout.dims[l] for l, c in enumerate(cmap.clusters))
    assert copies == sum(cmap.local_dims)
    # flat and stacked layouts are permutations of each other
    perm = np.concatenate([cmap.flat_cluster_indices(l) for l in range(layout.block_count)])
    assert sorted(perm.tolist()) == list(range(copies))


@given(connected_networks())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_embed_connects_everything_and_is_idempotent(case):
    net, layout = case
    cmap = build_clusters(net, layout)
    net2, cmap2 = embed_clusters(net, cmap)
    assert validate_connectivity(net2, cmap2) == []
    net3, cmap3 = embed_clusters(net2, cmap2)
    assert net3.interest_sets == net2.interest_sets


def test_index_machinery(five_agent_cmap):
    cmap = five_agent_cmap
    # agent 3 owns blocks (0, 2, 3) with dims (2, 3, 1) at global offsets
    # (0, 3, 6): its local vector holds block 0 at 0:2, block 2 at 2:5 and
    # block 3 at 5:6, after agents 0-2's local vectors of sizes 3, 2 and 5
    assert cmap.flat_slice(3) == slice(10, 16)
    assert np.array_equal(cmap.global_indices(3), [0, 1, 3, 4, 5, 6])
    w = np.arange(cmap.total_local_dim, dtype=float)
    for l, cluster in enumerate(cmap.clusters):
        gathered = w[cmap.flat_cluster_indices(l)].reshape(len(cluster), cmap.layout.dims[l])
        block = cmap.layout.global_slice(l)
        for row, k in enumerate(cluster):
            owned = cmap.global_indices(k)
            expect = w[cmap.flat_slice(k)][(owned >= block.start) & (owned < block.stop)]
            assert np.array_equal(gathered[row], expect)


def test_gather_local(five_agent_cmap):
    g = np.arange(7, dtype=float)  # layout (2,1,3,1)
    assert np.array_equal(five_agent_cmap.gather_local(g, 1), [0.0, 1.0])
    assert np.array_equal(five_agent_cmap.gather_local(g, 4), [0.0, 1.0, 6.0])
