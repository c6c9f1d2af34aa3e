import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_diffusion.topology import BlockLayout, NetworkSpec, build_clusters, embed_clusters, validate_connectivity
from coupled_diffusion.topology import _bridge_nodes, _components
from coupled_diffusion.errors import ConfigError, EmptyCluster, InvalidBlockIndex, NetworkDisconnected

from conftest import SETUP_NETWORKS
from reference import bridge_nodes as reference_bridge_nodes
from reference import (
    cluster_map_fields,
    flat_cluster_indices,
    gather_local,
    global_indices,
    global_slice,
    network_fields,
)


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
def connected_networks(draw, agents=(2, 7), blocks=(1, 4), dims=(1, 3)):
    """A connected graph of `agents` (low, high) agents holding random
    interest sets over `blocks` (low, high) blocks of `dims` (low, high)
    dimensions, with every block held by some agent."""
    n = draw(st.integers(*agents))
    blocks = draw(st.integers(*blocks))
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
    dims = tuple(draw(st.integers(*dims)) for _ in range(blocks))
    net = NetworkSpec(agent_count=n, edges=frozenset(edges), interest_sets=tuple(map(tuple, sets)))
    return net, BlockLayout(dims)


@st.composite
def network_files(draw):
    """Network dicts in the JSON layout `load_network` reads, for runs of the
    engine: 3-12 agents and 1-5 blocks of dimension 1-4 on a connected
    graph (`connected_networks`), so clusters of unequal size, some of them
    split, which embedding bridges; local dimensions, and so oracle ranks,
    differ between agents. In some examples every agent holds block 0, and
    in some one agent, a hub, holds every block.
    Each block's constraint owner is a random member of its cluster, or,
    in some examples, the default one: the file has no
    `constraint_owners`. Indices are 0- or 1-based."""
    net, layout = draw(connected_networks(agents=(3, 12), blocks=(1, 5), dims=(1, 4)))
    sets = [set(s) for s in net.interest_sets]
    if draw(st.booleans()):
        sets = [s | {0} for s in sets]
    if draw(st.booleans()):
        sets[draw(st.integers(0, net.agent_count - 1))] = set(range(layout.block_count))
    owners = [draw(st.sampled_from([k for k, s in enumerate(sets) if l in s]))
              for l in range(layout.block_count)]
    base = draw(st.integers(0, 1))
    raw = {"index_base": base, "agent_count": net.agent_count,
           "edges": [[a + base, b + base] for a, b in sorted(net.edges)],
           "interest_sets": [sorted(l + base for l in s) for s in sets],
           "block_dims": list(layout.dims)}
    if draw(st.booleans()):
        raw["constraint_owners"] = [k + base for k in owners]
    return raw


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
    perm = np.concatenate([flat_cluster_indices(cmap, l) for l in range(layout.block_count)])
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
    assert np.array_equal(global_indices(cmap, 3), [0, 1, 3, 4, 5, 6])
    w = np.arange(cmap.total_local_dim, dtype=float)
    for l, cluster in enumerate(cmap.clusters):
        gathered = w[flat_cluster_indices(cmap, l)].reshape(len(cluster), cmap.layout.dims[l])
        block = global_slice(cmap.layout, l)
        for row, k in enumerate(cluster):
            owned = global_indices(cmap, k)
            expect = w[cmap.flat_slice(k)][(owned >= block.start) & (owned < block.stop)]
            assert np.array_equal(gathered[row], expect)


def test_gather_local(five_agent_cmap):
    g = np.arange(7, dtype=float)  # layout (2,1,3,1)
    assert np.array_equal(gather_local(five_agent_cmap, g, 1), [0.0, 1.0])
    assert np.array_equal(gather_local(five_agent_cmap, g, 4), [0.0, 1.0, 6.0])


def _raw_form(net):
    """Edges and interest sets of `net` as an unnormalized input could give
    them: every other edge reversed, some edges listed both ways, blocks in
    decreasing order with the first one repeated."""
    edges = sorted(net.edges)
    raw_edges = {(b, a) if i % 2 else (a, b) for i, (a, b) in enumerate(edges)}
    raw_edges |= {(b, a) for a, b in edges[::3]}
    sets = tuple(tuple(reversed(s)) + s[:1] for s in net.interest_sets)
    return frozenset(raw_edges), sets


def _assert_cluster_map_is_the_reference(cmap, net):
    want = cluster_map_fields(net, cmap.layout)
    for name in ("clusters", "agent_blocks", "local_dims", "agent_starts"):
        assert getattr(cmap, name) == want[name], name
    for got, expect in [(cmap.flat_global_indices, want["flat_global_indices"]),
                        (cmap.padded_cluster_indices, want["padded_cluster_indices"])] + [
            (flat_cluster_indices(cmap, l), idx) for l, idx in enumerate(want["flat_cluster_indices"])]:
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("network", SETUP_NETWORKS)
def test_network_spec_and_cluster_maps_match_the_per_agent_reference(setup_networks, network):
    """NetworkSpec's normalized edges, interest sets and neighbour lists, and
    every index of the cluster maps before and after embedding, equal
    those of the edge-by-edge and agent-by-agent build."""
    desc = setup_networks[network]
    edges, sets = _raw_form(desc.net)
    net = NetworkSpec(desc.net.agent_count, edges, sets)
    want_edges, want_sets, want_adj = network_fields(desc.net.agent_count, edges, sets)
    assert net.edges == want_edges and net.interest_sets == want_sets
    assert net.adjacency() == want_adj
    assert all(type(v) is int for s in net.interest_sets + net.adjacency() for v in s)
    assert all(type(v) is int for e in net.edges for v in e)
    cmap0 = build_clusters(net, desc.layout)
    _assert_cluster_map_is_the_reference(cmap0, net)
    net2, cmap = embed_clusters(net, cmap0)
    _assert_cluster_map_is_the_reference(cmap, net2)
    assert (net2 is net) == (network == "benchmark20")


def _assert_bridges_are_the_reference(net, cmap):
    adj = net.adjacency()
    split = [l for l, c in enumerate(cmap.clusters) if len(_components(adj, c)) > 1]
    for l in split:
        assert _bridge_nodes(adj, cmap.clusters[l]) == reference_bridge_nodes(adj, cmap.clusters[l])
    return split


@pytest.mark.parametrize("network", SETUP_NETWORKS)
def test_bridge_sets_match_the_full_search(setup_networks, network):
    """The breadth-first search that stops at the first level reaching
    another component picks the bridges of the search over the whole graph."""
    desc = setup_networks[network]
    split = _assert_bridges_are_the_reference(desc.net, build_clusters(desc.net, desc.layout))
    assert len(split) == {"benchmark20": 0, "bridged": 2, "ring": 5}[network]


@given(connected_networks())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bridge_sets_match_the_full_search_on_random_networks(case):
    net, layout = case
    _assert_bridges_are_the_reference(net, build_clusters(net, layout))


@pytest.mark.parametrize("edges, sets", [
    ({(0, 0)}, ((0,), (0,))),
    ({(0, 1), (1, 1)}, ((0,), (0,))),
    ({(0, 2)}, ((0,), (0,))),
    ({(-1, 0)}, ((0,), (0,))),
    ({(0, 2**70)}, ((0,), (0,))),
    ({(0, 1), (3, 3), (0, 7)}, ((0,), (0,))),
    ({(0, 1)}, ((0,),)),
    ({(0, 1)}, ((0,), ())),
])
def test_network_spec_errors_match_the_reference(edges, sets):
    with pytest.raises(ConfigError) as want:
        network_fields(2, frozenset(edges), sets)
    with pytest.raises(ConfigError) as got:
        NetworkSpec(2, frozenset(edges), sets)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("sets", [
    ((0,), (0, 5)),
    ((0, -1), (1,)),
    ((2**70,), (0, 1)),
    ((0, 3), (2, 9)),
    ((0,), (0,)),
    ((1,), (1,)),
])
def test_build_clusters_errors_match_the_reference(sets):
    net = NetworkSpec(agent_count=2, edges=frozenset({(0, 1)}), interest_sets=sets)
    with pytest.raises((InvalidBlockIndex, EmptyCluster)) as want:
        cluster_map_fields(net, BlockLayout((1, 2)))
    with pytest.raises(want.type) as got:
        build_clusters(net, BlockLayout((1, 2)))
    assert str(got.value) == str(want.value)
