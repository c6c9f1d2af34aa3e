"""Agent graph, block partition, interest sets, and cluster machinery.

Agents and blocks are 0-indexed everywhere in this module. Loaders that
accept 1-based external files normalize before constructing these types.
All types are immutable after construction and safe to share across
concurrent runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .errors import ConfigError, EmptyCluster, InvalidBlockIndex, NetworkDisconnected


@dataclass(frozen=True)
class BlockLayout:
    """Partition of the global vector into contiguous blocks."""

    dims: tuple[int, ...]
    # start offset of each block within the global vector
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.dims) < 1 or any(d < 1 for d in self.dims):
            raise ConfigError("block dims must be positive and non-empty")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "offsets", tuple(accumulate((0,) + self.dims[:-1])))

    @property
    def block_count(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


@dataclass(frozen=True)
class NetworkSpec:
    """Undirected agent graph plus per-agent block interest sets."""

    agent_count: int
    edges: frozenset[tuple[int, int]]
    interest_sets: tuple[tuple[int, ...], ...]
    _adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.agent_count
        if n < 1:
            raise ConfigError("agent_count must be positive")
        ends = list(chain.from_iterable(self.edges))
        if ends and not (0 <= min(ends) and max(ends) < n):
            _raise_for_first_bad_edge(self.edges, n)
        # walked in increasing order, the edges fill every neighbour list in
        # increasing order: agent k meets each (a, k) before any (k, b)
        edges = sorted({(a, b) if a < b else (b, a) for a, b in self.edges})
        adj = [[] for _ in range(n)]
        for a, b in edges:
            if a == b:
                _raise_for_first_bad_edge(self.edges, n)
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "edges", frozenset(edges))
        if len(self.interest_sets) != n:
            raise ConfigError("need one interest set per agent")
        if 0 in map(len, self.interest_sets):
            raise ConfigError("every interest set must be non-empty")
        object.__setattr__(
            self,
            "interest_sets",
            tuple(tuple(sorted(set(map(int, s)))) for s in self.interest_sets),
        )
        object.__setattr__(self, "_adjacency", tuple(map(tuple, adj)))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists, self excluded."""
        return self._adjacency

    def is_connected(self) -> bool:
        seen = _bfs_reach(self.adjacency(), [0])
        return len(seen) == self.agent_count


def _raise_for_first_bad_edge(edges, agent_count: int):
    """The error of the first self-loop or unknown agent, in set order."""
    for a, b in edges:
        if a == b:
            raise ConfigError(f"self-loop edge ({a},{b}) not allowed")
        if not (0 <= a < agent_count and 0 <= b < agent_count):
            raise ConfigError(f"edge ({a},{b}) references unknown agent")


def _split(values: list, counts) -> tuple[tuple, ...]:
    """`values` cut into consecutive tuples of the given lengths."""
    stops = np.cumsum(counts).tolist()
    return tuple(tuple(values[start:stop]) for start, stop in zip([0] + stops[:-1], stops))


@dataclass(frozen=True)
class ClusterMap:
    """Per-block clusters and the flat layout of their local copies.

    For every agent k the local vector w_k stacks the copies w_k^l for
    l in its interest set, in increasing block order. The flat layout
    concatenates all agents' local vectors; its total length is
    sum_l N_l*M_l = sum_k Q_k. The layout is held by four indexes, built
    in build_clusters; every other position is read off them.
    """

    layout: BlockLayout
    clusters: tuple[tuple[int, ...], ...]
    agent_blocks: tuple[tuple[int, ...], ...]
    local_dims: tuple[int, ...]
    # start of each agent's local vector within the flat layout
    agent_starts: tuple[int, ...] = field(repr=False, default=())
    # global-vector index of every flat entry: the flat layout of a global
    # vector g is g[flat_global_indices]
    flat_global_indices: np.ndarray = field(repr=False, default=None)
    # (L, N_max, M_max) flat indices of every block's copies at once: block l
    # fills [l, :N_l, :M_l] with flat_cluster_indices(l) as an (N_l, M_l)
    # array. Padding repeats real entries so that it adds no new values:
    # extra rows repeat member 0's row and extra columns repeat member 0's
    # first entry, in every row.
    padded_cluster_indices: np.ndarray = field(repr=False, default=None)
    _flat_cluster_idx: tuple = field(repr=False, default=())

    @property
    def total_local_dim(self) -> int:
        return sum(self.local_dims)

    def flat_slice(self, agent: int) -> slice:
        """Position of agent k's local vector within the flat layout."""
        start = self.agent_starts[agent]
        return slice(start, start + self.local_dims[agent])

    def flat_cluster_indices(self, block: int) -> np.ndarray:
        """Flat-layout indices of all copies of `block`, cluster order.

        Reshaping the gathered values to (N_l, M_l) puts one local copy
        per row, rows ordered like the sorted cluster.
        """
        return self._flat_cluster_idx[block]

    def global_indices(self, agent: int) -> np.ndarray:
        """Global-vector indices corresponding to agent k's local vector."""
        return self.flat_global_indices[self.flat_slice(agent)]

    def columns(self, vectors, copies: int) -> np.ndarray:
        """(n_flat, P copies) state columns of P global vectors: vector p
        gathered into the flat layout fills columns p copies to
        p copies + copies - 1."""
        flat = np.asarray(vectors, dtype=float)[:, self.flat_global_indices]
        return np.repeat(flat.T, copies, axis=1)

    def inverse_cluster_sizes(self) -> np.ndarray:
        """1/N_l at every flat entry of a copy of block l: the weights that
        average each block's copies over its cluster."""
        out = np.empty(self.total_local_dim)
        for l, cluster in enumerate(self.clusters):
            out[self.flat_cluster_indices(l)] = 1.0 / len(cluster)
        return out


def build_clusters(net: NetworkSpec, layout: BlockLayout) -> ClusterMap:
    """Derive clusters, local layouts and index maps from interest sets.

    Does not require cluster connectivity; see validate_connectivity and
    embed_clusters for that.
    """
    L = layout.block_count
    # one (agent, block) pair per copy of a block, agent by agent and, within
    # an agent, in increasing block order: the order of the flat layout
    flat = list(chain.from_iterable(net.interest_sets))
    if not (0 <= min(flat) and max(flat) < L):
        k, l = next((k, l) for k, blocks in enumerate(net.interest_sets)
                    for l in blocks if not 0 <= l < L)
        raise InvalidBlockIndex(f"agent {k} is interested in block {l}, layout has {L} blocks")
    blocks = np.array(flat, dtype=np.intp)
    blocks_per_agent = np.fromiter(map(len, net.interest_sets), dtype=np.intp,
                                   count=net.agent_count)
    agents = np.repeat(np.arange(net.agent_count), blocks_per_agent)
    sizes = np.bincount(blocks, minlength=L)
    if not sizes.all():
        raise EmptyCluster(f"block {int(np.argmin(sizes))} appears in no interest set")
    # a stable sort by block keeps each cluster in agent order
    clusters = _split(agents[np.argsort(blocks, kind="stable")].tolist(), sizes)

    dims = np.array(layout.dims)
    copy_dims = dims[blocks]
    copy_ends = np.cumsum(copy_dims)
    agent_ends = np.cumsum(blocks_per_agent)
    local_dims = tuple(np.diff(copy_ends[agent_ends - 1], prepend=0).tolist())
    # copy p spans global entries offsets[block] + 0 .. dims[block] - 1
    flat_global = (np.repeat(np.array(layout.offsets)[blocks] - (copy_ends - copy_dims), copy_dims)
                   + np.arange(copy_ends[-1]))
    # an agent holds a block once, so the flat entries of block l, in flat
    # order, are its copies in cluster order; a stable sort keeps that order
    by_block = np.argsort(np.repeat(blocks, copy_dims), kind="stable")
    block_ends = np.cumsum(sizes * dims)
    flat_cluster_idx = tuple(by_block[start:stop] for start, stop
                             in zip([0] + block_ends[:-1].tolist(), block_ends.tolist()))

    return ClusterMap(
        layout=layout,
        clusters=clusters,
        agent_blocks=net.interest_sets,
        local_dims=local_dims,
        agent_starts=tuple(accumulate((0,) + local_dims[:-1])),
        flat_global_indices=flat_global,
        padded_cluster_indices=_pad_clusters(by_block, block_ends - sizes * dims, sizes, dims),
        _flat_cluster_idx=flat_cluster_idx,
    )


def _pad_clusters(by_block, starts, sizes, dims) -> np.ndarray:
    """The (L, N_max, M_max) padded index of ClusterMap: cell [l, i, j] holds
    by_block[starts[l] + i M_l + j] for a real copy entry, member 0's entry
    j for an extra row and member 0's first entry for an extra column."""
    rows = np.arange(sizes.max())[None, :, None]
    cols = np.arange(dims.max())[None, None, :]
    n, m = sizes[:, None, None], dims[:, None, None]
    real_col = cols < m
    row = np.where(real_col & (rows < n), rows, 0)
    col = np.where(real_col, cols, 0)
    return by_block[starts[:, None, None] + row * m + col]


def _bfs_reach(adj: list[list[int]], sources: list[int], allowed=None) -> set:
    seen = set(sources)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v in seen or (allowed is not None and v not in allowed):
                continue
            seen.add(v)
            queue.append(v)
    return seen


def _components(adj: list[list[int]], nodes: tuple[int, ...]) -> list[set]:
    allowed = set(nodes)
    remaining = set(nodes)
    comps = []
    while remaining:
        start = min(remaining)
        comp = _bfs_reach(adj, [start], allowed=allowed)
        comps.append(comp)
        remaining -= comp
    return comps


def cluster_connected(net: NetworkSpec, cluster: tuple[int, ...]) -> bool:
    """Whether the agents of `cluster` induce a connected subgraph (a
    singleton does)."""
    return len(_bfs_reach(net.adjacency(), [cluster[0]], allowed=set(cluster))) == len(cluster)


def validate_connectivity(net: NetworkSpec, cmap: ClusterMap) -> list[int]:
    """Block indices whose induced cluster subgraph is disconnected.

    An empty list means every cluster is a connected subgraph (singleton
    clusters count as connected).
    """
    return [l for l, cluster in enumerate(cmap.clusters) if not cluster_connected(net, cluster)]


def _bridge_nodes(adj: list[list[int]], cluster: tuple[int, ...]) -> set:
    """Interior nodes of shortest paths joining the cluster's components.

    Components are merged greedily starting from the one holding the
    lowest agent id; at every step the shortest path from the merged set
    to any other component is used, with ties broken by lowest agent id
    (both for the entry point and for each predecessor on the path).
    """
    comps = _components(adj, cluster)
    comps.sort(key=min)
    merged = set(comps[0])
    others = set().union(*comps[1:]) if len(comps) > 1 else set()
    bridges = set()
    while others:
        # breadth-first from the merged set over the full graph, one level at
        # a time, up to the first level that holds a node of another component
        parent = {}
        level = sorted(merged)
        reached = []
        while not reached:
            found = {}
            for u in level:  # in increasing id order: the first parent is the lowest
                for v in adj[u]:
                    if v not in merged and v not in parent and v not in found:
                        found[v] = u
            if not found:
                raise NetworkDisconnected("cluster components lie in different graph components")
            parent.update(found)
            level = sorted(found)
            reached = [v for v in level if v in others]
        target = reached[0]
        node = parent[target]
        while node not in merged:
            bridges.add(node)
            node = parent[node]
        # absorb the component that target belongs to, plus new bridges
        comp = next(c for c in comps if target in c)
        merged |= comp | bridges
        others -= comp
    return bridges


def embed_clusters(net: NetworkSpec, cmap: ClusterMap) -> tuple[NetworkSpec, ClusterMap]:
    """Augment interest sets until every cluster is connected.

    For each disconnected cluster, bridge agents along shortest paths
    between its components (lowest-id tie-breaking) receive the block in
    their interest set; their cost contribution for that block is the
    zero function, so the optimization problem is unchanged. Bridging
    requires the full graph to be connected. Idempotent; already-connected
    maps are returned as-is, after one connectivity pass.
    """
    bad = validate_connectivity(net, cmap)
    if not bad:
        return net, cmap
    if not net.is_connected():
        raise NetworkDisconnected("cannot embed clusters: the full graph is disconnected")
    adj = net.adjacency()
    sets = list(net.interest_sets)  # NetworkSpec sorts the blocks added here
    for l in bad:
        for k in _bridge_nodes(adj, cmap.clusters[l]):
            sets[k] += (l,)
    new = NetworkSpec(net.agent_count, net.edges, tuple(sets))
    return new, build_clusters(new, cmap.layout)
