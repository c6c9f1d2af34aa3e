"""Agent graph, block partition, interest sets, and cluster machinery.

Agents and blocks are 0-indexed everywhere in this module. Loaders that
accept 1-based external files normalize before constructing these types.
All types are immutable after construction and safe to share across
concurrent runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate

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

    def global_slice(self, block: int) -> slice:
        start = self.offsets[block]
        return slice(start, start + self.dims[block])


@dataclass(frozen=True)
class NetworkSpec:
    """Undirected agent graph plus per-agent block interest sets."""

    agent_count: int
    edges: frozenset[tuple[int, int]]
    interest_sets: tuple[tuple[int, ...], ...]
    _adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.agent_count < 1:
            raise ConfigError("agent_count must be positive")
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise ConfigError(f"self-loop edge ({a},{b}) not allowed")
            if not (0 <= a < self.agent_count and 0 <= b < self.agent_count):
                raise ConfigError(f"edge ({a},{b}) references unknown agent")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))
        if len(self.interest_sets) != self.agent_count:
            raise ConfigError("need one interest set per agent")
        if any(len(s) == 0 for s in self.interest_sets):
            raise ConfigError("every interest set must be non-empty")
        object.__setattr__(
            self,
            "interest_sets",
            tuple(tuple(sorted(set(int(l) for l in s))) for s in self.interest_sets),
        )
        adj = [[] for _ in range(self.agent_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "_adjacency", tuple(tuple(sorted(n)) for n in adj))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists, self excluded."""
        return self._adjacency

    def neighborhood(self, agent: int) -> tuple[int, ...]:
        """Neighbors of `agent` including the agent itself."""
        return tuple(sorted(self._adjacency[agent] + (agent,)))

    def is_connected(self) -> bool:
        seen = _bfs_reach(self.adjacency(), [0])
        return len(seen) == self.agent_count


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

    def gather_local(self, global_vec: np.ndarray, agent: int) -> np.ndarray:
        """Restrict a global vector to agent k's blocks."""
        return np.asarray(global_vec)[self.global_indices(agent)]

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
    members = [[] for _ in range(L)]
    for k, blocks in enumerate(net.interest_sets):
        for l in blocks:
            if l >= L or l < 0:
                raise InvalidBlockIndex(
                    f"agent {k} is interested in block {l}, layout has {L} blocks"
                )
            members[l].append(k)
    clusters = tuple(map(tuple, members))
    for l, c in enumerate(clusters):
        if not c:
            raise EmptyCluster(f"block {l} appears in no interest set")

    local_dims = tuple(
        sum(layout.dims[l] for l in blocks) for blocks in net.interest_sets
    )
    span = np.arange(layout.total_dim)
    flat_global = np.concatenate(
        [span[layout.global_slice(l)] for blocks in net.interest_sets for l in blocks]
    )
    # an agent holds a block once, so the flat entries of block l, in flat
    # order, are its copies in cluster order; a stable sort keeps that order
    flat_block = np.repeat(np.arange(L), layout.dims)[flat_global]
    by_block = np.argsort(flat_block, kind="stable")
    ends = np.cumsum(np.bincount(flat_block, minlength=L))
    flat_cluster_idx = tuple(np.split(by_block, ends[:-1]))

    return ClusterMap(
        layout=layout,
        clusters=clusters,
        agent_blocks=net.interest_sets,
        local_dims=local_dims,
        agent_starts=tuple(accumulate((0,) + local_dims[:-1])),
        flat_global_indices=flat_global,
        padded_cluster_indices=_pad_clusters(flat_cluster_idx, clusters, layout.dims),
        _flat_cluster_idx=flat_cluster_idx,
    )


def _pad_clusters(flat_cluster_idx, clusters, dims) -> np.ndarray:
    n_max, m_max = max(len(c) for c in clusters), max(dims)
    out = np.empty((len(clusters), n_max, m_max), dtype=np.intp)
    for l, idx in enumerate(flat_cluster_idx):
        n, m = len(clusters[l]), dims[l]
        out[l] = idx[0]
        out[l, :, :m] = idx[:m]
        out[l, :n, :m] = idx.reshape(n, m)
    return out


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
        # multi-source BFS from the merged component over the full graph
        dist = {u: 0 for u in merged}
        parent = {}
        queue = deque(sorted(merged))
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif dist[v] == dist[u] + 1 and parent.get(v, u) > u:
                    parent[v] = u  # lowest-id predecessor at equal depth
        reach = [t for t in others if t in dist]
        if not reach:
            raise NetworkDisconnected("cluster components lie in different graph components")
        target = min(reach, key=lambda t: (dist[t], t))
        node = target
        while node not in merged:
            if node != target:
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
    sets = [set(s) for s in net.interest_sets]
    for l in bad:
        for k in _bridge_nodes(adj, cmap.clusters[l]):
            sets[k].add(l)
    new = NetworkSpec(net.agent_count, net.edges, tuple(sets))
    return new, build_clusters(new, cmap.layout)
