"""Per-cluster combination matrices, Perron vectors, and step scalings.

Matrices are stored with the convention A[s, k]: column k holds the
weights agent k applies to the half-step iterates received from agents s
in its neighborhood intersected with the cluster. Columns sum to one
(left-stochastic); Metropolis matrices are also symmetric and therefore
doubly stochastic.

Both rules have their Perron vector in closed form, so the run path
makes no eigendecomposition. With n_k agent k's closed cluster
neighbourhood count (self included), the Perron vector is r_k = w_k / sum w
with w = 1 (Metropolis: r = 1/N_l) or w = n (averaging: r_k = n_k / sum n).
Every cluster is connected and both rules put positive weight on the
diagonal, so every matrix is primitive by construction. The
second-eigenvalue magnitude, which only the analysis functions need, is
computed on demand from the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DisconnectedCluster, NotPrimitive
from .topology import ClusterMap, NetworkSpec, cluster_connected

MAX_DENSE_EIG = 100


@dataclass(frozen=True)
class CombinationMatrix:
    """Weights for one cluster, its Perron vector r and the step scalings
    1/r, each entry computed as one correctly rounded division, so that a
    Metropolis cluster's scalings equal N_l exactly. Rows and columns follow
    the cluster's agents, `ClusterMap.clusters[l]`."""

    matrix: np.ndarray
    perron: np.ndarray
    scaling: np.ndarray


def _closed_neighbourhoods(cmap: ClusterMap, net: NetworkSpec, block: int):
    """The cluster's (n, n) closed-neighbourhood indicator
    (near[i, j] = 1 when agents i and j are equal or adjacent) and the
    column counts n_k."""
    agents = cmap.clusters[block]
    if not cluster_connected(net, agents):
        raise DisconnectedCluster(f"cluster of block {block} is not connected")
    # one walk over the members' neighbour lists and one scatter: at cluster
    # sizes of 5-20 this costs half of an array pass over the whole graph
    adj, place = net.adjacency(), {k: j for j, k in enumerate(agents)}
    rows, cols = [], []
    for j, k in enumerate(agents):
        for s in adj[k]:
            i = place.get(s)
            if i is not None:
                rows.append(i)
                cols.append(j)
    near = np.eye(len(agents))
    near[rows, cols] = 1.0
    return near, near.sum(axis=0).astype(int)


def metropolis_weights(cmap: ClusterMap, net: NetworkSpec, block: int) -> CombinationMatrix:
    """Metropolis rule: a_sk = 1/max{n_k, n_s} for cluster neighbors s != k,
    self weight fills the column to one. Doubly stochastic and symmetric."""
    near, counts = _closed_neighbourhoods(cmap, net, block)
    np.fill_diagonal(near, 0.0)
    a = np.where(near > 0, 1.0 / np.maximum.outer(counts, counts), 0.0)
    # each column summed on its own, contiguously, as a 1-D sum of it would;
    # a.sum(axis=0) or a zero-padded sum rounds some columns differently
    np.fill_diagonal(a, 1.0 - np.ascontiguousarray(a.T).sum(axis=1))
    return _finish(a, np.ones(len(counts), dtype=int))


def averaging_weights(cmap: ClusterMap, net: NetworkSpec, block: int) -> CombinationMatrix:
    """Averaging rule: a_sk = 1/n_k for every cluster neighbor s of k.
    Left-stochastic but in general not doubly stochastic."""
    near, counts = _closed_neighbourhoods(cmap, net, block)
    return _finish(near / counts, counts)


def _finish(a, w) -> CombinationMatrix:
    """Perron vector w / sum(w) and scalings sum(w) / w of the integer
    weights w, each a single division."""
    total = w.sum()
    return CombinationMatrix(matrix=a, perron=w / total, scaling=total / w)


def second_eigenvalue_magnitude(a: np.ndarray) -> float:
    """Largest |eigenvalue| after removing one instance of the value 1.

    Raises NotPrimitive when that magnitude reaches one (reducible or
    periodic matrices); matrices beyond desk scale are rejected.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[0] > MAX_DENSE_EIG:
        raise ConfigError(f"cluster size {a.shape[0]} exceeds dense eigensolver limit {MAX_DENSE_EIG}")
    eig = np.linalg.eigvals(a)
    lam2 = float(np.abs(np.delete(eig, np.argmin(np.abs(eig - 1.0)))).max(initial=0.0))
    if lam2 >= 1.0 - 1e-10:
        raise NotPrimitive(f"second eigenvalue magnitude {lam2} is too close to one")
    return lam2


def step_scaling(cmap: ClusterMap, matrices: dict[int, CombinationMatrix]) -> np.ndarray:
    """The step scalings 1/r_l(k) along the flat layout: every entry of
    agent k's copy of block l holds 1/r_l(k), so that the two gradient
    half-steps reduce to elementwise multiplies."""
    scalings = [matrices[l].scaling for l in range(cmap.layout.block_count)]
    return cmap.member_values(np.concatenate(scalings))


def spectral_gap_bound(matrices: dict[int, CombinationMatrix]) -> float:
    """max over clusters of the second-eigenvalue magnitude (rate predictor)."""
    return max((second_eigenvalue_magnitude(m.matrix) for m in matrices.values()), default=0.0)
