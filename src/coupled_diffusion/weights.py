"""Per-cluster combination matrices, Perron vectors, and step scalings.

Matrices are stored with the convention A[s, k]: column k holds the
weights agent k applies to the half-step iterates received from agents s
in its neighborhood intersected with the cluster. Columns sum to one
(left-stochastic); Metropolis matrices are also symmetric and therefore
doubly stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DisconnectedCluster, NotPrimitive
from .topology import ClusterMap, NetworkSpec, cluster_connected

PERRON_RESIDUAL_TOL = 1e-10
MAX_DENSE_EIG = 100


@dataclass(frozen=True)
class CombinationMatrix:
    """Weights for one cluster together with its spectral data."""

    agents: tuple[int, ...]
    matrix: np.ndarray
    perron: np.ndarray
    lambda2: float


def _cluster_neighbor_counts(cmap: ClusterMap, net: NetworkSpec, block: int) -> dict[int, list[int]]:
    """For each cluster member, its neighbors within the cluster (self included)."""
    members = set(cmap.clusters[block])
    out = {}
    for k in cmap.clusters[block]:
        out[k] = [s for s in net.neighborhood(k) if s in members]
    return out


def _require_connected(cmap: ClusterMap, net: NetworkSpec, block: int):
    if not cluster_connected(net, cmap.clusters[block]):
        raise DisconnectedCluster(f"cluster of block {block} is not connected")


def metropolis_weights(cmap: ClusterMap, net: NetworkSpec, block: int) -> CombinationMatrix:
    """Metropolis rule: a_sk = 1/max{n_k, n_s} for cluster neighbors s != k,
    self weight fills the column to one. Doubly stochastic and symmetric."""
    _require_connected(cmap, net, block)
    agents = cmap.clusters[block]
    nbrs = _cluster_neighbor_counts(cmap, net, block)
    counts = {k: len(nbrs[k]) for k in agents}
    n = len(agents)
    a = np.zeros((n, n))
    for j, k in enumerate(agents):
        for s in nbrs[k]:
            if s == k:
                continue
            a[agents.index(s), j] = 1.0 / max(counts[k], counts[s])
        a[j, j] = 1.0 - a[:, j].sum()
    return _finish(agents, a)


def averaging_weights(cmap: ClusterMap, net: NetworkSpec, block: int) -> CombinationMatrix:
    """Averaging rule: a_sk = 1/n_k for every cluster neighbor s of k.
    Left-stochastic but in general not doubly stochastic."""
    _require_connected(cmap, net, block)
    agents = cmap.clusters[block]
    nbrs = _cluster_neighbor_counts(cmap, net, block)
    n = len(agents)
    a = np.zeros((n, n))
    for j, k in enumerate(agents):
        for s in nbrs[k]:
            a[agents.index(s), j] = 1.0 / len(nbrs[k])
    return _finish(agents, a)


def _finish(agents, a) -> CombinationMatrix:
    r, lam2 = perron_vector(a)
    return CombinationMatrix(agents=agents, matrix=a, perron=r, lambda2=lam2)


def _unit_eigenpair(a: np.ndarray, vectors: bool):
    """Split a dense eigendecomposition at the eigenvalue nearest one.

    Returns that eigenvalue's eigenvector (None unless `vectors`) and the
    largest magnitude among the other eigenvalues. Raises NotPrimitive when
    that magnitude reaches one (reducible or periodic matrices); clusters
    beyond desk scale are rejected.
    """
    n = a.shape[0]
    if n > MAX_DENSE_EIG:
        raise ConfigError(f"cluster size {n} exceeds dense eigensolver limit {MAX_DENSE_EIG}")
    eig, vecs = np.linalg.eig(a) if vectors else (np.linalg.eigvals(a), None)
    unit = int(np.argmin(np.abs(eig - 1.0)))
    lam2 = float(np.abs(np.delete(eig, unit)).max(initial=0.0))
    if lam2 >= 1.0 - 1e-10:
        raise NotPrimitive(f"second eigenvalue magnitude {lam2} is too close to one")
    return (None if vecs is None else vecs[:, unit]), lam2


def perron_vector(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Positive unit-sum right eigenvector of a left-stochastic matrix at 1,
    and the second-eigenvalue magnitude, from one eigendecomposition.

    The eigenvector of the eigenvalue nearest one, divided by its sum,
    which also removes its complex phase. Raises NotPrimitive for reducible
    or periodic matrices, non-positive entries or a residual above
    PERRON_RESIDUAL_TOL.
    """
    a = np.asarray(a, dtype=float)
    vec, lam2 = _unit_eigenpair(a, vectors=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (vec / vec.sum()).real
    if not np.all(x > 0):
        raise NotPrimitive("Perron vector has non-positive entries")
    if np.max(np.abs(a @ x - x)) > PERRON_RESIDUAL_TOL:
        raise NotPrimitive("eigenvector residual too large")
    return x, lam2


def second_eigenvalue_magnitude(a: np.ndarray) -> float:
    """Largest |eigenvalue| after removing one instance of the value 1."""
    return _unit_eigenpair(np.asarray(a, dtype=float), vectors=False)[1]


def step_scaling(cmap: ClusterMap, matrices: dict[int, CombinationMatrix]) -> np.ndarray:
    """The step scalings 1/r_l(k) along the flat layout: every entry of
    agent k's copy of block l holds 1/r_l(k), so that the two gradient
    half-steps reduce to elementwise multiplies."""
    flat = np.empty(cmap.total_local_dim)
    for l, dim in enumerate(cmap.layout.dims):
        flat[cmap.flat_cluster_indices(l)] = np.repeat(1.0 / matrices[l].perron, dim)
    return flat


def spectral_gap_bound(matrices: dict[int, CombinationMatrix]) -> float:
    """max over clusters of the second-eigenvalue magnitude (rate predictor)."""
    return max((m.lambda2 for m in matrices.values()), default=0.0)
