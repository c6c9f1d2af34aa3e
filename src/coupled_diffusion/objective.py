"""Per-agent risks, constraints, the penalty gradient, and gradient oracles.

A problem's constraints are one `ConstraintRows` record of affine
equality rows (G, b), lifted once to the flat layout and to the global
vector. The penalty ||G w - b||^2 has the gradient `row_penalty_gradient`;
the penalty weight eta is applied by the engine and `global_gradient`, not
here, so a single evaluation serves multiple eta values in sweeps.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .topology import BlockLayout, ClusterMap, NetworkSpec


@dataclass(frozen=True)
class PenaltyConfig:
    """Inequality smoothing parameter; the penalty weight eta is the engine's."""

    rho: float = 1.0

    def __post_init__(self):
        if self.rho <= 0:
            raise ConfigError("rho must be positive")


@dataclass(frozen=True)
class ConstraintRows:
    """Affine equality rows c'w_k = b, each owned by one agent k and
    given as local_dims[k] coefficients on k's local vector, kept
    zero-padded to (C, Q max local dim). The rows are sorted by owner,
    stably; the penalty sums over them in that order. The flat and global
    G are derived once, and every array is read-only."""

    cmap: InitVar[ClusterMap]
    owner: np.ndarray  # (C,)
    coeffs: np.ndarray  # (C, Q)
    offset: np.ndarray  # (C,): b
    g_flat: np.ndarray = field(init=False, repr=False)  # (C, n_flat)
    g_global: np.ndarray = field(init=False, repr=False)  # (C, M)

    def __post_init__(self, cmap: ClusterMap):
        owner = np.array(self.owner, dtype=np.intp)
        offset = np.array(self.offset, dtype=float)
        n, count = len(cmap.local_dims), owner.size
        if not len(self.coeffs) == offset.size == count:
            raise DimensionMismatch("each constraint row needs one owner, coefficients, offset")
        outside = owner[(owner < 0) | (owner >= n)]
        if outside.size:
            raise ConfigError(f"a constraint names agent {outside[0]}, but there are {n} agents")
        dims = np.array(cmap.local_dims, dtype=np.intp)[owner]
        sizes = np.fromiter(map(np.size, self.coeffs), dtype=np.intp, count=count)
        if np.any(sizes != dims):
            c = np.argmax(sizes != dims)
            raise DimensionMismatch(f"a constraint of agent {owner[c]} has {sizes[c]} "
                                    f"coefficients, layout expects {dims[c]}")
        valid = np.arange(max(cmap.local_dims)) < dims[:, None]
        coeffs = np.zeros(valid.shape)
        coeffs[valid] = np.concatenate([np.zeros(0), *self.coeffs], axis=None)
        order = np.argsort(owner, kind="stable")
        owner, offset, coeffs, valid = owner[order], offset[order], coeffs[order], valid[order]
        rows, cells = np.nonzero(valid)
        flat = np.array(cmap.agent_starts, dtype=np.intp)[owner[rows]] + cells
        g_flat = np.zeros((count, cmap.total_local_dim))
        g_flat[rows, flat] = coeffs[valid]
        g_global = np.zeros((count, cmap.layout.total_dim))
        g_global[rows, cmap.flat_global_indices[flat]] = coeffs[valid]
        for name, value in (("owner", owner), ("coeffs", coeffs), ("offset", offset),
                            ("g_flat", g_flat), ("g_global", g_global)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def row_penalty_gradient(rows, w: np.ndarray) -> np.ndarray:
    """Gradient G'(2 (G w - b)) of the penalty ||G w - b||^2 of the lifted
    rows (G, b) at w, without the eta factor; w and b may carry one column
    per run."""
    g, b = rows
    return g.T @ (2.0 * (g @ w - b))


@dataclass(frozen=True)
class QuadraticRiskOracle:
    """Streaming least-squares risk E(h'w - y)^2 with y = h'w_ref + noise.

    Features h are Gaussian with covariance basis @ diag(spectrum) @ basis'.
    The basis is (dim, rank) with orthonormal columns; its zero rows are
    coordinates the risk does not depend on, such as the blocks cluster
    embedding gives a bridge agent (see `embedded`). The oracle is a plain
    record of the risk; `stack_oracles` derives the scaled bases,
    covariances and linear terms that the engine and the reference solves
    read, and the engine draws the samples of h and of the noise
    (`engine._RiskGradients`).
    """

    basis: np.ndarray  # orthonormal columns
    spectrum: np.ndarray  # diagonal of the covariance eigenvalues
    w_ref: np.ndarray
    noise_std: float

    def __post_init__(self):
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "spectrum", np.asarray(self.spectrum, dtype=float))
        object.__setattr__(self, "w_ref", np.asarray(self.w_ref, dtype=float))

    @property
    def dim(self) -> int:
        return self.w_ref.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def covariance(self) -> np.ndarray:
        return (self.basis * self.spectrum) @ self.basis.T

    def true_gradient(self, w: np.ndarray) -> np.ndarray:
        if w.shape != self.w_ref.shape:
            raise DimensionMismatch(f"expected dim {self.dim}, got {w.shape}")
        return 2.0 * (self.covariance @ (w - self.w_ref))

    def risk(self, w: np.ndarray) -> float:
        d = w - self.w_ref
        return float(d @ self.covariance @ d) + self.noise_std**2

    def embedded(self, positions, dim: int) -> "QuadraticRiskOracle":
        """The same risk on a dim-vector whose `positions` hold this oracle's
        coordinates; the other coordinates get zero basis rows, so they cost
        nothing and the rank does not change."""
        basis, w_ref = np.zeros((dim, self.rank)), np.zeros(dim)
        basis[positions], w_ref[positions] = self.basis, self.w_ref
        return QuadraticRiskOracle(basis, self.spectrum, w_ref, self.noise_std)


SPECTRUM_RANGE = (1.0, 3.0)  # covariance eigenvalues of a random oracle
NOISE_DB_RANGE = (-30.0, -20.0)  # its noise power, in dB


def random_quadratic_oracles(w_refs, rng) -> list:
    """One random oracle per vector of `w_refs`: a Haar-ish orthogonal
    basis, a spectrum uniform in SPECTRUM_RANGE and a noise power drawn
    uniformly in NOISE_DB_RANGE (dB), converted via sigma^2 = 10^(dB/10).

    The draws come oracle by oracle, in order: the dim x dim normals of
    the basis, the spectrum, the noise power. The bases of one dimension
    are then orthogonalized together: one stacked QR, whose R gets a
    positive diagonal by a sign fix of Q. A stacked QR computes each
    matrix with the bits of the same call on that matrix alone.
    """
    w_refs = [np.asarray(w, dtype=float) for w in w_refs]
    draws = [(rng.standard_normal((w.shape[0], w.shape[0])),
              rng.uniform(*SPECTRUM_RANGE, size=w.shape[0]),
              rng.uniform(*NOISE_DB_RANGE)) for w in w_refs]
    by_dim = {}
    for k, w in enumerate(w_refs):
        by_dim.setdefault(w.shape[0], []).append(k)
    oracles = [None] * len(w_refs)
    for members in by_dim.values():
        q, r = np.linalg.qr(np.stack([draws[k][0] for k in members]))
        q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
        for k, basis in zip(members, q):
            _, spectrum, noise_db = draws[k]
            oracles[k] = QuadraticRiskOracle(basis, spectrum, w_refs[k],
                                             float(np.sqrt(10.0 ** (noise_db / 10.0))))
    return oracles


@dataclass(frozen=True)
class OracleStack:
    """Every agent's quadratic oracle in one zero-padded array per field.

    Agent k's Q_k coordinates fill row k up to Q = max Q_k and its R_k
    basis columns fill up to R = max R_k; the padding is zero, so padded
    cells add nothing to a product. The arrays are read-only.
    """

    covariance: np.ndarray  # (N, Q, Q): (basis spectrum) basis'
    scaled_basis: np.ndarray  # (N, Q, R): basis sqrt(spectrum)
    linear: np.ndarray  # (N, Q): 2 covariance w_ref
    w_ref: np.ndarray  # (N, Q)
    noise_std: np.ndarray  # (N,)
    ranks: np.ndarray  # (N,)
    # (N, Q) whether a cell is one of the agent's coordinates; the real
    # cells, in row-major order, are the flat layout itself
    valid: np.ndarray
    # (N, Q) flat-layout index of each cell; a padded cell reads entry 0
    gather: np.ndarray

    def true_gradient(self, x: np.ndarray) -> np.ndarray:
        """Every agent's exact risk gradient 2 R_k (x_k - w_ref_k) at the
        points x, (n_flat, C) in and out, one column per point: the padded
        cells gathered from x, and the valid cells, which in row-major
        order are the flat layout, kept."""
        z = x.take(self.gather, axis=0)
        return (2.0 * (self.covariance @ (z - self.w_ref[..., None])))[self.valid]


def stack_oracles(oracles, cmap: ClusterMap) -> OracleStack:
    """The OracleStack of per-agent quadratic oracles on the flat layout of
    `cmap`: the one place that derives the products of oracle fields the
    library runs on, and the gate that rejects any oracle but a
    QuadraticRiskOracle."""
    for k, o in enumerate(oracles):
        if not isinstance(o, QuadraticRiskOracle):
            raise ConfigError(
                f"agent {k}: the oracle stack needs quadratic risk oracles, got {type(o).__name__}"
            )
    dims = np.array(cmap.local_dims)
    ranks = np.array([o.rank for o in oracles])
    n, width, depth = len(dims), int(dims.max()), int(ranks.max())
    valid = np.arange(width) < dims[:, None]
    in_rank = np.arange(depth) < ranks[:, None]
    basis, spectrum = np.zeros((n, width, depth)), np.zeros((n, depth))
    w_ref = np.zeros((n, width))
    # a boolean mask visits the cells in row-major order: agent by agent,
    # and within an agent in the order of its own arrays
    basis[valid[:, :, None] & in_rank[:, None, :]] = np.concatenate(
        [o.basis.ravel() for o in oracles])
    spectrum[in_rank] = np.concatenate([o.spectrum for o in oracles])
    w_ref[valid] = np.concatenate([o.w_ref for o in oracles])
    covariance, linear = np.zeros((n, width, width)), np.zeros((n, width))
    # one batched product per shape (Q_k, R_k) on the unpadded blocks, which
    # gives each agent the bits of its own product; a padded product rounds
    # differently
    for q, r in set(zip(cmap.local_dims, ranks.tolist())):
        agents = np.flatnonzero((dims == q) & (ranks == r))
        b = basis[agents, :q, :r]
        cov = (b * spectrum[agents, None, :r]) @ b.transpose(0, 2, 1)
        covariance[agents, :q, :q] = cov
        linear[agents, :q] = ((2.0 * cov) @ w_ref[agents, :q, None])[..., 0]
    gather = np.where(valid, np.array(cmap.agent_starts)[:, None] + np.arange(width), 0)
    stack = OracleStack(covariance=covariance, scaled_basis=basis * np.sqrt(spectrum)[:, None, :],
                        linear=linear, w_ref=w_ref,
                        noise_std=np.array([o.noise_std for o in oracles], dtype=float),
                        ranks=ranks, valid=valid, gather=gather)
    for f in fields(stack):
        getattr(stack, f.name).flags.writeable = False
    return stack


@dataclass(frozen=True)
class MultiAgentProblem:
    """A full problem instance: topology, per-agent oracles, constraints."""

    net: NetworkSpec
    cmap: ClusterMap
    oracles: tuple
    constraints: ConstraintRows
    penalty: PenaltyConfig
    true_model: Optional[np.ndarray] = None
    # (oracles, cmap, *values) of the last oracle_stack and global_risk_quadratic
    _oracle_stack: Optional[tuple] = field(default=None, repr=False, compare=False)
    _risk_quadratic: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for k, o in enumerate(self.oracles):
            if o.dim != self.cmap.local_dims[k]:
                raise DimensionMismatch(
                    f"oracle {k} has dim {o.dim}, layout expects {self.cmap.local_dims[k]}"
                )

    @property
    def agent_count(self) -> int:
        return len(self.oracles)

    @property
    def layout(self) -> BlockLayout:
        return self.cmap.layout

    def _derived(self, name: str, build) -> tuple:
        """The values `build()` derives from the oracles and the cluster map,
        kept in field `name` and built again only when either changes. A
        problem made from this one by `dataclasses.replace` with the same
        oracles and cluster map, such as a fresh constraint draw, shares them."""
        cached = getattr(self, name)
        if cached is None or cached[0] is not self.oracles or cached[1] is not self.cmap:
            cached = (self.oracles, self.cmap) + build()
            object.__setattr__(self, name, cached)
        return cached[2:]

    def oracle_stack(self) -> OracleStack:
        """The oracles as one padded OracleStack, built once and read-only."""
        return self._derived("_oracle_stack", lambda: (stack_oracles(self.oracles, self.cmap),))[0]

    def global_risk_quadratic(self) -> tuple[np.ndarray, np.ndarray]:
        """Hessian H = sum_k lift(2 R_k) and linear term f = sum_k lift(2 R_k w_ref_k)
        of the aggregate risk, so grad J_glob(w) = H w - f; assembled once
        and read-only."""
        return self._derived("_risk_quadratic", self._assemble_risk_quadratic)

    def _assemble_risk_quadratic(self) -> tuple[np.ndarray, np.ndarray]:
        """Each entry sums its agents' terms in agent order, from zero, as
        adding agent by agent into zeroed arrays would: bincount adds its
        weights in the order given, and an agent holds each index once."""
        stack, m = self.oracle_stack(), self.layout.total_dim
        cells = self.cmap.flat_global_indices[stack.gather]  # (N, Q) global index of each cell
        pairs = stack.valid[:, :, None] & stack.valid[:, None, :]
        hess = np.bincount((cells[:, :, None] * m + cells[:, None, :])[pairs],
                           weights=2.0 * stack.covariance[pairs], minlength=m * m).reshape(m, m)
        lin = np.bincount(cells[stack.valid], weights=stack.linear[stack.valid], minlength=m)
        hess.flags.writeable = lin.flags.writeable = False
        return hess, lin

    def strong_convexity(self) -> float:
        """Smallest eigenvalue of the assembled global risk Hessian."""
        hess, _ = self.global_risk_quadratic()
        return float(np.linalg.eigvalsh(hess)[0])

    def penalty_lipschitz(self) -> float:
        """Gradient-Lipschitz bound for the affine-constraint penalties: the
        largest sum of 2 ||row||^2 over one agent's rows, 0 without rows."""
        owner, g = self.constraints.owner, self.constraints.g_flat
        return float(np.bincount(owner, weights=2.0 * (g * g).sum(axis=1),
                                 minlength=self.agent_count).max())

    def global_gradient(self, w: np.ndarray, eta: float) -> np.ndarray:
        """Exact gradient of the aggregate risk plus eta times the penalty at
        a global vector: the oracle stack's risk gradients and the flat
        rows' penalty gradient, both on the vector's flat layout, each flat
        entry then added to its global index, so neither H nor the global
        G is used."""
        flat, rows = self.cmap.flat_global_indices, self.constraints
        x = np.asarray(w, dtype=float)[flat]
        grad = self.oracle_stack().true_gradient(x[:, None])[:, 0]
        grad += eta * row_penalty_gradient((rows.g_flat, rows.offset), x)
        return np.bincount(flat, weights=grad, minlength=self.layout.total_dim)
