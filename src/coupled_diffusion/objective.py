"""Per-agent risks, constraints, penalty functions, and gradient oracles.

Penalty functions return (value, derivative) pairs and accept scalars or
arrays. The penalty weight eta is applied by the engine, not here, so a
single evaluation serves multiple eta values in sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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


def ep_penalty(x):
    """Equality penalty x**2 with derivative 2x."""
    x = np.asarray(x, dtype=float)
    return x * x, 2.0 * x


def ip_penalty(x, rho: float):
    """Inequality penalty max(0, x^3 / sqrt(x^2 + rho^2)) and its derivative.

    Zero with zero slope on x <= 0; both value and derivative are
    continuous at the origin.
    """
    x = np.asarray(x, dtype=float)
    pos = x > 0
    xp = np.where(pos, x, 0.0)
    root = np.sqrt(xp * xp + rho * rho)
    value = np.where(pos, xp**3 / root, 0.0)
    deriv = np.where(pos, xp * xp * (2 * xp * xp + 3 * rho * rho) / root**3, 0.0)
    return value, deriv


@dataclass(frozen=True)
class ConstraintSpec:
    """One local affine constraint c'w_k - b = 0 or <= 0 owned by a single
    agent. Only equalities run: `MultiAgentProblem.constraint_system`
    rejects any other kind."""

    kind: str  # "equality" | "inequality"
    owner: int
    coeffs: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def evaluate(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """Constraint value and gradient at w."""
        if self.coeffs.shape != w.shape:
            raise DimensionMismatch(
                f"constraint expects dim {self.coeffs.shape[0]}, got {w.shape[0]}"
            )
        return float(self.coeffs @ w - self.offset), self.coeffs


def equality(owner: int, coeffs, offset: float) -> ConstraintSpec:
    return ConstraintSpec(kind="equality", owner=owner, coeffs=coeffs, offset=offset)


def penalty_gradient(constraints, w: np.ndarray, cfg: PenaltyConfig) -> np.ndarray:
    """Gradient of the summed penalty at w (without the eta factor)."""
    grad = np.zeros_like(np.asarray(w, dtype=float))
    for c in constraints:
        val, cgrad = c.evaluate(w)
        if c.kind == "equality":
            grad += float(ep_penalty(val)[1]) * cgrad
        else:
            grad += float(ip_penalty(val, cfg.rho)[1]) * cgrad
    return grad


@dataclass(frozen=True)
class QuadraticRiskOracle:
    """Streaming least-squares risk E(h'w - y)^2 with y = h'w_ref + noise.

    Features h are Gaussian with covariance basis @ diag(spectrum) @ basis'.
    The basis is (dim, rank) with orthonormal columns; its zero rows are
    coordinates the risk does not depend on, such as the blocks cluster
    embedding gives a bridge agent (see `embedded`). The oracle holds the
    risk and its exact gradient; the engine draws the samples of h and of
    the noise (`engine._RiskGradients`).

    The scaled basis `basis sqrt(spectrum)` and the covariance are derived
    here unless the caller passes them, computed from the same basis and
    spectrum with the same bits (`random_quadratic_oracles`, `embedded`).
    """

    basis: np.ndarray  # orthonormal columns
    spectrum: np.ndarray  # diagonal of the covariance eigenvalues
    w_ref: np.ndarray
    noise_std: float
    _scaled_basis: np.ndarray = field(repr=False, default=None)
    _covariance: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "spectrum", np.asarray(self.spectrum, dtype=float))
        object.__setattr__(self, "w_ref", np.asarray(self.w_ref, dtype=float))
        if self._scaled_basis is None:
            object.__setattr__(self, "_scaled_basis", self.basis * np.sqrt(self.spectrum))
        if self._covariance is None:
            object.__setattr__(self, "_covariance", (self.basis * self.spectrum) @ self.basis.T)

    @property
    def dim(self) -> int:
        return self.w_ref.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def covariance(self) -> np.ndarray:
        return self._covariance

    def true_gradient(self, w: np.ndarray) -> np.ndarray:
        if w.shape != self.w_ref.shape:
            raise DimensionMismatch(f"expected dim {self.dim}, got {w.shape}")
        return 2.0 * (self._covariance @ (w - self.w_ref))

    def risk(self, w: np.ndarray) -> float:
        d = w - self.w_ref
        return float(d @ self.covariance @ d) + self.noise_std**2

    def embedded(self, positions, dim: int) -> "QuadraticRiskOracle":
        """The same risk on a dim-vector whose `positions` hold this oracle's
        coordinates; the other coordinates get zero basis rows, so they cost
        nothing and the rank does not change."""
        basis, scaled = np.zeros((dim, self.rank)), np.zeros((dim, self.rank))
        w_ref, covariance = np.zeros(dim), np.zeros((dim, dim))
        basis[positions], scaled[positions], w_ref[positions] = (
            self.basis, self._scaled_basis, self.w_ref)
        # a zero basis row adds exact zeros to every product it enters
        covariance[np.ix_(positions, positions)] = self._covariance
        return QuadraticRiskOracle(basis, self.spectrum, w_ref, self.noise_std, scaled, covariance)


SPECTRUM_RANGE = (1.0, 3.0)  # covariance eigenvalues of a random oracle
NOISE_DB_RANGE = (-30.0, -20.0)  # its noise power, in dB


def random_quadratic_oracles(w_refs, rng) -> list:
    """One random oracle per vector of `w_refs`: a Haar-ish orthogonal
    basis, a spectrum uniform in SPECTRUM_RANGE and a noise power drawn
    uniformly in NOISE_DB_RANGE (dB), converted via sigma^2 = 10^(dB/10).

    The draws come oracle by oracle, in order: the dim x dim normals of
    the basis, the spectrum, the noise power. The oracles of one dimension
    are then built together: one stacked QR, whose R gets a positive
    diagonal by a sign fix of Q, and one batched product each for the
    scaled bases and the covariances. A stacked QR or product computes each
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
        spectra = np.stack([draws[k][1] for k in members])[:, None, :]
        scaled = q * np.sqrt(spectra)
        covariances = (q * spectra) @ q.transpose(0, 2, 1)
        for k, basis, s, c in zip(members, q, scaled, covariances):
            _, spectrum, noise_db = draws[k]
            oracles[k] = QuadraticRiskOracle(basis, spectrum, w_refs[k],
                                             float(np.sqrt(10.0 ** (noise_db / 10.0))), s, c)
    return oracles


@dataclass(frozen=True)
class OracleStack:
    """Every agent's quadratic oracle in one zero-padded array per field.

    Agent k's Q_k coordinates fill row k up to Q = max Q_k and its R_k
    basis columns fill up to R = max R_k; the padding is zero, so padded
    cells add nothing to a product. The arrays are read-only.
    """

    covariance: np.ndarray  # (N, Q, Q)
    scaled_basis: np.ndarray  # (N, Q, R): basis sqrt(spectrum)
    w_ref: np.ndarray  # (N, Q)
    noise_std: np.ndarray  # (N,)
    ranks: np.ndarray  # (N,)
    # (N, Q) whether a cell is one of the agent's coordinates; the real
    # cells, in row-major order, are the flat layout itself
    valid: np.ndarray
    # (N, Q) flat-layout index of each cell; a padded cell reads entry 0
    gather: np.ndarray

    def true_gradient(self, z: np.ndarray) -> np.ndarray:
        """Every agent's exact risk gradient 2 R_k (z_k - w_ref_k) at the
        padded (N, Q) points z; padded cells read zero."""
        return 2.0 * (self.covariance @ (z - self.w_ref)[..., None])[..., 0]


def stack_oracles(oracles, cmap: ClusterMap) -> OracleStack:
    """The OracleStack of per-agent quadratic oracles on the flat layout of
    `cmap`."""
    dims = np.array(cmap.local_dims)
    ranks = np.array([o.rank for o in oracles])
    width, depth = int(dims.max()), int(ranks.max())
    valid = np.arange(width) < dims[:, None]
    in_rank = np.arange(depth) < ranks[:, None]
    covariance = np.zeros((len(dims), width, width))
    scaled_basis = np.zeros((len(dims), width, depth))
    w_ref = np.zeros((len(dims), width))
    # a boolean mask visits the cells in row-major order: agent by agent,
    # and within an agent in the order of its own arrays
    covariance[valid[:, :, None] & valid[:, None, :]] = np.concatenate(
        [o.covariance.ravel() for o in oracles])
    scaled_basis[valid[:, :, None] & in_rank[:, None, :]] = np.concatenate(
        [o._scaled_basis.ravel() for o in oracles])
    w_ref[valid] = np.concatenate([o.w_ref for o in oracles])
    gather = np.where(valid, np.array(cmap.agent_starts)[:, None] + np.arange(width), 0)
    stack = OracleStack(covariance=covariance, scaled_basis=scaled_basis, w_ref=w_ref,
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
    constraints: tuple[tuple[ConstraintSpec, ...], ...]
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
        for k, cons in enumerate(self.constraints):
            for c in cons:
                if c.owner != k:
                    raise ValueError(f"constraint owned by {c.owner} listed under agent {k}")

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

    def _global_cells(self, stack: OracleStack) -> np.ndarray:
        """(N, Q) global-vector index of each cell of the oracle stack."""
        return self.cmap.flat_global_indices[stack.gather]

    def _assemble_risk_quadratic(self) -> tuple[np.ndarray, np.ndarray]:
        """Each entry sums its agents' terms in agent order, from zero, as
        adding agent by agent into zeroed arrays would: bincount adds its
        weights in the order given, and an agent holds each index once."""
        stack, m = self.oracle_stack(), self.layout.total_dim
        cells = self._global_cells(stack)
        pairs = stack.valid[:, :, None] & stack.valid[:, None, :]
        cov2 = 2.0 * stack.covariance
        hess = np.bincount((cells[:, :, None] * m + cells[:, None, :])[pairs],
                           weights=cov2[pairs], minlength=m * m).reshape(m, m)
        # one batched product per local dimension q on the unpadded (q, q)
        # blocks, which gives each agent the bits of its own product; a
        # padded product rounds differently
        dims = np.asarray(self.cmap.local_dims)
        terms = np.zeros(stack.w_ref.shape)
        for q in set(self.cmap.local_dims):
            agents = np.flatnonzero(dims == q)
            terms[agents, :q] = (cov2[agents, :q, :q] @ stack.w_ref[agents, :q, None])[..., 0]
        lin = np.bincount(cells[stack.valid], weights=terms[stack.valid], minlength=m)
        hess.flags.writeable = lin.flags.writeable = False
        return hess, lin

    def constraint_system(self, flat: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Lifted equality constraints G w = b, one row per constraint, on the
        global vector or, with `flat`, on the flat layout of local copies.

        Every run path and reference solve takes its constraints from here,
        so this is where any kind but an affine equality is rejected."""
        cmap = self.cmap
        width = cmap.total_local_dim if flat else self.layout.total_dim
        rows, rhs = [], []
        for k, cons in enumerate(self.constraints):
            index = cmap.flat_slice(k) if flat else cmap.global_indices(k)
            for c in cons:
                if c.kind != "equality":
                    raise ConfigError(f"agent {k} has a constraint of kind {c.kind!r}; only "
                                      "affine equality constraints are supported")
                row = np.zeros(width)
                row[index] = c.coeffs
                rows.append(row)
                rhs.append(c.offset)
        return np.array(rows).reshape(-1, width), np.array(rhs, dtype=float)

    def strong_convexity(self) -> float:
        """Smallest eigenvalue of the assembled global risk Hessian."""
        hess, _ = self.global_risk_quadratic()
        return float(np.linalg.eigvalsh(hess)[0])

    def penalty_lipschitz(self) -> float:
        """Gradient-Lipschitz bound for the affine-constraint penalties."""
        worst = 0.0
        for cons in self.constraints:
            total = sum(2.0 * float(c.coeffs @ c.coeffs) for c in cons)
            worst = max(worst, total)
        return worst

    def global_risk_gradient(self, w: np.ndarray) -> np.ndarray:
        """Exact aggregate risk gradient at a global vector."""
        stack = self.oracle_stack()
        cells = self._global_cells(stack)
        grad = stack.true_gradient(np.asarray(w, dtype=float)[cells])
        return np.bincount(cells[stack.valid], weights=grad[stack.valid],
                           minlength=self.layout.total_dim)

    def global_penalty_gradient(self, w: np.ndarray) -> np.ndarray:
        """Exact aggregate penalty gradient at a global vector (no eta)."""
        grad = np.zeros(self.layout.total_dim)
        for k, cons in enumerate(self.constraints):
            if not cons:
                continue
            gidx = self.cmap.global_indices(k)
            grad[gidx] += penalty_gradient(cons, w[gidx], self.penalty)
        return grad
