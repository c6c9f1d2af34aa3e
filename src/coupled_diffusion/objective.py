"""Per-agent risks, constraints, penalty functions, and gradient oracles.

Penalty functions return (value, derivative) pairs and accept scalars or
arrays. The penalty weight eta is applied by the engine, not here, so a
single evaluation serves multiple eta values in sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        object.__setattr__(self, "_scaled_basis", self.basis * np.sqrt(self.spectrum))
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
        basis, w_ref = np.zeros((dim, self.rank)), np.zeros(dim)
        basis[positions], w_ref[positions] = self.basis, self.w_ref
        return QuadraticRiskOracle(basis, self.spectrum, w_ref, self.noise_std)


def random_orthogonal(dim: int, rng) -> np.ndarray:
    """Haar-ish orthogonal matrix via QR with sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


SPECTRUM_RANGE = (1.0, 3.0)  # covariance eigenvalues of a random oracle
NOISE_DB_RANGE = (-30.0, -20.0)  # its noise power, in dB


def random_quadratic_oracle(w_ref: np.ndarray, rng) -> QuadraticRiskOracle:
    """Random oracle: orthogonal basis, spectrum uniform in SPECTRUM_RANGE,
    noise power drawn uniformly in NOISE_DB_RANGE (dB) and converted via
    sigma^2 = 10^(dB/10)."""
    w_ref = np.asarray(w_ref, dtype=float)
    dim = w_ref.shape[0]
    basis = random_orthogonal(dim, rng)
    spectrum = rng.uniform(*SPECTRUM_RANGE, size=dim)
    noise_db = rng.uniform(*NOISE_DB_RANGE)
    noise_std = float(np.sqrt(10.0 ** (noise_db / 10.0)))
    return QuadraticRiskOracle(basis=basis, spectrum=spectrum, w_ref=w_ref, noise_std=noise_std)


@dataclass(frozen=True)
class MultiAgentProblem:
    """A full problem instance: topology, per-agent oracles, constraints."""

    net: NetworkSpec
    cmap: ClusterMap
    oracles: tuple
    constraints: tuple[tuple[ConstraintSpec, ...], ...]
    penalty: PenaltyConfig
    true_model: Optional[np.ndarray] = None
    # (oracles, cmap, H, f) of the last global_risk_quadratic assembly
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

    def global_risk_quadratic(self) -> tuple[np.ndarray, np.ndarray]:
        """Hessian H = sum_k lift(2 R_k) and linear term f = sum_k lift(2 R_k w_ref_k)
        of the aggregate risk, so grad J_glob(w) = H w - f.

        Both are assembled once and are read-only. A problem made from this
        one by `dataclasses.replace` with the same oracles and cluster map,
        such as a fresh constraint draw, shares them.
        """
        cached = self._risk_quadratic
        if cached is None or cached[0] is not self.oracles or cached[1] is not self.cmap:
            cached = (self.oracles, self.cmap) + self._assemble_risk_quadratic()
            object.__setattr__(self, "_risk_quadratic", cached)
        return cached[2:]

    def _assemble_risk_quadratic(self) -> tuple[np.ndarray, np.ndarray]:
        m = self.layout.total_dim
        hess = np.zeros((m, m))
        lin = np.zeros(m)
        for k, o in enumerate(self.oracles):
            gidx = self.cmap.global_indices(k)
            cov2 = 2.0 * o.covariance
            hess[np.ix_(gidx, gidx)] += cov2
            lin[gidx] += cov2 @ o.w_ref
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
        grad = np.zeros(self.layout.total_dim)
        for k, o in enumerate(self.oracles):
            gidx = self.cmap.global_indices(k)
            grad[gidx] += o.true_gradient(w[gidx])
        return grad

    def global_penalty_gradient(self, w: np.ndarray) -> np.ndarray:
        """Exact aggregate penalty gradient at a global vector (no eta)."""
        grad = np.zeros(self.layout.total_dim)
        for k, cons in enumerate(self.constraints):
            if not cons:
                continue
            gidx = self.cmap.global_indices(k)
            grad[gidx] += penalty_gradient(cons, w[gidx], self.penalty)
        return grad
