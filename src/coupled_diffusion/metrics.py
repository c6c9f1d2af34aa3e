"""Reference optima, deviation metrics, and empirical rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    InfeasibleConstraints,
    NonDecreasingMSD,
    SimulationError,
    SingularSystem,
    WindowTooShort,
)
from .objective import MultiAgentProblem
from .topology import ClusterMap

MIN_EIG = 1e-12
FEASIBILITY_TOL = 1e-10
STATIONARITY_TOL = 1e-8


@dataclass(frozen=True)
class ReferenceSolution:
    """Penalized optimum w*(eta) and constrained optimum w_o of a problem."""

    w_star: np.ndarray
    w_o: np.ndarray


def db(x: float) -> float:
    """Power quantity in decibels; zero (a run that sits exactly on its
    reference) is -inf dB."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)


def disagreement(w_flat: np.ndarray, cmap: ClusterMap) -> np.ndarray:
    """Per-block max pairwise distance between local copies (0 for singletons).

    `w_flat` is laid out like the engine state: an (n_flat,) vector gives
    an (L,) result, and an (n_flat, C) state, one column per run, a
    (C, L) result. All blocks are done at once on the padded cluster
    layout, gathered from `w_flat.T` straight into a C-contiguous
    (C, L, N_max, M_max) array. Each copy is first taken relative to
    member 0's copy, in the flat layout (`ClusterMap.anchor`), which keeps
    the squared distances accurate to rounding relative to the largest
    one; the padding repeats member 0's copy, now zero, and so adds no
    pairs. Squared distances come from the Gram matrix of those copies.

    Each Gram product is a general matrix product (gemm), whatever C is,
    so a column's result does not depend on how many columns share the
    call: numpy hands a product of an array with its own transpose to
    the symmetric kernel (syrk), which rounds differently, unless the
    two operands sit in separate buffers. The transposed operand is
    scaled by -2, which is exact, so the product is -2 times the Gram
    matrix bit for bit.
    """
    w = np.asarray(w_flat, dtype=float)
    copies = (w - w.take(cmap.anchor, axis=0)).T.take(cmap.padded_cluster_indices, axis=-1)
    # a C-ordered copy: it keeps the transposed operand out of `copies`'
    # buffer, and so keeps the product on gemm (see above)
    dist2 = copies @ np.multiply(np.swapaxes(copies, -1, -2), -2.0, order="C")
    sq = -0.5 * np.diagonal(dist2, axis1=-2, axis2=-1)
    dist2 += sq[..., :, None]
    dist2 += sq[..., None, :]
    return np.sqrt(np.maximum(dist2.max(axis=(-2, -1)), 0.0))


def penalized_optimum(problem: MultiAgentProblem, eta: float) -> np.ndarray:
    """Minimizer of the aggregate risk plus eta-weighted penalties, from the
    closed form (H + 2 eta G'G) w = f + 2 eta G'b."""
    hess, lin = problem.global_risk_quadratic()
    g, b = problem.constraints.g_global, problem.constraints.offset
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        a = hess + 2.0 * eta * g.T @ g
        rhs = lin + 2.0 * eta * g.T @ b
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise ConfigError(f"eta {eta!r} is too large: the penalized Hessian overflows")
    if float(np.linalg.eigvalsh(a)[0]) <= MIN_EIG:
        raise SingularSystem(f"penalized Hessian is not positive definite at eta {eta!r}")
    w = np.linalg.solve(a, rhs)
    # checked against the per-agent oracles and the flat constraint rows, not
    # the (H, G) the solve used, relative to the gradient at w = 0, which is -rhs;
    # hypot scales its arguments: a huge eta does not overflow the norms
    if math.hypot(*problem.global_gradient(w, eta)) > STATIONARITY_TOL * (1.0 + math.hypot(*rhs)):
        raise SimulationError("penalized optimum failed its stationarity check")
    return w


def constrained_optimum(problem: MultiAgentProblem) -> np.ndarray:
    """Solution of the equality-constrained quadratic program via its KKT
    system; without constraints that system is H w = f, and its solution
    the penalized optimum at eta 0."""
    g, b = problem.constraints.g_global, problem.constraints.offset
    hess, lin = problem.global_risk_quadratic()
    m, p = hess.shape[0], b.size
    kkt = np.zeros((m + p, m + p))
    kkt[:m, :m] = hess
    kkt[:m, m:] = g.T
    kkt[m:, :m] = g
    rhs = np.concatenate([lin, b])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            raise InfeasibleConstraints("KKT system is inconsistent") from None
        raise SingularSystem("KKT system is singular") from None
    w, lam = sol[:m], sol[m:]
    if np.linalg.norm(g @ w - b) > FEASIBILITY_TOL * (1.0 + np.linalg.norm(b)):
        raise InfeasibleConstraints("solution violates the constraints")
    if np.linalg.norm(hess @ w - lin + g.T @ lam) > STATIONARITY_TOL * (1.0 + np.linalg.norm(lin)):
        raise SingularSystem("KKT stationarity check failed")
    return w


def reference_solution(problem: MultiAgentProblem, eta: float) -> ReferenceSolution:
    """Both reference optima for a problem, for metric logging: the penalized
    one in closed form and the constrained one from its KKT system. Without
    constraints the penalty is void and w_o is w_star."""
    w_star = penalized_optimum(problem, eta)
    w_o = constrained_optimum(problem) if problem.constraints.offset.size else w_star
    return ReferenceSolution(w_star=w_star, w_o=w_o)


# `MetricsLog` takes the disagreement of a window of records in one call:
# as many records as fit in METRIC_WINDOW_BYTES, but at least one, so its
# window buffer holds at most max(METRIC_WINDOW_BYTES, the bytes of one
# record's state).
METRIC_WINDOW_BYTES = 32 * 1024


class MetricsLog:
    """Metric records of a batch of runs, one column per (point, seed).

    `record` takes the local copies of all columns and the references in
    the engine's state layout, (n_flat, P S), as `ClusterMap.columns` lays
    them out, or one column that serves all, as w_o, which no eta moves.
    MSD is the cluster-averaged squared deviation, sum over blocks l of
    (1/N_l) sum over the cluster of ||ref^l - w_k^l||^2: one weighted sum
    over flat entries, weight 1/N_l for a copy of block l, against the
    column's reference. It is taken at each record; when `w_o` is `w_star`
    itself, the MSD to it is that same value. Disagreement is kept for the
    worst block only, the one the CSV reports. It is taken per window of
    records: each record's state is copied into an (n_flat, K, C) buffer,
    and a full window is one `disagreement` call on its (n_flat, K C)
    columns, whose values are those of each record alone, bit for bit,
    since every column's Gram product is its own. The last, partial window
    is taken when a series is read.
    """

    def __init__(self, cmap: ClusterMap):
        self.cmap = cmap
        self._weight = cmap.inverse_cluster_sizes()
        self.iterations = []
        self._msd_star, self._msd_o, self._disagreement_max = [], [], []
        self._window = None  # (n_flat, K, C), allocated at the first record
        self._pending = 0  # records in the window whose disagreement is still to take

    def _msd(self, w: np.ndarray, reference: np.ndarray) -> np.ndarray:
        err = w - reference
        return (err * err).T @ self._weight

    def record(self, iteration: int, w: np.ndarray, w_star: np.ndarray, w_o: np.ndarray):
        self.iterations.append(iteration)
        msd_star = self._msd(w, w_star)
        self._msd_star.append(msd_star)
        self._msd_o.append(msd_star if w_o is w_star else self._msd(w, w_o))
        if len(self.iterations) == 1:  # the window length is fixed at the first record
            records = max(1, METRIC_WINDOW_BYTES // w.nbytes)
            self._window = np.empty((w.shape[0], records, w.shape[1]))
        self._window[:, self._pending] = w
        self._pending += 1
        if self._pending == self._window.shape[1]:
            self._take_window()

    def _take_window(self):
        """Disagreement of the records in the window, in one call."""
        n_flat, _, columns = self._window.shape
        states = self._window[:, :self._pending].reshape(n_flat, self._pending * columns)
        worst = disagreement(states, self.cmap).max(axis=-1)
        self._disagreement_max.extend(worst.reshape(self._pending, columns))
        self._pending = 0

    @property
    def msd_star(self) -> np.ndarray:
        """(records, columns) MSD to the penalized optimum."""
        return np.array(self._msd_star)

    @property
    def msd_o(self) -> np.ndarray:
        """(records, columns) MSD to the constrained optimum."""
        return np.array(self._msd_o)

    @property
    def disagreement_max(self) -> np.ndarray:
        """(records, columns) disagreement of the worst block."""
        if self._pending:
            self._take_window()
        return np.array(self._disagreement_max)


def empirical_rate(msd_values, window: Optional[slice] = None) -> float:
    """Per-iteration contraction factor fitted to log(MSD) by least squares.

    The sequence must be strictly decreasing over the window; intended
    for noise-free runs.
    """
    values = np.asarray(msd_values, dtype=float)
    if window is not None:
        values = values[window]
    if values.shape[0] < 3:
        raise WindowTooShort(f"need at least 3 points, got {values.shape[0]}")
    if np.any(np.diff(values) >= 0):
        raise NonDecreasingMSD("MSD is not strictly decreasing over the window")
    idx = np.arange(values.shape[0])
    slope = np.polyfit(idx, np.log(values), 1)[0]
    return float(np.exp(slope))
