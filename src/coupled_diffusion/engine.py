"""The batched engine: coupled diffusion and its two baselines.

A run is synchronous: within one iteration every agent finishes both
gradient half-steps before any combination happens. Agents own separate
counter-based RNG streams keyed by (seed, agent), so an iteration's
variates do not depend on the order in which agents or seeds are
processed.

Each algorithm is written once, in network form (`init_batch`): one
state of local copies in the flat layout, (n_flat, P S), advances every
(mu, eta, seed) of a grid at once, one column per grid point and seed,
and every iteration is a fixed handful of array operations whatever the
number of agents, points or seeds. The metrics read that state as it is
stored. Coupled diffusion derives its step scalings 1/r_l(k) from the
combination weights. The grid points differ only in their step vectors;
they share the draws of each seed, so one noise refill serves all of
them. The centralized baseline runs on local copies too and keeps
every copy of a block at the global value. The per-agent form that
follows the equations agent by agent lives in `tests/reference.py`,
which the tests hold this engine to draw for draw.

Divergence is reported as if the grid points ran one after another:
the error names the first point in grid order that diverges, with its
first non-finite iteration, agent and seed (`_Batch.step`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteIterate
from .objective import MultiAgentProblem, row_penalty_gradient
from .topology import ClusterMap
from .weights import step_scaling

DIVERGENCE_NORM = 1e9
ALGORITHMS = ("coupled", "centralized", "admm")
NOISE_MODES = ("stochastic", "exact")


@dataclass
class EngineConfig:
    mu: float
    eta: float = 0.0
    iterations: int = 1
    noise: str = "stochastic"  # "stochastic" | "exact"
    algorithm: str = "coupled"  # "coupled" | "centralized" | "admm"
    rho_admm: float = 1.0

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise ConfigError("step size mu must be positive and finite")
        if not 0 <= self.eta < np.inf:
            raise ConfigError("eta must be non-negative and finite")
        if not 0 < self.rho_admm < np.inf:
            raise ConfigError("rho_admm must be positive and finite")
        if not 1 <= self.iterations < 2**63:  # the int64 range, as for seeds
            raise ConfigError("iteration budget must lie in [1, 2**63)")
        if self.noise not in NOISE_MODES:
            raise ConfigError(f"unknown noise mode {self.noise!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "admm" and self.eta != 0.0:  # admm has no penalty half-step
            raise ConfigError("algorithm admm does not support penalties; use eta 0")
        if self.algorithm != "admm" and self.rho_admm != 1.0:  # only the default passes
            raise ConfigError(f"rho_admm {self.rho_admm!r} applies only to the admm algorithm; "
                              f"algorithm {self.algorithm!r} has no dual step")


def agent_streams(seed: int, agent_count: int) -> list:
    """Independent counter-based generators keyed by (seed, agent).

    Philox streams make runs reproducible and pairable: agent k's draw
    history depends only on (seed, k), and every iteration consumes a
    fixed draw budget, so iteration i always sees the same variates no
    matter which recursion form consumes them.
    """
    return [
        np.random.Generator(np.random.Philox(key=[int(seed), int(agent)]))
        for agent in range(agent_count)
    ]


# Pre-drawn noise per refill, all seeds and agents together. A chunk covers
# as many iterations as fit in NOISE_CHUNK_BYTES, but at least
# NOISE_CHUNK_MIN_ITERATIONS (or the iterations left, if fewer): a refill
# makes S*N per-stream draws whatever its length, so the floor keeps that
# cost per iteration small however many seeds and agents share the budget.
# The chunk length T is max(NOISE_CHUNK_MIN_ITERATIONS, NOISE_CHUNK_BYTES //
# (8 S sum_k (R_k + 1))), and the buffer, laid out as the windows read it,
# holds 8 T N (R + 1) S bytes, R = max_k R_k. It is allocated with the
# engine and every refill writes a prefix of it.
NOISE_CHUNK_BYTES = 256 * 1024
NOISE_CHUNK_MIN_ITERATIONS = 32
# The regressors and targets of a window of iterations within one chunk are
# formed together. A window covers as many of the chunk's iterations as fit
# in RISK_WINDOW_BYTES, but at least one, so its buffers hold at most
# max(RISK_WINDOW_BYTES, the bytes of one iteration). They are allocated
# with the engine, as long as the first window, the longest, and later
# windows write a prefix of them; a window's draws are a slice of the
# noise buffer.
RISK_WINDOW_BYTES = 256 * 1024


class _RiskGradients:
    """Every agent's stochastic risk gradient for every column, in a few array operations.

    Agent k's quadratic oracle acts on its Q_k flat coordinates through its
    (Q_k, R_k) scaled basis; the zero basis rows of a bridge agent's added
    blocks give zero gradient entries there. The factors come zero-padded
    in an (N, Q, R) tensor with Q = max Q_k and R = max R_k, so padded
    cells add nothing (`MultiAgentProblem.oracle_stack`, which also
    rejects any oracle but a quadratic one). It
    pre-draws each (seed, agent) stream's R_k + 1 normals per iteration
    in chunks: one draw of T (R_k + 1) values equals T successive draws
    of R_k + 1, so iteration i sees the variates the per-agent reference
    would. The draws are kept once per seed, (T, N, R + 1, S), and
    broadcast over the P grid points, whose columns come point-major
    (p S + s): every point reads its seed's variates. Agent k's feature
    draws fill columns 0..R_k - 1 of its cells and its noise draw column
    R_k; the cells past them stay zero, and columns R_k..R - 1 meet zero
    factor columns, so they add nothing.

    A sample's regressor h_k = F_k u_k and target y_k = w_ref_k' h_k +
    sigma_k v_k do not depend on the state, so `_products` forms them for a
    window of iterations at once, iteration-major: each iteration's
    products have the shapes, and so the bits, of a product for that
    iteration alone. An iteration then only takes the inner products h_k'z_k
    and scales each agent's flat regressor entries by 2 (h_k'z_k - y_k).
    """

    def __init__(self, problem: MultiAgentProblem, seeds, cfg: EngineConfig):
        stack = problem.oracle_stack()
        n, width = stack.valid.shape
        # padded cells gather flat entry 0, which meets a zero factor row
        self.gather = stack.gather
        self.factor = stack.scaled_basis
        self.w_ref = stack.w_ref.reshape(n, width, 1)
        depth, n_seeds = self.factor.shape[2], len(seeds)
        self.per_iteration = (stack.ranks + 1).tolist()  # normals each agent draws per iteration
        # agent k's noise draw, column R_k: cell k (R + 1) + R_k of an
        # iteration's draws raveled from (N, R + 1, S) to (N (R + 1), S)
        self.noise_cells = np.arange(n) * (depth + 1) + stack.ranks
        self.owner = problem.cmap.flat_agents
        self.noise_std = stack.noise_std.reshape(n, 1)
        self.streams = [agent_streams(seed, n) for seed in seeds]
        self.chunk = max(NOISE_CHUNK_MIN_ITERATIONS,
                         NOISE_CHUNK_BYTES // (8 * n_seeds * sum(self.per_iteration)))
        self.left = cfg.iterations
        self.used = self.length = 0
        # the first chunk is the longest; its padded cells stay zero
        first = min(self.chunk, cfg.iterations)
        self.buffer = np.zeros((first, n, depth + 1, n_seeds))
        # (n_flat, S): entry (e, s) of the state's layout reads cell
        # (valid_e, s) of an iteration's regressors, raveled from (N Q, S);
        # the valid cells, in row-major order, are the flat layout itself
        valid = np.flatnonzero(stack.valid)
        self.spread = valid[:, None] * n_seeds + np.arange(n_seeds)
        # one iteration's window bytes: padded regressors, targets and the
        # regressors in the state's layout
        step_bytes = 8 * ((n * width + n) * n_seeds + self.spread.size)
        self.window = max(1, RISK_WINDOW_BYTES // step_bytes)
        self.formed = self.next = 0  # iterations in the current window, and the next one's place
        longest = min(self.window, first)
        self.regressors = np.empty((longest, n, width, n_seeds))
        self.targets = np.empty((longest, n, n_seeds))
        self.flat_regressors = np.empty((longest,) + self.spread.shape)

    def _refill(self):
        t = min(self.chunk, max(self.left, 1))
        self.left -= t
        for s, streams in enumerate(self.streams):
            for k, (rng, draws) in enumerate(zip(streams, self.per_iteration)):
                self.buffer[:t, k, :draws, s] = rng.standard_normal((t, draws))
        self.used, self.length = 0, t

    def _products(self):
        """Regressors and targets of the chunk's next window of iterations:
        `regressors` (W, N, Q, S), `targets` (W, N, S), and the regressors
        in the state's layout, `flat_regressors` (W, n_flat, S)."""
        w = min(self.window, self.length - self.used)
        draws = self.buffer[self.used:self.used + w]  # (W, N, R + 1, S)
        h, y = self.regressors[:w], self.targets[:w]
        np.matmul(self.factor, draws[:, :, :-1], out=h)
        np.matmul(self.w_ref.transpose(0, 2, 1), h, out=y[:, :, None])
        noise = draws.reshape(w, -1, draws.shape[-1]).take(self.noise_cells, axis=1)
        noise *= self.noise_std
        y += noise
        h.reshape(w, -1).take(self.spread, axis=1, out=self.flat_regressors[:w], mode="clip")
        self.used += w
        self.formed, self.next = w, 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Gradients at the points x, (n_flat, P S) in and out."""
        # take copies whole rows: x[self.gather] gives the same array several times slower
        z = x.take(self.gather, axis=0)
        if self.next == self.formed:
            if self.used == self.length:
                self._refill()
            self._products()
        i, self.next = self.next, self.next + 1
        h = self.regressors[i]
        z = z.reshape(z.shape[:2] + (-1, h.shape[-1]))  # (N, Q, P, S)
        inner = np.einsum("kips,kis->kps", z, h)
        g = (2.0 * (inner - self.targets[i][:, None])).take(self.owner, axis=0)
        g *= self.flat_regressors[i][:, None]  # (n_flat, P, S): each point's seeds
        return g.reshape(x.shape)


class _ClusterMix:
    """x -> A_l' x^l for every block l at once, (n_flat, S) in and out.

    Clusters are padded to the largest cluster and block
    (`ClusterMap.padded_cluster_indices`), so one batched product
    (L, N, N) @ (L, N, M S) does every block; the padded rows and columns
    of the matrices are zero and each flat entry reads its own output cell
    (`ClusterMap.padded_slot`). `values` fills the member cells of the
    stack of the A_l' in row-major order; a scalar fills them all.
    """

    def __init__(self, cmap: ClusterMap, values):
        self.gather, self.slot = cmap.padded_cluster_indices, cmap.padded_slot
        members = cmap.padded_real[:, :, 0]
        pairs = members[:, :, None] & members[:, None, :]
        self.mats = np.zeros(pairs.shape)
        self.mats[pairs] = values

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n_blocks, n_max, _ = self.gather.shape
        mixed = self.mats @ x.take(self.gather, axis=0).reshape(n_blocks, n_max, -1)
        return mixed.reshape(-1, x.shape[1]).take(self.slot, axis=0)


class _Batch:
    """Common part of the batched engines: set-up, the divergence check,
    and the `step` / `set_constraints` interface.

    The state `w` holds the local copies in the flat layout, (n_flat, P S),
    the one layout that the engine, the divergence check and the metrics
    (`metrics.MetricsLog`) all read: column p S + s is grid point p's run
    of seed s, so each point's seeds form one contiguous slice, and each
    agent's coordinates are contiguous across columns for the batched
    matrix products. Every operation acts on each column on its own, so a
    column that diverges leaves the others as they would be in a run
    without it.
    """

    def __init__(self, problem: MultiAgentProblem, cfgs, seeds):
        self.cfgs = cfgs
        self.cmap = problem.cmap
        self.seeds = tuple(seeds)
        self.iteration = 0
        self._diverged = {}  # grid point -> its first NonFiniteIterate
        self.set_constraints(problem)
        if cfgs[0].noise == "exact":
            self._risk = problem.oracle_stack().true_gradient
        else:
            self._risk = _RiskGradients(problem, self.seeds, cfgs[0])

    def _columns(self, per_point) -> np.ndarray:
        """(1, P S): each point's value in each of its seed columns."""
        return np.repeat(np.asarray(per_point, dtype=float), len(self.seeds))[None, :]

    def _start(self, init_global) -> np.ndarray:
        """Initial (n_flat, P S) state: zeros, or every copy gathered from
        the point's init_global, for every seed."""
        start = 0.0 if init_global is None else np.asarray(init_global, dtype=float)
        starts = np.broadcast_to(start, (len(self.cfgs), self.cmap.layout.total_dim))
        return self.cmap.columns(starts, len(self.seeds))

    def set_constraints(self, problem: MultiAgentProblem):
        """Swap in the constraints of `problem` (same network and oracles)
        for every column: their rows on the flat layout (G, b), or None when
        every eta is 0. No rows give a zero penalty step, bitwise as eta 0 does."""
        rows = problem.constraints
        eta = any(cfg.eta != 0.0 for cfg in self.cfgs)
        self._rows = (rows.g_flat, rows.offset[:, None]) if eta else None

    def _advance(self):
        raise NotImplementedError

    def step(self):
        """One iteration of every column.

        A grid point whose columns leave the DIVERGENCE_NORM box has its
        first such iteration, agent and seed kept as a NonFiniteIterate.
        Point 0's is raised at once. Otherwise the lowest diverged
        point's is raised at the end of the iteration budget, since a
        lower point may diverge until then. That is the error that
        running the points one after another, in order, would raise.
        """
        self._advance()
        self.iteration += 1
        size = np.abs(self.w)
        if not size.max() <= DIVERGENCE_NORM:  # also catches NaN
            self._note_divergence(~(size <= DIVERGENCE_NORM))
        if self._diverged and (0 in self._diverged or self.iteration >= self.cfgs[0].iterations):
            raise self._diverged[min(self._diverged)]

    def _note_divergence(self, bad: np.ndarray):
        n_seeds = len(self.seeds)
        for p in range(len(self.cfgs)):
            cols = bad[:, p * n_seeds:(p + 1) * n_seeds]
            if p in self._diverged or not cols.any():
                continue
            seed, entry = np.argwhere(cols.T)[0]  # the lowest seed first
            agent = int(self.cmap.flat_agents[entry])
            self._diverged[p] = NonFiniteIterate(
                self.iteration, agent,
                f"non-finite iterate at iteration {self.iteration}, agent {agent}, "
                f"seed {self.seeds[seed]}",
            )


class CoupledBatch(_Batch):
    """Coupled diffusion: penalty step, risk step, per-block combination."""

    def __init__(self, problem, weights, cfgs, seeds, init_global=None):
        super().__init__(problem, cfgs, seeds)
        self._mix = _ClusterMix(self.cmap, np.concatenate(
            [weights[l].matrix.T.ravel() for l in range(self.cmap.layout.block_count)]))
        scaling = step_scaling(self.cmap, weights)
        self._risk_step = scaling[:, None] * self._columns([c.mu for c in cfgs])
        self._penalty_step = scaling[:, None] * self._columns([c.mu * c.eta for c in cfgs])
        self.w = self._start(init_global)

    def _advance(self):
        zeta = self.w
        if self._rows is not None:
            zeta = zeta - self._penalty_step * row_penalty_gradient(self._rows, zeta)
        self.w = self._mix(zeta - self._risk_step * self._risk(zeta))


class AdmmBatch(_Batch):
    """Gradient-linearized consensus; the cluster mean is the combination
    with weights 1/N_l, and z is kept as every member's copy of it."""

    def __init__(self, problem, weights, cfgs, seeds, init_global=None):
        super().__init__(problem, cfgs, seeds)
        sizes = np.array([len(c) for c in self.cmap.clusters])
        self._mean = _ClusterMix(self.cmap, np.repeat(1.0 / sizes, sizes * sizes))
        self._mu = self._columns([c.mu for c in cfgs])
        self.w = self._start(init_global)
        self.z = self.w.copy()
        if init_global is None:
            self.y = np.zeros_like(self.w)
        else:  # warm start: y_k = -grad J_k(w_k), z = init_global
            self.y = -problem.oracle_stack().true_gradient(self.w)

    def _advance(self):
        rho = self.cfgs[0].rho_admm
        w = self.w
        w_new = w - self._mu * (self._risk(w) + self.y + rho * (w - self.z))
        self.z = self._mean(w_new + self.y / rho)
        self.y = self.y + rho * (w_new - self.z)
        self.w = w_new


class CentralizedBatch(_Batch):
    """Centralized incremental steps on the global vector with D = 1/N_l
    per block, run on local copies: every copy of a block holds the global
    value, because the agents' flat penalty and risk gradients are summed
    over each cluster and the sum is applied to every copy."""

    def __init__(self, problem, weights, cfgs, seeds, init_global=None):
        super().__init__(problem, cfgs, seeds)
        d_vec = self.cmap.inverse_cluster_sizes()[:, None]
        self._risk_step = d_vec * self._columns([c.mu for c in cfgs])
        self._penalty_step = d_vec * self._columns([c.mu * c.eta for c in cfgs])
        self._sum = _ClusterMix(self.cmap, 1.0)
        self.w = self._start(init_global)

    def _advance(self):
        psi = self.w
        if self._rows is not None:
            psi = psi - self._penalty_step * self._sum(row_penalty_gradient(self._rows, psi))
        self.w = psi - self._risk_step * self._sum(self._risk(psi))


_BATCHES = {"coupled": CoupledBatch, "admm": AdmmBatch, "centralized": CentralizedBatch}


def init_batch(problem: MultiAgentProblem, weights, cfgs, seeds, init_global=None) -> _Batch:
    """Batched engine for a grid of (mu, eta) points over all `seeds` at once.

    `cfgs` is one EngineConfig, a grid of one, or a sequence of them that
    differ only in `mu` and `eta`; anything else is a ConfigError. Every
    point runs every seed, in column p S + s, and seed s draws from
    `agent_streams(s, N)` for every point, as the per-agent reference in
    the tests does. `weights` maps each block to its CombinationMatrix;
    coupled diffusion reads its step scalings 1/r_l(k) off them
    (`weights.step_scaling`). Local copies start at zero
    or gathered from `init_global`: one global vector for every point,
    or a (P, dim) array of one per point. An admm warm start also sets
    each dual y_k to -grad J_k(w_k), the exact gradient at the start, so
    that an exact-gradient run started at a stationary point stays there.
    """
    cfgs = (cfgs,) if isinstance(cfgs, EngineConfig) else tuple(cfgs)
    if not cfgs:
        raise ConfigError("a grid needs at least one engine config")
    for cfg in cfgs:
        if dataclasses.replace(cfg, mu=cfgs[0].mu, eta=cfgs[0].eta) != cfgs[0]:
            raise ConfigError("the engine configs of one grid may differ only in mu and eta")
    return _BATCHES[cfgs[0].algorithm](problem, weights, cfgs, seeds, init_global)


def suggest_step_size(nu: float, delta: float, delta_p: float = 0.0,
                      eta: float = 0.0, n_agents: int = 1) -> float:
    """Conservative upper bound 1 / (nu + N (delta + eta delta_p)).

    Callers typically run at a fraction of the returned value.
    """
    return 1.0 / (nu + n_agents * (delta + eta * delta_p))
