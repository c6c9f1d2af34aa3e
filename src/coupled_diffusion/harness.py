"""Scenario orchestration: configs, problem generation, runs, CSV output.

Runs are deterministic functions of (config, seeds). A scenario run builds
the topology -> weights -> objective -> engine pipeline, executes one
batched run that advances every (mu, eta, seed) of the grid at once, and
slices its log into a result table, point by point in grid order, with
seed-mean rows marked "mean". Grid points share the draws of each seed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .engine import EngineConfig, init_batch
from .errors import ConfigError, SingularSystem
from .metrics import MetricsLog, db, reference_solution
from .objective import (
    MultiAgentProblem,
    PenaltyConfig,
    equality,
    random_quadratic_oracles,
)
from .topology import BlockLayout, NetworkSpec, build_clusters, embed_clusters
from .weights import averaging_weights, metropolis_weights

SCENARIOS = ("unconstrained", "constrained", "tracking", "sweep", "custom")
WEIGHT_RULES = ("metropolis", "averaging")
SEED_LIMIT = 2**63  # seeds become Philox keys, read as signed 64-bit integers
BUILTIN_NETWORKS = ("benchmark20", "example5")

# sub-stream tags so problem data, constraints, and engine noise never collide
_PROBLEM_TAG = 0x5EED
_CONSTRAINT_TAG = 0xC0DE


@dataclass(frozen=True)
class NetworkDescription:
    """A loaded topology plus optional constraint-owner metadata."""

    net: NetworkSpec
    layout: BlockLayout
    constraint_owners: Optional[tuple[int, ...]] = None


def load_network(source: str, block_dims=None) -> NetworkDescription:
    """Load a built-in network by name or a JSON file by path.

    Files may be 0- or 1-indexed (`index_base`); agents and blocks are
    normalized to 0-based on load. `block_dims` overrides the file's
    block sizes.
    """
    if source in BUILTIN_NETWORKS:
        raw = json.loads(
            resources.files("coupled_diffusion.data").joinpath(f"{source}.json").read_text()
        )
    else:
        raw = json.loads(Path(source).read_text())
    if not isinstance(raw, dict):
        raise ConfigError(f"network {source}: expected a JSON object")
    required = ("agent_count", "edges", "interest_sets") + (() if block_dims else ("block_dims",))
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"network {source}: missing {', '.join(missing)}")
    base = _integer(raw.get("index_base", 0), "index_base")
    if base not in (0, 1):
        raise ConfigError(f"index_base must be 0 or 1, got {base}")
    edges = _integer_lists(raw["edges"], "edges")
    if set(map(len, edges)) - {2}:
        raise ConfigError("network edges must be [agent, agent] pairs")
    interest = _integer_lists(raw["interest_sets"], "interest_sets")
    if base:
        edges = tuple((a - base, b - base) for a, b in edges)
        interest = tuple(tuple(l - base for l in s) for s in interest)
    net = NetworkSpec(agent_count=_integer(raw["agent_count"], "agent_count"),
                      edges=frozenset(edges), interest_sets=interest)
    dims = tuple(block_dims) if block_dims else _integers(raw["block_dims"], "block_dims")
    layout = BlockLayout(dims)  # checks the dims before the owners are counted against them
    owners = raw.get("constraint_owners")
    if owners is not None:
        owners = tuple(o - base for o in _integers(owners, "constraint_owners"))
        if len(owners) != len(dims) or not all(0 <= o < net.agent_count for o in owners):
            raise ConfigError(
                f"constraint_owners must name one agent in [{base}, {net.agent_count + base}) "
                f"per block ({len(dims)} blocks), got {[o + base for o in owners]}")
    return NetworkDescription(net=net, layout=layout, constraint_owners=owners)


def _integer(value, name: str) -> int:
    """`value` as an int; anything without an integral value is a ConfigError."""
    try:
        # is_integer, not float(value) == int(value): an int above 2**53 has no exact float
        if isinstance(value, bool) or not float(value).is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _real(value, name: str) -> float:
    """`value` as a finite float, or a ConfigError."""
    try:
        if isinstance(value, bool) or not np.isfinite(float(value)):
            raise ValueError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a finite number, got {value!r}") from None


def _integers(value, name: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    if _plain_ints(value):
        return tuple(value)
    return tuple(_integer(v, name) for v in value)


def _integer_lists(value, name: str) -> tuple[tuple[int, ...], ...]:
    """A list of lists of integers, such as edges or interest sets."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of lists of integers, got {value!r}")
    if set(map(type, value)) <= {list, tuple} and _plain_ints(list(chain.from_iterable(value))):
        return tuple(map(tuple, value))
    return tuple(_integers(v, name) for v in value)


def _plain_ints(values) -> bool:
    """Whether every value is an int of int64 range, not a bool: `_integer`
    returns such a value as it is. JSON integers, the usual content of a
    network file, pass in one pass; any other list is checked value by
    value, and its error names the first value that is not an integer."""
    return set(map(type, values)) <= {int} and (
        not values or (-2**63 <= min(values) and max(values) < 2**63))


def _as_list(value) -> tuple:
    """A list value as a tuple; a single value is a list of one."""
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


@dataclass
class ScenarioConfig:
    scenario: str
    network: str = "benchmark20"
    block_dims: Optional[tuple[int, ...]] = None
    mu_list: tuple[float, ...] = (0.002, 0.001)  # library defaults; configs usually override
    eta_list: tuple[float, ...] = (0.0,)
    iterations: int = 2000
    seeds: tuple[int, ...] = tuple(range(20))
    problem_seed: int = 7
    weight_rule: str = "metropolis"
    algorithm: str = "coupled"
    noise: str = "stochastic"
    rho: float = 1.0
    rho_admm: float = 1.0
    change_point: Optional[int] = None
    log_every: int = 1
    init: Optional[str] = None  # zeros | reference; sweep defaults to reference
    constrained: Optional[bool] = None

    def __post_init__(self):
        self.mu_list = tuple(_real(m, "mu") for m in _as_list(self.mu_list))
        self.eta_list = tuple(_real(e, "eta") for e in _as_list(self.eta_list))
        self.seeds = tuple(_integer(s, "seeds") for s in _as_list(self.seeds))
        self.iterations = _integer(self.iterations, "iterations")
        self.problem_seed = _integer(self.problem_seed, "problem_seed")
        self.rho = _real(self.rho, "rho")
        self.rho_admm = _real(self.rho_admm, "rho_admm")
        self.log_every = _integer(self.log_every, "log_every")
        if self.change_point is not None:
            self.change_point = _integer(self.change_point, "change_point")
        if self.block_dims is not None:  # an empty list keeps the network's own dims
            self.block_dims = _integers(self.block_dims, "block dims") or None
        if not isinstance(self.network, str):
            raise ConfigError(f"network source must be a name or a path, got {self.network!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not (self.mu_list and self.eta_list):
            raise ConfigError("mu and eta lists must be non-empty")
        for mu in self.mu_list:
            for eta in self.eta_list:
                self.engine(mu, eta)
        if not self.seeds:
            raise ConfigError("seed list must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {list(self.seeds)}")
        if not all(0 <= s < SEED_LIMIT for s in self.seeds + (self.problem_seed,)):
            raise ConfigError("seeds and problem_seed must lie in [0, 2**63)")
        if self.weight_rule not in WEIGHT_RULES:
            raise ConfigError(f"unknown weight rule {self.weight_rule!r}")
        if self.constrained is not None and not isinstance(self.constrained, bool):
            raise ConfigError(f"constrained must be true or false, got {self.constrained!r}")
        if self.scenario == "tracking" and self.change_point is None:
            raise ConfigError("tracking scenario needs a change_point")
        if self.scenario != "tracking" and self.change_point is not None:
            raise ConfigError(f"change_point applies only to the tracking scenario, "
                              f"not to {self.scenario!r}")
        if self.scenario == "tracking" and self.constrained is False:
            raise ConfigError("the tracking scenario redraws its constraints at the change "
                              "point, so it cannot run with constrained: false")
        if self.change_point is not None and not (0 < self.change_point < self.iterations):
            raise ConfigError("change_point must lie strictly inside the iteration budget")
        if self.log_every < 1:
            raise ConfigError("log_every must be at least 1")
        if self.init not in (None, "zeros", "reference"):
            raise ConfigError(f"unknown init {self.init!r}")

    def engine(self, mu: float, eta: float) -> EngineConfig:
        """The engine settings of the grid point (mu, eta); they check themselves."""
        return EngineConfig(mu=mu, eta=eta, iterations=self.iterations, noise=self.noise,
                            algorithm=self.algorithm, rho_admm=self.rho_admm)

    @property
    def uses_constraints(self) -> bool:
        if self.constrained is not None:
            return self.constrained
        return self.scenario in ("constrained", "tracking", "sweep")

    @property
    def initial(self) -> str:
        if self.init is not None:
            return self.init
        return "reference" if self.scenario == "sweep" else "zeros"


# section -> key -> ScenarioConfig field: the config-file layout. No other
# section or key is accepted, and a missing one takes the field's default.
CONFIG_KEYS = {
    "network": {"source": "network"},
    "blocks": {"dims": "block_dims"},
    "objective": {"problem_seed": "problem_seed", "constrained": "constrained"},
    "penalty": {"eta": "eta_list", "rho": "rho"},
    "engine": {"mu": "mu_list", "iterations": "iterations", "weight_rule": "weight_rule",
               "algorithm": "algorithm", "noise": "noise", "rho_admm": "rho_admm",
               "init": "init"},
    "scenario": {"id": "scenario", "seeds": "seeds", "log_every": "log_every",
                 "change_point": "change_point"},
}


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from the sectioned config-file layout; each key
    present is passed on as given, null included, for ScenarioConfig to check."""
    if not isinstance(raw, dict):
        raise ConfigError("a config holds a mapping of sections")
    unknown = sorted(str(name) for name in raw if name not in CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config section {unknown[0]!r}")
    fields = {}
    for name, keys in CONFIG_KEYS.items():  # a fixed order, so that the first error is too
        section = raw.get(name) or {}
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
        unknown = sorted(str(key) for key in section if key not in keys)
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in config section {name!r}")
        fields.update((keys[key], value) for key, value in section.items())
    if "scenario" not in fields:
        raise ConfigError("scenario section must carry an 'id'")
    return ScenarioConfig(**fields)


def _problem_rng(seed: int, tag: int):
    return np.random.Generator(np.random.Philox(key=[int(seed), int(tag)]))


def _draw_constraints(desc: NetworkDescription, cmap, rng) -> tuple:
    """One affine equality per block, owned by the designated cluster member."""
    owners = desc.constraint_owners
    if owners is None:
        owners = tuple(c[0] for c in cmap.clusters)
    per_agent = [[] for _ in range(desc.net.agent_count)]
    for l, owner in enumerate(owners):
        if l not in cmap.agent_blocks[owner]:
            raise ConfigError(f"constraint_owners: agent {owner} is not in the cluster of block {l}")
        g = rng.standard_normal(cmap.local_dims[owner])
        g /= np.linalg.norm(g)
        b = float(rng.uniform(-1.0, 1.0))
        per_agent[owner].append(equality(owner, g, b))
    return tuple(tuple(c) for c in per_agent)


def build_problem(desc: NetworkDescription, seed: int, constrained: bool = False,
                  rho: float = 1.0) -> MultiAgentProblem:
    """Assemble the streaming least-squares benchmark on a given topology.

    The true model is drawn once and normalized to unit norm; each agent
    receives a random orthogonal-basis covariance with spectrum uniform
    in [1, 3] and noise power uniform in [-30, -20] dB, drawn agent by
    agent in agent order (`objective.random_quadratic_oracles`). Disconnected
    clusters are embedded first; agents recruited as bridges contribute
    zero cost for the added blocks (zero basis rows in their oracles). The
    constrained variant adds one unit-norm affine equality per block at
    the owner. Deterministic per seed.
    """
    cmap0 = build_clusters(desc.net, desc.layout)
    net, cmap = embed_clusters(desc.net, cmap0)
    if net is not desc.net:
        desc = dataclasses.replace(desc, net=net)
    rng = _problem_rng(seed, _PROBLEM_TAG)
    model = rng.standard_normal(desc.layout.total_dim)
    model /= np.linalg.norm(model)
    local = model[cmap0.flat_global_indices]
    oracles = random_quadratic_oracles(
        [local[cmap0.flat_slice(k)] for k in range(net.agent_count)], rng)
    if cmap is not cmap0:
        # a bridge agent's own coordinates are the entries of its flat slice
        # that it held before embedding; the keys of both layouts increase
        before, after = _agent_entry_keys(cmap0), _agent_entry_keys(cmap)
        own = before[np.searchsorted(before, after).clip(max=len(before) - 1)] == after
        for k in np.flatnonzero(np.not_equal(cmap.local_dims, cmap0.local_dims)).tolist():
            oracles[k] = oracles[k].embedded(own[cmap.flat_slice(k)], cmap.local_dims[k])
    oracles = tuple(oracles)
    if constrained:
        constraints = _draw_constraints(desc, cmap, _problem_rng(seed, _CONSTRAINT_TAG))
    else:
        constraints = tuple(() for _ in range(desc.net.agent_count))
    problem = MultiAgentProblem(
        net=desc.net,
        cmap=cmap,
        oracles=oracles,
        constraints=constraints,
        penalty=PenaltyConfig(rho=rho),
        true_model=model,
    )
    nu = problem.strong_convexity()
    if nu <= 0.0:
        raise SingularSystem(f"assembled risk Hessian is not strongly convex (nu={nu:.2e})")
    return problem


def _agent_entry_keys(cmap) -> np.ndarray:
    """(agent, global index) of every flat entry as one integer,
    agent * total_dim + index; increasing along the flat layout."""
    agents = np.repeat(np.arange(len(cmap.local_dims)), cmap.local_dims)
    return agents * cmap.layout.total_dim + cmap.flat_global_indices


def regenerate_constraints(problem: MultiAgentProblem, desc: NetworkDescription,
                           seed: int, epoch: int) -> MultiAgentProblem:
    """Fresh constraint draw (sub-seeded) for tracking scenarios."""
    rng = _problem_rng(seed, _CONSTRAINT_TAG + 1 + epoch)
    return dataclasses.replace(problem, constraints=_draw_constraints(desc, problem.cmap, rng))


@dataclass
class ResultTable:
    """Rows of (scenario, mu, eta, seed, iteration, msd_db, disagreement_max, dist_wo_db)."""

    rows: list = field(default_factory=list)
    config: dict = field(default_factory=dict)


CSV_HEADER = ("scenario", "mu", "eta", "seed", "iteration", "msd_db",
              "disagreement_max", "dist_wo_db")
# rows formatted at once: the text of a chunk adds to the run's peak memory,
# about 0.2 MiB at 512 rows and none measurable at 128
CSV_CHUNK_ROWS = 128


def emit_results(table: ResultTable, path) -> None:
    """Write the result CSV plus a sidecar metadata file.

    The bytes are those of `csv.writer` with floats rendered as
    `repr(float(v))`, shortest round-trip decimals (an np.float64 too);
    identical configs therefore produce byte-identical files. Rows are
    formatted column by column, one chunk of `CSV_CHUNK_ROWS` rows at a
    time so that the text in memory stays small. Rows must be as wide as
    the header, and a field that would need quoting (a comma, a quote or
    a line break) raises ValueError instead of being written.
    """
    path = Path(path)
    rows = table.rows
    with path.open("w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            fh.write(_csv_lines(rows[start:start + CSV_CHUNK_ROWS]))
    meta = {"config": table.config, "version": __version__, "csv_header": list(CSV_HEADER)}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _csv_lines(rows) -> str:
    """The CSV text of a non-empty list of rows, each line ending in \\r\\n."""
    width = len(CSV_HEADER)
    if set(map(len, rows)) != {width}:
        raise ValueError(f"every CSV row must have {width} fields, like the header")
    columns = [_csv_fields(column) for column in zip(*rows)]
    text = "\r\n".join(map(",".join, zip(*columns))) + "\r\n"
    # csv.writer would quote a field holding a delimiter, quote or line
    # break; here each one shows as a count off the layout's own
    n = len(rows)
    if ('"' in text or text.count(",") != n * (width - 1)
            or text.count("\r") != n or text.count("\n") != n):
        raise ValueError("a CSV field holds a comma, a quote or a line break")
    return text


def _csv_fields(values) -> list:
    """csv.writer's text of one column's values: repr(float(v)) for a float,
    "" for None, str(v) for anything else."""
    types = set(map(type, values))
    if all(issubclass(t, float) for t in types):
        # repr(float(v)), without the float(); a column that holds one
        # object, like mu in a grid point's rows, is formatted once. The
        # test is identity, not equality, as -0.0 == 0.0.
        first = values[0]
        if all(v is first for v in values):
            return [float.__repr__(first)] * len(values)
        return list(map(float.__repr__, values))
    if type(None) not in types and not any(issubclass(t, float) for t in types):
        return list(map(str, values))
    return [repr(float(v)) if isinstance(v, float) else "" if v is None else str(v)
            for v in values]


def run_scenario(cfg: ScenarioConfig) -> ResultTable:
    """Run every (mu, eta, seed) combination of a scenario and merge logs.

    One batched run covers the whole grid; each grid point sees the same
    draws per seed that a run of that point alone would. The run is a
    list of epochs (first iteration, problem): every scenario starts
    with the base problem at iteration 0, and tracking adds the problem
    with redrawn constraints at its change point. Each epoch is logged
    against its own references. Rows come point by point, mu-major as in
    the config: per-seed rows followed by seed-mean rows (seed column
    "mean"); means are taken over linear MSD values and converted to dB.
    The sweep scenario emits only steady-state rows, one per seed and the
    seed mean, using the mean over the final 10% of records. If some
    point diverges, the run raises NonFiniteIterate for the first such
    point in grid order, with its first non-finite iteration, agent and
    seed (see `engine._Batch.step`).
    """
    desc = load_network(cfg.network, cfg.block_dims)
    base = build_problem(desc, cfg.problem_seed, constrained=cfg.uses_constraints, rho=cfg.rho)
    cmap = base.cmap
    make = metropolis_weights if cfg.weight_rule == "metropolis" else averaging_weights
    weights = {l: make(base.cmap, base.net, l) for l in range(len(base.cmap.clusters))}

    epochs = [(0, base)]
    if cfg.scenario == "tracking":
        epochs.append((cfg.change_point,
                       regenerate_constraints(base, desc, cfg.problem_seed, epoch=0)))
    # the references depend on eta but not on mu: one solve per epoch and
    # distinct eta, before the engine is built, so that a config both reject
    # reports the reference's error
    references = {(e, eta): reference_solution(problem, eta)
                  for eta in dict.fromkeys(cfg.eta_list)
                  for e, (_, problem) in enumerate(epochs)}

    points = [(mu, eta) for mu in cfg.mu_list for eta in cfg.eta_list]
    n_seeds = len(cfg.seeds)
    init_global = None
    if cfg.initial == "reference":
        init_global = [references[0, eta].w_star for _, eta in points]
    ends = [start for start, _ in epochs[1:]] + [cfg.iterations]
    # a diverging run stops with NonFiniteIterate; numpy's overflow warnings
    # on the way there would only add lines to the CLI's one-line error
    with np.errstate(over="ignore", invalid="ignore"):
        engine = init_batch(base, weights, [cfg.engine(mu, eta) for mu, eta in points],
                            cfg.seeds, init_global)
        log = MetricsLog(cmap)
        for e, ((start, problem), end) in enumerate(zip(epochs, ends)):
            if start > 0:  # init_batch has set the first epoch's constraints
                engine.set_constraints(problem)
            # one reference column per (point, seed), in the engine's state layout
            refs = [references[e, eta] for _, eta in points]
            w_star = cmap.columns([r.w_star for r in refs], n_seeds)
            w_o = cmap.columns([r.w_o for r in refs], n_seeds)
            for i in range(start + 1, end + 1):
                engine.step()
                if i % cfg.log_every == 0 or i == cfg.iterations:
                    log.record(i, engine.w, w_star, w_o)

    table = ResultTable(config=dataclasses.asdict(cfg))
    all_series = (log.msd_star, log.disagreement_max, log.msd_o)
    for p, (mu, eta) in enumerate(points):
        iterations = log.iterations
        series = tuple(a[:, p * n_seeds:(p + 1) * n_seeds] for a in all_series)
        if cfg.scenario == "sweep":  # one record: the steady-state tail mean
            iterations = [cfg.iterations]
            series = tuple(steady_state(a)[None] for a in series)
        _append_iteration_rows(table, cfg, mu, eta, iterations, *series)
    return table


def _append_iteration_rows(table, cfg, mu, eta, iterations, msd_star, disagreement, msd_o):
    """Rows of every seed, record by record, then the seed-mean rows; the
    series are (records, seeds) arrays in the linear domain."""
    def with_mean(a):  # (records, seeds) -> (seeds + 1, records), seed mean last
        return np.column_stack([a, a.mean(axis=1)]).T

    star = db(with_mean(msd_star)).tolist()
    dis = with_mean(disagreement).tolist()
    dist_o = db(with_mean(msd_o)).tolist()
    labels = [str(seed) for seed in cfg.seeds] + ["mean"]
    for j, label in enumerate(labels):
        table.rows.extend(
            (cfg.scenario, mu, eta, label, it, s, d, o)
            for it, s, d, o in zip(iterations, star[j], dis[j], dist_o[j])
        )


def steady_state(values):
    """Mean of the final 10% of a per-iteration series: a float for a 1-D
    series, one value per column for a (records, columns) array."""
    values = np.asarray(values, dtype=float)
    tail = max(1, int(round(0.1 * values.shape[0])))
    # each column summed on its own, contiguously, rounds like its 1-D mean
    mean = np.ascontiguousarray(values[-tail:].T).mean(-1)
    return float(mean) if values.ndim == 1 else mean
