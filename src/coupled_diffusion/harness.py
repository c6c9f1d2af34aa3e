"""Scenario orchestration: configs, problem generation, runs, CSV output.

Runs are deterministic functions of (config, seeds). A scenario run builds
the topology -> weights -> objective -> engine pipeline, executes one
batched run that advances every (mu, eta, seed) of the grid at once, and
slices its log into a result table of one block of columns per point, in
grid order, with seed-mean rows marked "mean". Grid points share the
draws of each seed.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .engine import EngineConfig, init_batch
from .errors import ConfigError
from .metrics import MetricsLog, db, penalized_optimum, reference_solution
from .objective import (
    ConstraintRows,
    MultiAgentProblem,
    PenaltyConfig,
    random_quadratic_oracles,
)
from .topology import (BlockLayout, NetworkSpec, build_clusters, check_blocks, check_edges,
                       embed_clusters)
from .weights import averaging_weights, metropolis_weights

SCENARIOS = ("unconstrained", "constrained", "tracking", "sweep")
WEIGHT_RULES = ("metropolis", "averaging")
SEED_LIMIT = 2**63  # seeds become Philox keys, read as signed 64-bit integers
BUILTIN_NETWORKS = ("benchmark20", "example5")

# sub-stream tags so problem data, constraints, and engine noise never collide
_PROBLEM_TAG = 0x5EED
_CONSTRAINT_TAG = 0xC0DE


@dataclass(frozen=True)
class NetworkDescription:
    """A loaded topology, 0-based, plus optional constraint-owner metadata."""

    net: NetworkSpec
    layout: BlockLayout
    constraint_owners: Optional[tuple[int, ...]] = None
    index_base: int = 0


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
    n, sets = _integer(raw["agent_count"], "agent_count"), interest
    if base:  # the edges checked in the file's own numbers, which an error then names
        check_edges(edges, n, base)
        edges = tuple((a - base, b - base) for a, b in edges)
        sets = tuple(tuple(l - base for l in s) for s in interest)
    net = NetworkSpec(agent_count=n, edges=frozenset(edges), interest_sets=sets)
    dims = tuple(block_dims) if block_dims else _integers(raw["block_dims"], "block_dims")
    layout = BlockLayout(dims)  # checks the dims before the owners are counted against them
    if base:  # and the blocks, once the layout counts them
        check_blocks(interest, layout.block_count, base)
    owners = raw.get("constraint_owners")
    if owners is not None:
        owners = tuple(o - base for o in _integers(owners, "constraint_owners"))
        if len(owners) != len(dims) or not all(0 <= o < net.agent_count for o in owners):
            raise ConfigError(
                f"constraint_owners must name one agent in [{base}, {net.agent_count + base}) "
                f"per block ({len(dims)} blocks), got {[o + base for o in owners]}")
    return NetworkDescription(net=net, layout=layout, constraint_owners=owners, index_base=base)


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
        if self.rho != 1.0:  # no scenario draws a row that reads it; only the default passes
            raise ConfigError(f"rho {self.rho!r} applies only to inequality constraint rows; "
                              "no scenario draws any")
        if self.weight_rule != "metropolis" and self.algorithm != "coupled":
            # the baselines read no weights; only the default rule passes
            raise ConfigError(f"weight_rule {self.weight_rule!r} applies only to the coupled "
                              f"algorithm; algorithm {self.algorithm!r} reads no weights")
        if self.scenario == "tracking" and self.change_point is None:
            raise ConfigError("tracking scenario needs a change_point")
        if self.scenario != "tracking" and self.change_point is not None:
            raise ConfigError(f"change_point applies only to the tracking scenario, "
                              f"not to {self.scenario!r}")
        if not self.uses_constraints and any(self.eta_list):
            raise ConfigError(f"eta {next(filter(None, self.eta_list))!r} applies only to a "
                              f"scenario with constraint rows; scenario {self.scenario!r} has none")
        if self.noise == "exact" and len(self.seeds) > 1:
            raise ConfigError(f"noise 'exact' draws no samples, so every seed gives the same "
                              f"rows; give one seed, got {list(self.seeds)}")
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
        return self.scenario != "unconstrained"

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
    "objective": {"problem_seed": "problem_seed"},
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


def _draw_constraints(desc: NetworkDescription, cmap, rng) -> ConstraintRows:
    """One unit-norm affine equality per block, owned by its designated cluster member."""
    owners = desc.constraint_owners
    if owners is None:
        owners = tuple(c[0] for c in cmap.clusters)
    coeffs, offsets = [], []
    for owner in owners:
        g = rng.standard_normal(cmap.local_dims[owner])
        coeffs.append(g / np.linalg.norm(g))
        offsets.append(rng.uniform(-1.0, 1.0))
    return ConstraintRows(cmap, owners, coeffs, offsets)


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
    the owner; a named owner outside its block's cluster is a ConfigError
    in either variant. Deterministic per seed. Every global coordinate is
    some agent's own, so the risk Hessian H is positive definite by
    construction: its smallest eigenvalue is at least 2 * objective.SPECTRUM_RANGE[0].
    """
    cmap0 = build_clusters(desc.net, desc.layout)
    net, cmap = embed_clusters(desc.net, cmap0)
    for l, owner in enumerate(desc.constraint_owners or ()):
        if l not in cmap.agent_blocks[owner]:
            raise ConfigError(f"constraint_owners: agent {owner + desc.index_base} is not in "
                              f"the cluster of block {l + desc.index_base}")
    rng = _problem_rng(seed, _PROBLEM_TAG)
    model = rng.standard_normal(desc.layout.total_dim)
    model /= np.linalg.norm(model)
    local = model[cmap0.flat_global_indices]
    oracles = random_quadratic_oracles(np.split(local, cmap0.agent_starts[1:]), rng)
    if cmap is not cmap0:
        # a bridge agent's own coordinates are the entries of its flat slice
        # that it held before embedding; the keys agent * total_dim + global
        # index of both layouts increase along them
        before, after = (c.flat_agents * c.layout.total_dim + c.flat_global_indices
                         for c in (cmap0, cmap))
        own = before[np.searchsorted(before, after).clip(max=len(before) - 1)] == after
        for k in np.flatnonzero(np.not_equal(cmap.local_dims, cmap0.local_dims)).tolist():
            oracles[k] = oracles[k].embedded(own[cmap.flat_slice(k)], cmap.local_dims[k])
    oracles = tuple(oracles)
    if constrained:
        constraints = _draw_constraints(desc, cmap, _problem_rng(seed, _CONSTRAINT_TAG))
    else:
        constraints = ConstraintRows(cmap, (), (), ())
    problem = MultiAgentProblem(
        net=net,
        cmap=cmap,
        oracles=oracles,
        constraints=constraints,
        penalty=PenaltyConfig(rho=rho),
        true_model=model,
    )
    # assembled here, so that the problems `regenerate_constraints` makes from
    # this one by `dataclasses.replace` copy the cache instead of each building it
    problem.global_risk_quadratic()
    return problem


def regenerate_constraints(problem: MultiAgentProblem, desc: NetworkDescription,
                           seed: int, epoch: int) -> MultiAgentProblem:
    """Fresh constraint draw (sub-seeded) for tracking scenarios."""
    rng = _problem_rng(seed, _CONSTRAINT_TAG + 1 + epoch)
    return dataclasses.replace(problem, constraints=_draw_constraints(desc, problem.cmap, rng))


@dataclass(frozen=True)
class ResultBlock:
    """One grid point's CSV rows as columns: row (j, r) is (scenario, mu,
    eta, labels[j], iterations[r], msd_db[j, r], disagreement_max[j, r],
    dist_wo_db[j, r]). The labels are the seeds' followed by "mean", and
    each series is a (labels, records) float array."""

    scenario: str
    mu: float
    eta: float
    labels: tuple
    iterations: np.ndarray
    msd_db: np.ndarray
    disagreement_max: np.ndarray
    dist_wo_db: np.ndarray


@dataclass
class ResultTable:
    """A run's results: one `ResultBlock` per grid point, in grid order, and
    the seconds of each stage of the run, with its start mark as "start"."""

    blocks: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


CSV_HEADER = ("scenario", "mu", "eta", "seed", "iteration", "msd_db",
              "disagreement_max", "dist_wo_db")
# rows formatted at once: the text of a chunk adds to the run's peak memory,
# about 0.2 MiB at 512 rows and none measurable at 128
CSV_CHUNK_ROWS = 128


def emit_results(table: ResultTable, path) -> None:
    """Write the result CSV plus a sidecar metadata file.

    The bytes are those of `csv.writer` with floats rendered as
    `repr(float(v))`, shortest round-trip decimals; identical configs
    therefore produce byte-identical files. Each block is formatted
    straight from its arrays, one label's chunk of `CSV_CHUNK_ROWS`
    records at a time so that the text in memory stays small. A block
    whose series are not (labels, records) arrays, or whose scenario or
    label would need quoting (a comma, a quote or a line break), raises
    ValueError instead of being written.
    The sidecar adds to the table's `timings` "emit", the CSV write, and
    "total", from the run's start to the CSV's last byte, in seconds.
    """
    path = Path(path)
    start = time.perf_counter()
    with path.open("w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for block in table.blocks:
            fh.writelines(_block_lines(block))
    end = time.perf_counter()
    timings = {**table.timings, "emit": end - start}
    timings["total"] = end - timings.pop("start", start)
    meta = {"config": table.config, "version": __version__, "csv_header": list(CSV_HEADER),
            "timings": timings}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _block_lines(block: ResultBlock):
    """The CSV text of a block's rows, one chunk of one label's records at
    a time, each line ending in \\r\\n. The text of the scenario, mu, eta
    and label is made once per block, and of the iterations once per
    block; a distance column that is the MSD column itself reuses its
    text."""
    shape = (len(block.labels), len(block.iterations))
    series = (block.msd_db, block.disagreement_max, block.dist_wo_db)
    if any(np.shape(a) != shape for a in series):
        raise ValueError(f"a result block's series must be {shape} arrays, one row per label")
    # csv.writer would quote these; float and int text never needs it
    if any(set(text) & set(',"\r\n') for text in (block.scenario, *block.labels)):
        raise ValueError("a CSV field holds a comma, a quote or a line break")
    head = f"{block.scenario},{float(block.mu)!r},{float(block.eta)!r},"
    its = list(map(str, block.iterations.tolist()))
    same = block.dist_wo_db is block.msd_db
    for j, label in enumerate(block.labels):
        prefix = f"{head}{label},"
        for start in range(0, shape[1], CSV_CHUNK_ROWS):
            cut = slice(start, start + CSV_CHUNK_ROWS)
            msd, dis = (list(map(float.__repr__, a[j, cut].tolist())) for a in series[:2])
            dist = msd if same else list(map(float.__repr__, block.dist_wo_db[j, cut].tolist()))
            lines = map(",".join, zip(its[cut], msd, dis, dist))
            yield prefix + ("\r\n" + prefix).join(lines) + "\r\n"


def run_scenario(cfg: ScenarioConfig) -> ResultTable:
    """Run every (mu, eta, seed) combination of a scenario and merge logs.

    One batched run covers the whole grid; each grid point sees the same
    draws per seed that a run of that point alone would. The run is a
    list of epochs (first iteration, problem): every scenario starts
    with the base problem at iteration 0, and tracking adds the problem
    with redrawn constraints at its change point. Each epoch is logged
    against its own references. The table holds one block per point,
    mu-major as in the config: per-seed rows followed by seed-mean rows
    (seed column "mean"); means are taken over linear MSD values and
    converted to dB.
    The sweep scenario emits only steady-state rows, one per seed and the
    seed mean, using the mean over the final 10% of records
    (`steady_tail`); it records only those. If some
    point diverges, the run raises NonFiniteIterate for the first such
    point in grid order, with its first non-finite iteration, agent and
    seed (see `engine._Batch.step`). The table's `timings` split the run
    at `time.perf_counter()` marks; "metrics" holds each `MetricsLog.record`
    and the reading of the log, and "build" the tracking redraw.
    """
    marks = [time.perf_counter()]
    desc = load_network(cfg.network, cfg.block_dims)
    marks.append(time.perf_counter())
    base = build_problem(desc, cfg.problem_seed, constrained=cfg.uses_constraints, rho=cfg.rho)
    epochs = [(0, base)]
    if cfg.scenario == "tracking":
        epochs.append((cfg.change_point,
                       regenerate_constraints(base, desc, cfg.problem_seed, epoch=0)))
    marks.append(time.perf_counter())
    cmap = base.cmap
    make = metropolis_weights if cfg.weight_rule == "metropolis" else averaging_weights
    weights = {l: make(base.cmap, base.net, l) for l in range(len(base.cmap.clusters))}
    marks.append(time.perf_counter())
    # w_star depends on the epoch and eta, w_o on the epoch alone: both at
    # the first eta, w_star at each further one, before the engine is built,
    # so that a config both reject reports the reference's error
    eta0 = cfg.eta_list[0]
    first = [reference_solution(problem, eta0) for _, problem in epochs]
    w_stars = {(e, eta): first[e].w_star if eta == eta0 else penalized_optimum(problem, eta)
               for eta in dict.fromkeys(cfg.eta_list) for e, (_, problem) in enumerate(epochs)}
    marks.append(time.perf_counter())

    points = [(mu, eta) for mu in cfg.mu_list for eta in cfg.eta_list]
    n_seeds = len(cfg.seeds)
    init_global = None
    if cfg.initial == "reference":
        init_global = [w_stars[0, eta] for _, eta in points]
    ends = [start for start, _ in epochs[1:]] + [cfg.iterations]
    # records fall every log_every iterations and at the last; the sweep
    # reports only the mean of its steady-state tail, so it records no
    # earlier one
    first_record = 1
    if cfg.scenario == "sweep":
        records = -(-cfg.iterations // cfg.log_every)
        first_record = min((records - steady_tail(records) + 1) * cfg.log_every, cfg.iterations)
    # a diverging run stops with NonFiniteIterate; numpy's overflow warnings
    # on the way there would only add lines to the CLI's one-line error
    with np.errstate(over="ignore", invalid="ignore"):
        engine = init_batch(base, weights, [cfg.engine(mu, eta) for mu, eta in points],
                            cfg.seeds, init_global)
        marks.append(time.perf_counter())
        log = MetricsLog(cmap)
        recording = 0.0
        for e, ((start, problem), end) in enumerate(zip(epochs, ends)):
            if start > 0:  # init_batch has set the first epoch's constraints
                engine.set_constraints(problem)
            # the state's layout: w_star per (point, seed), w_o one column for all
            w_star = cmap.columns([w_stars[e, eta] for _, eta in points], n_seeds)
            w_o = cmap.columns([first[e].w_o], 1) if cfg.uses_constraints else w_star
            for i in range(start + 1, end + 1):
                engine.step()
                if i >= first_record and (i % cfg.log_every == 0 or i == cfg.iterations):
                    mark = time.perf_counter()
                    log.record(i, engine.w, w_star, w_o)
                    recording += time.perf_counter() - mark
        marks.append(time.perf_counter() - recording)  # the records count as metrics

    msd_star = log.msd_star
    msd_o = log.msd_o if cfg.uses_constraints else msd_star
    series = (msd_star, log.disagreement_max, msd_o)
    marks.append(time.perf_counter())
    table = ResultTable(config=dataclasses.asdict(cfg))
    iterations = np.array([cfg.iterations] if cfg.scenario == "sweep" else log.iterations)
    labels = tuple(map(str, cfg.seeds)) + ("mean",)
    for p, (mu, eta) in enumerate(points):
        columns = slice(p * n_seeds, (p + 1) * n_seeds)
        table.blocks.append(_point_block(cfg, mu, eta, labels, iterations, columns, *series))
    marks.append(time.perf_counter())
    stages = ("load", "build", "weights", "reference", "init", "engine", "metrics", "table")
    table.timings = dict(zip(stages, np.diff(marks).tolist()), start=marks[0])
    return table


def _point_block(cfg, mu, eta, labels, iterations, columns, msd_star, disagreement,
                 msd_o) -> ResultBlock:
    """The block of the grid point whose seeds are `columns` of the log's
    (records, P S) series, which are in the linear domain. Each series
    gets its seed mean, taken over linear values, as a last row; the MSDs
    are then converted to dB. The sweep scenario, whose log holds only
    its steady-state tail, keeps one record: the mean of that tail. An
    `msd_o` that is `msd_star` itself shares its block array."""
    def with_mean(a):  # -> (seeds + 1, records), seed mean last
        a = a[:, columns]
        if cfg.scenario == "sweep":
            # each column summed on its own, contiguously, rounds like its 1-D mean
            a = np.ascontiguousarray(a.T).mean(-1)[None]
        return np.column_stack([a, a.mean(axis=1)]).T

    msd_db = db(with_mean(msd_star))
    dist_wo_db = msd_db if msd_o is msd_star else db(with_mean(msd_o))
    return ResultBlock(cfg.scenario, mu, eta, labels, iterations, msd_db,
                       with_mean(disagreement), dist_wo_db)


def steady_tail(records: int) -> int:
    """How many final records of a series of `records` the steady-state
    mean takes: the last 10%, and at least one."""
    return max(1, int(round(0.1 * records)))
