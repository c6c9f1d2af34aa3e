"""Distributed constrained stochastic optimization over multi-agent networks
with block-partitioned, partially shared parameter vectors."""

__version__ = "0.1.0"

from . import errors
from .engine import (
    AdmmState,
    EngineConfig,
    RunState,
    admm_linearized_step,
    agent_streams,
    centralized_step,
    coupled_diffusion_step,
    init_admm_state,
    init_batch,
    init_state,
    suggest_step_size,
)
from .harness import (
    ResultTable,
    ScenarioConfig,
    build_problem,
    config_from_dict,
    emit_results,
    generate_benchmark_problem,
    load_network,
    run_scenario,
)
from .metrics import (
    MetricsLog,
    ReferenceSolution,
    centroid,
    constrained_optimum,
    disagreement,
    empirical_rate,
    msd,
    penalized_optimum,
    reference_solution,
)
from .objective import (
    ConstraintSpec,
    MultiAgentProblem,
    PenaltyConfig,
    QuadraticRiskOracle,
    ep_penalty,
    equality,
    inequality,
    ip_penalty,
    penalty_gradient,
    penalty_value,
    random_quadratic_oracle,
    true_gradient,
)
from .topology import (
    BlockLayout,
    ClusterMap,
    NetworkSpec,
    build_clusters,
    embed_clusters,
    validate_connectivity,
)
from .weights import (
    CombinationMatrix,
    StepScaling,
    averaging_weights,
    metropolis_weights,
    perron_vector,
    second_eigenvalue_magnitude,
    spectral_gap_bound,
    step_scaling,
)
