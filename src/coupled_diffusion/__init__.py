"""Distributed constrained stochastic optimization over multi-agent networks
with block-partitioned, partially shared parameter vectors.

The top level holds the run path: build a config, run it, write the CSV.
Everything else is imported from its submodule (`engine`, `harness`,
`metrics`, `objective`, `topology`, `weights`, `errors`).
"""

__version__ = "0.1.0"

from .harness import config_from_dict, emit_results, run_scenario
