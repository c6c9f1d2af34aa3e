"""Command line entry point.

    coupled-diffusion run --config cfg.yaml [--out DIR] [--seeds 0,1,2]
                          [--scenario ID] [--mu 0.002,0.001] [--eta 100]
                          [--iters 2000]

Exit code 0 on success; on failure a single machine-readable line
`error: {...json...}` goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import yaml

from .errors import ConfigError, SimulationError
from .harness import config_from_dict, emit_results, run_scenario


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors, so that they reach the one-line error report."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _parse_args(argv):
    parser = _Parser(prog="coupled-diffusion")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario described by a config file")
    run.add_argument("--config", required=True, help="YAML config file")
    run.add_argument("--out", default=".", help="output directory for CSV results")
    run.add_argument("--seeds", help="comma-separated seed list override")
    run.add_argument("--scenario", help="scenario id override")
    run.add_argument("--mu", help="comma-separated step-size list override")
    run.add_argument("--eta", help="comma-separated penalty list override")
    run.add_argument("--iters", help="iteration budget override")
    return parser.parse_args(argv)


def _overrides(args) -> dict:
    """The ScenarioConfig fields that the override flags set; a flag given
    at all, even as an empty string, overrides the config file."""
    fields = {}
    if args.scenario is not None:
        fields["scenario"] = args.scenario
    for flag, name, parse in (("seeds", "seeds", int), ("mu", "mu_list", float),
                              ("eta", "eta_list", float)):
        text = getattr(args, flag)
        if text is not None:
            fields[name] = [_parse(flag, parse, v) for v in text.split(",")]
    if args.iters is not None:
        fields["iterations"] = _parse("iters", int, args.iters)
    return fields


def _parse(flag: str, parse, text: str):
    """`text` as an int or a float, or a ConfigError that names the flag."""
    try:
        return parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ConfigError(f"--{flag}: {text!r} is not {kind}") from None


def main(argv=None) -> int:
    try:
        args = _parse_args(argv if argv is not None else sys.argv[1:])
        raw = yaml.safe_load(Path(args.config).read_text()) or {}
        # the file must be a valid config on its own; replace re-runs every check
        cfg = dataclasses.replace(config_from_dict(raw), **_overrides(args))
        table = run_scenario(cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"{cfg.scenario}.csv"
        emit_results(table, out_path)
        print(out_path)
        return 0
    except (argparse.ArgumentError, SimulationError, OSError, yaml.YAMLError, ValueError,
            MemoryError) as exc:
        # numpy raises a private MemoryError subclass for an allocation it refuses
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print("error: " + json.dumps({"type": kind, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
