"""Fuzzed config dicts through the CLI: each one runs or fails cleanly.

The CLI contract: a config either runs (exit 0, a CSV written) or prints
exactly one `error: {json}` line to stderr and exits 2. No input may
escape as a traceback. Configs are sectioned like the shipped YAML files,
with every key valid, missing, null, wrong-typed, non-finite or out of
range, and with a few iterations and seeds so that the valid ones run fast.
The examples are derandomized, so every run checks the same configs; a
longer search can raise `max_examples` or drop `derandomize` locally.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coupled_diffusion.cli import main as cli_main

MISSING = object()


def _fit_scenario(raw):
    """Only tracking takes a change point, only a run with constraint rows
    takes a penalty, and exact gradients take one seed."""
    if raw["scenario"]["id"] != "tracking":
        del raw["scenario"]["change_point"]
    if raw["scenario"]["id"] == "unconstrained":
        raw["penalty"]["eta"] = [0.0]
    if raw["engine"]["noise"] == "exact":
        raw["scenario"]["seeds"] = raw["scenario"]["seeds"][:1]
    return raw


# A config that runs, up to the combinations the program rejects on purpose
# (admm with a penalty, averaging weights with either baseline, a rho_admm
# other than 1 with either non-admm algorithm, a rho other than 1, which
# only inequality rows would read).
VALID = st.fixed_dictionaries({
    "network": st.fixed_dictionaries({"source": st.sampled_from(["benchmark20", "example5"])}),
    "objective": st.fixed_dictionaries({"problem_seed": st.integers(0, 9)}),
    "penalty": st.fixed_dictionaries({"eta": st.lists(st.sampled_from([0.0, 10.0]), min_size=1,
                                                      max_size=2),
                                      "rho": st.sampled_from([0.5, 1.0])}),
    "engine": st.fixed_dictionaries({
        "mu": st.lists(st.sampled_from([0.001, 0.002]), min_size=1, max_size=2),
        "iterations": st.integers(2, 4),
        "noise": st.sampled_from(["stochastic", "exact"]),
        "algorithm": st.sampled_from(["coupled", "centralized", "admm"]),
        "weight_rule": st.sampled_from(["metropolis", "averaging"]),
        "rho_admm": st.sampled_from([0.5, 1.0]),
        "init": st.sampled_from(["zeros", "reference"]),
    }),
    "scenario": st.fixed_dictionaries({
        "id": st.sampled_from(["unconstrained", "constrained", "tracking", "sweep"]),
        "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
        "log_every": st.integers(1, 2),
        "change_point": st.just(1),
    }),
}).map(_fit_scenario)

# Out-of-range values of each key; every key also gets null, wrong-typed
# and non-finite values, and may go missing. The last two entries are an
# unknown key and an unknown section.
OUT_OF_RANGE = {
    ("network", "source"): ["no-such-network.json", "."],
    ("blocks", "dims"): [[1, 1, 1, 1], [0, 2], [-1], [2, 3], [1] * 9],
    ("objective", "problem_seed"): [-1, 2**64, 2.5],
    ("penalty", "eta"): [-1.0, [0.0, -1.0], 1e300],
    ("penalty", "rho"): [0.0, -1.0],
    ("engine", "mu"): [0.0, -1.0, 5.0, 1e308, [0.001, 1e300]],
    ("engine", "iterations"): [0, -3, 2.5, 10**30],
    ("engine", "noise"): ["gaussian"],
    ("engine", "algorithm"): ["sgd"],
    ("engine", "weight_rule"): ["uniform"],
    ("engine", "rho_admm"): [0.0, -1.0],
    ("engine", "init"): ["random"],
    ("scenario", "id"): ["nope"],
    ("scenario", "seeds"): [[], [-1], [2**64], 2.5, [1, 1]],
    ("scenario", "log_every"): [0, -1],
    ("scenario", "change_point"): [0, 10**6],
    ("engine", "iteratons"): [10],
    ("solver", "tol"): [1e-6],
}
WRONG = [None, float("nan"), float("inf"), -float("inf"), True, "x", "", [], [[1]], {"a": 1}]
SECTIONS = sorted({section for section, _ in OUT_OF_RANGE})


@st.composite
def configs(draw):
    """A valid config with up to two keys or sections spoilt."""
    raw = draw(VALID)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 4)) == 0:
            raw[draw(st.sampled_from(SECTIONS))] = draw(st.sampled_from([MISSING] + WRONG))
            continue
        section, key = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        if not isinstance(raw.get(section, {}), dict):
            continue
        raw.setdefault(section, {})[key] = draw(
            st.sampled_from([MISSING] + OUT_OF_RANGE[section, key] + WRONG))
    return {name: ({k: v for k, v in section.items() if v is not MISSING}
                   if isinstance(section, dict) else section)
            for name, section in raw.items() if section is not MISSING}


@given(raw=configs())
@example(raw={"engine": {"mu": 1e308, "iterations": 2},
              "scenario": {"id": "unconstrained", "seeds": [0]}})
@example(raw={"scenario": {"id": "unconstrained", "seeds": [2**64]}, "engine": {"iterations": 2}})
@example(raw={"network": {"source": "example5"}, "objective": {"problem_seed": 0},
              "penalty": {"eta": 1e300}, "engine": {"iterations": 2},
              "scenario": {"id": "constrained", "seeds": [0]}})
@example(raw={"network": {"source": "benchmark20"}, "penalty": {"eta": [1e308]},
              "engine": {"iterations": 2}, "scenario": {"id": "constrained", "seeds": [0]}})
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_config_runs_or_fails_with_one_error_line(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli_main(["run", "--config", str(cfg), "--out", tmp])
        # outside pytest a warning is one more line on stderr
        assert [str(w.message) for w in caught] == []
        if rc == 0:
            assert Path(out.getvalue().strip()).is_file()
            assert Path(out.getvalue().strip()).suffix == ".csv"
        else:
            assert rc == 2
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            payload = json.loads(lines[0][len("error: "):])
            assert set(payload) == {"type", "message"}
