"""The library in `src/` is the run path.

Every public function and method defined in `src/` is named somewhere in
`src/`, `benchmarks/` or `scripts/` besides its definition; code that
only the tests call lives beside the reference in `tests/reference.py`.
Matching is by name: as a variable, an attribute, an import, or a part
of a dotted-name string such as "objective.penalty_gradient" (the
benchmark tracer names its call sites so). A string without a dot is
data, not a use: the kind name "equality" does not name `equality`.

Every defaulted parameter of those functions is also passed, by keyword
or by position, by some call in the same three directories: an option
that no caller sets is a constant. Calls are matched by the callee's
name, so a call through a module or an instance counts.

Matching by name cannot tell apart two definitions of one name, so a
public name defined more than once in `src/` (a method of two classes,
say) carries an entry in SHARED that says which definitions are used
where.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
KEPT = {  # public, named nowhere outside the tests, and kept on purpose
    "risk": "criterion 3 calls QuadraticRiskOracle.risk as a method; criterion bodies "
            "do not change",
    "penalized_optimum": "analysis API: criterion 7 solves w*(eta) with it",
    "constrained_optimum": "analysis API: criterion 7 solves w_o with it",
    "empirical_rate": "analysis API: criterion 4 fits its contraction factor with it",
    "spectral_gap_bound": "analysis API: criterion 4 bounds that factor with it",
}


SHARED = {  # public names defined more than once in src/, and why each one stays
    "true_gradient": "OracleStack.true_gradient is the stationarity check's; "
                     "QuadraticRiskOracle.true_gradient has no caller in src/, and is kept "
                     "because criterion 3 calls it as a method; criterion bodies do not change",
}


KEPT_DEFAULTS = {  # defaulted, set by no caller outside the tests, and kept on purpose
    "empirical_rate.window": "analysis API: criterion 4 fits over slice(10, 150)",
}


def _trees(*dirs):
    return [ast.parse(p.read_text()) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def _public_functions():
    """(definition, is a method) of every public module function, and
    method of a module class, of src/."""
    for tree in _trees("src"):
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            for f in node.body if is_class else [node]:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    yield f, is_class


def _defined() -> set:
    return {f.name for f, _ in _public_functions()}


def _named() -> set:
    names = set()
    for tree in _trees("src", "benchmarks", "scripts"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split(".") if DOTTED.fullmatch(node.value) else ())
    return names


def test_public_library_code_is_named_outside_the_tests():
    unnamed = _defined() - _named()
    assert sorted(unnamed - set(KEPT)) == [], "test-only: move it beside tests/reference.py"
    # a kept name that is gone from src/, or has found a caller, leaves the list
    assert sorted(set(KEPT) - unnamed) == []


def test_a_public_name_defined_twice_in_src_carries_its_reason():
    counts = Counter(f.name for f, _ in _public_functions())
    assert sorted(name for name, n in counts.items() if n > 1) == sorted(SHARED)


def _defaulted(f, is_method: bool) -> dict:
    """The defaulted parameters of a definition, each with its position
    in a call (None for keyword-only); a method's count from after self."""
    positional = (f.args.posonlyargs + f.args.args)[1 if is_method else 0:]
    first = len(positional) - len(f.args.defaults)
    defaulted = {a.arg: i for i, a in enumerate(positional) if i >= first}
    defaulted.update((a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                     if d is not None)
    return defaulted


def _passed() -> set:
    """(callee name, parameter name or position) of every argument passed
    by a call in src/, benchmarks/ or scripts/."""
    passed = set()
    for tree in _trees("src", "benchmarks", "scripts"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            passed.update((name, i) for i in range(len(node.args)))
            passed.update((name, k.arg) for k in node.keywords if k.arg is not None)
    return passed


def test_every_defaulted_parameter_is_passed_by_a_caller():
    passed = _passed()
    unset = {f"{f.name}.{param}" for f, is_method in _public_functions()
             for param, position in _defaulted(f, is_method).items()
             if (f.name, param) not in passed and (f.name, position) not in passed}
    assert sorted(unset - set(KEPT_DEFAULTS)) == [], "no caller sets it: make it a constant"
    # a kept parameter that is gone from src/, or has found a caller, leaves the list
    assert sorted(set(KEPT_DEFAULTS) - unset) == []
