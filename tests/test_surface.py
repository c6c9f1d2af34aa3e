"""The library in `src/` is the run path.

Every public function and method defined in `src/` is named somewhere in
`src/`, `benchmarks/` or `scripts/` besides its definition; code that
only the tests call lives beside the reference in `tests/reference.py`.
Matching is by name: as a variable, an attribute, an import, or a part
of a dotted-name string such as "objective.penalty_gradient" (the
benchmark tracer names its call sites so). A string without a dot is
data, not a use: the kind name "equality" does not name `equality`.
"""

import ast
import re
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
    "second_eigenvalue_magnitude": "analysis API: lambda2 from the eigenvalues alone; the "
                                   "weights tests hold perron_vector's lambda2 to it",
}


def _trees(*dirs):
    return [ast.parse(p.read_text()) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def _defined() -> set:
    """The public module functions, and methods of module classes, of src/."""
    names = set()
    for tree in _trees("src"):
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            names.update(f.name for f in body
                         if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))
    return names


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
