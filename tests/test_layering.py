"""The Monte Carlo and exact-moment oracles import none of the solvers.

``slq.moments`` and ``slq.simulate`` check the controls that ``riccati``,
``bsde`` and ``strategy`` build; an oracle that imported a solver could
share its error.  The imports are read from the source with ``ast``, so
nothing is executed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "slq"


def imported_names(module: str) -> set:
    """Every module path component and name that ``slq.<module>`` imports."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


@pytest.mark.parametrize("oracle, solvers", [
    ("moments", {"riccati", "bsde", "simulate", "strategy"}),
    ("simulate", {"riccati", "bsde", "strategy"}),
])
def test_oracle_imports_no_solver(oracle, solvers):
    assert imported_names(oracle) & solvers == set()


def test_the_reader_sees_relative_imports():
    # strategy builds on the solvers, so the reader must find them there
    assert {"riccati", "bsde", "moments", "simulate"} <= imported_names("strategy")
